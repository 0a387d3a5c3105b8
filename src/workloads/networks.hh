/**
 * @file
 * Builders for the 11 benchmark networks of Section V-A:
 * image classification (VGG16, ResNet50, InceptionV3, InceptionV4,
 * MobileNetV1), object detection (SSD300, YoloV3, YoloV3-Tiny),
 * natural language (BERT seq-384, 2-layer LSTM), and speech
 * (4-layer bidirectional LSTM).
 *
 * Shapes follow the standard published architectures; where a paper
 * hyper-parameter is ambiguous the choice is documented inline and in
 * DESIGN.md. Each builder returns per-sample layer descriptors; batch
 * is applied by the performance model.
 */

#ifndef RAPID_WORKLOADS_NETWORKS_HH
#define RAPID_WORKLOADS_NETWORKS_HH

#include <vector>

#include "workloads/layer.hh"

namespace rapid {

Network makeVgg16();
Network makeResnet50();
Network makeInceptionV3();
Network makeInceptionV4();
Network makeMobilenetV1();

Network makeSsd300();
Network makeYolov3();
Network makeYolov3Tiny();

/** BERT-base encoder, sequence length 384. */
Network makeBert(int64_t seq_len = 384);

/** 2-layer LSTM language model (PTB large config: hidden 1500). */
Network makeLstmPtb(int64_t seq_len = 35);

/** 4-layer bidirectional LSTM acoustic model (SWB300). */
Network makeBiLstmSwb(int64_t seq_len = 300);

/**
 * Decoder-only transformer shape for the LLM serving study
 * (ROADMAP item 4). Sized so the per-layer KV working set interacts
 * visibly with the chip's corelet scratchpad capacity — these are
 * study models, not published checkpoints.
 */
struct LlmModelConfig
{
    std::string name;
    int64_t d_model = 0;
    int64_t heads = 0;
    int64_t layers = 0;
    int64_t d_ff = 0;
    int64_t vocab = 0;
    int64_t max_context = 0; ///< longest supported prompt + output

    int64_t headDim() const { return d_model / heads; }
};

/** "llm-micro" (tests) or "llm-small" (bench); fatal on others. */
LlmModelConfig llmModelByName(const std::string &name);

/**
 * Prefill pass: every prompt token through every layer as seq-length
 * GEMMs, exactly the BERT encoder shape family (causal masking does
 * not change the dense GEMM cost model).
 */
Network makeLlmPrefill(const LlmModelConfig &m, int64_t prompt_tokens);

/**
 * One decode step with @p context_tokens of KV history: per-layer
 * GEMV workloads (m == 1) for QKV projection, attention scores and
 * context against the streamed KV cache, output projection and FFN,
 * plus the LM head. The attention GEMMs' "weights" are the KV rows —
 * that is the per-token KV streaming cost.
 */
Network makeLlmDecodeStep(const LlmModelConfig &m,
                          int64_t context_tokens);

/** All 11 benchmarks in the paper's presentation order. */
std::vector<Network> allBenchmarks();

/** Build the one benchmark named @p name; fatal on unknown names. */
Network benchmarkByName(const std::string &name);

/**
 * The pruned-model variants used for the sparsity-aware throttling
 * study (Section V-D): per-layer weight sparsity profiles shaped like
 * the cited pruning results [55-58] (early layers denser, later
 * layers sparser), with the given network-average sparsity.
 */
void applySparsityProfile(Network &net, double average_sparsity);

/** The pruned benchmark set of Figure 16(b) with network averages. */
std::vector<std::pair<Network, double>> prunedBenchmarks();

} // namespace rapid

#endif // RAPID_WORKLOADS_NETWORKS_HH
