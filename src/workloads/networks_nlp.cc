/**
 * @file
 * Language and speech benchmarks: BERT-base (seq 384), the 2-layer
 * PTB LSTM, and the 4-layer bidirectional SWB300 LSTM, plus the
 * benchmark registry and pruned-model sparsity profiles.
 */

#include "workloads/networks.hh"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "workloads/net_builder.hh"

namespace rapid {

Network
makeBert(int64_t seq_len)
{
    // BERT-base: 12 layers, hidden 768, 12 heads, FFN 3072.
    const int64_t hid = 768, heads = 12, ffn = 3072;
    const int64_t head_dim = hid / heads;
    NetBuilder b("bert", "nlp", 1, 1, 1);

    b.aux("embedding", AuxKind::Embedding, seq_len * hid);
    b.aux("embed.ln", AuxKind::LayerNorm, seq_len * hid);

    for (int l = 0; l < 12; ++l) {
        const std::string p = "layer" + std::to_string(l);
        // Fused QKV projection.
        b.gemm(p + ".qkv", seq_len, hid, 3 * hid);
        // Attention scores and context, one GEMM per head.
        b.gemm(p + ".scores", seq_len, head_dim, seq_len, heads);
        b.aux(p + ".softmax", AuxKind::Softmax,
              heads * seq_len * seq_len);
        b.gemm(p + ".context", seq_len, seq_len, head_dim, heads);
        b.gemm(p + ".out_proj", seq_len, hid, hid);
        b.aux(p + ".add1", AuxKind::Eltwise, seq_len * hid);
        b.aux(p + ".ln1", AuxKind::LayerNorm, seq_len * hid);
        // Feed-forward block.
        b.gemm(p + ".ffn1", seq_len, hid, ffn);
        b.aux(p + ".gelu", AuxKind::Gelu, seq_len * ffn);
        b.gemm(p + ".ffn2", seq_len, ffn, hid);
        b.aux(p + ".add2", AuxKind::Eltwise, seq_len * hid);
        b.aux(p + ".ln2", AuxKind::LayerNorm, seq_len * hid);
    }
    // Task head (translation/classification projection).
    b.gemm("head", seq_len, hid, hid);
    b.aux("head.act", AuxKind::Tanh, seq_len * hid);
    return std::move(b).build();
}

Network
makeLstmPtb(int64_t seq_len)
{
    // PTB "medium" configuration (Zaremba et al.): 2 layers, hidden
    // 650, vocab 10000, embedding width 650, unrolled for seq_len
    // steps. Each step of each layer is one gate GEMM
    // (1, in+hid) x (in+hid, 4*hid) plus the gate nonlinearities and
    // elementwise cell updates. The medium config is the common
    // benchmark instance and lets the INT4 weights stay L1-resident,
    // consistent with the paper's batch-1 LSTM efficiencies.
    const int64_t hid = 650, vocab = 10000;
    NetBuilder b("lstm", "nlp", 1, 1, 1);

    b.aux("embedding", AuxKind::Embedding, seq_len * hid);
    for (int l = 0; l < 2; ++l) {
        const std::string p = "lstm" + std::to_string(l);
        const int64_t in = hid; // embedding width == hidden width
        b.gemm(p + ".gates", 1, in + hid, 4 * hid, seq_len);
        b.aux(p + ".sigmoid", AuxKind::Sigmoid, 3 * hid, seq_len);
        b.aux(p + ".tanh", AuxKind::Tanh, 2 * hid, seq_len);
        b.aux(p + ".cell", AuxKind::Eltwise, 3 * hid, seq_len);
    }
    // Output projection to the vocabulary each step.
    b.gemm("proj", 1, hid, vocab, seq_len);
    b.aux("softmax", AuxKind::Softmax, vocab, seq_len);
    return std::move(b).build();
}

Network
makeBiLstmSwb(int64_t seq_len)
{
    // SWB300 acoustic model: 4 bidirectional layers, hidden 1024 per
    // direction, 140-dim fused acoustic features, ~9000 output
    // targets (documented assumption; see DESIGN.md).
    const int64_t hid = 1024, feat = 140, targets = 9000;
    NetBuilder b("speech", "speech", 1, 1, 1);

    for (int l = 0; l < 4; ++l) {
        const std::string p = "bilstm" + std::to_string(l);
        const int64_t in = (l == 0) ? feat : 2 * hid;
        // Forward and backward directions each run per timestep.
        for (const char *dir : {"fwd", "bwd"}) {
            b.gemm(p + "." + dir + ".gates", 1, in + hid, 4 * hid,
                   seq_len);
            b.aux(p + "." + dir + ".sigmoid", AuxKind::Sigmoid,
                  3 * hid, seq_len);
            b.aux(p + "." + dir + ".tanh", AuxKind::Tanh, 2 * hid,
                  seq_len);
            b.aux(p + "." + dir + ".cell", AuxKind::Eltwise, 3 * hid,
                  seq_len);
        }
        b.aux(p + ".concat", AuxKind::DataMove, 2 * hid, seq_len);
    }
    b.gemm("output", 1, 2 * hid, targets, seq_len);
    b.aux("softmax", AuxKind::Softmax, targets, seq_len);
    return std::move(b).build();
}

namespace {

/** A benchmark's network name and the builder that makes it. */
struct BenchmarkBuilder
{
    const char *name;
    Network (*build)();
};

/** The 11 benchmarks in the paper's presentation order. */
constexpr BenchmarkBuilder kBenchmarks[] = {
    {"vgg16", makeVgg16},
    {"resnet50", makeResnet50},
    {"inception3", makeInceptionV3},
    {"inception4", makeInceptionV4},
    {"mobilenetv1", makeMobilenetV1},
    {"ssd300", makeSsd300},
    {"yolov3", makeYolov3},
    {"yolov3-tiny", makeYolov3Tiny},
    {"bert", [] { return makeBert(); }},
    {"lstm", [] { return makeLstmPtb(); }},
    {"speech", [] { return makeBiLstmSwb(); }},
};

} // namespace

std::vector<Network>
allBenchmarks()
{
    std::vector<Network> nets;
    nets.reserve(std::size(kBenchmarks));
    for (const BenchmarkBuilder &b : kBenchmarks)
        nets.push_back(b.build());
    return nets;
}

Network
benchmarkByName(const std::string &name)
{
    for (const BenchmarkBuilder &b : kBenchmarks)
        if (name == b.name)
            return b.build();
    rapid_fatal("unknown benchmark '", name, "'");
}

void
applySparsityProfile(Network &net, double average_sparsity)
{
    // Pruning studies [55-58] consistently find early layers less
    // prunable than later ones; shape the profile as a ramp around
    // the requested average, clipped to [0.2, 0.92].
    std::vector<size_t> compute_idx;
    for (size_t i = 0; i < net.layers.size(); ++i)
        if (net.layers[i].isCompute())
            compute_idx.push_back(i);
    if (compute_idx.empty())
        return;
    const double span = 0.30; // first layer ~avg-0.15, last ~avg+0.15
    const size_t n = compute_idx.size();
    double sum_unclipped = 0.0;
    for (size_t j = 0; j < n; ++j) {
        double frac = n > 1 ? double(j) / double(n - 1) : 0.5;
        double s = average_sparsity + span * (frac - 0.5);
        s = std::clamp(s, 0.2, 0.92);
        net.layers[compute_idx[j]].weight_sparsity = s;
        sum_unclipped += s;
    }
    // Renormalize gently so the mean lands on the requested average.
    double correction = average_sparsity - sum_unclipped / double(n);
    for (size_t j = 0; j < n; ++j) {
        double &s = net.layers[compute_idx[j]].weight_sparsity;
        s = std::clamp(s + correction, 0.2, 0.92);
    }
}

std::vector<std::pair<Network, double>>
prunedBenchmarks()
{
    // Network-average sparsities follow the cited pruning results:
    // magnitude pruning of VGG-class models reaches ~80% [56], SSD
    // multi-layer pruning ~65% [57], ResNet/MobileNet gradual pruning
    // ~60%/50% [55], BERT encoder pruning ~60% [58].
    std::vector<std::pair<Network, double>> out;
    const std::pair<const char *, double> specs[] = {
        {"vgg16", 0.80},  {"resnet50", 0.60}, {"inception3", 0.55},
        {"mobilenetv1", 0.50}, {"ssd300", 0.65}, {"bert", 0.60},
    };
    for (const auto &[name, avg] : specs) {
        Network net = benchmarkByName(name);
        applySparsityProfile(net, avg);
        out.emplace_back(std::move(net), avg);
    }
    return out;
}

} // namespace rapid
