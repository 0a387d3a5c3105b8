#include "llm/llm_sim.hh"

#include <memory>
#include <string>
#include <vector>

#include "common/des.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "llm/decode_batcher.hh"
#include "workloads/networks.hh"

namespace rapid {

namespace {

/** Context buckets start at 64 tokens and double up to max_context. */
size_t
countBuckets(const LlmModelConfig &model)
{
    size_t n = 1;
    int64_t cap = 64;
    while (cap < model.max_context) {
        cap *= 2;
        ++n;
    }
    return n;
}

/** One network per context bucket: prefill, or one decode step. */
std::vector<Network>
buildBucketNetworks(const LlmModelConfig &model, size_t num_buckets,
                    Network (*make)(const LlmModelConfig &, int64_t))
{
    std::vector<Network> nets;
    nets.reserve(num_buckets);
    for (size_t bi = 0; bi < num_buckets; ++bi)
        nets.push_back(make(model, 64ll << bi));
    return nets;
}

} // namespace

LlmSim::LlmSim(const ChipConfig &chip, const LlmServeConfig &cfg)
    // Validate before any member does real work; the comma operator
    // keeps the always-on checks ahead of the field copies.
    : chip_((validateLlmConfig(cfg), validateChipConfig(chip), chip)),
      cfg_(cfg), model_(llmModelByName(cfg.model)),
      num_buckets_(countBuckets(model_)),
      prefill_table_(chip_,
                     buildBucketNetworks(model_, num_buckets_,
                                         makeLlmPrefill),
                     llmTablePrecisions(cfg), 1, cfg.fault),
      decode_table_(chip_,
                    buildBucketNetworks(model_, num_buckets_,
                                        makeLlmDecodeStep),
                    llmTablePrecisions(cfg), cfg.max_batch, cfg.fault)
{
}

size_t
LlmSim::bucketFor(int64_t tokens) const
{
    rapid_dassert(tokens > 0, "bucketFor: non-positive tokens");
    for (size_t bi = 0; bi + 1 < num_buckets_; ++bi)
        if (tokens <= bucketTokens(bi))
            return bi;
    return num_buckets_ - 1;
}

int64_t
LlmSim::prefillNs(Precision act, int64_t prompt_tokens) const
{
    return prefill_table_.latencyNs(bucketFor(prompt_tokens), act, 1);
}

double
LlmSim::prefillEnergyJ(Precision act, int64_t prompt_tokens) const
{
    return prefill_table_.energyJ(bucketFor(prompt_tokens), act, 1);
}

int64_t
LlmSim::decodeNs(Precision act, int64_t max_context_tokens,
                 int64_t batch) const
{
    return decode_table_.latencyNs(bucketFor(max_context_tokens), act,
                                   batch);
}

double
LlmSim::decodeEnergyJ(Precision act, int64_t max_context_tokens,
                      int64_t batch) const
{
    return decode_table_.energyJ(bucketFor(max_context_tokens), act,
                                 batch);
}

LlmResult
LlmSim::run() const
{
    return runLlmBatch({this}).front();
}

std::vector<LlmResult>
runLlmBatch(const std::vector<const LlmSim *> &sims)
{
    DesEngine engine;
    std::vector<std::unique_ptr<DecodeBatcher>> doms;
    doms.reserve(sims.size());
    for (size_t i = 0; i < sims.size(); ++i) {
        RAPID_CHECK_ARG(sims[i] != nullptr,
                        "runLlmBatch: null simulator at index ", i);
        const DomainId id = engine.addDomain("llm" + std::to_string(i));
        doms.push_back(std::make_unique<DecodeBatcher>(
            *sims[i], engine.domain(id)));
        doms.back()->start();
    }
    // No channels: the scenarios are independent, so the whole batch
    // is one fully parallel window.
    engine.run();
    std::vector<LlmResult> out;
    out.reserve(doms.size());
    for (auto &d : doms)
        out.push_back(d->finish());
    return out;
}

} // namespace rapid
