/**
 * @file
 * Transformer serving simulator over the RaPiD chip model. Generation
 * requests (prompt + output token counts) flow through a token-level
 * SLA router into per-mode decode groups; a DecodeBatcher schedules
 * prefill passes and decode steps on the single serialized executor,
 * charging virtual time from frozen prefill and decode-step
 * LatencyTables over power-of-two context buckets plus the KV-cache
 * spill penalty of kv_cache.hh.
 *
 * Router policy: at admission the router walks the (activation, KV)
 * mode ladder cheapest-first, skips modes below the tenant's quality
 * floor, and picks the first mode whose estimated time-to-first-token
 * and whose conservative per-output-token step cost — the decode step
 * at full batch over the request's own final context, including the
 * KV spill that context would incur — meet the tenant's two SLAs.
 * When no mode fits, the request is shed at admission. The TTFT
 * estimate (executor remainder + queued prefills + one-shot cohort
 * drain) is not a proven bound under cross traffic; violations are
 * counted honestly by the metrics.
 *
 * Everything runs on the virtual clock, bit-identical at any
 * --threads N: run() is a single DES domain, and runLlmBatch() packs
 * many independent scenarios as domains of one engine, exactly like
 * runServeBatch().
 */

#ifndef RAPID_LLM_LLM_SIM_HH
#define RAPID_LLM_LLM_SIM_HH

#include <cstdint>
#include <vector>

#include "arch/config.hh"
#include "llm/llm_config.hh"
#include "llm/llm_workload.hh"
#include "serve/latency_table.hh"
#include "serve/overload.hh"

namespace rapid {

/** Lifecycle of one generation request. */
struct LlmRequestRecord
{
    uint64_t id = 0;
    unsigned tenant = 0;
    int64_t arrival_ns = 0;
    int64_t prompt_tokens = 0;
    int64_t output_tokens = 0;  ///< planned tokens, drawn at arrival
    int mode = -1;              ///< ladder index served at; -1 = shed
    /// Which admission tier cleared the TPOT check: the proven
    /// full-batch step bound, or the calibrated observed-p95 tier
    /// (cfg.admission). Always Bound when admission is off.
    AdmitTier tier = AdmitTier::Bound;
    int64_t predicted_ttft_ns = -1; ///< router's admission estimate
    int64_t first_token_ns = -1;    ///< prefill completion
    int64_t completion_ns = -1;     ///< last generated token
    int64_t generated_tokens = 0;   ///< == output_tokens once done
    bool shed = false;

    int64_t
    ttftNs() const
    {
        return shed ? -1 : first_token_ns - arrival_ns;
    }

    /** Mean per-output-token latency after the first token; 0 for
     *  single-token outputs (which cannot violate a TPOT SLA). */
    int64_t
    tpotNs() const
    {
        if (shed || generated_tokens < 2)
            return 0;
        return (completion_ns - first_token_ns) /
               (generated_tokens - 1);
    }
};

/** What one executor occupancy was. */
enum class LlmStepKind
{
    Prefill, ///< prompt pass(es); produces each member's first token
    Decode,  ///< one token for every live sequence in the batch
};

/** One executor occupancy (prefill launch or decode step). */
struct LlmStepRecord
{
    LlmStepKind kind = LlmStepKind::Decode;
    int mode = 0;        ///< ladder index
    int64_t batch = 0;   ///< charged batch size
    int64_t live = 0;    ///< members that produced a token
    /// Total cached tokens across the batch at launch (decode) or
    /// total prompt tokens prefetched (prefill).
    int64_t context_tokens = 0;
    int64_t launch_ns = 0;
    int64_t completion_ns = 0;
    int64_t spill_ns = 0; ///< KV refetch penalty inside the step
    double energy_j = 0;
};

/** Per-ladder-group trust fuse, tripped by the first calibrated TPOT
 *  miss. */
using LlmGroupAdmission = AdmissionFuse;

/** Raw simulation outcome; llm_metrics.hh aggregates it. */
struct LlmResult
{
    std::vector<LlmRequestRecord> requests; ///< in arrival order
    std::vector<LlmStepRecord> steps;       ///< in launch order
    /// One entry per ladder group when cfg.admission.enabled; empty
    /// otherwise.
    std::vector<LlmGroupAdmission> group_admission;
    int64_t horizon_ns = 0;
    int64_t end_ns = 0; ///< virtual time at drain
};

/** The simulator: frozen latency tables over context buckets. */
class LlmSim
{
  public:
    /**
     * Compiles and freezes two latency tables over the power-of-two
     * context buckets (64 .. model max_context), each evaluated at
     * every ladder activation precision: a prefill table at batch 1,
     * the only batch a prefill is charged at, and a decode-step table
     * at batch 1..max_batch. Throws rapid::Error on an invalid
     * scenario or chip.
     */
    LlmSim(const ChipConfig &chip, const LlmServeConfig &cfg);

    const LlmServeConfig &config() const { return cfg_; }
    const LlmModelConfig &model() const { return model_; }
    const ChipConfig &chip() const { return chip_; }

    size_t numBuckets() const { return num_buckets_; }
    /** Token capacity of bucket @p bi (64 << bi). */
    int64_t bucketTokens(size_t bi) const { return 64ll << bi; }
    /** Smallest bucket holding @p tokens (clamped to the last). */
    size_t bucketFor(int64_t tokens) const;

    /** Frozen prefill latency of one @p prompt_tokens prompt. */
    int64_t prefillNs(Precision act, int64_t prompt_tokens) const;
    double prefillEnergyJ(Precision act, int64_t prompt_tokens) const;

    /** Frozen decode-step latency at @p batch with every member
     *  attending over at most @p max_context_tokens (KV spill is
     *  charged separately by the batcher). */
    int64_t decodeNs(Precision act, int64_t max_context_tokens,
                     int64_t batch) const;
    double decodeEnergyJ(Precision act, int64_t max_context_tokens,
                         int64_t batch) const;

    /** Run the scenario to drain on the virtual clock. */
    LlmResult run() const;

  private:
    ChipConfig chip_;
    LlmServeConfig cfg_;
    LlmModelConfig model_;
    size_t num_buckets_ = 0;
    LatencyTable prefill_table_; ///< one network per bucket, batch 1
    LatencyTable decode_table_;  ///< one network per bucket
};

/**
 * Run many independent scenarios as domains of one DesEngine;
 * results gather by index, bit-identical to sims[i]->run() at any
 * thread count. Throws rapid::Error on a null entry.
 */
std::vector<LlmResult> runLlmBatch(
    const std::vector<const LlmSim *> &sims);

} // namespace rapid

#endif // RAPID_LLM_LLM_SIM_HH
