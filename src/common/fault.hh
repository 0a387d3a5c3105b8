/**
 * @file
 * Deterministic, seeded fault injection for the RaPiD model — the
 * resilience counterpart of the fault-free reproduction. The oracle
 * lives in common/ because it is cross-cutting substrate like
 * common/random.hh: every hardware-site model (interconnect, sim,
 * perf, func) draws from it, while the campaign-level storage
 * simulator stays in src/fault. RaPiD is
 * fabricated silicon, and the value of an ultra-low-precision chip
 * depends on how its datapaths behave when bits flip and units die,
 * so the model grows pluggable injection sites:
 *
 *   - StorageWord: bit-flips in the stored operand encodings of the
 *     bit-accurate precision formats (DLFloat16, both FP8 flavours,
 *     INT4/INT2) — see fault/storage_sim.hh.
 *   - MacOutput:  corruption of a systolic-array accumulator output
 *     (sim/systolic).
 *   - RingFlit:   corruption of a flit crossing a ring link
 *     (interconnect/ring).
 *   - Scratchpad: corruption of a staged scratchpad block
 *     (sim/corelet_sim).
 *
 * Each site carries a protection model (parity/ECC detection
 * coverage, in-place correction fraction, and the retry cost of a
 * detected-but-uncorrected fault), so protected-vs-unprotected
 * efficiency is quantifiable: detected errors charge replayed flits
 * and re-issued tiles into the performance and power models.
 *
 * Determinism contract: every random decision derives from a counter
 * mix of (config seed, site, work-item index) — there is no global
 * RNG state and no draw-order dependence — so injection results are
 * bit-identical at any --threads N and across runs. With rate == 0
 * (the default) the injector is provably zero-effect: every entry
 * point early-returns before drawing anything.
 */

#ifndef RAPID_COMMON_FAULT_HH
#define RAPID_COMMON_FAULT_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/random.hh"

namespace rapid {

/** Where a fault strikes. */
enum class FaultSite
{
    StorageWord = 0, ///< stored operand encoding (per-bit flips)
    MacOutput,       ///< systolic accumulator output (event-level)
    RingFlit,        ///< flit on a ring link (event-level)
    Scratchpad,      ///< staged L0 block (event-level)
    TrainerGemm,     ///< training GEMM output element (event-level)
};

inline constexpr unsigned kNumFaultSites = 5;

const char *faultSiteName(FaultSite site);

/** Protection (parity/ECC) model for one injection site. */
struct SiteProtection
{
    /// Fraction of faults the site's parity/ECC detects.
    double detect = 0.0;
    /// Of the detected faults, the fraction corrected in place (ECC)
    /// at no retry cost; the remainder triggers a retry.
    double correct = 0.0;
    /// Cycles charged per detected-but-uncorrected fault: a replayed
    /// flit, a re-streamed scratchpad block, a re-issued tile.
    double retry_cost = 0.0;
};

/** Parity-style protection: high detection, no correction. */
SiteProtection parityProtection(double retry_cost);

/** SECDED-ECC-style protection: full detection, mostly corrected. */
SiteProtection secdedProtection(double retry_cost);

/** Knobs of one fault-injection scenario. */
struct FaultConfig
{
    /// Fault probability: per bit for StorageWord, per event for the
    /// other sites. 0 (the default) disables injection entirely.
    double rate = 0.0;
    /// Root seed of every deterministic per-(site, item) stream.
    uint64_t seed = 0xfa1175ULL;
    /// Per-site enables; a disabled site never faults. TrainerGemm is
    /// opt-in (the resilient trainer enables it) so hardware-site
    /// scenarios and their golden summaries are unaffected by the
    /// training site's existence.
    std::array<bool, kNumFaultSites> site_enabled{
        {true, true, true, true, false}};
    /// Per-site protection (defaults: unprotected).
    std::array<SiteProtection, kNumFaultSites> protection{};

    bool enabled() const { return rate > 0.0; }

    const SiteProtection &
    protectionFor(FaultSite site) const
    {
        return protection[unsigned(site)];
    }

    /** Convenience: uniform rate, default everything else. */
    static FaultConfig withRate(double rate, uint64_t seed = 0xfa1175ULL);

    /** Apply @p p to every site. */
    void protectAll(const SiteProtection &p);
};

/**
 * Throw rapid::Error if @p cfg holds out-of-range knobs (rate or
 * protection fractions outside [0,1], negative or non-finite costs).
 */
void validateFaultConfig(const FaultConfig &cfg);

/** Outcome counters of an injection campaign. */
struct FaultStats
{
    uint64_t sampled = 0;   ///< items examined (words / events)
    uint64_t injected = 0;  ///< faults that actually struck
    uint64_t detected = 0;  ///< caught by parity/ECC (incl. corrected)
    uint64_t corrected = 0; ///< fixed in place by ECC
    uint64_t retries = 0;   ///< detected-uncorrected -> replayed
    uint64_t masked = 0;    ///< escaped detection, no visible effect
    uint64_t sdc = 0;       ///< escaped detection, corrupted a result
    double retry_cycles = 0; ///< total replay cost charged

    FaultStats &operator+=(const FaultStats &o);

    /** injected == detected + masked + sdc must always hold. */
    bool accountingConsistent() const;
};

/** How one injected fault resolved against the site's protection. */
enum class FaultOutcome
{
    None,      ///< no fault struck this item
    Corrected, ///< detected and fixed in place (ECC)
    Detected,  ///< detected, not corrected -> retry charged
    Silent,    ///< escaped detection; caller classifies masked vs SDC
};

/**
 * Stateless, thread-safe fault oracle. All methods are const and all
 * randomness comes from the per-(site, item) stream, so call sites
 * parallelized over items produce bit-identical faults at any thread
 * count.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig &cfg);

    const FaultConfig &config() const { return cfg_; }
    bool enabled() const { return cfg_.enabled(); }

    bool
    siteEnabled(FaultSite site) const
    {
        return cfg_.site_enabled[unsigned(site)];
    }

    /** True when injection can strike @p site at all. */
    bool
    active(FaultSite site) const
    {
        return enabled() && siteEnabled(site);
    }

    /**
     * The deterministic RNG stream for (site, item). Rng seeds
     * lazily, so a stream costs about 0.3 us for its first draw and
     * a few ns per further draw (traced perfbench chip, Release),
     * against 2.2 us for std::mt19937_64's eager seeding.
     */
    Rng stream(FaultSite site, uint64_t item) const;

    /** One Bernoulli(rate) draw from @p rng. */
    bool eventDraw(Rng &rng) const;

    /**
     * Hash-derived Bernoulli(rate) for (site, item): no stream
     * construction, so high-volume sites (one item per GEMM output
     * element) can pre-filter in a few ns, about 100x cheaper than
     * stream(), and build the full stream() only on the rare hit.
     * Sites opting in define their hit set through this draw rather
     * than eventDraw(stream(...)); the other sites keep the stream's
     * draws, so switching one over changes its results.
     */
    bool hashEventDraw(FaultSite site, uint64_t item) const;

    /**
     * Flip each of the low @p bits of @p word independently with
     * probability rate (storage-site model). @p flips reports how
     * many bits flipped.
     */
    uint32_t corruptBits(Rng &rng, unsigned bits, uint32_t word,
                         unsigned &flips) const;

    /** Flip exactly one uniformly-chosen bit of the low @p bits. */
    uint32_t flipOneBit(Rng &rng, unsigned bits, uint32_t word) const;

    /**
     * Resolve one struck fault against @p site's protection, using
     * further draws from @p rng. Updates detected/corrected/retries/
     * retry_cycles in @p stats (the caller counts injected and the
     * Silent-path masked/sdc split, which needs downstream context).
     */
    FaultOutcome resolveProtection(FaultSite site, Rng &rng,
                                   FaultStats &stats) const;

    /**
     * Event-level convenience: sample, strike, and resolve item
     * @p item at @p site in one call. Returns None when inactive.
     */
    FaultOutcome inject(FaultSite site, uint64_t item,
                        FaultStats &stats) const;

  private:
    FaultConfig cfg_;
};

/**
 * Expected retry cycles charged by the analytical performance model
 * for @p events exposures at @p site. @p exposure scales the per-event
 * fault probability (e.g. bits per stored word); the per-event
 * probability is clamped to 1.
 */
double expectedRetryCycles(const FaultConfig &cfg, FaultSite site,
                           double events, double exposure);

/**
 * Deterministic (seed, item) mix (two splitmix64 rounds) for seeding
 * per-work-item Rng streams without any shared RNG state.
 */
uint64_t mixSeed(uint64_t seed, uint64_t item);

/**
 * One-line human-readable description of a fault scenario
 * ("fault-free" or "rate 1e-07, sites storage+mac+ring+spad"),
 * stable across runs for golden-diffed reports.
 */
std::string faultConfigSummary(const FaultConfig &cfg);

} // namespace rapid

#endif // RAPID_COMMON_FAULT_HH
