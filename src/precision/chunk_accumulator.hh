/**
 * @file
 * Chunk-based (hierarchical) accumulation [51], used by RaPiD to
 * preserve the fidelity of long FP16 partial-sum reductions during
 * HFP8 training (Section III-A.2). Products are accumulated into an
 * FP16 intra-chunk accumulator; every @c chunkSize elements the chunk
 * total is folded into a higher level, bounding the swamping error
 * that plagues naive low-precision accumulation.
 */

#ifndef RAPID_PRECISION_CHUNK_ACCUMULATOR_HH
#define RAPID_PRECISION_CHUNK_ACCUMULATOR_HH

#include <cmath>
#include <cstddef>

#include "common/logging.hh"
#include "precision/float_format.hh"

namespace rapid {

/**
 * Two-level chunked accumulator. The intra-chunk level models the MPE
 * FP16 accumulator; the inter-chunk level models the SFU reduction,
 * which can run in FP16 or FP32.
 *
 * Each accumulate rounds twice: the exact double sum first rounds to
 * float32 (nearest-even), and that float then rounds to DLFloat16 in
 * the configured mode. This is not a single fused rounding: when the
 * float32 step lands exactly on a DLFloat16 tie, the second rounding
 * can go the other way (the test suite pins one such case).
 */
class ChunkAccumulator
{
  public:
    /**
     * @param chunk_size Elements per chunk (RaPiD uses the dataflow's
     *                   LRF-resident reduction length; default 64).
     * @param fp32_outer Whether the inter-chunk reduction runs in FP32
     *                   on the SFU (true) or in FP16 (false).
     * @param rounding Rounding mode for the FP16 stages.
     */
    explicit ChunkAccumulator(size_t chunk_size = 64,
                              bool fp32_outer = true,
                              Rounding rounding = Rounding::NearestEven);

    /** Add one (already exact, finite) product term. */
    void
    add(double term)
    {
        rapid_dassert(std::isfinite(term),
                      "non-finite term ", term, " fed to the accumulator");
        rapid_dassert(inChunk_ < chunkSize_,
                      "chunk fill ", inChunk_, " overran size ", chunkSize_);
        // The MPE accumulator holds DLFloat16; each accumulate rounds
        // (double -> float32 -> DLFloat16, see the class comment).
        chunkAcc_ = quantizeDl16(float(double(chunkAcc_) + term), rounding_);
        if (++inChunk_ == chunkSize_) {
            outerAcc_ = foldOuter(outerAcc_, chunkAcc_);
            chunkAcc_ = 0.0f;
            inChunk_ = 0;
        }
    }

    /** Total with the current partial chunk folded in. */
    float total() const;

    /** Reset to an empty sum. */
    void reset();

    size_t chunkSize() const { return chunkSize_; }

    /**
     * Reference helper: naive FP16 accumulation of @p terms (every add
     * rounded), for comparisons against the chunked scheme.
     */
    static float naiveFp16Sum(const double *terms, size_t n,
                              Rounding rounding = Rounding::NearestEven);

  private:
    float
    foldOuter(float outer, float chunk) const
    {
        if (fp32Outer_)
            return outer + chunk; // SFU FP32 add: exact at this scale
        return quantizeDl16(outer + chunk, rounding_);
    }

    size_t chunkSize_;
    bool fp32Outer_;
    Rounding rounding_;
    float chunkAcc_ = 0.0f;  // FP16-resident intra-chunk accumulator
    size_t inChunk_ = 0;
    float outerAcc_ = 0.0f;  // FP16 or FP32 inter-chunk accumulator
};

} // namespace rapid

#endif // RAPID_PRECISION_CHUNK_ACCUMULATOR_HH
