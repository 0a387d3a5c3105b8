#include "precision/chunk_accumulator.hh"

namespace rapid {

ChunkAccumulator::ChunkAccumulator(size_t chunk_size, bool fp32_outer,
                                   Rounding rounding)
    : chunkSize_(chunk_size), fp32Outer_(fp32_outer), rounding_(rounding)
{
    rapid_assert(chunk_size >= 1, "chunk size must be positive");
}

float
ChunkAccumulator::total() const
{
    if (inChunk_ == 0)
        return outerAcc_;
    return foldOuter(outerAcc_, chunkAcc_);
}

void
ChunkAccumulator::reset()
{
    chunkAcc_ = 0.0f;
    outerAcc_ = 0.0f;
    inChunk_ = 0;
}

float
ChunkAccumulator::naiveFp16Sum(const double *terms, size_t n,
                               Rounding rounding)
{
    float acc = 0.0f;
    for (size_t i = 0; i < n; ++i)
        acc = quantizeDl16(float(double(acc) + terms[i]), rounding);
    return acc;
}

} // namespace rapid
