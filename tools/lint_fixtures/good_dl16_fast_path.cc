// Lint fixture: must stay clean. The inline quantizeDl16 is the
// DLFloat16 rounding path; the codec's encode/decode stay available
// for callers that need the bit pattern (e.g. a fault bit flip).

#include <cstdint>

#include "precision/float_format.hh"

namespace rapid {

float
fixtureRoundThenFlip(float x)
{
    const float rounded = quantizeDl16(x, Rounding::NearestEven);
    const uint32_t word = dlfloat16().encode(rounded);
    return dlfloat16().decode(word ^ 1u);
}

} // namespace rapid
