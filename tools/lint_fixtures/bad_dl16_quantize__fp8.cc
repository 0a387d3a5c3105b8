// Lint fixture: must trip the dl16-quantize check (and only it).
// FP8 rounding outside the codec goes through the inline quantizeFp8;
// the generic codec's quantize, here on the programmable-bias forward
// format, is the slow path the fast one replaced.

#include "precision/float_format.hh"

namespace rapid {

float
fixtureRoundToFp8(float x, int bias)
{
    return fp8e4m3(bias).quantize(x, Rounding::NearestEven);
}

} // namespace rapid
