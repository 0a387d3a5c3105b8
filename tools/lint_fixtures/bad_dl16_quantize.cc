// Lint fixture: must trip the dl16-quantize check (and only it).
// DLFloat16 rounding outside the codec goes through the inline
// quantizeDl16; calling the generic codec here would bring back the
// slow path the fast one replaced.

#include "precision/float_format.hh"

namespace rapid {

float
fixtureRoundToDl16(float x)
{
    return dlfloat16().quantize(x, Rounding::NearestUp);
}

} // namespace rapid
