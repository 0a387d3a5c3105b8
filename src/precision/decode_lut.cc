#include "precision/decode_lut.hh"

#include "common/error.hh"

namespace rapid {

namespace {

/** The HFP8 flavour @p fmt is; throws when it is neither. */
Fp8Kind
hfp8Kind(const FloatFormat &fmt)
{
    RAPID_CHECK_ARG(fmt.storageBits() == 8,
                    "Fp8DecodeLut: format ", fmt.name(), " is ",
                    fmt.storageBits(),
                    " bits wide; only 8-bit formats are tabulated");
    const bool hfp8_rules =
        fmt.hasSubnormals() && fmt.hasInfNan() && fmt.saturating();
    if (hfp8_rules && fmt.expBits() == 4 && fmt.bias() >= 1 &&
        fmt.bias() <= 15)
        return Fp8Kind::Forward;
    RAPID_CHECK_ARG(hfp8_rules && fmt.expBits() == 5 && fmt.bias() == 15,
                    "Fp8DecodeLut: format ", fmt.name(),
                    " is not an HFP8 format");
    return Fp8Kind::Backward;
}

} // namespace

Fp8DecodeLut::Fp8DecodeLut(const FloatFormat &fmt)
    : fmt_(fmt), kind_(hfp8Kind(fmt)), table_{}
{
    for (uint32_t p = 0; p < 256; ++p)
        table_[p] = fmt_.decode(p);
}

} // namespace rapid
