/**
 * @file
 * Precomputed 256-entry decode table for the 8-bit floating formats
 * (FP8 (1,4,3) at any programmable bias, FP8 (1,5,2)).
 *
 * FloatFormat::decode reconstructs a single-precision value from a
 * bit pattern with integer manipulation every call; on the quantize
 * hot path (encode immediately followed by decode) the decode half is
 * a pure function of the 8-bit pattern, so an 8-bit format admits a
 * complete table. The table is filled by calling the scalar decoder
 * once per encoding, which makes LUT-vs-scalar bit-identity true by
 * construction; the property test in tests/test_float_format.cc pins
 * it over all 256 encodings anyway, so a future "optimized" fill
 * cannot silently diverge. Quantizing needs no table: it is
 * quantizeFp8 on the float32 bits.
 */

#ifndef RAPID_PRECISION_DECODE_LUT_HH
#define RAPID_PRECISION_DECODE_LUT_HH

#include <array>
#include <cstdint>

#include "precision/float_format.hh"

namespace rapid {

/** Tabulated decode for one 8-bit FloatFormat. */
class Fp8DecodeLut
{
  public:
    /** Tabulates @p fmt; throws rapid::Error (InvalidArgument) when
     *  the format is not 8 bits wide or is not one of the two HFP8
     *  formats (fp8e4m3 at some bias, or fp8e5m2). */
    explicit Fp8DecodeLut(const FloatFormat &fmt);

    const FloatFormat &format() const { return fmt_; }

    /** Table lookup of FloatFormat::decode (bit-identical). */
    float
    decode(uint32_t pattern) const
    {
        return table_[pattern & 0xFFu];
    }

    /** quantizeFp8 in this format: bit-identical to
     *  FloatFormat::quantize. */
    float
    quantize(float value, Rounding mode = Rounding::NearestEven) const
    {
        return quantizeFp8(kind_, fmt_.bias(), value, mode);
    }

  private:
    FloatFormat fmt_;
    Fp8Kind kind_;
    std::array<float, 256> table_;
};

} // namespace rapid

#endif // RAPID_PRECISION_DECODE_LUT_HH
