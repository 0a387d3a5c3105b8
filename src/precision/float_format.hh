/**
 * @file
 * Bit-accurate software emulation of the reduced-precision floating
 * point formats implemented by the RaPiD datapath:
 *
 *   - DLFloat16 (1,6,9): IBM's 16-bit training format. No subnormals,
 *     a single merged NaN/Infinity symbol, round-to-nearest-up in
 *     hardware (round-to-nearest-even also supported here).
 *   - FP8 (1,4,3) with *programmable exponent bias*: HFP8 forward
 *     format for weights/activations.
 *   - FP8 (1,5,2): HFP8 backward format for error gradients.
 *   - FP9 (1,5,3): the internal custom format both FP8 flavours are
 *     converted to on-the-fly at the FPU input [50]. Both conversions
 *     are exact (a property the test suite proves exhaustively).
 *
 * Encodings are produced by integer manipulation of the IEEE-754
 * single-precision bit pattern, so results match a hardware RTL
 * implementation bit-for-bit given the same rounding mode.
 */

#ifndef RAPID_PRECISION_FLOAT_FORMAT_HH
#define RAPID_PRECISION_FLOAT_FORMAT_HH

#include <bit>
#include <cstdint>
#include <limits>
#include <string>

namespace rapid {

/** Rounding mode applied when narrowing to a reduced format. */
enum class Rounding
{
    NearestEven, ///< IEEE-754 default; ties to even mantissa.
    NearestUp,   ///< Ties away from zero; used by the DLFloat FPU.
    Truncate,    ///< Round toward zero.
};

/**
 * A runtime-parameterized minifloat format description plus
 * encode/decode routines. Total width = 1 + expBits + manBits.
 */
class FloatFormat
{
  public:
    /**
     * @param exp_bits Exponent field width (2..8).
     * @param man_bits Mantissa (fraction) field width (0..23).
     * @param bias Exponent bias (RaPiD's FP8 (1,4,3) bias is
     *             software-programmable; pass the layer's bias here).
     * @param has_subnormals Whether gradual underflow is encoded; when
     *             false, values below the minimum normal flush to zero.
     * @param has_inf_nan Whether the all-ones exponent is reserved for
     *             a merged NaN/Inf symbol (DLFloat semantics).
     * @param saturating Whether overflow clamps to the largest finite
     *             magnitude (RaPiD datapath behaviour) instead of Inf.
     */
    FloatFormat(unsigned exp_bits, unsigned man_bits, int bias,
                bool has_subnormals, bool has_inf_nan, bool saturating);

    unsigned expBits() const { return expBits_; }
    unsigned manBits() const { return manBits_; }
    int bias() const { return bias_; }
    bool hasSubnormals() const { return hasSubnormals_; }
    bool hasInfNan() const { return hasInfNan_; }
    bool saturating() const { return saturating_; }

    /** Total storage width in bits, including the sign. */
    unsigned storageBits() const { return 1 + expBits_ + manBits_; }

    /** Number of distinct encodings (2^storageBits). */
    uint32_t numEncodings() const { return 1u << storageBits(); }

    /** Largest finite representable magnitude. */
    float maxFinite() const;

    /** Smallest positive normal magnitude. */
    float minNormal() const;

    /** Smallest positive representable magnitude (subnormal if any). */
    float minPositive() const;

    /** The format's NaN encoding; only valid if hasInfNan(). */
    uint32_t nanBits() const;

    /**
     * Encode an IEEE-754 single into this format's bit pattern
     * (right-aligned in the returned word).
     */
    uint32_t encode(float value, Rounding mode = Rounding::NearestEven)
        const;

    /** Decode a bit pattern of this format back to single precision. */
    float decode(uint32_t pattern) const;

    /** encode() then decode(): the value the datapath actually sees. */
    float
    quantize(float value, Rounding mode = Rounding::NearestEven) const
    {
        return decode(encode(value, mode));
    }

    /** True if @p pattern is the merged NaN/Inf symbol. */
    bool isNan(uint32_t pattern) const;

    /** Human-readable description, e.g. "fp8(1,4,3,bias=4)". */
    std::string name() const;

  private:
    unsigned expBits_;
    unsigned manBits_;
    int bias_;
    bool hasSubnormals_;
    bool hasInfNan_;
    bool saturating_;
};

/** DLFloat16 (1,6,9), bias 31, no subnormals, merged NaN/Inf. */
const FloatFormat &dlfloat16();

/**
 * Fast DLFloat16 rounding: bit-identical to
 * `dlfloat16().quantize(value, mode)` for every float32 input and
 * every mode, without the generic codec's bit loops and
 * double-precision rebuild (tests/test_float_format.cc pins the two
 * together). This is the only DLFloat16 rounding the code runs; the
 * generic codec stays as its oracle and for callers that need the
 * encoded bit pattern.
 *
 * A DLFloat16 value is a float32 whose low 14 mantissa bits are zero,
 * so rounding works on the float32 magnitude bits directly: add the
 * mode's rounding bias (a mantissa carry renormalizes the exponent on
 * its own) and clear the dropped bits. Three cases then remain:
 *   - magnitudes at or below 2^-31 flush to a signed zero (there are
 *     no subnormals, and the pattern (e=0, m=0) reads as zero);
 *   - magnitudes above the largest finite value saturate to
 *     (e=62, m=511);
 *   - Inf and NaN inputs map to the merged NaN symbol (quiet NaN).
 */
inline float
quantizeDl16(float value, Rounding mode = Rounding::NearestEven)
{
    constexpr unsigned kDropBits = 23 - 9;
    constexpr uint32_t kDropMask = (uint32_t(1) << kDropBits) - 1;
    constexpr uint32_t kSignBit = uint32_t(1) << 31;
    constexpr uint32_t kFloatInf = uint32_t(0xff) << 23;
    constexpr uint32_t kFlushAtOrBelow = uint32_t(127 - 31) << 23;
    constexpr uint32_t kMaxFinite =
        (uint32_t(127 + 31) << 23) | (uint32_t(0x1ff) << kDropBits);

    const uint32_t in = std::bit_cast<uint32_t>(value);
    const uint32_t sign = in & kSignBit;
    uint32_t mag = in & ~kSignBit;
    if (mag >= kFloatInf)
        return std::numeric_limits<float>::quiet_NaN();
    switch (mode) {
      case Rounding::NearestEven:
        mag += (kDropMask >> 1) + ((mag >> kDropBits) & 1);
        break;
      case Rounding::NearestUp:
        mag += uint32_t(1) << (kDropBits - 1);
        break;
      case Rounding::Truncate:
        break;
    }
    mag &= ~kDropMask;
    if (mag <= kFlushAtOrBelow)
        mag = 0;
    else if (mag > kMaxFinite)
        mag = kMaxFinite;
    return std::bit_cast<float>(sign | mag);
}

/** HFP8 forward format FP8 (1,4,3) with the given exponent bias. */
FloatFormat fp8e4m3(int bias = 4);

/** HFP8 backward format FP8 (1,5,2), bias 15. */
const FloatFormat &fp8e5m2();

/** Internal FPU operand format FP9 (1,5,3), bias 15. */
const FloatFormat &fp9();

/** IEEE-754 binary16 (for comparisons in tests). */
const FloatFormat &ieeeHalf();

} // namespace rapid

#endif // RAPID_PRECISION_FLOAT_FORMAT_HH
