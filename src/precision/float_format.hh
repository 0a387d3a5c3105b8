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

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>

namespace rapid {

/** Rounding mode applied when narrowing to a reduced format. */
enum class Rounding
{
    NearestEven, ///< IEEE-754 default; ties to even mantissa.
    NearestUp,   ///< Ties away from zero; used by the DLFloat FPU.
    Truncate,    ///< Round toward zero.
};

/**
 * Call @p fn with @p mode as a compile-time constant, a
 * std::integral_constant<Rounding, mode>, so that code templated or
 * inlined on the mode is instantiated once per mode.
 */
template <typename Fn>
decltype(auto)
withRounding(Rounding mode, Fn &&fn)
{
    using enum Rounding;
    switch (mode) {
      case NearestEven:
        return fn(std::integral_constant<Rounding, NearestEven>{});
      case NearestUp:
        return fn(std::integral_constant<Rounding, NearestUp>{});
      case Truncate:
        break;
    }
    return fn(std::integral_constant<Rounding, Truncate>{});
}

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

/** Which FP8 flavour an HFP8 operand tensor uses (Figure 3). */
enum class Fp8Kind
{
    Forward,  ///< FP8 (1,4,3) with programmable bias: weights/activations
    Backward, ///< FP8 (1,5,2): error gradients
};

/** Four float32, uint32 or int32 lanes: one 16-byte vector register. */
using F32x4 = float __attribute__((vector_size(16)));
using U32x4 = uint32_t __attribute__((vector_size(16)));
using I32x4 = int32_t __attribute__((vector_size(16)));

namespace detail {

constexpr uint32_t kSignBit = uint32_t(1) << 31;
constexpr uint32_t kFloatInf = uint32_t(0xff) << 23;
constexpr uint32_t kQuietNan = 0x7fc00000u;

/**
 * Round float32 magnitude bits @p mag (scalar or U32x4) to a
 * significand @p drop bits shorter, in rounding mode @p mode: add the
 * mode's rounding bias and clear the dropped bits. A carry out of the
 * mantissa renormalizes the exponent on its own.
 */
template <typename U>
constexpr U
roundMagnitude(U mag, unsigned drop, Rounding mode)
{
    const uint32_t low = (uint32_t(1) << drop) - 1;
    switch (mode) {
      case Rounding::NearestEven:
        mag += (low >> 1) + ((mag >> drop) & 1u);
        break;
      case Rounding::NearestUp:
        mag += (low >> 1) + 1u;
        break;
      case Rounding::Truncate:
        break;
    }
    return mag & ~low;
}

/** DLFloat16 (1,6,9) on float32 magnitude bits. */
namespace dl16 {
constexpr unsigned kDropBits = 23 - 9;
constexpr uint32_t kFlushAtOrBelow = uint32_t(127 - 31) << 23;
constexpr uint32_t kMaxFinite =
    (uint32_t(127 + 31) << 23) | (uint32_t(0x1ff) << kDropBits);
} // namespace dl16

} // namespace detail

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
    using namespace detail;
    const uint32_t in = std::bit_cast<uint32_t>(value);
    const uint32_t sign = in & kSignBit;
    uint32_t mag = in & ~kSignBit;
    if (mag >= kFloatInf)
        return std::bit_cast<float>(kQuietNan);
    mag = roundMagnitude(mag, dl16::kDropBits, mode);
    if (mag <= dl16::kFlushAtOrBelow)
        mag = 0;
    else if (mag > dl16::kMaxFinite)
        mag = dl16::kMaxFinite;
    return std::bit_cast<float>(sign | mag);
}

/**
 * quantizeDl16 on four lanes at once, branch-free, with the rounding
 * mode fixed at compile time: lane l of the result is bit-identical
 * to quantizeDl16(value[l], Mode) (pinned lane by lane in
 * tests/test_float_format.cc). The cases are computed on every lane
 * and selected by masks. The compares are signed: a finite magnitude
 * stays below 2^31 after the rounding add, and a lane that wraps is
 * an Inf/NaN lane, whose result the NaN select replaces.
 */
template <Rounding Mode>
inline F32x4
quantizeDl16(F32x4 value)
{
    using namespace detail;
    const U32x4 in = std::bit_cast<U32x4>(value);
    const U32x4 sign = in & kSignBit;
    const U32x4 mag = roundMagnitude(in & ~kSignBit, dl16::kDropBits, Mode);
    const I32x4 smag = std::bit_cast<I32x4>(mag);
    const I32x4 special =
        std::bit_cast<I32x4>(in & ~kSignBit) >= int32_t(kFloatInf);
    U32x4 out = smag > int32_t(dl16::kFlushAtOrBelow) ? mag : U32x4{};
    out = smag > int32_t(dl16::kMaxFinite) ? U32x4{} + dl16::kMaxFinite
                                           : out;
    out = special ? U32x4{} + kQuietNan : (sign | out);
    return std::bit_cast<F32x4>(out);
}

/**
 * Fast FP8 rounding: bit-identical to `fp8e4m3(fwd_bias)` (Forward)
 * or `fp8e5m2()` (Backward; @p fwd_bias is ignored) `.quantize(value,
 * mode)` for every float32 input, every mode and every bias in
 * [1, 15] (tests/test_float_format.cc pins it to the codec). The
 * caller validates @p fwd_bias, as fp8e4m3() does. This is the only
 * FP8 rounding the code runs; the codec stays as its oracle.
 *
 * Every FP8 value of these formats is a float32, so the rounding works
 * on the float32 bits as quantizeDl16 does:
 *   - Inf and NaN map to the merged NaN symbol (quiet NaN);
 *   - in the normal range, round the magnitude bits to the format's
 *     significand and saturate above the largest finite value
 *     (e=2^E-2, m=all ones);
 *   - below the smallest normal 2^(1-bias) the FP8 grid is fixed at
 *     2^(1-bias-M), so round the 24-bit significand to that grid as
 *     an integer (a shift of 25 or more rounds to 0 in every mode) and
 *     scale the count back, which is exact. Zeros and float32
 *     subnormals, far below the smallest FP8 subnormal, come out as
 *     a signed zero.
 */
inline float
quantizeFp8(Fp8Kind kind, int fwd_bias, float value,
            Rounding mode = Rounding::NearestEven)
{
    using namespace detail;
    const bool fwd = kind == Fp8Kind::Forward;
    const unsigned man_bits = fwd ? 3 : 2;
    const uint32_t bias = fwd ? uint32_t(fwd_bias) : 15u;
    const uint32_t max_field = fwd ? 14u : 30u;
    const unsigned drop = 23 - man_bits;
    // float32 exponent field of the smallest FP8 normal, 2^(1-bias).
    const uint32_t min_normal_exp = 128 - bias;

    const uint32_t in = std::bit_cast<uint32_t>(value);
    const uint32_t sign = in & kSignBit;
    uint32_t mag = in & ~kSignBit;
    if (mag >= kFloatInf)
        return std::bit_cast<float>(kQuietNan);
    const uint32_t exp = mag >> 23;
    if (exp >= min_normal_exp) {
        const uint32_t max_finite =
            ((max_field - bias + 127) << 23) |
            (((uint32_t(1) << man_bits) - 1) << drop);
        mag = roundMagnitude(mag, drop, mode);
        return std::bit_cast<float>(sign |
                                    (mag > max_finite ? max_finite : mag));
    }
    const unsigned shift = drop + std::min(min_normal_exp - exp, 25u - drop);
    const uint32_t sig = (uint32_t(1) << 23) | (mag & 0x7fffffu);
    const uint32_t steps = roundMagnitude(sig, shift, mode) >> shift;
    // steps * 2^(1 - bias - man_bits), an exact float32 product.
    const float grid =
        std::bit_cast<float>((min_normal_exp - man_bits) << 23);
    return std::bit_cast<float>(
        sign | std::bit_cast<uint32_t>(float(steps) * grid));
}

/**
 * quantizeFp8 on four lanes at once, branch-free, with the flavour and
 * the rounding mode fixed at compile time: lane l of the result is
 * bit-identical to quantizeFp8(Kind, fwd_bias, value[l], Mode) (pinned
 * lane by lane in tests/test_float_format.cc). The normal range rounds
 * the magnitude bits as the scalar path does. Below the smallest
 * normal, the magnitude scaled by 2^(bias-1+M) is the exact count of
 * subnormal grid steps, fraction included, in [0, 2^M); it rounds to
 * an integer with float32 arithmetic (2^23 added and taken away
 * rounds to nearest even; the fraction decides ties away from zero)
 * and scales back exactly. Lanes outside that range feed the
 * conversion a zero, so no lane converts an out-of-range float.
 */
template <Fp8Kind Kind, Rounding Mode>
inline F32x4
quantizeFp8(int fwd_bias, F32x4 value)
{
    using namespace detail;
    constexpr bool fwd = Kind == Fp8Kind::Forward;
    constexpr unsigned man_bits = fwd ? 3 : 2;
    constexpr uint32_t max_field = fwd ? 14 : 30;
    constexpr unsigned drop = 23 - man_bits;
    const uint32_t bias = fwd ? uint32_t(fwd_bias) : 15u;
    const int32_t min_normal = int32_t((128 - bias) << 23);
    const uint32_t max_finite = ((max_field - bias + 127) << 23) |
                                (((uint32_t(1) << man_bits) - 1) << drop);
    const float to_steps =
        std::bit_cast<float>((127 + bias - 1 + man_bits) << 23);
    const float grid = std::bit_cast<float>((128 - bias - man_bits) << 23);

    const U32x4 in = std::bit_cast<U32x4>(value);
    const U32x4 mag = in & ~kSignBit;
    const I32x4 smag = std::bit_cast<I32x4>(mag);
    const I32x4 subnormal = smag < min_normal;

    U32x4 normal = roundMagnitude(mag, drop, Mode);
    normal = std::bit_cast<I32x4>(normal) > int32_t(max_finite)
                 ? U32x4{} + max_finite
                 : normal;
    const F32x4 y =
        std::bit_cast<F32x4>(subnormal ? mag : U32x4{}) * to_steps;
    F32x4 steps;
    if constexpr (Mode == Rounding::NearestEven) {
        constexpr float kRoundBias = 0x1p23f;
        steps = (y + kRoundBias) - kRoundBias;
    } else {
        steps = __builtin_convertvector(__builtin_convertvector(y, I32x4),
                                        F32x4);
        if constexpr (Mode == Rounding::NearestUp)
            steps += (y - steps >= 0.5f) ? F32x4{} + 1.0f : F32x4{};
    }
    U32x4 out = subnormal ? std::bit_cast<U32x4>(steps * grid) : normal;
    out = smag >= int32_t(kFloatInf) ? U32x4{} + kQuietNan
                                     : ((in & kSignBit) | out);
    return std::bit_cast<F32x4>(out);
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
