/**
 * @file
 * Unit and property tests for the reduced-precision float codecs.
 * The 8/9-bit formats are small enough to test exhaustively, which is
 * how we prove the on-the-fly FP8 -> FP9 conversion of the MPE input
 * stage is exact (Section III-A.2).
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "common/random.hh"
#include "precision/float_format.hh"

namespace rapid {
namespace {

TEST(DlFloat16, BasicConstants)
{
    const FloatFormat &f = dlfloat16();
    EXPECT_EQ(f.storageBits(), 16u);
    EXPECT_EQ(f.expBits(), 6u);
    EXPECT_EQ(f.manBits(), 9u);
    EXPECT_EQ(f.bias(), 31);
    // Max finite: 2^(62-31) * (2 - 2^-9)
    EXPECT_FLOAT_EQ(f.maxFinite(), std::ldexp(2.0f - std::ldexp(1.0f, -9),
                                              31));
    EXPECT_FALSE(f.hasSubnormals());
}

TEST(DlFloat16, ExactSmallIntegers)
{
    const FloatFormat &f = dlfloat16();
    // 10-bit significand: integers up to 1024 are exact.
    for (int i = -1024; i <= 1024; ++i)
        EXPECT_EQ(f.quantize(float(i)), float(i)) << "i=" << i;
}

TEST(DlFloat16, RoundToNearestEvenTies)
{
    const FloatFormat &f = dlfloat16();
    // 1025 is halfway between 1024 and 1026; RNE picks the even 1024.
    EXPECT_EQ(f.quantize(1025.0f, Rounding::NearestEven), 1024.0f);
    // 1027 is halfway between 1026 and 1028; RNE picks 1028.
    EXPECT_EQ(f.quantize(1027.0f, Rounding::NearestEven), 1028.0f);
    // NearestUp ties away from zero.
    EXPECT_EQ(f.quantize(1025.0f, Rounding::NearestUp), 1026.0f);
    EXPECT_EQ(f.quantize(-1025.0f, Rounding::NearestUp), -1026.0f);
    // Truncation drops toward zero.
    EXPECT_EQ(f.quantize(1025.9f, Rounding::Truncate), 1024.0f);
}

TEST(DlFloat16, SaturatesOnOverflow)
{
    const FloatFormat &f = dlfloat16();
    EXPECT_EQ(f.quantize(1e30f), f.maxFinite());
    EXPECT_EQ(f.quantize(-1e30f), -f.maxFinite());
}

TEST(DlFloat16, FlushesToZeroBelowMinNormal)
{
    const FloatFormat &f = dlfloat16();
    EXPECT_EQ(f.quantize(f.minNormal()), f.minNormal());
    EXPECT_EQ(f.quantize(f.minNormal() * 0.25f), 0.0f);
    // The zero-encoding collision: 2^-31 itself is not representable.
    EXPECT_EQ(f.quantize(std::ldexp(1.0f, -31)), 0.0f);
}

TEST(DlFloat16, NanHandling)
{
    const FloatFormat &f = dlfloat16();
    uint32_t nan_bits = f.encode(std::nanf(""));
    EXPECT_TRUE(f.isNan(nan_bits));
    EXPECT_TRUE(std::isnan(f.decode(nan_bits)));
    // Infinity maps to the merged NaN/Inf symbol.
    uint32_t inf_bits = f.encode(std::numeric_limits<float>::infinity());
    EXPECT_TRUE(f.isNan(inf_bits));
}

TEST(DlFloat16, SignedZeroPreserved)
{
    const FloatFormat &f = dlfloat16();
    EXPECT_EQ(f.encode(0.0f), 0u);
    EXPECT_EQ(f.encode(-0.0f), 0x8000u);
    EXPECT_TRUE(std::signbit(f.decode(0x8000u)));
}

TEST(IeeeHalf, MatchesKnownEncodings)
{
    const FloatFormat &f = ieeeHalf();
    EXPECT_EQ(f.encode(1.0f), 0x3c00u);
    EXPECT_EQ(f.encode(2.0f), 0x4000u);
    EXPECT_EQ(f.encode(-1.5f), 0xbe00u);
    EXPECT_EQ(f.encode(65504.0f), 0x7bffu);
    // Smallest subnormal: 2^-24.
    EXPECT_EQ(f.encode(std::ldexp(1.0f, -24)), 0x0001u);
    EXPECT_FLOAT_EQ(f.decode(0x0001u), std::ldexp(1.0f, -24));
}

/** Exhaustive round-trip: decode(p) must re-encode to p. */
void
checkRoundTripExhaustive(const FloatFormat &f)
{
    for (uint32_t p = 0; p < f.numEncodings(); ++p) {
        float v = f.decode(p);
        if (f.isNan(p)) {
            EXPECT_TRUE(std::isnan(v));
            continue;
        }
        uint32_t back = f.encode(v);
        if (v == 0.0f) {
            // Zero-reading patterns canonicalize to the zero encoding.
            EXPECT_EQ(back & ~(1u << (f.storageBits() - 1)), 0u)
                << f.name() << " p=" << p;
            continue;
        }
        EXPECT_EQ(back, p) << f.name() << " p=" << p << " v=" << v;
    }
}

/** Exhaustive monotonicity of positive decodes (format is ordered). */
void
checkMonotonic(const FloatFormat &f)
{
    float prev = 0.0f;
    uint32_t max_exp_pattern =
        f.numEncodings() / 2 - 1; // positive patterns end here
    for (uint32_t p = 1; p <= max_exp_pattern; ++p) {
        if (f.isNan(p))
            continue;
        float v = f.decode(p);
        EXPECT_GE(v, prev) << f.name() << " p=" << p;
        prev = v;
    }
}

/**
 * Signed total order, exhaustively: rank every pattern by its
 * sign-magnitude key (negative patterns descend as the magnitude
 * field grows) and require decoded values to follow float ordering —
 * strictly so between canonical patterns, since distinct canonical
 * encodings must name distinct values.
 */
void
checkSignedTotalOrder(const FloatFormat &f)
{
    const uint32_t sign_bit = 1u << (f.storageBits() - 1);
    const uint32_t mag_mask = sign_bit - 1;
    std::vector<uint32_t> order;
    order.reserve(f.numEncodings());
    // Negative patterns, largest magnitude first, then positives.
    for (uint32_t m = mag_mask + 1; m-- > 0;)
        order.push_back(sign_bit | m);
    for (uint32_t m = 0; m <= mag_mask; ++m)
        order.push_back(m);

    bool have_prev = false;
    float prev = 0.0f;
    bool prev_canonical = false;
    for (uint32_t p : order) {
        if (f.isNan(p))
            continue;
        float v = f.decode(p);
        bool canonical = f.encode(v) == p;
        if (have_prev) {
            EXPECT_GE(v, prev) << f.name() << " p=" << p;
            // Two canonical non-zero neighbours are strictly ordered
            // (only +0/-0 decode to the same float).
            if (canonical && prev_canonical
                && !(v == 0.0f && prev == 0.0f)) {
                EXPECT_GT(v, prev) << f.name() << " p=" << p;
            }
        }
        have_prev = true;
        prev = v;
        prev_canonical = canonical;
    }
}

/**
 * NaN/Inf region, exhaustively: with merged-NaN semantics every
 * all-ones-exponent pattern reads back as NaN and re-encodes to the
 * canonical symbol; every other pattern reads back finite. Without
 * special encodings no pattern may ever decode to NaN or Inf.
 */
void
checkNanRegionExhaustive(const FloatFormat &f)
{
    const uint32_t sign_bit = 1u << (f.storageBits() - 1);
    for (uint32_t p = 0; p < f.numEncodings(); ++p) {
        float v = f.decode(p);
        if (f.isNan(p)) {
            EXPECT_TRUE(std::isnan(v)) << f.name() << " p=" << p;
            // Any mantissa in the region canonicalizes on re-encode.
            EXPECT_EQ(f.encode(v) & ~sign_bit, f.nanBits())
                << f.name() << " p=" << p;
        } else {
            EXPECT_TRUE(std::isfinite(v)) << f.name() << " p=" << p;
        }
    }
    if (f.hasInfNan()) {
        const float inf = std::numeric_limits<float>::infinity();
        EXPECT_EQ(f.encode(inf), f.nanBits());
        EXPECT_EQ(f.encode(-inf), sign_bit | f.nanBits());
        EXPECT_TRUE(f.isNan(f.encode(std::nanf(""))));
    } else {
        // Saturating format: Inf clamps to the largest finite value.
        const float inf = std::numeric_limits<float>::infinity();
        EXPECT_EQ(f.decode(f.encode(inf)), f.maxFinite());
        EXPECT_EQ(f.decode(f.encode(-inf)), -f.maxFinite());
    }
}

/**
 * Idempotence, exhaustively and for every rounding mode: a value the
 * format can represent is a fixed point of quantize() no matter how
 * ties would round.
 */
void
checkIdempotentExhaustive(const FloatFormat &f)
{
    for (uint32_t p = 0; p < f.numEncodings(); ++p) {
        if (f.isNan(p))
            continue;
        float v = f.decode(p);
        for (Rounding mode : {Rounding::NearestEven, Rounding::NearestUp,
                              Rounding::Truncate}) {
            EXPECT_EQ(f.quantize(v, mode), v)
                << f.name() << " p=" << p << " mode=" << int(mode);
        }
    }
}

class SmallFormatTest : public ::testing::TestWithParam<FloatFormat>
{
};

TEST_P(SmallFormatTest, RoundTripExhaustive)
{
    checkRoundTripExhaustive(GetParam());
}

TEST_P(SmallFormatTest, MonotonicDecode)
{
    checkMonotonic(GetParam());
}

TEST_P(SmallFormatTest, SignedTotalOrderExhaustive)
{
    checkSignedTotalOrder(GetParam());
}

TEST_P(SmallFormatTest, NanRegionExhaustive)
{
    checkNanRegionExhaustive(GetParam());
}

TEST_P(SmallFormatTest, QuantizeIdempotentExhaustive)
{
    checkIdempotentExhaustive(GetParam());
}

TEST_P(SmallFormatTest, QuantizeIsIdempotent)
{
    const FloatFormat &f = GetParam();
    Rng rng(42);
    for (int i = 0; i < 2000; ++i) {
        float x = float(rng.gaussian(0.0, 2.0));
        float q = f.quantize(x);
        EXPECT_EQ(f.quantize(q), q) << f.name() << " x=" << x;
    }
}

TEST_P(SmallFormatTest, RelativeErrorBounded)
{
    const FloatFormat &f = GetParam();
    Rng rng(43);
    // For values in the normal range, relative error <= 2^-(man+1).
    double bound = std::ldexp(1.0, -int(f.manBits()) - 1) * 1.0000001;
    for (int i = 0; i < 5000; ++i) {
        double mag = std::exp(rng.uniform(std::log(double(f.minNormal())),
                                          std::log(double(f.maxFinite()) /
                                                   2)));
        float x = float(rng.uniform() < 0.5 ? -mag : mag);
        float q = f.quantize(x);
        EXPECT_LE(std::abs(double(q) - x), bound * std::abs(x) * (1 + 1e-6))
            << f.name() << " x=" << x << " q=" << q;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, SmallFormatTest,
    ::testing::Values(fp8e4m3(4), fp8e4m3(1), fp8e4m3(7), fp8e4m3(15),
                      fp8e5m2(), fp9(), dlfloat16(), ieeeHalf()),
    [](const ::testing::TestParamInfo<FloatFormat> &param_info) {
        std::string n = param_info.param.name();
        for (auto &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

/**
 * The key datapath property: every FP8 value (both flavours, every
 * legal programmable bias) converts to FP9 (1,5,3) exactly.
 */
TEST(Fp9Conversion, ExactForAllFp8Forward)
{
    for (int bias = 1; bias <= 15; ++bias) {
        FloatFormat f8 = fp8e4m3(bias);
        for (uint32_t p = 0; p < f8.numEncodings(); ++p) {
            if (f8.isNan(p))
                continue;
            float v = f8.decode(p);
            EXPECT_EQ(fp9().quantize(v), v)
                << "bias=" << bias << " p=" << p << " v=" << v;
        }
    }
}

TEST(Fp9Conversion, ExactForAllFp8Backward)
{
    const FloatFormat &f8 = fp8e5m2();
    for (uint32_t p = 0; p < f8.numEncodings(); ++p) {
        if (f8.isNan(p))
            continue;
        float v = f8.decode(p);
        EXPECT_EQ(fp9().quantize(v), v) << "p=" << p << " v=" << v;
    }
}

/** Programmable bias shifts the representable range as intended. */
TEST(Fp8Forward, ProgrammableBiasShiftsRange)
{
    FloatFormat lo_bias = fp8e4m3(1);
    FloatFormat hi_bias = fp8e4m3(11);
    // Raising the bias by 10 scales the whole range down by 2^10.
    EXPECT_FLOAT_EQ(hi_bias.maxFinite(),
                    lo_bias.maxFinite() / std::ldexp(1.0f, 10));
    EXPECT_FLOAT_EQ(hi_bias.minPositive(),
                    lo_bias.minPositive() / std::ldexp(1.0f, 10));
}

TEST(Fp8Forward, SubnormalsRepresented)
{
    FloatFormat f8 = fp8e4m3(4);
    // Min subnormal = 2^(1-4) * 2^-3 = 2^-6.
    EXPECT_FLOAT_EQ(f8.minPositive(), std::ldexp(1.0f, -6));
    EXPECT_EQ(f8.quantize(std::ldexp(1.0f, -6)), std::ldexp(1.0f, -6));
    // Half of it rounds to it or to zero, never elsewhere.
    float half = std::ldexp(1.0f, -7);
    float q = f8.quantize(half);
    EXPECT_TRUE(q == 0.0f || q == f8.minPositive());
}

TEST(Fp8Backward, WiderDynamicRangeThanForward)
{
    // The (1,5,2) gradient format trades mantissa for range.
    EXPECT_GT(fp8e5m2().maxFinite(), fp8e4m3(4).maxFinite());
    EXPECT_LT(fp8e5m2().minPositive(), fp8e4m3(4).minPositive());
}


/**
 * The MPE output-path property: every FP8 and FP9 value is exactly
 * representable in DLFloat16, so results and partial sums never lose
 * information crossing to the 16-bit south bus.
 */
TEST(CrossFormat, DlFloat16RepresentsAllFp8AndFp9)
{
    for (const FloatFormat &f8 :
         {fp8e4m3(1), fp8e4m3(4), fp8e4m3(15), fp8e5m2(), fp9()}) {
        for (uint32_t p = 0; p < f8.numEncodings(); ++p) {
            if (f8.isNan(p))
                continue;
            float v = f8.decode(p);
            EXPECT_EQ(dlfloat16().quantize(v), v)
                << f8.name() << " p=" << p;
        }
    }
}

/** Rounding-mode contracts hold for every format. */
TEST(CrossFormat, RoundingModeContracts)
{
    Rng rng(101);
    for (const FloatFormat &fmt :
         {fp8e4m3(4), fp8e5m2(), dlfloat16()}) {
        for (int i = 0; i < 3000; ++i) {
            float x = float(rng.gaussian(0.0, 1.5));
            float trunc = fmt.quantize(x, Rounding::Truncate);
            float rne = fmt.quantize(x, Rounding::NearestEven);
            float rnu = fmt.quantize(x, Rounding::NearestUp);
            // Truncation never increases magnitude.
            EXPECT_LE(std::abs(trunc), std::abs(x) + 1e-12)
                << fmt.name();
            // Nearest modes are at least as close as truncation.
            EXPECT_LE(std::abs(rne - x), std::abs(trunc - x) + 1e-12)
                << fmt.name();
            // The two nearest modes only ever differ at exact ties.
            if (rne != rnu) {
                EXPECT_FLOAT_EQ(std::abs(rne - x), std::abs(rnu - x))
                    << fmt.name() << " x=" << x;
            }
        }
    }
}

// ---------------------------------------------------------------------
// quantizeDl16: the inline fast path, pinned bit for bit to the
// generic codec (dlfloat16().quantize) in every rounding mode.
// ---------------------------------------------------------------------

constexpr Rounding kAllModes[] = {Rounding::NearestEven,
                                  Rounding::NearestUp, Rounding::Truncate};

/** The sweep stride: the environment variable @p env, or @p fallback. */
uint64_t
sweepStride(const char *env, uint64_t fallback)
{
    if (const char *value = std::getenv(env))
        return std::max<uint64_t>(1, std::strtoull(value, nullptr, 10));
    return fallback;
}

/** Count (and report the first few) fast-vs-codec mismatches for the
 *  float32 bit pattern @p bits in every rounding mode. */
void
expectFastMatchesCodec(uint32_t bits, int &mismatches)
{
    const float x = std::bit_cast<float>(bits);
    for (Rounding mode : kAllModes) {
        const uint32_t codec =
            std::bit_cast<uint32_t>(dlfloat16().quantize(x, mode));
        const uint32_t fast = std::bit_cast<uint32_t>(quantizeDl16(x, mode));
        if (codec != fast && ++mismatches <= 8) {
            ADD_FAILURE() << "input 0x" << std::hex << bits << " mode "
                          << int(mode) << ": codec 0x" << codec
                          << ", fast 0x" << fast;
        }
    }
}

/** Count mismatches between each lane of the four-lane quantizeDl16
 *  and the scalar one, in every rounding mode. */
void
expectLanesMatchScalar(F32x4 v, int &mismatches)
{
    const F32x4 lanes[] = {quantizeDl16<Rounding::NearestEven>(v),
                           quantizeDl16<Rounding::NearestUp>(v),
                           quantizeDl16<Rounding::Truncate>(v)};
    for (size_t m = 0; m < 3; ++m)
        for (int l = 0; l < 4; ++l) {
            const uint32_t scalar = std::bit_cast<uint32_t>(
                quantizeDl16(v[l], kAllModes[m]));
            const uint32_t lane = std::bit_cast<uint32_t>(lanes[m][l]);
            if (scalar != lane && ++mismatches <= 8) {
                ADD_FAILURE() << "input 0x" << std::hex
                              << std::bit_cast<uint32_t>(v[l]) << " lane "
                              << l << " mode " << m << ": scalar 0x"
                              << scalar << ", lane 0x" << lane;
            }
        }
}

/**
 * Pins a scalar fast path and its four-lane form on a stream of
 * inputs: @p ScalarCheck (bits, mismatches) on each input, and
 * @p LaneCheck (lanes, mismatches) on the inputs taken four at a time,
 * so every lane sees different values.
 */
template <typename ScalarCheck, typename LaneCheck>
class LanePin
{
  public:
    LanePin(ScalarCheck scalar, LaneCheck lanes)
        : scalar_(scalar), lanes_(lanes)
    {
    }

    void
    add(uint32_t bits)
    {
        scalar_(bits, mismatches_);
        group_[filled_] = std::bit_cast<float>(bits);
        if (++filled_ == 4)
            flushLanes();
    }

    /** Mismatches so far, the last partial group of lanes included. */
    int
    mismatches()
    {
        if (filled_ > 0)
            flushLanes();
        return mismatches_;
    }

  private:
    void
    flushLanes()
    {
        lanes_(group_, mismatches_);
        filled_ = 0;
    }

    ScalarCheck scalar_;
    LaneCheck lanes_;
    F32x4 group_{};
    int filled_ = 0;
    int mismatches_ = 0;
};

/** quantizeDl16 against the codec, its four-lane form against it. */
auto
dl16Pin()
{
    return LanePin(expectFastMatchesCodec, expectLanesMatchScalar);
}

/**
 * Every DLFloat16 value, both signs, plus its float32 neighbours at
 * +-1 ulp, at the DLFloat16 half-ulp tie points (+-2^13 in float32
 * magnitude bits), and +-1 float32 ulp around each tie.
 */
TEST(QuantizeDl16, MatchesCodecAroundEveryDlFloat16Value)
{
    constexpr int64_t kHalf = int64_t(1) << 13;
    constexpr int64_t kOffsets[] = {0,         1,          -1,
                                    kHalf,     kHalf - 1,  kHalf + 1,
                                    -kHalf,    -kHalf - 1, -kHalf + 1};
    auto pin = dl16Pin();
    for (uint32_t p = 0; p < dlfloat16().numEncodings(); ++p) {
        const float v = dlfloat16().decode(p);
        if (std::isnan(v))
            continue; // the NaN symbol; NaN inputs are checked below
        const uint32_t bits = std::bit_cast<uint32_t>(v);
        const int64_t mag = int64_t(bits & 0x7fffffffu);
        const uint32_t sign = bits & 0x80000000u;
        for (int64_t off : kOffsets) {
            const int64_t m = mag + off;
            if (m < 0 || m > 0x7fffffff)
                continue;
            pin.add(sign | uint32_t(m));
        }
    }
    EXPECT_EQ(pin.mismatches(), 0);
}

/** The flush (2^-31) and saturate boundaries and the special inputs. */
TEST(QuantizeDl16, FlushSaturateAndSpecialBoundaries)
{
    const float flush = std::ldexp(1.0f, -31);
    const float min_normal = dlfloat16().minNormal();
    const float max_finite = dlfloat16().maxFinite();
    const float inf = std::numeric_limits<float>::infinity();
    const float probes[] = {
        0.0f, std::numeric_limits<float>::denorm_min(),
        std::numeric_limits<float>::min(), std::ldexp(1.0f, -32),
        std::nextafter(flush, 0.0f), flush, std::nextafter(flush, inf),
        (flush + min_normal) / 2.0f,
        std::nextafter((flush + min_normal) / 2.0f, 0.0f),
        std::nextafter((flush + min_normal) / 2.0f, inf),
        std::nextafter(min_normal, 0.0f), min_normal,
        std::nextafter(max_finite, 0.0f), max_finite,
        std::nextafter(max_finite, inf),
        max_finite + std::ldexp(1.0f, 31 - 10),
        std::ldexp(1.0f, 32), std::numeric_limits<float>::max(), inf,
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::signaling_NaN()};
    auto pin = dl16Pin();
    for (float v : probes) {
        pin.add(std::bit_cast<uint32_t>(v));
        pin.add(std::bit_cast<uint32_t>(-v));
    }
    EXPECT_EQ(pin.mismatches(), 0);

    // The three special cases, stated directly.
    EXPECT_EQ(quantizeDl16(flush), 0.0f);
    EXPECT_TRUE(std::signbit(quantizeDl16(-flush)));
    // Halfway between 2^-31 and the smallest normal: ties-away reaches
    // the normal, ties-to-even lands on (e=0, m=0) and flushes.
    const float tie = (flush + min_normal) / 2.0f;
    EXPECT_EQ(quantizeDl16(tie, Rounding::NearestUp), min_normal);
    EXPECT_EQ(quantizeDl16(tie, Rounding::NearestEven), 0.0f);
    EXPECT_EQ(quantizeDl16(std::numeric_limits<float>::max()), max_finite);
    EXPECT_TRUE(std::isnan(quantizeDl16(-inf)));
    EXPECT_TRUE(std::isnan(
        quantizeDl16(std::numeric_limits<float>::quiet_NaN())));
}

/**
 * A strided sweep of the whole float32 space. The stride is an odd
 * prime, so the sampled patterns cover every residue of the 14 dropped
 * mantissa bits. RAPID_DL16_SWEEP_STRIDE=1 runs the exhaustive
 * 2^32 x 3-mode sweep (minutes, not part of the default budget).
 */
TEST(QuantizeDl16, MatchesCodecOnStridedFloat32Sweep)
{
    const uint64_t stride = sweepStride("RAPID_DL16_SWEEP_STRIDE", 4093);
    auto pin = dl16Pin();
    for (uint64_t bits = 0; bits <= 0xffffffffu; bits += stride)
        pin.add(uint32_t(bits));
    EXPECT_EQ(pin.mismatches(), 0);
}

// ---------------------------------------------------------------------
// quantizeFp8: the inline FP8 rounding, pinned bit for bit to the
// generic codec for every forward bias and the backward format, in
// every rounding mode.
// ---------------------------------------------------------------------

/** One FP8 flavour: quantizeFp8's arguments and the codec's format. */
struct Fp8Flavour
{
    Fp8Kind kind;
    int bias;
    FloatFormat fmt;
};

std::vector<Fp8Flavour>
allFp8Flavours()
{
    std::vector<Fp8Flavour> flavours;
    for (int bias = 1; bias <= 15; ++bias)
        flavours.push_back({Fp8Kind::Forward, bias, fp8e4m3(bias)});
    flavours.push_back({Fp8Kind::Backward, 15, fp8e5m2()});
    return flavours;
}

/** Count (and report the first few) quantizeFp8-vs-codec mismatches
 *  for the float32 bit pattern @p bits in every rounding mode. */
void
expectFp8MatchesCodec(const Fp8Flavour &f, uint32_t bits, int &mismatches)
{
    const float x = std::bit_cast<float>(bits);
    for (Rounding mode : kAllModes) {
        const uint32_t codec = std::bit_cast<uint32_t>(f.fmt.quantize(x, mode));
        const uint32_t fast =
            std::bit_cast<uint32_t>(quantizeFp8(f.kind, f.bias, x, mode));
        if (codec != fast && ++mismatches <= 8) {
            ADD_FAILURE() << f.fmt.name() << " input 0x" << std::hex
                          << bits << " mode " << int(mode) << ": codec 0x"
                          << codec << ", fast 0x" << fast;
        }
    }
}

/** Count mismatches between each lane of the four-lane quantizeFp8
 *  and the scalar one, in every rounding mode. */
template <Fp8Kind Kind>
void
expectFp8LanesMatchScalar(const Fp8Flavour &f, F32x4 v, int &mismatches)
{
    const F32x4 lanes[] = {
        quantizeFp8<Kind, Rounding::NearestEven>(f.bias, v),
        quantizeFp8<Kind, Rounding::NearestUp>(f.bias, v),
        quantizeFp8<Kind, Rounding::Truncate>(f.bias, v)};
    for (size_t m = 0; m < 3; ++m)
        for (int l = 0; l < 4; ++l) {
            const uint32_t scalar = std::bit_cast<uint32_t>(
                quantizeFp8(Kind, f.bias, v[l], kAllModes[m]));
            const uint32_t lane = std::bit_cast<uint32_t>(lanes[m][l]);
            if (scalar != lane && ++mismatches <= 8) {
                ADD_FAILURE() << f.fmt.name() << " input 0x" << std::hex
                              << std::bit_cast<uint32_t>(v[l]) << " lane "
                              << l << " mode " << m << ": scalar 0x"
                              << scalar << ", lane 0x" << lane;
            }
        }
}

/** quantizeFp8 in flavour @p f against the codec, its four-lane form
 *  against it. */
auto
fp8Pin(const Fp8Flavour &f)
{
    return LanePin(
        [&f](uint32_t bits, int &mismatches) {
            expectFp8MatchesCodec(f, bits, mismatches);
        },
        [&f](F32x4 lanes, int &mismatches) {
            if (f.kind == Fp8Kind::Forward)
                expectFp8LanesMatchScalar<Fp8Kind::Forward>(f, lanes,
                                                            mismatches);
            else
                expectFp8LanesMatchScalar<Fp8Kind::Backward>(f, lanes,
                                                             mismatches);
        });
}

/**
 * Every FP8 value of every flavour, both signs, with its float32
 * neighbours at +-1 ulp, and the half-ulp tie to the next FP8 value up
 * (the overflow threshold above the largest finite value) with its
 * +-1 ulp neighbours.
 */
TEST(QuantizeFp8, MatchesCodecAroundEveryFp8Value)
{
    int mismatches = 0;
    for (const Fp8Flavour &f : allFp8Flavours()) {
        auto pin = fp8Pin(f);
        for (uint32_t p = 0; p < 128; ++p) {
            if (f.fmt.isNan(p))
                continue;
            const float v = f.fmt.decode(p);
            // Past the largest finite value, one more ulp up.
            const float next = f.fmt.isNan(p + 1)
                                   ? v + (v - f.fmt.decode(p - 1))
                                   : f.fmt.decode(p + 1);
            const uint32_t tie = std::bit_cast<uint32_t>((v + next) / 2.0f);
            const uint32_t at = std::bit_cast<uint32_t>(v);
            for (uint32_t mag : {at, at + 1, at - 1, tie, tie + 1, tie - 1}) {
                if (mag > 0x7fffffffu)
                    continue; // below +0
                pin.add(mag);
                pin.add(mag | 0x80000000u);
            }
        }
        mismatches += pin.mismatches();
    }
    EXPECT_EQ(mismatches, 0);
}

/** Zeros, float32 subnormals, the saturate boundary and Inf/NaN. */
TEST(QuantizeFp8, ZerosSubnormalsSaturateAndSpecials)
{
    const float inf = std::numeric_limits<float>::infinity();
    int mismatches = 0;
    for (const Fp8Flavour &f : allFp8Flavours()) {
        auto pin = fp8Pin(f);
        const float max_finite = f.fmt.maxFinite();
        const float probes[] = {
            0.0f, std::numeric_limits<float>::denorm_min(),
            std::bit_cast<float>(0x007fffffu),
            std::numeric_limits<float>::min(), f.fmt.minPositive() / 2.0f,
            std::nextafter(f.fmt.minPositive() / 2.0f, 0.0f),
            std::nextafter(f.fmt.minPositive() / 2.0f, inf),
            std::nextafter(max_finite, 0.0f), max_finite,
            std::nextafter(max_finite, inf), 2.0f * max_finite,
            std::numeric_limits<float>::max(), inf,
            std::numeric_limits<float>::quiet_NaN(),
            std::numeric_limits<float>::signaling_NaN(),
            std::bit_cast<float>(0x7f800001u)};
        for (float v : probes) {
            pin.add(std::bit_cast<uint32_t>(v));
            pin.add(std::bit_cast<uint32_t>(-v));
        }
        mismatches += pin.mismatches();
        // The special cases, stated directly.
        for (Rounding mode : kAllModes) {
            EXPECT_TRUE(std::isnan(quantizeFp8(f.kind, f.bias, inf, mode)));
            EXPECT_TRUE(std::isnan(quantizeFp8(f.kind, f.bias, -inf, mode)));
            EXPECT_EQ(quantizeFp8(f.kind, f.bias,
                                  std::numeric_limits<float>::max(), mode),
                      max_finite);
            EXPECT_TRUE(std::signbit(quantizeFp8(
                f.kind, f.bias, -std::numeric_limits<float>::min(), mode)));
        }
    }
    EXPECT_EQ(mismatches, 0);
}

/**
 * A strided sweep of the whole float32 space for every flavour. The
 * stride is an odd prime; RAPID_FP8_SWEEP_STRIDE overrides it (1 is
 * the exhaustive 2^32 x 16 flavours x 3 modes sweep).
 */
TEST(QuantizeFp8, MatchesCodecOnStridedFloat32Sweep)
{
    const uint64_t stride = sweepStride("RAPID_FP8_SWEEP_STRIDE", 65521);
    int mismatches = 0;
    for (const Fp8Flavour &f : allFp8Flavours()) {
        auto pin = fp8Pin(f);
        for (uint64_t bits = 0; bits <= 0xffffffffu; bits += stride)
            pin.add(uint32_t(bits));
        mismatches += pin.mismatches();
    }
    EXPECT_EQ(mismatches, 0);
}

/**
 * Laplace(0.7) draws, the value mix of trained weights that the strided
 * sweep skips over, through quantizeFp8 and its four-lane form against
 * the codec in every flavour and rounding mode. (The suite is named for
 * the 256-entry decode table that once fronted this quantizer.)
 */
TEST(DecodeLut, QuantizeMatchesScalarInEveryRoundingMode)
{
    int mismatches = 0;
    for (const Fp8Flavour &f : allFp8Flavours()) {
        auto pin = fp8Pin(f);
        Rng rng(202);
        for (int i = 0; i < 2000; ++i)
            pin.add(std::bit_cast<uint32_t>(float(rng.laplace(0.7))));
        mismatches += pin.mismatches();
    }
    EXPECT_EQ(mismatches, 0);
}

} // namespace
} // namespace rapid
