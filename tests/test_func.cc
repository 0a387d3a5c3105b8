/**
 * @file
 * Tests for the functional simulator: reduced-precision executors
 * against the FP32 golden operators, and the precision-parity
 * experiments that reproduce the paper's algorithmic claims
 * (Sections II-B and II-C).
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "func/datasets.hh"
#include "func/quantized_ops.hh"
#include "func/trainer.hh"

namespace rapid {
namespace {

Tensor
randomTensor(Rng &rng, std::vector<int64_t> shape, double stddev = 0.5)
{
    Tensor t(std::move(shape));
    t.fillGaussian(rng, 0.0, stddev);
    return t;
}

TEST(Fp16Exec, MatmulCloseToGolden)
{
    Rng rng(1);
    Tensor a = randomTensor(rng, {8, 32});
    Tensor b = randomTensor(rng, {32, 8});
    Tensor ref = matmul(a, b);
    Tensor got = fp16Matmul(a, b);
    // DLFloat16 has a 10-bit significand: per-GEMM relative error stays
    // in the low 1e-3 range for K=32 reductions.
    EXPECT_LT(relativeL2(got, ref), 5e-3);
}

TEST(Fp16Exec, ConvCloseToGolden)
{
    Rng rng(2);
    Tensor x = randomTensor(rng, {1, 4, 6, 6});
    Tensor w = randomTensor(rng, {5, 4, 3, 3});
    ConvParams p;
    p.pad = 1;
    Tensor ref = conv2d(x, w, p);
    Tensor got = fp16Conv2d(x, w, p);
    EXPECT_LT(relativeL2(got, ref), 5e-3);
}

TEST(Hfp8Exec, MatmulErrorMatchesFormatResolution)
{
    Rng rng(3);
    Tensor a = randomTensor(rng, {8, 64});
    Tensor b = randomTensor(rng, {64, 8});
    Tensor ref = matmul(a, b);
    Tensor got = hfp8Matmul(a, Fp8Kind::Forward, b, Fp8Kind::Forward);
    double err = relativeL2(got, ref);
    // 3-bit mantissas: expect a few percent, far better than garbage.
    EXPECT_LT(err, 0.08);
    EXPECT_GT(err, 1e-5); // and it must actually be quantized
}

TEST(Hfp8Exec, BackwardFormatHandlesWiderRange)
{
    Rng rng(4);
    // Gradient-like tensors with large dynamic range.
    Tensor g({4, 32});
    for (int64_t i = 0; i < g.numel(); ++i)
        g[i] = float(rng.gaussian() * std::pow(10.0, rng.uniform(-1, 4)));
    Tensor w = randomTensor(rng, {32, 4});
    Tensor ref = matmul(g, w);
    Tensor fwd_fmt = hfp8Matmul(g, Fp8Kind::Forward, w,
                                Fp8Kind::Forward);
    Tensor bwd_fmt = hfp8Matmul(g, Fp8Kind::Backward, w,
                                Fp8Kind::Forward);
    // Values up to ~1e4 saturate the forward format (max 1920 at
    // bias 4); the (1,5,2) error format must track the reference
    // better than forcing gradients through the forward format.
    EXPECT_LT(relativeL2(bwd_fmt, ref), relativeL2(fwd_fmt, ref));
}

TEST(Hfp8Exec, MatmulEquivalentToDatapathFma)
{
    // Cross-check the tensor executor against the scalar datapath on a
    // single dot product with chunk size 1 ... K.
    Rng rng(5);
    Tensor a = randomTensor(rng, {1, 16});
    Tensor b = randomTensor(rng, {16, 1});
    ExecConfig cfg;
    cfg.chunk_size = 1024; // single chunk: pure FP16 accumulation
    Tensor got = hfp8Matmul(a, Fp8Kind::Forward, b, Fp8Kind::Forward,
                            cfg);
    MpeDatapath dp(cfg.fwd_bias);
    float acc = 0.0f;
    for (int64_t k = 0; k < 16; ++k)
        acc = dp.hfp8Fma(a[k], Fp8Kind::Forward, b[k], Fp8Kind::Forward,
                         acc);
    EXPECT_FLOAT_EQ(got[0], acc);
}

// ---------------------------------------------------------------------
// The column-laned GEMMs against a per-output oracle: one chunked
// DLFloat16 dot per output, written out here on the generic codec
// (FloatFormat::quantize) rather than on ChunkAccumulator.
// ---------------------------------------------------------------------

/** chunkedDot semantics for output (i, j) of prepared operands. */
float
referenceChunkedDot(const Tensor &qa, const Tensor &qb, int64_t i,
                    int64_t j, const ExecConfig &cfg)
{
    const FloatFormat &dl = dlfloat16();
    auto fold = [&](float outer, float chunk) {
        return cfg.fp32_outer ? outer + chunk
                              : dl.quantize(outer + chunk, cfg.rounding);
    };
    float chunk = 0.0f, outer = 0.0f;
    size_t fill = 0;
    for (int64_t kk = 0; kk < qa.dim(1); ++kk) {
        const float a = qa.at(i, kk), b = qb.at(kk, j);
        if (a == 0.0f || b == 0.0f)
            continue;
        chunk = dl.quantize(float(double(chunk) + double(a) * double(b)),
                            cfg.rounding);
        if (++fill == cfg.chunk_size) {
            outer = fold(outer, chunk);
            chunk = 0.0f;
            fill = 0;
        }
    }
    if (fill)
        outer = fold(outer, chunk);
    return dl.quantize(outer, cfg.rounding);
}

/** Compare @p got with the oracle on the quantized operands. */
void
expectMatchesReference(const Tensor &got, const Tensor &qa,
                       const Tensor &qb, const ExecConfig &cfg,
                       const std::string &what)
{
    ASSERT_EQ(got.dim(0), qa.dim(0));
    ASSERT_EQ(got.dim(1), qb.dim(1));
    int mismatches = 0;
    for (int64_t i = 0; i < got.dim(0); ++i)
        for (int64_t j = 0; j < got.dim(1); ++j) {
            const uint32_t want =
                std::bit_cast<uint32_t>(referenceChunkedDot(qa, qb, i, j,
                                                            cfg));
            const uint32_t have = std::bit_cast<uint32_t>(got.at(i, j));
            if (want != have && ++mismatches <= 4)
                ADD_FAILURE() << what << " output (" << i << "," << j
                              << "): 0x" << std::hex << have
                              << " vs reference 0x" << want;
        }
}

/** The operand mixes the laned GEMMs are pinned on. */
enum class LaneRegime
{
    /// Post-ReLU activations (about half zero); column j of b is
    /// zeroed with a probability that cycles through 0, 0.3 and 0.6
    /// with j, so the lanes of one pass fill (and fold) their chunks
    /// at different k.
    Mixed,
    /// Log-uniform magnitudes over 2^-24..2^24 with random signs: some
    /// products flush below 2^-31, some sums saturate DLFloat16.
    WideRange,
    /// Runs of 10 to 120 zeros in the rows of a and in the columns of b.
    ZeroRuns,
};

/** Fill @p a (m, k) and @p b (k, n) for @p regime. */
void
laneOperands(Rng &rng, LaneRegime regime, int64_t m, int64_t k, int64_t n,
             Tensor &a, Tensor &b)
{
    a = randomTensor(rng, {m, k}, 1.0);
    b = randomTensor(rng, {k, n}, 0.7);
    switch (regime) {
      case LaneRegime::Mixed:
        a.apply([](float v) { return v > 0.0f ? v : 0.0f; });
        for (int64_t kk = 0; kk < k; ++kk)
            for (int64_t j = 0; j < n; ++j)
                if (rng.uniform() < 0.3 * double(j % 3))
                    b.at(kk, j) = 0.0f;
        break;
      case LaneRegime::WideRange: {
        auto wide = [&](float v) {
            return std::copysign(
                float(std::exp2(rng.uniform(-24.0, 24.0))), v);
        };
        a.apply(wide);
        b.apply(wide);
        break;
      }
      case LaneRegime::ZeroRuns: {
        // Alternate nonzero and zero runs along each vector.
        auto zeroRuns = [&](int64_t len, auto &&at) {
            int64_t pos = int64_t(rng.uniform(0.0, 30.0));
            while (pos < len) {
                const int64_t run = 10 + int64_t(rng.uniform(0.0, 111.0));
                for (int64_t r = pos; r < std::min(len, pos + run); ++r)
                    at(r) = 0.0f;
                pos += run + 1 + int64_t(rng.uniform(0.0, 60.0));
            }
        };
        for (int64_t i = 0; i < m; ++i)
            zeroRuns(k, [&](int64_t kk) -> float & { return a.at(i, kk); });
        for (int64_t j = 0; j < n; ++j)
            zeroRuns(k, [&](int64_t kk) -> float & { return b.at(kk, j); });
        break;
      }
    }
}

/**
 * fp16Matmul and hfp8Matmul against the per-output oracle: every
 * width from 1 to 17 (tails of every length, one and two lane passes)
 * and 67, chunks shorter and longer than a run of zeros or than k, both
 * outer precisions, every rounding mode, and each operand regime. The
 * HFP8 path runs the wide range at forward bias 1 (sums saturate) and
 * 15 (products flush).
 */
TEST(LanedGemm, BitIdenticalToPerOutputChunkedDot)
{
    Rng rng(41);
    std::vector<int64_t> widths;
    for (int64_t n = 1; n <= 17; ++n)
        widths.push_back(n);
    widths.push_back(67);
    const struct
    {
        LaneRegime regime;
        int fwd_bias;
        const char *name;
    } cases[] = {{LaneRegime::Mixed, 4, "mixed"},
                 {LaneRegime::WideRange, 1, "wide/bias1"},
                 {LaneRegime::WideRange, 15, "wide/bias15"},
                 {LaneRegime::ZeroRuns, 4, "zero-runs"}};
    for (const auto &c : cases)
        for (int64_t n : widths) {
            Tensor a, b;
            laneOperands(rng, c.regime, 2, 250, n, a, b);
            for (size_t chunk : {size_t(1), size_t(7), size_t(64),
                                 size_t(200)})
                for (bool fp32_outer : {true, false})
                    for (Rounding mode :
                         {Rounding::NearestEven, Rounding::NearestUp,
                          Rounding::Truncate}) {
                        ExecConfig cfg;
                        cfg.chunk_size = chunk;
                        cfg.fp32_outer = fp32_outer;
                        cfg.fwd_bias = c.fwd_bias;
                        cfg.rounding = mode;
                        const std::string what =
                            std::string(c.name) + " n=" +
                            std::to_string(n) + " chunk=" +
                            std::to_string(chunk) + " fp32_outer=" +
                            std::to_string(fp32_outer) + " mode=" +
                            std::to_string(int(mode));

                        Tensor qa = a, qb = b;
                        auto dl = [&](float v) {
                            return dlfloat16().quantize(v, mode);
                        };
                        qa.apply(dl);
                        qb.apply(dl);
                        expectMatchesReference(fp16Matmul(a, b, cfg), qa,
                                               qb, cfg, "fp16 " + what);

                        const FloatFormat fwd = fp8e4m3(c.fwd_bias);
                        qa = a;
                        qb = b;
                        auto f8 = [&](float v) {
                            return fwd.quantize(v, mode);
                        };
                        qa.apply(f8);
                        qb.apply(f8);
                        expectMatchesReference(
                            hfp8Matmul(a, Fp8Kind::Forward, b,
                                       Fp8Kind::Forward, cfg),
                            qa, qb, cfg, "hfp8 " + what);
                    }
        }
}

/**
 * An FP16 outer sum that cancels to a flushed -0 stays -0: with chunk
 * size 1, 2^-30 folds first, then -(2^-30 + 2^-39), and the outer
 * rounding flushes -2^-39 to -0. The total of a dot whose last chunk
 * just folded is that outer sum itself, not a fold of it with an
 * empty (+0) chunk, which would give +0.
 */
TEST(LanedGemm, FlushedNegativeOuterSumStaysNegativeZero)
{
    ExecConfig cfg;
    cfg.chunk_size = 1;
    cfg.fp32_outer = false;
    const float x = std::ldexp(1.0f, -30);
    const float y = std::ldexp(1.0f + std::ldexp(1.0f, -9), -30);
    for (int64_t n : {1, 8, 9}) {
        Tensor a({1, 2});
        a.fill(1.0f);
        Tensor b({2, n});
        b.fill(0.0f);
        b.at(0, n - 1) = x;
        b.at(1, n - 1) = -y;
        const Tensor got = fp16Matmul(a, b, cfg);
        EXPECT_EQ(std::bit_cast<uint32_t>(got.at(0, n - 1)), 0x80000000u)
            << "n=" << n << ": " << got.at(0, n - 1);
    }
}

/** The NumericFault a NaN operand raises from fp16Matmul. */
std::string
numericFaultMessage(const Tensor &a, const Tensor &b)
{
    try {
        fp16Matmul(a, b);
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::NumericFault);
        return e.message();
    }
    ADD_FAILURE() << "NaN operand must trip the accumulation guard";
    return "";
}

TEST(LanedGemm, PoisonedLaneThrowsTheScalarPathFault)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    Tensor a({2, 20});
    a.fill(1.0f);
    // Four columns: a tail, run through the lane kernel from a padded
    // copy, then replayed through the per-output chunkedDot.
    Tensor narrow({20, 4});
    narrow.fill(0.5f);
    narrow.at(5, 3) = nan;
    // Sixteen columns: two lane passes; column 3 is in the first. A
    // second poisoned lane at an earlier k must not win: outputs fault
    // in column order, as in the per-output loop.
    Tensor wide({20, 16});
    wide.fill(0.5f);
    wide.at(5, 3) = nan;
    wide.at(2, 6) = nan;

    const std::string scalar = numericFaultMessage(a, narrow);
    EXPECT_NE(scalar.find("non-finite product at element 5 of a "
                          "20-element chunked dot"),
              std::string::npos)
        << scalar;
    EXPECT_EQ(numericFaultMessage(a, wide), scalar);
}

/** quantizeTensorFp8 quantizes exactly like the codec for every bias. */
TEST(Hfp8Exec, QuantizeTensorFp8MatchesCodecForEveryBias)
{
    Rng rng(43);
    const Tensor t = randomTensor(rng, {4, 64}, 3.0);
    for (int bias = 1; bias <= 15; ++bias) {
        ExecConfig cfg;
        cfg.fwd_bias = bias;
        cfg.rounding = bias % 2 ? Rounding::NearestUp
                                : Rounding::NearestEven;
        const Tensor fwd = quantizeTensorFp8(t, Fp8Kind::Forward, cfg);
        const Tensor bwd = quantizeTensorFp8(t, Fp8Kind::Backward, cfg);
        for (int64_t i = 0; i < t.numel(); ++i) {
            EXPECT_EQ(std::bit_cast<uint32_t>(fwd[i]),
                      std::bit_cast<uint32_t>(
                          fp8e4m3(bias).quantize(t[i], cfg.rounding)));
            EXPECT_EQ(std::bit_cast<uint32_t>(bwd[i]),
                      std::bit_cast<uint32_t>(
                          fp8e5m2().quantize(t[i], cfg.rounding)));
        }
    }
}

/** An out-of-range forward bias still fails inside fp8e4m3(). */
TEST(Hfp8ExecDeathTest, OutOfRangeForwardBiasRejected)
{
    const Tensor t({1, 1});
    ExecConfig cfg;
    cfg.fwd_bias = 0;
    EXPECT_DEATH(quantizeTensorFp8(t, Fp8Kind::Forward, cfg), "bias");
    cfg.fwd_bias = 16;
    EXPECT_DEATH(quantizeTensorFp8(t, Fp8Kind::Forward, cfg), "bias");
}

TEST(IntExec, MatmulCloseToGoldenOnClippedData)
{
    Rng rng(6);
    // PACT regime: non-negative activations within the clip range.
    Tensor a({8, 64});
    for (int64_t i = 0; i < a.numel(); ++i)
        a[i] = float(std::abs(rng.gaussian(0.0, 1.2)));
    Tensor b = randomTensor(rng, {64, 8}, 0.4);
    PactQuantizer act_q(4.0f, 4);
    SawbQuantizer wt_q(b.storage(), 4);
    Tensor ref = matmul(a, b);
    Tensor got = intMatmul(a, act_q, b, wt_q, 4);
    // 4-bit operands on both sides: low-tens-of-percent element error
    // that partially cancels over the K=64 reduction.
    EXPECT_LT(relativeL2(got, ref), 0.25);
}

TEST(IntExec, Int2CoarserThanInt4)
{
    Rng rng(7);
    Tensor a({8, 64});
    for (int64_t i = 0; i < a.numel(); ++i)
        a[i] = float(std::abs(rng.gaussian(0.0, 1.0)));
    Tensor b = randomTensor(rng, {64, 8}, 0.4);
    Tensor ref = matmul(a, b);
    PactQuantizer a4(3.0f, 4), a2(3.0f, 2);
    SawbQuantizer w4(b.storage(), 4), w2(b.storage(), 2);
    double err4 = relativeL2(intMatmul(a, a4, b, w4, 4), ref);
    double err2 = relativeL2(intMatmul(a, a2, b, w2, 2), ref);
    EXPECT_LT(err4, err2);
}

TEST(IntExec, ConvMatchesMatmulForOneByOneKernel)
{
    Rng rng(8);
    // A 1x1 convolution is a GEMM over channels; both executors must
    // produce identical quantized results.
    const int64_t ci = 16, co = 6, hw = 3;
    Tensor x({1, ci, hw, hw});
    for (int64_t i = 0; i < x.numel(); ++i)
        x[i] = float(std::abs(rng.gaussian(0.0, 1.0)));
    Tensor w = randomTensor(rng, {co, ci, 1, 1}, 0.4);
    PactQuantizer act_q(3.0f, 4);
    SawbQuantizer wt_q(w.storage(), 4);
    Tensor conv_out = intConv2d(x, act_q, w, wt_q, 4);

    // Build the equivalent GEMM: (H*W, Ci) x (Ci, Co).
    Tensor a({hw * hw, ci});
    for (int64_t c = 0; c < ci; ++c)
        for (int64_t p = 0; p < hw * hw; ++p)
            a.at(p, c) = x[c * hw * hw + p];
    Tensor b({ci, co});
    for (int64_t c = 0; c < ci; ++c)
        for (int64_t o = 0; o < co; ++o)
            b.at(c, o) = w[o * ci + c];
    Tensor gemm_out = intMatmul(a, act_q, b, wt_q, 4);

    for (int64_t o = 0; o < co; ++o)
        for (int64_t p = 0; p < hw * hw; ++p)
            EXPECT_FLOAT_EQ(conv_out[o * hw * hw + p], gemm_out.at(p, o))
                << "o=" << o << " p=" << p;
}

TEST(IntExec, ChunkSaturationEngages)
{
    // Max-level operands accumulated far past INT16: the saturating
    // chunk boundary must cap the result.
    const int64_t k = 4096;
    Tensor a({1, k}), b({k, 1});
    a.fill(100.0f); // clips to PACT alpha
    b.fill(100.0f); // clips to SaWB alpha
    PactQuantizer act_q(1.0f, 4);
    std::vector<float> wts(size_t(k), 1.0f);
    wts[0] = -1.0f; // avoid degenerate all-equal tensor
    SawbQuantizer wt_q(wts, 4);
    ExecConfig cfg;
    cfg.chunk_size = k; // one giant chunk -> saturates at INT16_MAX
    Tensor y = intMatmul(a, act_q, b, wt_q, 4, cfg);
    float expect = dlfloat16().quantize(float(INT16_MAX) * act_q.scale() *
                                        wt_q.scale());
    EXPECT_FLOAT_EQ(y[0], expect);
}

TEST(Datasets, SpiralsShapeAndLabels)
{
    Rng rng(10);
    Dataset ds = makeSpirals(rng, 100);
    EXPECT_EQ(ds.size(), 200);
    EXPECT_EQ(ds.featureDim(), 2);
    int count1 = 0;
    for (int l : ds.labels) {
        EXPECT_TRUE(l == 0 || l == 1);
        count1 += l;
    }
    EXPECT_EQ(count1, 100);
}

TEST(Datasets, BlobsAreLearnableByCentroid)
{
    Rng rng(11);
    Dataset ds = makeBlobs(rng, 4, 8, 50);
    EXPECT_EQ(ds.size(), 200);
    EXPECT_EQ(ds.featureDim(), 8);
}

TEST(Trainer, Fp32LearnsSpirals)
{
    Rng rng(12);
    Dataset train = makeSpirals(rng, 256);
    Dataset test = makeSpirals(rng, 128);
    MlpConfig cfg;
    cfg.dims = {2, 48, 48, 2};
    cfg.seed = 7;
    Mlp model(cfg);
    model.train(train, 60, 32);
    EXPECT_GT(model.evaluate(test), 0.9);
}

TEST(Trainer, Hfp8TrainingParity)
{
    // The Section II-B claim at laptop scale: HFP8 training reaches
    // accuracy equivalent to FP32 training.
    Rng rng(13);
    Dataset train = makeSpirals(rng, 256);
    Dataset test = makeSpirals(rng, 128);
    ParityResult r = runTrainingParity(TrainPrecision::HFP8, train, test,
                                       60, 32);
    EXPECT_GT(r.baseline_accuracy, 0.9);
    EXPECT_GT(r.reduced_accuracy, 0.9);
    EXPECT_LT(r.gap(), 0.05);
}

TEST(Trainer, Fp16TrainingParity)
{
    Rng rng(14);
    Dataset train = makeSpirals(rng, 256);
    Dataset test = makeSpirals(rng, 128);
    ParityResult r = runTrainingParity(TrainPrecision::FP16, train, test,
                                       60, 32);
    EXPECT_LT(r.gap(), 0.03);
}

TEST(Trainer, Int4InferenceParity)
{
    // The Section II-C claim: PACT + SaWB INT4 inference matches FP32
    // with negligible accuracy loss.
    Rng rng(15);
    Dataset train = makeSpirals(rng, 256);
    Dataset test = makeSpirals(rng, 128);
    ParityResult r = runInferenceParity(4, train, test, 60, 32);
    EXPECT_GT(r.baseline_accuracy, 0.9);
    // The paper reports "negligible" INT4 loss on large redundant
    // models; a 48-unit toy MLP is more sensitive, so allow a few
    // points of headroom.
    EXPECT_LT(r.gap(), 0.07);
}

TEST(Trainer, Int2InferenceDegradesGracefully)
{
    // INT2 carries ~2% loss in the paper on large redundant models; a
    // toy MLP is far more quantization-sensitive, so we use the easier
    // blobs task and only assert INT2 stays usable.
    Rng rng(16);
    Dataset all = makeBlobs(rng, 4, 8, 192);
    Dataset train = all.slice(0, 512);
    Dataset test = all.slice(512, 256);
    ParityResult r = runInferenceParity(2, train, test, 40, 32);
    EXPECT_GT(r.baseline_accuracy, 0.9);
    EXPECT_GT(r.reduced_accuracy, 0.75);
}

TEST(Trainer, PactAlphaIsLearned)
{
    Rng rng(17);
    Dataset train = makeSpirals(rng, 128);
    MlpConfig cfg;
    cfg.dims = {2, 32, 32, 2};
    cfg.pact_alpha_init = 1.0f;
    Mlp model(cfg);
    model.train(train, 30, 32);
    // The learned clip should move off its init for at least one layer.
    bool moved = false;
    for (size_t i = 0; i + 1 < model.numLayers(); ++i)
        if (std::abs(model.pactAlpha(i) - cfg.pact_alpha_init) > 1e-3f)
            moved = true;
    EXPECT_TRUE(moved);
}

} // namespace
} // namespace rapid
