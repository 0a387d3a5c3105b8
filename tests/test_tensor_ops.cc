/**
 * @file
 * Tests for the dense tensor container and the FP32 golden operators.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>

#include <gtest/gtest.h>

#include "tensor/ops.hh"
#include "tensor/tensor.hh"

namespace rapid {
namespace {

TEST(Tensor, ShapeAndAccess)
{
    Tensor t({2, 3});
    EXPECT_EQ(t.numel(), 6);
    t.at(1, 2) = 5.0f;
    EXPECT_FLOAT_EQ(t[5], 5.0f);
    Tensor u({1, 2, 2, 2});
    u.at(0, 1, 1, 1) = 3.0f;
    EXPECT_FLOAT_EQ(u[7], 3.0f);
}

TEST(Tensor, ReshapePreservesData)
{
    Tensor t({2, 3});
    for (int64_t i = 0; i < 6; ++i)
        t[i] = float(i);
    Tensor u = t.reshaped({3, 2});
    EXPECT_FLOAT_EQ(u.at(2, 1), 5.0f);
}

TEST(Tensor, ZeroFractionAndMaxAbs)
{
    Tensor t({4});
    t[0] = 0.0f;
    t[1] = -3.0f;
    t[2] = 2.0f;
    t[3] = 0.0f;
    EXPECT_DOUBLE_EQ(t.zeroFraction(), 0.5);
    EXPECT_FLOAT_EQ(t.maxAbs(), 3.0f);
}

TEST(Ops, MatmulSmallKnown)
{
    Tensor a({2, 2});
    a.at(0, 0) = 1; a.at(0, 1) = 2;
    a.at(1, 0) = 3; a.at(1, 1) = 4;
    Tensor b({2, 2});
    b.at(0, 0) = 5; b.at(0, 1) = 6;
    b.at(1, 0) = 7; b.at(1, 1) = 8;
    Tensor c = matmul(a, b);
    EXPECT_FLOAT_EQ(c.at(0, 0), 19);
    EXPECT_FLOAT_EQ(c.at(0, 1), 22);
    EXPECT_FLOAT_EQ(c.at(1, 0), 43);
    EXPECT_FLOAT_EQ(c.at(1, 1), 50);
}

/**
 * The row-loop matmul against the textbook i-j-k dot product it
 * replaced, bit for bit: each output still sums its float*float
 * products in k order in double. Covers cancellation-heavy data,
 * exact zeros and an Inf that turns one output row into NaN/Inf.
 */
TEST(Ops, MatmulBitIdenticalToDotProductOrder)
{
    Rng rng(11);
    for (auto [m, k, n] : {std::tuple<int64_t, int64_t, int64_t>{1, 1, 1},
                           {3, 17, 5}, {8, 64, 33}, {5, 300, 2}}) {
        Tensor a({m, k}), b({k, n});
        a.fillGaussian(rng, 0.0, 3.0);
        b.fillGaussian(rng, 0.0, 1e3);
        for (int64_t i = 0; i < a.numel(); i += 3)
            a[i] = 0.0f;
        if (m > 2)
            a.at(2, k - 1) = std::numeric_limits<float>::infinity();
        const Tensor c = matmul(a, b);
        for (int64_t i = 0; i < m; ++i)
            for (int64_t j = 0; j < n; ++j) {
                double acc = 0.0;
                for (int64_t kk = 0; kk < k; ++kk)
                    acc += double(a.at(i, kk)) * double(b.at(kk, j));
                EXPECT_EQ(std::bit_cast<uint32_t>(float(acc)),
                          std::bit_cast<uint32_t>(c.at(i, j)))
                    << "(" << i << "," << j << ") of " << m << "x" << k
                    << "x" << n;
            }
        const Tensor t = transpose(a);
        for (int64_t i = 0; i < m; ++i)
            for (int64_t kk = 0; kk < k; ++kk)
                EXPECT_EQ(std::bit_cast<uint32_t>(t.at(kk, i)),
                          std::bit_cast<uint32_t>(a.at(i, kk)));
    }
}

TEST(Ops, TransposeRoundTrip)
{
    Rng rng(3);
    Tensor a({3, 5});
    a.fillGaussian(rng);
    Tensor att = transpose(transpose(a));
    EXPECT_LT(relativeL2(att, a), 1e-7);
}

TEST(Ops, ConvIdentityKernel)
{
    // A 1x1 kernel with weight 1 reproduces the input channel.
    Tensor x({1, 1, 4, 4});
    for (int64_t i = 0; i < 16; ++i)
        x[i] = float(i);
    Tensor w({1, 1, 1, 1});
    w[0] = 1.0f;
    Tensor y = conv2d(x, w);
    EXPECT_LT(relativeL2(y, x), 1e-7);
}

TEST(Ops, ConvOutputDims)
{
    EXPECT_EQ(convOutDim(224, 7, 2, 3), 112);
    EXPECT_EQ(convOutDim(56, 3, 1, 1), 56);
    EXPECT_EQ(convOutDim(28, 1, 1, 0), 28);
}

TEST(Ops, ConvMatchesManualSum)
{
    // 2x2 input, 2x2 kernel, no padding: single output element.
    Tensor x({1, 1, 2, 2});
    x[0] = 1; x[1] = 2; x[2] = 3; x[3] = 4;
    Tensor w({1, 1, 2, 2});
    w[0] = 10; w[1] = 20; w[2] = 30; w[3] = 40;
    Tensor y = conv2d(x, w);
    EXPECT_EQ(y.numel(), 1);
    EXPECT_FLOAT_EQ(y[0], 1 * 10 + 2 * 20 + 3 * 30 + 4 * 40);
}

TEST(Ops, ConvPaddingZeroes)
{
    Tensor x({1, 1, 1, 1});
    x[0] = 2.0f;
    Tensor w({1, 1, 3, 3});
    w.fill(1.0f);
    ConvParams p;
    p.pad = 1;
    Tensor y = conv2d(x, w, p);
    // Only the center tap sees the input.
    EXPECT_EQ(y.numel(), 1);
    EXPECT_FLOAT_EQ(y[0], 2.0f);
}

TEST(Ops, DepthwiseConvViaGroups)
{
    // groups == channels: each output channel sees only its input.
    Tensor x({1, 2, 2, 2});
    x.fill(1.0f);
    x.at(0, 1, 0, 0) = 5.0f;
    Tensor w({2, 1, 1, 1});
    w[0] = 2.0f;
    w[1] = 3.0f;
    ConvParams p;
    p.groups = 2;
    Tensor y = conv2d(x, w, p);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 2.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1, 0, 0), 15.0f);
}

TEST(Ops, StridedConvGeometry)
{
    Tensor x({1, 3, 8, 8});
    Rng rng(5);
    x.fillGaussian(rng);
    Tensor w({4, 3, 3, 3});
    w.fillGaussian(rng);
    ConvParams p;
    p.stride = 2;
    p.pad = 1;
    Tensor y = conv2d(x, w, p);
    EXPECT_EQ(y.dim(2), 4);
    EXPECT_EQ(y.dim(3), 4);
}

TEST(Ops, ReluAndBias)
{
    Tensor x({1, 3});
    x[0] = -1.0f; x[1] = 0.5f; x[2] = 2.0f;
    Tensor b({3});
    b[0] = 1.0f; b[1] = -1.0f; b[2] = 0.0f;
    Tensor y = relu(biasAdd(x, b));
    EXPECT_FLOAT_EQ(y[0], 0.0f);
    EXPECT_FLOAT_EQ(y[1], 0.0f);
    EXPECT_FLOAT_EQ(y[2], 2.0f);
}

TEST(Ops, MaxAndAvgPool)
{
    Tensor x({1, 1, 2, 2});
    x[0] = 1; x[1] = 2; x[2] = 3; x[3] = 4;
    Tensor mx = maxPool2d(x, 2, 2);
    Tensor av = avgPool2d(x, 2, 2);
    EXPECT_FLOAT_EQ(mx[0], 4.0f);
    EXPECT_FLOAT_EQ(av[0], 2.5f);
}

TEST(Ops, GlobalAvgPool)
{
    Tensor x({2, 3, 4, 4});
    x.fill(2.0f);
    Tensor y = globalAvgPool(x);
    EXPECT_EQ(y.dim(0), 2);
    EXPECT_EQ(y.dim(1), 3);
    for (int64_t i = 0; i < y.numel(); ++i)
        EXPECT_FLOAT_EQ(y[i], 2.0f);
}

TEST(Ops, SoftmaxRowsSumToOne)
{
    Rng rng(7);
    Tensor x({4, 10});
    x.fillGaussian(rng, 0.0, 3.0);
    Tensor p = softmax(x);
    for (int64_t i = 0; i < 4; ++i) {
        double sum = 0.0;
        for (int64_t j = 0; j < 10; ++j) {
            sum += p.at(i, j);
            EXPECT_GE(p.at(i, j), 0.0f);
        }
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST(Ops, SoftmaxShiftInvariant)
{
    Tensor x({1, 3});
    x[0] = 1000.0f; x[1] = 1001.0f; x[2] = 999.0f;
    Tensor p = softmax(x); // must not overflow
    EXPECT_GT(p[1], p[0]);
    EXPECT_GT(p[0], p[2]);
}

TEST(Ops, BatchNormNormalizes)
{
    Tensor x({1, 1, 1, 2});
    x[0] = 2.0f; x[1] = 6.0f;
    Tensor gamma({1}), beta({1}), mean({1}), var({1});
    gamma[0] = 1.0f; beta[0] = 0.0f; mean[0] = 4.0f; var[0] = 4.0f;
    Tensor y = batchNorm(x, gamma, beta, mean, var, 0.0f);
    EXPECT_NEAR(y[0], -1.0f, 1e-5);
    EXPECT_NEAR(y[1], 1.0f, 1e-5);
}

TEST(Ops, CrossEntropyGradientNumerical)
{
    Rng rng(9);
    Tensor logits({3, 4});
    logits.fillGaussian(rng);
    std::vector<int> labels = {1, 3, 0};
    Tensor grad = softmaxCrossEntropyGrad(logits, labels);
    // Finite-difference check on a few coordinates.
    const double eps = 1e-3;
    for (int64_t idx : {0L, 5L, 11L}) {
        Tensor lp = logits, lm = logits;
        lp[idx] += float(eps);
        lm[idx] -= float(eps);
        double numeric = (softmaxCrossEntropy(lp, labels) -
                          softmaxCrossEntropy(lm, labels)) / (2 * eps);
        EXPECT_NEAR(grad[idx], numeric, 1e-3) << "idx=" << idx;
    }
}

TEST(Ops, CrossEntropyOfPerfectPrediction)
{
    Tensor logits({1, 2});
    logits.at(0, 0) = 100.0f;
    logits.at(0, 1) = -100.0f;
    EXPECT_NEAR(softmaxCrossEntropy(logits, {0}), 0.0f, 1e-5);
}

} // namespace
} // namespace rapid
