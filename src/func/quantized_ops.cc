#include "func/quantized_ops.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <climits>
#include <cmath>
#include <vector>

#include "common/error.hh"
#include "common/logging.hh"

namespace rapid {

namespace {

/**
 * Core reduction shared by all float-path executors: accumulate the
 * element products of two prepared operand vectors with chunked
 * DLFloat16 accumulation. Element i of @p b is b[i * b_stride].
 */
float
chunkedDot(const float *a, const float *b, int64_t n,
           const ExecConfig &cfg, int64_t b_stride = 1)
{
    ChunkAccumulator acc(cfg.chunk_size, cfg.fp32_outer, cfg.rounding);
    for (int64_t i = 0; i < n; ++i) {
        const float bi = b[i * b_stride];
        if (a[i] == 0.0f || bi == 0.0f)
            continue; // zero-gated FMA passes the accumulator through
        const double term = double(a[i]) * double(bi);
        // A non-finite product means a poisoned operand (upstream
        // NaN, e.g. an injected fault that landed in a cached
        // activation or master weight). Guard before the accumulator
        // sees it — the accumulator's invariant is that terms are
        // finite — and surface a structured, catchable event in every
        // build type instead of silently propagating NaN through the
        // training step.
        RAPID_CHECK_NUMERIC(std::isfinite(term),
                            "non-finite product at element ", i,
                            " of a ", n, "-element chunked dot: a "
                            "poisoned operand reached the training "
                            "accumulation");
        acc.add(term);
    }
    // DLFloat16 saturates, so the finite term stream above must
    // reduce to a finite total; this backstop is once per dot.
    RAPID_CHECK_NUMERIC(std::isfinite(acc.total()),
                        "non-finite chunked dot product over ", n,
                        " elements: a poisoned operand reached the "
                        "training accumulation");
    return quantizeDl16(acc.total(), cfg.rounding);
}

/** Output columns one pass of chunkedMatmul accumulates side by side. */
constexpr int64_t kLanes = 8;

/** An F32x4 load from any float address. */
using F32x4u =
    float __attribute__((vector_size(16), aligned(4), may_alias));

/** True if any lane of the mask @p m is set. */
inline bool
anyLane(I32x4 m)
{
    const auto halves = std::bit_cast<std::array<uint64_t, 2>>(m);
    return (halves[0] | halves[1]) != 0;
}

/**
 * ChunkAccumulator state of four output columns: the DLFloat16
 * intra-chunk sums, the inter-chunk sums and the chunk fill counts.
 */
struct LaneQuad
{
    F32x4 chunk{};
    F32x4 outer{};
    I32x4 fill{};

    /**
     * ChunkAccumulator::add of a * b[l] on every lane l whose b[l] is
     * not zero, in float32 arithmetic. For prepared operands that is
     * the scalar path's float(double(chunk) + double(a) * double(b)):
     * the product of two DLFloat16 values has at most 20 significant
     * bits and an exponent within float32's normal range, so it is
     * exact in float32, and a float32 add rounds the exact sum once,
     * to nearest even. Rounding it to double first, as the scalar
     * path does, cannot change that result, since double carries more
     * than 2 * 24 + 1 bits.
     */
    template <Rounding Mode>
    void
    add(float a, F32x4 b)
    {
        const F32x4 sum = chunk + a * b;
        const I32x4 live = b != 0.0f;
        chunk = live ? quantizeDl16<Mode>(sum) : chunk;
        fill -= live; // a set mask lane is -1
    }

    /** The inter-chunk fold of ChunkAccumulator (foldOuter). */
    template <Rounding Mode>
    static F32x4
    fold(F32x4 outer_sum, F32x4 chunk_sum, bool fp32_outer)
    {
        return fp32_outer ? outer_sum + chunk_sum
                          : quantizeDl16<Mode>(outer_sum + chunk_sum);
    }

    /** Fold and empty the lanes whose chunk is full. */
    template <Rounding Mode>
    void
    foldFull(I32x4 full, bool fp32_outer)
    {
        outer = full ? fold<Mode>(outer, chunk, fp32_outer) : outer;
        chunk = full ? F32x4{} : chunk;
        fill = full ? I32x4{} : fill;
    }

    /** ChunkAccumulator::total, rounded to DLFloat16; @p finite
     *  collects the lanes whose total is finite. */
    template <Rounding Mode>
    F32x4
    result(bool fp32_outer, I32x4 &finite) const
    {
        const F32x4 total =
            fill == 0 ? outer : fold<Mode>(outer, chunk, fp32_outer);
        const U32x4 mag = std::bit_cast<U32x4>(total) & 0x7fffffffu;
        finite &= std::bit_cast<I32x4>(mag) < int32_t(0x7f800000);
        return quantizeDl16<Mode>(total);
    }
};

/**
 * kLanes outputs of one row: out[l] = the chunkedDot of @p a_row with
 * column l of @p b, whose row kk starts at b + kk * ldb. @p nz lists
 * the k where a_row is not zero, in order: a zero a gates every lane
 * of its k step. Returns false when some lane's total is not finite;
 * @p out is then not meaningful.
 *
 * That return is the whole poison check. A non-finite product on a
 * live lane makes the sum Inf or NaN, which rounds to NaN; NaN
 * survives every later add and fold, so that lane's total is NaN.
 * The per-output chunkedDot faults exactly when a product or the
 * total is not finite, so a group is replayed exactly when a
 * per-output loop would have faulted in it.
 */
template <Rounding Mode>
bool
laneGroup(const float *a_row, const std::vector<int64_t> &nz,
          const float *b, int64_t ldb, const ExecConfig &cfg, float *out)
{
    // A lane fills at most once per k step, so a chunk longer than k
    // never fills; clamping keeps the count compare in int32.
    const int32_t chunk_size = int32_t(
        std::min<size_t>(cfg.chunk_size, size_t(INT32_MAX)));
    LaneQuad lo, hi;
    for (int64_t kk : nz) {
        const auto *b_row = reinterpret_cast<const F32x4u *>(b + kk * ldb);
        lo.add<Mode>(a_row[kk], b_row[0]);
        hi.add<Mode>(a_row[kk], b_row[1]);
        const I32x4 full_lo = lo.fill == chunk_size;
        const I32x4 full_hi = hi.fill == chunk_size;
        if (anyLane(full_lo | full_hi)) [[unlikely]] {
            lo.foldFull<Mode>(full_lo, cfg.fp32_outer);
            hi.foldFull<Mode>(full_hi, cfg.fp32_outer);
        }
    }
    I32x4 finite = ~I32x4{};
    auto *out_lanes = reinterpret_cast<F32x4u *>(out);
    out_lanes[0] = lo.result<Mode>(cfg.fp32_outer, finite);
    out_lanes[1] = hi.result<Mode>(cfg.fp32_outer, finite);
    return !anyLane(~finite);
}

/** True if every element of @p t is a DLFloat16 value or a NaN. */
bool
dl16Operands(const Tensor &t)
{
    for (int64_t i = 0; i < t.numel(); ++i) {
        const float v = t[i];
        if (!std::isnan(v) && std::bit_cast<uint32_t>(quantizeDl16(v)) !=
                                  std::bit_cast<uint32_t>(v))
            return false;
    }
    return true;
}

/**
 * Chunked-accumulation GEMM of prepared operands @p qa (M,K) and
 * @p qb (K,N), bit-identical to chunkedDot per output. Each row runs
 * kLanes output columns at a time, like the MPE array's one serial
 * accumulator per PE: every lane is its own ChunkAccumulator, fed in
 * the original k order and zero-gated on its own operands, so lanes
 * fill their chunks independently. The lanes live in 16-byte vectors
 * (laneGroup), and their rounding chains overlap where one serial dot
 * would stall. The operands must be DLFloat16 values (FP8 values are
 * too), as the lanes' float32 arithmetic is exact only for those.
 *
 * A tail of fewer than kLanes columns runs through the same kernel
 * from a copy of those columns padded with zero columns: a lane whose
 * b is zero never changes state, and its output is dropped. A lane
 * group with a non-finite total is replayed through chunkedDot in
 * column order, so it raises the same NumericFault, from the same
 * output, that the per-output loop would.
 */
template <Rounding Mode>
Tensor
chunkedMatmul(const Tensor &qa, const Tensor &qb, const ExecConfig &cfg)
{
    const int64_t m = qa.dim(0), k = qa.dim(1), n = qb.dim(1);
    rapid_assert(qb.dim(0) == k, "matmul inner-dimension mismatch");
    rapid_assert(cfg.chunk_size >= 1, "chunk size must be positive");
    rapid_dassert(dl16Operands(qa) && dl16Operands(qb),
                  "chunkedMatmul operands must be DLFloat16 values");
    Tensor out({m, n});
    const float *b = qb.data();
    const int64_t n_laned = n - n % kLanes;
    std::vector<float> tail;
    if (n_laned < n) {
        tail.assign(size_t(k * kLanes), 0.0f);
        for (int64_t kk = 0; kk < k; ++kk)
            for (int64_t j = n_laned; j < n; ++j)
                tail[size_t(kk * kLanes + j - n_laned)] = b[kk * n + j];
    }
    std::vector<int64_t> nz;
    nz.reserve(size_t(k));
    std::array<float, kLanes> group;
    for (int64_t i = 0; i < m; ++i) {
        const float *a_row = qa.data() + i * k;
        float *out_row = out.data() + i * n;
        nz.clear();
        for (int64_t kk = 0; kk < k; ++kk)
            if (a_row[kk] != 0.0f)
                nz.push_back(kk);
        for (int64_t j0 = 0; j0 < n; j0 += kLanes) {
            const bool laned = j0 < n_laned;
            const int64_t width = laned ? kLanes : n - j0;
            const bool finite =
                laned ? laneGroup<Mode>(a_row, nz, b + j0, n, cfg,
                                        out_row + j0)
                      : laneGroup<Mode>(a_row, nz, tail.data(), kLanes,
                                        cfg, group.data());
            if (!finite)
                for (int64_t j = j0; j < j0 + width; ++j)
                    out_row[j] = chunkedDot(a_row, b + j, k, cfg, n);
            else if (!laned)
                std::copy_n(group.begin(), width, out_row + j0);
        }
    }
    return out;
}

Tensor
chunkedMatmul(const Tensor &qa, const Tensor &qb, const ExecConfig &cfg)
{
    return withRounding(cfg.rounding, [&](auto mode) {
        return chunkedMatmul<mode()>(qa, qb, cfg);
    });
}

/** Gather a conv receptive field into contiguous operand vectors. */
struct Patch
{
    std::vector<float> act;
    std::vector<float> wt;
};

template <typename T>
void
gatherPatch(const Tensor &input, const T &weight_like, int64_t in_n,
            int64_t oc, int64_t oy, int64_t ox, const ConvParams &p,
            int64_t cig, int64_t co_per_g, Patch &patch)
{
    const int64_t h = input.dim(2), w = input.dim(3);
    const int64_t kh = weight_like.dim(2), kw = weight_like.dim(3);
    const int64_t g = oc / co_per_g;
    patch.act.clear();
    patch.wt.clear();
    for (int64_t icg = 0; icg < cig; ++icg) {
        const int64_t ic = g * cig + icg;
        for (int64_t ky = 0; ky < kh; ++ky) {
            const int64_t iy = oy * p.stride + ky - p.pad;
            for (int64_t kx = 0; kx < kw; ++kx) {
                const int64_t ix = ox * p.stride + kx - p.pad;
                const bool inside =
                    iy >= 0 && iy < h && ix >= 0 && ix < w;
                patch.act.push_back(
                    inside ? input.at(in_n, ic, iy, ix) : 0.0f);
                patch.wt.push_back(weight_like.at(oc, icg, ky, kx));
            }
        }
    }
}

} // namespace

Tensor
quantizeTensorFp8(const Tensor &t, Fp8Kind kind, const ExecConfig &cfg)
{
    if (kind == Fp8Kind::Forward)
        (void)fp8e4m3(cfg.fwd_bias); // rejects a bias outside [1, 15]
    Tensor out = t;
    float *v = out.data();
    const int64_t n = out.numel(), n4 = n - n % 4;
    auto quantize = [&](auto fp8_kind, auto mode) {
        for (int64_t i = 0; i < n4; i += 4) {
            auto *lanes = reinterpret_cast<F32x4u *>(v + i);
            *lanes = quantizeFp8<fp8_kind(), mode()>(cfg.fwd_bias, *lanes);
        }
        for (int64_t i = n4; i < n; ++i)
            v[i] = quantizeFp8(fp8_kind, cfg.fwd_bias, v[i], mode);
    };
    withRounding(cfg.rounding, [&](auto mode) {
        if (kind == Fp8Kind::Forward)
            quantize(std::integral_constant<Fp8Kind, Fp8Kind::Forward>{},
                     mode);
        else
            quantize(std::integral_constant<Fp8Kind, Fp8Kind::Backward>{},
                     mode);
    });
    return out;
}

Tensor
quantizeTensorFp16(const Tensor &t, Rounding rounding)
{
    Tensor out = t;
    out.apply([&](float v) { return quantizeDl16(v, rounding); });
    return out;
}

Tensor
fp16Matmul(const Tensor &a, const Tensor &b, const ExecConfig &cfg)
{
    return chunkedMatmul(quantizeTensorFp16(a, cfg.rounding),
                         quantizeTensorFp16(b, cfg.rounding), cfg);
}

Tensor
hfp8Matmul(const Tensor &a, Fp8Kind a_kind, const Tensor &b,
           Fp8Kind b_kind, const ExecConfig &cfg)
{
    // Quantize each operand tensor once (the FP8 -> FP9 input stage is
    // exact, so the FP8 value is what the multiplier sees).
    return chunkedMatmul(quantizeTensorFp8(a, a_kind, cfg),
                         quantizeTensorFp8(b, b_kind, cfg), cfg);
}

Tensor
fp16Conv2d(const Tensor &input, const Tensor &weight,
           const ConvParams &p, const ExecConfig &cfg)
{
    Tensor qi = quantizeTensorFp16(input, cfg.rounding);
    Tensor qw = quantizeTensorFp16(weight, cfg.rounding);
    const int64_t n = qi.dim(0), co = qw.dim(0);
    const int64_t cig = qw.dim(1);
    const int64_t ho = convOutDim(qi.dim(2), qw.dim(2), p.stride, p.pad);
    const int64_t wo = convOutDim(qi.dim(3), qw.dim(3), p.stride, p.pad);
    const int64_t co_per_g = co / p.groups;
    Tensor out({n, co, ho, wo});
    Patch patch;
    for (int64_t in_n = 0; in_n < n; ++in_n)
        for (int64_t oc = 0; oc < co; ++oc)
            for (int64_t oy = 0; oy < ho; ++oy)
                for (int64_t ox = 0; ox < wo; ++ox) {
                    gatherPatch(qi, qw, in_n, oc, oy, ox, p, cig,
                                co_per_g, patch);
                    out.at(in_n, oc, oy, ox) =
                        chunkedDot(patch.act.data(), patch.wt.data(),
                                   int64_t(patch.act.size()), cfg);
                }
    return out;
}

Tensor
hfp8Conv2d(const Tensor &input, const Tensor &weight,
           const ConvParams &p, const ExecConfig &cfg)
{
    Tensor qi = quantizeTensorFp8(input, Fp8Kind::Forward, cfg);
    Tensor qw = quantizeTensorFp8(weight, Fp8Kind::Forward, cfg);
    const int64_t n = qi.dim(0), co = qw.dim(0);
    const int64_t cig = qw.dim(1);
    const int64_t ho = convOutDim(qi.dim(2), qw.dim(2), p.stride, p.pad);
    const int64_t wo = convOutDim(qi.dim(3), qw.dim(3), p.stride, p.pad);
    const int64_t co_per_g = co / p.groups;
    Tensor out({n, co, ho, wo});
    Patch patch;
    for (int64_t in_n = 0; in_n < n; ++in_n)
        for (int64_t oc = 0; oc < co; ++oc)
            for (int64_t oy = 0; oy < ho; ++oy)
                for (int64_t ox = 0; ox < wo; ++ox) {
                    gatherPatch(qi, qw, in_n, oc, oy, ox, p, cig,
                                co_per_g, patch);
                    out.at(in_n, oc, oy, ox) =
                        chunkedDot(patch.act.data(), patch.wt.data(),
                                   int64_t(patch.act.size()), cfg);
                }
    return out;
}

namespace {

/**
 * Integer chunked dot product: int32 intra-chunk accumulation, INT16
 * saturation at chunk boundaries (the MPE's south-bus width), FP32
 * inter-chunk reduction on the SFU.
 */
float
intChunkedDot(const int *a_levels, const int *b_levels, int64_t n,
              float scale, const ExecConfig &cfg)
{
    double outer = 0.0;
    int64_t chunk_acc = 0;
    size_t in_chunk = 0;
    for (int64_t i = 0; i < n; ++i) {
        chunk_acc += int64_t(a_levels[i]) * int64_t(b_levels[i]);
        if (++in_chunk == cfg.chunk_size) {
            outer += double(saturateToInt16(chunk_acc));
            chunk_acc = 0;
            in_chunk = 0;
        }
    }
    if (in_chunk)
        outer += double(saturateToInt16(chunk_acc));
    return quantizeDl16(float(outer * double(scale)), cfg.rounding);
}

std::vector<int>
pactLevels(const Tensor &t, const PactQuantizer &q)
{
    std::vector<int> out(size_t(t.numel()));
    for (int64_t i = 0; i < t.numel(); ++i)
        out[size_t(i)] = q.quantizeLevel(t[i]);
    return out;
}

std::vector<int>
sawbLevels(const Tensor &t, const SawbQuantizer &q)
{
    std::vector<int> out(size_t(t.numel()));
    for (int64_t i = 0; i < t.numel(); ++i)
        out[size_t(i)] = q.quantizeLevel(t[i]);
    return out;
}

} // namespace

Tensor
intMatmul(const Tensor &a, const PactQuantizer &act_q, const Tensor &b,
          const SawbQuantizer &wt_q, unsigned width,
          const ExecConfig &cfg)
{
    rapid_assert(width == 4 || width == 2, "FXU width must be 4 or 2");
    rapid_assert(act_q.bits() == width && wt_q.bits() == width,
                 "quantizer width mismatch");
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    std::vector<int> qa = pactLevels(a, act_q);
    std::vector<int> qb = sawbLevels(transpose(b), wt_q);
    const float scale = act_q.scale() * wt_q.scale();
    Tensor out({m, n});
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j)
            out.at(i, j) = intChunkedDot(qa.data() + i * k,
                                         qb.data() + j * k, k, scale,
                                         cfg);
    return out;
}

Tensor
intConv2d(const Tensor &input, const PactQuantizer &act_q,
          const Tensor &weight, const SawbQuantizer &wt_q,
          unsigned width, const ConvParams &p, const ExecConfig &cfg)
{
    rapid_assert(width == 4 || width == 2, "FXU width must be 4 or 2");
    const int64_t n = input.dim(0), co = weight.dim(0);
    const int64_t cig = weight.dim(1);
    const int64_t kh = weight.dim(2), kw = weight.dim(3);
    const int64_t h = input.dim(2), w = input.dim(3);
    const int64_t ho = convOutDim(h, kh, p.stride, p.pad);
    const int64_t wo = convOutDim(w, kw, p.stride, p.pad);
    const int64_t co_per_g = co / p.groups;
    const float scale = act_q.scale() * wt_q.scale();

    std::vector<int> qi = pactLevels(input, act_q);
    std::vector<int> qw = sawbLevels(weight, wt_q);

    auto act_level = [&](int64_t nn, int64_t c, int64_t y,
                         int64_t x) -> int {
        return qi[size_t(((nn * input.dim(1) + c) * h + y) * w + x)];
    };
    auto wt_level = [&](int64_t oc, int64_t icg, int64_t ky,
                        int64_t kx) -> int {
        return qw[size_t(((oc * cig + icg) * kh + ky) * kw + kx)];
    };

    Tensor out({n, co, ho, wo});
    std::vector<int> pa, pw;
    for (int64_t in_n = 0; in_n < n; ++in_n) {
        for (int64_t oc = 0; oc < co; ++oc) {
            const int64_t g = oc / co_per_g;
            for (int64_t oy = 0; oy < ho; ++oy) {
                for (int64_t ox = 0; ox < wo; ++ox) {
                    pa.clear();
                    pw.clear();
                    for (int64_t icg = 0; icg < cig; ++icg) {
                        const int64_t ic = g * cig + icg;
                        for (int64_t ky = 0; ky < kh; ++ky) {
                            const int64_t iy = oy * p.stride + ky - p.pad;
                            for (int64_t kx = 0; kx < kw; ++kx) {
                                const int64_t ix =
                                    ox * p.stride + kx - p.pad;
                                const bool inside = iy >= 0 && iy < h &&
                                                    ix >= 0 && ix < w;
                                pa.push_back(
                                    inside ? act_level(in_n, ic, iy, ix)
                                           : 0);
                                pw.push_back(wt_level(oc, icg, ky, kx));
                            }
                        }
                    }
                    out.at(in_n, oc, oy, ox) = intChunkedDot(
                        pa.data(), pw.data(), int64_t(pa.size()), scale,
                        cfg);
                }
            }
        }
    }
    return out;
}

} // namespace rapid
