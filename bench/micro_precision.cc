/**
 * @file
 * google-benchmark microbenchmarks of the emulation substrate: float
 * codec throughput (the generic codec against the inline DLFloat16
 * and FP8 roundings), per-item RNG streams, FMA datapaths,
 * chunked accumulation, quantizers, the reduced-precision GEMM
 * executors, the cycle-level systolic simulator, the ring
 * interconnect, the chip-level simulator, the fork-join pool, and
 * the analytical models behind the serving latency tables.
 */

#include <functional>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/fault.hh"
#include "common/parallel.hh"
#include "common/random.hh"
#include "compiler/precision_assign.hh"
#include "func/quantized_ops.hh"
#include "interconnect/mni.hh"
#include "llm/llm_sim.hh"
#include "perf/perf_model.hh"
#include "sim/chip_sim.hh"
#include "sim/systolic.hh"
#include "workloads/networks.hh"

namespace rapid {
namespace {

void
BM_DlFloat16Quantize(benchmark::State &state)
{
    Rng rng(1);
    auto values = rng.gaussianVector(4096);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dlfloat16().quantize(values[i++ & 4095]));
    }
}
BENCHMARK(BM_DlFloat16Quantize);

/** The inline rounding the hot paths use; same inputs as above. */
void
BM_DlFloat16QuantizeFast(benchmark::State &state)
{
    Rng rng(1);
    auto values = rng.gaussianVector(4096);
    size_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(quantizeDl16(values[i++ & 4095]));
}
BENCHMARK(BM_DlFloat16QuantizeFast);

/**
 * FP8 quantize pair: the same Laplace-shaped buffer (typical of
 * trained weights) through every 8-bit format the datapath uses, each
 * programmable forward bias plus the backward format. The scalar half
 * runs the generic codec (encode, then decode); the fast half runs the
 * inline quantizeFp8. The two are bit-identical (pinned by
 * tests/test_float_format.cc).
 */
std::vector<float>
fp8Buffer()
{
    Rng rng(0xf8dec0deULL);
    std::vector<float> buf(4096);
    for (float &v : buf)
        v = float(rng.laplace(0.5));
    return buf;
}

std::vector<FloatFormat>
fp8Formats()
{
    std::vector<FloatFormat> formats;
    for (int bias = 1; bias <= 15; ++bias)
        formats.push_back(fp8e4m3(bias));
    formats.push_back(fp8e5m2());
    return formats;
}

template <typename Quantizer>
void
runFp8Quantize(benchmark::State &state, const std::vector<Quantizer> &qs)
{
    const std::vector<float> buf = fp8Buffer();
    for (auto _ : state)
        for (const Quantizer &q : qs)
            for (float v : buf)
                benchmark::DoNotOptimize(q.quantize(v));
    state.SetItemsProcessed(state.iterations() *
                            int64_t(qs.size() * buf.size()));
}

void
BM_Fp8QuantizeScalar(benchmark::State &state)
{
    runFp8Quantize(state, fp8Formats());
}
BENCHMARK(BM_Fp8QuantizeScalar);

/** quantizeFp8 for one format, shaped like FloatFormat::quantize. */
struct Fp8Fast
{
    Fp8Kind kind;
    int bias;

    float quantize(float v) const { return quantizeFp8(kind, bias, v); }
};

void
BM_Fp8QuantizeFast(benchmark::State &state)
{
    std::vector<Fp8Fast> qs;
    for (const FloatFormat &fmt : fp8Formats())
        qs.push_back({fmt.expBits() == 4 ? Fp8Kind::Forward
                                         : Fp8Kind::Backward,
                      fmt.bias()});
    runFp8Quantize(state, qs);
}
BENCHMARK(BM_Fp8QuantizeFast);

/**
 * One per-item fault stream: an Rng seeded from mixSeed, as
 * FaultInjector::stream builds it, then k uniform draws. Fault sites
 * draw 1-18 numbers per item, so the seeding cost is what this reads.
 */
void
BM_RngStream(benchmark::State &state)
{
    const int64_t draws = state.range(0);
    uint64_t item = 0;
    for (auto _ : state) {
        Rng rng(mixSeed(0x5eedULL, item++));
        double sum = 0.0;
        for (int64_t k = 0; k < draws; ++k)
            sum += rng.uniform();
        benchmark::DoNotOptimize(sum);
    }
}
BENCHMARK(BM_RngStream)->Arg(1)->Arg(17);

void
BM_Hfp8Fma(benchmark::State &state)
{
    MpeDatapath dp;
    Rng rng(3);
    auto values = rng.gaussianVector(4096);
    size_t i = 0;
    float acc = 0.0f;
    for (auto _ : state) {
        acc = dp.hfp8Fma(values[i & 4095], Fp8Kind::Forward,
                         values[(i * 7 + 1) & 4095],
                         Fp8Kind::Backward, acc);
        ++i;
    }
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_Hfp8Fma);

void
BM_ChunkAccumulate(benchmark::State &state)
{
    ChunkAccumulator acc(size_t(state.range(0)), true);
    double term = 0.37;
    for (auto _ : state)
        acc.add(term);
    benchmark::DoNotOptimize(acc.total());
}
BENCHMARK(BM_ChunkAccumulate)->Arg(8)->Arg(64)->Arg(256);

void
BM_SawbConstruct(benchmark::State &state)
{
    Rng rng(4);
    auto weights = rng.gaussianVector(size_t(state.range(0)));
    for (auto _ : state) {
        SawbQuantizer q(weights, 4);
        benchmark::DoNotOptimize(q.alpha());
    }
}
BENCHMARK(BM_SawbConstruct)->Arg(1024)->Arg(16384);

void
BM_IntMatmul(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(5);
    Tensor a({n, n}), b({n, n});
    for (int64_t i = 0; i < a.numel(); ++i)
        a[i] = float(std::abs(rng.gaussian()));
    b.fillGaussian(rng, 0.0, 0.4);
    PactQuantizer act_q(3.0f, 4);
    SawbQuantizer wt_q(b.storage(), 4);
    for (auto _ : state)
        benchmark::DoNotOptimize(intMatmul(a, act_q, b, wt_q, 4));
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_IntMatmul)->Arg(32)->Arg(64);

void
BM_Hfp8Matmul(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(6);
    Tensor a({n, n}), b({n, n});
    a.fillGaussian(rng, 0.0, 0.5);
    b.fillGaussian(rng, 0.0, 0.5);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            hfp8Matmul(a, Fp8Kind::Forward, b, Fp8Kind::Forward));
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Hfp8Matmul)->Arg(32)->Arg(64);

void
BM_SystolicGemm(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(7);
    Tensor a({n, n}), b({n, n});
    a.fillGaussian(rng, 0.0, 0.5);
    b.fillGaussian(rng, 0.0, 0.5);
    SystolicArraySim sim(CoreletConfig{}, Precision::FP16);
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.gemm(a, b));
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_SystolicGemm)->Arg(32)->Arg(64);

void
BM_RingMulticast(benchmark::State &state)
{
    for (auto _ : state) {
        RingConfig cfg;
        cfg.num_nodes = 5;
        RingNetwork ring(cfg);
        ring.send(0, {1, 2, 3}, 128 * 256);
        ring.drain();
        benchmark::DoNotOptimize(ring.now());
    }
}
BENCHMARK(BM_RingMulticast);

/**
 * One ChipSim run of the 128x128, 14x14, 3x3 FP16 conv on 4 cores
 * with multicast; items are simulated cycles (the makespan), so
 * items_per_second reads as simulated cycles per host second.
 */
void
BM_ChipSimLayer(benchmark::State &state)
{
    Layer l;
    l.type = LayerType::Conv;
    l.name = "conv";
    l.ci = l.co = 128;
    l.h = l.w = 14;
    l.kh = l.kw = 3;
    l.pad_h = l.pad_w = 1;
    LayerPlan plan;
    plan.precision = Precision::FP16;
    const LayerProgram prog =
        CodeGenerator(makeInferenceChip()).generate(l, plan, 1);
    Tick cycles = 0;
    for (auto _ : state) {
        const ChipRunStats stats = ChipSim(4, true).run(prog);
        cycles += stats.makespan;
        benchmark::DoNotOptimize(stats.ring_flit_hops);
    }
    state.SetItemsProcessed(int64_t(cycles));
}
BENCHMARK(BM_ChipSimLayer);

/**
 * Fork and join of a two-index no-op region on a two-thread pool, the
 * shape of a lightly loaded DES window: the time is all pool overhead.
 */
void
BM_ParallelForTiny(benchmark::State &state)
{
    ThreadPool pool(2);
    const std::function<void(size_t)> noop = [](size_t) {};
    for (auto _ : state)
        pool.parallelFor(2, noop);
}
BENCHMARK(BM_ParallelForTiny);

/** One analytical evaluation of resnet50 at INT4, batch 8. */
void
BM_PerfModelEvaluate(benchmark::State &state)
{
    const Network net = makeResnet50();
    PrecisionOptions popts;
    popts.target = Precision::INT4;
    const ExecutionPlan plan = assignPrecision(net, popts);
    const PerfModel perf(makeInferenceChip());
    for (auto _ : state)
        benchmark::DoNotOptimize(perf.evaluate(net, plan, 8).total_seconds);
}
BENCHMARK(BM_PerfModelEvaluate);

/**
 * LlmSim construction over llm-small at max_batch 32: almost all of it
 * is the prefill and decode latency-table builds.
 */
void
BM_LlmSimConstruct(benchmark::State &state)
{
    LlmServeConfig cfg;
    cfg.model = "llm-small";
    cfg.max_batch = 32;
    LlmTenantConfig chat;
    chat.name = "chat";
    cfg.tenants.push_back(chat);
    const ChipConfig chip = makeInferenceChip();
    for (auto _ : state) {
        const LlmSim sim(chip, cfg);
        benchmark::DoNotOptimize(sim.decodeNs(Precision::INT4, 64, 32));
    }
}
BENCHMARK(BM_LlmSimConstruct)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace rapid

BENCHMARK_MAIN();
