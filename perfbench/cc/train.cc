/**
 * @file
 * `train` workload: bit-accurate low-precision training and
 * deployment inference (precision, tensor, func, resilience, and the
 * fault oracle's hashed draw). No DES, serving or performance model.
 *
 * One round runs kReplicas replicas, each with its own data, initial
 * weights and fault stream drawn from the workload seed, and each from
 * freshly initialised models:
 *  - plain Mlp::trainStep on the spirals MLP {2,32,32,2} and on a wide
 *    MLP {16,192,192,8} (hidden K = three 64-element accumulation
 *    chunks), each at FP32, FP16 and HFP8;
 *  - a ResilientTrainer HFP8 phase on the spirals MLP with GEMM faults
 *    at 3e-4, the full recovery ladder and checkpoints, one timed
 *    runSteps(1) per step;
 *  - every kEvalEvery resilient steps, held-out evaluation at HFP8 and
 *    INT4/INT2 deployment.
 * The emulation's host cost depends on the values it sees (one seed's
 * data trains up to 12% slower than another's), so a round averages
 * over replicas rather than running one longer model.
 * An op is one optimizer step or one evaluation pass.
 */

#include <cmath>

#include "common/fault.hh"
#include "func/quantized_ops.hh"
#include "harness.hh"
#include "precision/chunk_accumulator.hh"
#include "precision/float_format.hh"
#include "precision/mpe_datapath.hh"
#include "resilience/checkpoint.hh"
#include "resilience/resilient_trainer.hh"
#include "tensor/ops.hh"

using namespace rapid;

namespace perfbench {
namespace {

constexpr int kReplicas = 4;
constexpr int64_t kBatch = 32;
constexpr int64_t kWideBatch = 4;
constexpr int kPlainSteps = 5;
constexpr int kWideSteps = 1;
constexpr int kResilientSteps = 30;
constexpr int kEvalEvery = 30;
constexpr double kFaultRate = 3e-4;

constexpr TrainPrecision kPrecisions[] = {
    TrainPrecision::FP32, TrainPrecision::FP16, TrainPrecision::HFP8};

void
digestState(Digest &d, const MlpState &s)
{
    d.add(uint64_t(s.layers.size()));
    for (const DenseState &l : s.layers) {
        d.add(l.w);
        d.add(l.b);
        d.add(l.w_vel);
        d.add(l.b_vel);
        d.add(l.alpha);
        d.add(l.alpha_vel);
    }
    d.add(s.precision);
    d.add(s.rng);
}

/** Forward MACs of one sample through @p dims. */
double
forwardMacs(const std::vector<int64_t> &dims)
{
    double macs = 0;
    for (size_t i = 0; i + 1 < dims.size(); ++i)
        macs += double(dims[i] * dims[i + 1]);
    return macs;
}

Tensor
gaussianTensor(Rng &rng, int64_t rows, int64_t cols)
{
    Tensor t({rows, cols});
    for (int64_t i = 0; i < t.numel(); ++i)
        t.data()[i] = float(rng.gaussian());
    return t;
}

/** Inputs of one replica of the round. */
struct Replica
{
    Dataset spiral_train, spiral_test, wide_train;
    MlpConfig spiral_cfg, wide_cfg;
    ResilienceConfig res_cfg;
};

class TrainWorkload : public Workload
{
  public:
    explicit TrainWorkload(uint64_t seed) : seed_(seed) {}

    // Every train op runs on the calling thread.
    bool parallel() const override { return false; }
    const char *workUnit() const override { return "train_steps"; }
    const char *sideUnit() const override { return "eval_samples"; }

    void
    setup(Tracer &tracer) override
    {
        SpanGuard span(tracer, "func.datasets");
        replicas_.assign(kReplicas, Replica{});
        for (uint64_t i = 0; i < kReplicas; ++i) {
            Replica &rp = replicas_[i];
            const uint64_t seed = mixSeed(seed_, i);
            Rng rng(mixSeed(seed, 1));
            const Dataset spirals = makeSpirals(rng, 1024);
            rp.spiral_train = spirals.slice(0, 1536);
            rp.spiral_test = spirals.slice(1536, 512);
            const Dataset blobs = makeBlobs(rng, 8, 16, 64);
            rp.wide_train = blobs.slice(0, 384);

            rp.spiral_cfg.dims = {2, 32, 32, 2};
            rp.spiral_cfg.seed = mixSeed(seed, 2);
            rp.wide_cfg.dims = {16, 192, 192, 8};
            rp.wide_cfg.seed = mixSeed(seed, 3);

            rp.res_cfg.fault =
                FaultConfig::withRate(kFaultRate, mixSeed(seed, 4));
            rp.res_cfg.checkpoint_interval = 20;
        }
    }

    void
    round(Tracer &tracer, Round &r) override
    {
        double steps = 0;
        for (const Replica &rp : replicas_) {
            for (TrainPrecision p : kPrecisions)
                plainSteps(tracer, r, rp.spiral_cfg, rp.spiral_train, kBatch,
                           kPlainSteps, p,
                           std::string("func.train_step.") +
                               trainPrecisionName(p));
            for (TrainPrecision p : kPrecisions)
                plainSteps(tracer, r, rp.wide_cfg, rp.wide_train, kWideBatch,
                           kWideSteps, p,
                           std::string("func.train_step_wide.") +
                               trainPrecisionName(p));
            steps += double(resilientPhase(tracer, r, rp));
        }
        r.counts["resilience.work_efficiency"] =
            steps / (steps + r.counts["resilience.retries"] +
                     r.counts["resilience.replayed"]);
    }

    void
    layers(Tracer &tracer, const SpanSummary &spans, const Round &,
           MetricMap &out) override
    {
        auto ms = [&](const std::string &name) {
            return spanOf(spans, name).meanMs();
        };
        for (TrainPrecision p : kPrecisions) {
            const std::string n = trainPrecisionName(p);
            out["func.step_ms." + n] = {ms("func.train_step." + n), "ms"};
        }
        out["func.eval_ms.hfp8"] = {ms("func.eval.hfp8"), "ms"};
        out["func.eval_ms.int4"] = {ms("func.eval.int4"), "ms"};
        out["func.eval_ms.int2"] = {ms("func.eval.int2"), "ms"};
        const double step = ms("resilience.run_steps");
        const double plain = ms("func.train_step.hfp8");
        out["resilience.step_ms"] = {step, "ms"};
        out["resilience.overhead_frac"] = {plain > 0 ? step / plain - 1 : 0,
                                           "frac"};
        out["resilience.checkpoint_ms"] = {
            ms("resilience.checkpoint_now"), "ms"};
        out["resilience.work_efficiency"].unit = "frac";
        probes(tracer, out);
    }

  private:
    void
    plainSteps(Tracer &tracer, Round &r, MlpConfig cfg, const Dataset &data,
               int64_t batch, int steps, TrainPrecision p,
               const std::string &span_name)
    {
        cfg.precision = p;
        Mlp model(cfg);
        const int64_t per_epoch = data.size() / batch;
        for (int s = 0; s < steps; ++s) {
            const Dataset mb = data.slice((s % per_epoch) * batch, batch);
            ++tracer.op;
            const double t0 = hostSeconds();
            float loss = 0;
            {
                SpanGuard span(tracer, span_name);
                loss = model.trainStep(mb.features, mb.labels);
            }
            const bool ok = std::isfinite(loss) && model.weightsFinite();
            r.finishOps(t0, 1, ok ? 0 : 1, "plain train step", "train_steps",
                        1);
        }
        if (p != TrainPrecision::FP32)
            r.counts["func.emulated_macs"] +=
                3.0 * double(steps * batch) * forwardMacs(cfg.dims);
        digestState(r.digest, model.exportState());
    }

    void
    evaluate(Tracer &tracer, Round &r, const Replica &rp, Mlp &model)
    {
        const double n = double(rp.spiral_test.size());
        auto pass = [&](const char *span_name, auto &&fn) {
            ++tracer.op;
            const double t0 = hostSeconds();
            double acc = 0;
            {
                SpanGuard span(tracer, span_name);
                acc = fn();
            }
            r.finishOps(t0, 1, acc >= 0 && acc <= 1 ? 0 : 1, "evaluation",
                        "eval_samples", n);
            r.counts["func.emulated_macs"] +=
                n * forwardMacs(rp.spiral_cfg.dims);
            r.digest.add(acc);
        };
        pass("func.eval.hfp8",
             [&] { return model.evaluate(rp.spiral_test); });
        pass("func.eval.int4",
             [&] { return model.evaluateInt(rp.spiral_test, 4); });
        pass("func.eval.int2",
             [&] { return model.evaluateInt(rp.spiral_test, 2); });
    }

    /** Returns the optimizer steps the phase completed. */
    uint64_t
    resilientPhase(Tracer &tracer, Round &r, const Replica &rp)
    {
        MlpConfig cfg = rp.spiral_cfg;
        cfg.precision = TrainPrecision::HFP8;
        ResilientTrainer trainer(cfg, rp.res_cfg);
        for (int s = 1; s <= kResilientSteps; ++s) {
            ++tracer.op;
            const double t0 = hostSeconds();
            {
                SpanGuard span(tracer, "resilience.run_steps");
                trainer.runSteps(rp.spiral_train, kBatch, 1);
            }
            const bool ok = trainer.stats().closed() &&
                            trainer.model().weightsFinite() &&
                            trainer.faultStats().accountingConsistent();
            const double dt = r.finishOps(t0, 1, ok ? 0 : 1,
                                          "resilient step", "train_steps", 1);
            r.samples["train_step_ms"].push_back(1e3 * dt);
            if (s % kEvalEvery == 0) {
                // Deployment evaluation runs the trained weights on a
                // fault-free model: the training GEMM injector must not
                // reach (or draw for) inference.
                Mlp deployed(cfg);
                deployed.importState(trainer.model().exportState());
                evaluate(tracer, r, rp, deployed);
            }
        }

        TrainerCheckpoint ckpt;
        {
            SpanGuard span(tracer, "resilience.checkpoint_now");
            ckpt = trainer.checkpointNow();
        }
        const std::vector<uint8_t> bytes = serializeCheckpoint(ckpt);
        r.digest.bytes(bytes.data(), bytes.size());

        const RecoveryStats st = trainer.stats();
        const FaultStats &fs = trainer.faultStats();
        r.counts["resilience.retries"] += double(st.retries);
        r.counts["resilience.rollbacks"] += double(st.rollbacks);
        r.counts["resilience.replayed"] += double(st.replayed);
        r.counts["resilience.checkpoints"] += double(st.checkpoints);
        r.counts["common.fault_injected"] += double(fs.injected);
        r.counts["common.fault_detected"] += double(fs.detected);
        r.counts["common.fault_sdc"] += double(fs.sdc);
        r.counts["func.emulated_macs"] +=
            3.0 * double((st.steps + st.retries + st.replayed) * kBatch) *
            forwardMacs(cfg.dims);
        for (uint64_t v : {st.steps, st.clean, st.retried, st.rolled_back,
                           st.escalated, st.skipped, st.escalations,
                           fs.sampled, fs.injected, fs.detected,
                           fs.corrected, fs.retries, fs.masked, fs.sdc})
            r.digest.add(v);
        return st.steps;
    }

    /** Single-layer probes on the wide model's GEMM shape. */
    void
    probes(Tracer &tracer, MetricMap &out)
    {
        constexpr uint64_t kN = 1 << 20;
        Rng rng(mixSeed(seed_, 9));
        std::vector<float> xs(4096);
        for (float &x : xs)
            x = float(rng.gaussian());
        auto x = [&](uint64_t i) { return xs[i & 4095]; };
        volatile float sink = 0;

        ChunkAccumulator acc;
        out["precision.chunk_add_ns"] = {
            probeNs(tracer, "precision.chunk_add", kN,
                    [&](uint64_t i) { acc.add(double(x(i)) * x(i + 7)); }),
            "ns"};
        sink = acc.total();
        const FloatFormat &dl16 = dlfloat16();
        out["precision.dl16_roundtrip_ns"] = {
            probeNs(tracer, "precision.dl16_roundtrip", kN,
                    [&](uint64_t i) {
                        sink = dl16.decode(dl16.encode(x(i)));
                    }),
            "ns"};
        MpeDatapath dp;
        float fma = 0;
        out["precision.hfp8_fma_ns"] = {
            probeNs(tracer, "precision.hfp8_fma", kN,
                    [&](uint64_t i) {
                        fma = dp.hfp8Fma(x(i), Fp8Kind::Forward, x(i + 3),
                                         Fp8Kind::Forward, fma * 0.5f);
                    }),
            "ns"};
        int64_t mac = 0;
        out["precision.int_mac_ns"] = {
            probeNs(tracer, "precision.int_mac", kN,
                    [&](uint64_t i) {
                        mac = dp.intMac(int(i % 15) - 7, int(i % 13) - 6,
                                        mac, 4);
                    }),
            "ns"};
        sink = fma + float(mac);

        const int64_t m = 64, k = 192, n = 192;
        const double macs = double(m * k * n);
        const Tensor a = gaussianTensor(rng, m, k);
        const Tensor b = gaussianTensor(rng, k, n);
        const Tensor act = relu(a);
        auto perMac = [&](const char *name, auto &&fn) {
            return Metric{
                probeNs(tracer, name, 1, [&](uint64_t) { sink = fn()[0]; }) /
                    macs,
                "ns"};
        };
        out["tensor.matmul_ns_per_mac"] =
            perMac("tensor.matmul", [&] { return matmul(a, b); });
        out["func.fp16_matmul_ns_per_mac"] =
            perMac("func.fp16_matmul", [&] { return fp16Matmul(a, b); });
        out["func.hfp8_matmul_ns_per_mac"] =
            perMac("func.hfp8_matmul", [&] {
                return hfp8Matmul(a, Fp8Kind::Forward, b, Fp8Kind::Forward);
            });
        const PactQuantizer act_q(4.0f, 4);
        const SawbQuantizer wt_q(
            std::vector<float>(b.data(), b.data() + b.numel()), 4);
        out["func.int_matmul_ns_per_mac"] =
            perMac("func.int_matmul",
                   [&] { return intMatmul(act, act_q, b, wt_q, 4); });
        out["func.quantize_fp8_ns_per_elem"] = {
            probeNs(tracer, "func.quantize_fp8", 64,
                    [&](uint64_t) {
                        sink = quantizeTensorFp8(a, Fp8Kind::Forward)[0];
                    }) /
                double(a.numel()),
            "ns"};

        FaultConfig fc = replicas_[0].res_cfg.fault;
        fc.site_enabled[unsigned(FaultSite::TrainerGemm)] = true;
        const FaultInjector inj(fc);
        uint64_t hits = 0;
        out["common.fault_hash_draw_ns"] = {
            probeNs(tracer, "common.fault_hash_draw", kN,
                    [&](uint64_t i) {
                        hits += inj.hashEventDraw(FaultSite::TrainerGemm, i);
                    }),
            "ns"};
        sink = float(hits);
        (void)sink;
    }

    uint64_t seed_;
    std::vector<Replica> replicas_;
};

} // namespace

std::unique_ptr<Workload>
makeTrainWorkload(uint64_t seed)
{
    return std::make_unique<TrainWorkload>(seed);
}

} // namespace perfbench
