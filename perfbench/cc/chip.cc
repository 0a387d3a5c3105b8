/**
 * @file
 * `chip` workload: modeled-chip evaluation (workloads, compiler, sim,
 * interconnect, perf, power, runtime, fault, and the fault oracle's
 * per-item RNG streams). Little functional emulation, no serving.
 *
 * Set-up builds the fig13 networks, lowers every distinct conv/GEMM
 * layer shape of kSimNetworks at FP16, HFP8 and INT4 with
 * CodeGenerator::generate, and builds the sessions and models of the
 * design-space sweep. One round:
 *  - ChipSim::runBatch over every compiled layer program;
 *  - a design-space sweep: InferenceSession::compile -> PerfModel::
 *    evaluate -> PowerModel::evaluate over network x precision (INT2
 *    included) x batch x dead-core mask, plus TrainingSession::run over
 *    network x precision x minibatch;
 *  - fault campaigns: runStorageExperiment per storage format, and
 *    faulted SystolicArraySim::gemm at several MAC-output rates.
 * An op is one layer program, one network evaluation or one campaign.
 *
 * Cycle-level simulation costs 100-500 host ns per simulated cycle, so
 * the simulated networks are the two whose distinct shapes cover the
 * common layer kinds (1x1/3x3/7x7 convs, FC, depthwise) in under a
 * second: all eleven would take minutes per round (VGG16's fc6 alone
 * runs ~60 s at FP16). The design-space sweep covers all eleven.
 */

#include <algorithm>
#include <set>
#include <tuple>

#include "common/fault.hh"
#include "compiler/codegen.hh"
#include "compiler/dataflow.hh"
#include "fault/storage_sim.hh"
#include "harness.hh"
#include "perf/perf_model.hh"
#include "power/power_model.hh"
#include "runtime/session.hh"
#include "sim/chip_sim.hh"
#include "sim/systolic.hh"
#include "workloads/networks.hh"

using namespace rapid;

namespace perfbench {
namespace {

constexpr Precision kSimPrecisions[] = {Precision::FP16, Precision::HFP8,
                                        Precision::INT4};
constexpr Precision kDsePrecisions[] = {Precision::FP16, Precision::HFP8,
                                        Precision::INT4, Precision::INT2};
constexpr const char *kSimNetworks[] = {"resnet50", "mobilenetv1"};
constexpr int64_t kDseBatches[] = {1, 2, 4, 8, 16, 32, 64, 128};
constexpr unsigned kDeadCores[] = {0, 1, 2, 3};
constexpr Precision kTrainPrecisions[] = {Precision::FP16, Precision::HFP8};
constexpr int64_t kMinibatches[] = {256, 512};
constexpr StorageFormat kFormats[] = {
    StorageFormat::DLFloat16, StorageFormat::Fp8E4M3, StorageFormat::Fp8E5M2,
    StorageFormat::Int4, StorageFormat::Int2};
constexpr double kMacRates[] = {1e-3, 1e-2, 5e-2};
constexpr int64_t kGemmDim = 32;
constexpr size_t kStorageWords = size_t(1) << 12;

using ShapeKey = std::tuple<int, int64_t, int64_t, int64_t, int64_t, int64_t,
                            int64_t, int64_t, int64_t, int64_t, int64_t,
                            int64_t, int64_t, int64_t>;

ShapeKey
shapeKey(const Layer &l)
{
    return {int(l.type), l.ci, l.co,    l.h,      l.w,  l.kh, l.kw,
            l.stride,    l.pad_h, l.pad_w, l.groups, l.gm, l.gk, l.gn};
}

void
digestFaults(Digest &d, const FaultStats &s)
{
    for (uint64_t v : {s.sampled, s.injected, s.detected, s.corrected,
                       s.retries, s.masked, s.sdc})
        d.add(v);
    d.add(s.retry_cycles);
}

class ChipWorkload : public Workload
{
  public:
    explicit ChipWorkload(uint64_t seed) : seed_(seed) {}

    // ChipSim::runBatch spreads its programs over the pool.
    bool parallel() const override { return true; }
    const char *workUnit() const override { return "chip_cycles"; }
    const char *sideUnit() const override { return "model_evals"; }

    void
    setup(Tracer &tracer) override
    {
        const ChipConfig chip = makeInferenceChip();
        std::vector<Network> nets;
        {
            SpanGuard span(tracer, "workloads.build");
            nets = allBenchmarks();
        }
        shapes_.clear();
        std::set<ShapeKey> seen;
        for (const Network &net : nets) {
            if (std::find(std::begin(kSimNetworks), std::end(kSimNetworks),
                          net.name) == std::end(kSimNetworks))
                continue;
            for (const Layer &l : net.layers)
                if (l.isCompute() && seen.insert(shapeKey(l)).second)
                    shapes_.push_back(l);
        }

        programs_.clear();
        const CodeGenerator cg(chip);
        for (const Layer &l : shapes_)
            for (Precision p : kSimPrecisions) {
                LayerPlan plan;
                plan.precision = p;
                SpanGuard span(tracer, "compiler.codegen");
                programs_.push_back(cg.generate(l, plan, 1));
            }

        chips_.clear();
        perf_.clear();
        power_.clear();
        sessions_.clear();
        training_.clear();
        for (unsigned dead : kDeadCores) {
            chips_.push_back(makeDegradedInferenceChip(dead));
            perf_.emplace_back(chips_.back());
            power_.emplace_back(chips_.back());
        }
        for (const Network &net : nets) {
            for (const ChipConfig &c : chips_)
                sessions_.emplace_back(c, net);
            training_.emplace_back(makeTrainingSystem(4), net);
        }

        storage_.clear();
        for (size_t i = 0; i < std::size(kFormats); ++i) {
            StorageExperiment exp;
            exp.format = kFormats[i];
            exp.data_seed = mixSeed(seed_, 10 + i);
            exp.words = kStorageWords;
            storage_.push_back(exp);
        }
        Rng rng(mixSeed(seed_, 20));
        gemm_a_ = Tensor({kGemmDim, kGemmDim});
        gemm_b_ = Tensor({kGemmDim, kGemmDim});
        for (int64_t i = 0; i < gemm_a_.numel(); ++i) {
            gemm_a_[i] = float(rng.gaussian());
            gemm_b_[i] = float(rng.gaussian());
        }
    }

    void
    round(Tracer &tracer, Round &r) override
    {
        simPhase(tracer, r);
        dsePhase(tracer, r);
        faultPhase(tracer, r);
    }

    void
    layers(Tracer &tracer, const SpanSummary &spans, const Round &ref,
           MetricMap &out) override
    {
        auto ms = [&](const char *name) {
            return spanOf(spans, name).meanMs();
        };
        const SpanStats run = spanOf(spans, "sim.run_batch");
        out["sim.chip_run_ms"] = {run.meanMs(), "ms"};
        out["sim.host_ns_per_cycle"] = {
            1e6 * run.meanMs() / ref.counts.at("sim.cycles"), "ns"};
        out["sim.systolic_ns_per_mac"] = {
            1e6 * ms("sim.systolic_gemm") /
                double(kGemmDim * kGemmDim * kGemmDim),
            "ns"};
        out["compiler.codegen_ms"] = {ms("compiler.codegen"), "ms"};
        out["perf.evaluate_us"] = {1e3 * ms("perf.evaluate"), "us"};
        out["power.evaluate_us"] = {1e3 * ms("power.evaluate"), "us"};
        out["runtime.compile_us"] = {1e3 * ms("runtime.compile"), "us"};
        out["runtime.training_session_us"] = {
            1e3 * ms("runtime.training_session"), "us"};
        out["workloads.build_ms"] = {ms("workloads.build"), "ms"};
        out["fault.storage_ms"] = {ms("fault.storage"), "ms"};
        out["sim.stall_frac"].unit = "frac";
        probes(tracer, out);
    }

  private:
    void
    simPhase(Tracer &tracer, Round &r)
    {
        const ChipSim sim(4, /*multicast=*/true);
        tracer.op += programs_.size();
        const double t0 = hostSeconds();
        std::vector<ChipRunStats> stats;
        {
            SpanGuard span(tracer, "sim.run_batch");
            stats = sim.runBatch(programs_);
        }
        uint64_t failed = 0;
        double cycles = 0, fmma = 0, stall = 0, busy = 0, hops = 0;
        double instrs = 0, tiles = 0;
        for (size_t i = 0; i < stats.size(); ++i) {
            const ChipRunStats &s = stats[i];
            const LayerProgram &p = programs_[i];
            bool ok = s.cores.size() == 4;
            for (const CoreRunStats &c : s.cores) {
                ok = ok && c.fmma_issued == p.fmma_slots &&
                     c.tiles_loaded == p.num_tiles;
                fmma += double(c.fmma_issued);
                stall += double(c.stall_cycles);
                busy += double(c.finish_cycle);
                r.digest.add(c.finish_cycle);
                r.digest.add(c.stall_cycles);
                r.digest.add(c.fmma_issued);
                r.digest.add(c.tiles_loaded);
            }
            failed += ok ? 0 : 1;
            cycles += double(s.makespan);
            hops += double(s.ring_flit_hops);
            instrs += double(p.mpe_program.size());
            tiles += double(p.num_tiles);
            r.digest.add(s.makespan);
            r.digest.add(s.ring_flit_hops);
        }
        r.finishOps(t0, stats.size(), failed, "chip core accounting",
                    "chip_cycles", cycles);
        r.counts["sim.cycles"] = cycles;
        r.counts["sim.fmma_issued"] = fmma;
        r.counts["sim.stall_frac"] = stall / busy;
        r.counts["interconnect.flit_hops"] = hops;
        r.counts["interconnect.flit_hops_per_cycle"] = hops / cycles;
        r.counts["compiler.mpe_instructions"] = instrs;
        r.counts["compiler.tiles"] = tiles;
    }

    void
    dsePhase(Tracer &tracer, Round &r)
    {
        for (size_t si = 0; si < sessions_.size(); ++si) {
            const InferenceSession &session = sessions_[si];
            const PerfModel &perf = perf_[si % chips_.size()];
            const PowerModel &power = power_[si % chips_.size()];
            for (Precision p : kDsePrecisions)
                for (int64_t batch : kDseBatches)
                    for (bool throttle : {false, true}) {
                    ++tracer.op;
                    const double t0 = hostSeconds();
                    InferenceOptions opts;
                    opts.target = p;
                    opts.batch = batch;
                    opts.sparsity_throttling = throttle;
                    ExecutionPlan plan;
                    NetworkPerf np;
                    EnergyReport energy;
                    {
                        SpanGuard span(tracer, "runtime.compile");
                        plan = session.compile(opts);
                    }
                    {
                        SpanGuard span(tracer, "perf.evaluate");
                        np = perf.evaluate(session.network(), plan, batch);
                    }
                    {
                        SpanGuard span(tracer, "power.evaluate");
                        energy = power.evaluate(np, session.network());
                    }
                    const bool ok = np.total_seconds > 0 &&
                                    energy.energy_j > 0 &&
                                    np.layers.size() ==
                                        session.network().layers.size();
                    r.finishOps(t0, 1, ok ? 0 : 1, "network evaluation",
                                "model_evals", 1);
                    r.digest.add(np.total_seconds);
                    r.digest.add(np.breakdown.total());
                    r.digest.add(energy.energy_j);
                    }
        }
        for (const TrainingSession &session : training_)
            for (Precision p : kTrainPrecisions)
                for (int64_t mb : kMinibatches) {
                    ++tracer.op;
                    const double t0 = hostSeconds();
                    TrainingOptions opts;
                    opts.precision = p;
                    opts.minibatch = mb;
                    TrainingPerf tp;
                    {
                        SpanGuard span(tracer, "runtime.training_session");
                        tp = session.run(opts);
                    }
                    r.finishOps(t0, 1, tp.step_seconds > 0 ? 0 : 1,
                                "training evaluation", "model_evals", 1);
                    r.digest.add(tp.step_seconds);
                    r.digest.add(tp.comm_seconds);
                }
    }

    void
    faultPhase(Tracer &tracer, Round &r)
    {
        FaultStats all;
        double words = 0;
        for (const StorageExperiment &exp : storage_) {
            ++tracer.op;
            const double t0 = hostSeconds();
            const FaultInjector inj(
                FaultConfig::withRate(1e-3, mixSeed(seed_, 30)));
            StorageResult res;
            {
                SpanGuard span(tracer, "fault.storage");
                res = runStorageExperiment(exp, inj);
            }
            r.finishOps(t0, 1, res.stats.accountingConsistent() ? 0 : 1,
                        "storage fault accounting", "fault_trials",
                        double(res.stats.sampled));
            words += double(res.stats.sampled);
            all += res.stats;
            digestFaults(r.digest, res.stats);
            r.digest.add(res.catastrophic);
            r.digest.add(res.sum_abs_error);
        }
        r.counts["fault.storage_words"] = words;

        const CoreletConfig corelet;
        for (size_t i = 0; i < std::size(kMacRates); ++i)
            for (bool secded : {false, true}) {
                ++tracer.op;
                const double t0 = hostSeconds();
                FaultConfig cfg = FaultConfig::withRate(
                    kMacRates[i], mixSeed(seed_, 40 + i));
                if (secded)
                    cfg.protectAll(secdedProtection(16.0));
                const FaultInjector inj(cfg);
                SystolicArraySim sim(corelet, Precision::FP16);
                sim.setFaultInjector(&inj);
                SystolicResult res;
                {
                    SpanGuard span(tracer, "sim.systolic_gemm");
                    res = sim.gemm(gemm_a_, gemm_b_);
                }
                r.finishOps(t0, 1, res.faults.accountingConsistent() ? 0 : 1,
                            "MAC fault accounting", "fault_trials",
                            double(res.faults.sampled));
                all += res.faults;
                digestFaults(r.digest, res.faults);
                r.digest.add(res.cycles);
                r.digest.bytes(res.c.data(),
                               sizeof(float) * size_t(res.c.numel()));
            }
        r.counts["common.fault_injected"] = double(all.injected);
        r.counts["common.fault_detected"] = double(all.detected);
        r.counts["common.fault_sdc"] = double(all.sdc);
    }

    void
    probes(Tracer &tracer, MetricMap &out)
    {
        const DataflowMapper mapper(chips_.front());
        double sink = 0;
        const double map_ns = probeNs(
            tracer, "compiler.map", shapes_.size() * std::size(kSimPrecisions),
            [&](uint64_t i) {
                sink += mapper
                            .map(shapes_[i / std::size(kSimPrecisions)], 1,
                                 kSimPrecisions[i % std::size(kSimPrecisions)])
                            .compute_cycles;
            });
        out["compiler.map_us"] = {map_ns / 1e3, "us"};

        const FaultInjector inj(
            FaultConfig::withRate(1e-3, mixSeed(seed_, 30)));
        uint64_t hits = 0;
        out["common.fault_stream_ns"] = {
            probeNs(tracer, "common.fault_stream", 1 << 18,
                    [&](uint64_t i) {
                        Rng rng = inj.stream(FaultSite::StorageWord, i);
                        hits += inj.eventDraw(rng);
                    }),
            "ns"};
        volatile double keep = sink + double(hits);
        (void)keep;
    }

    uint64_t seed_;
    std::vector<Layer> shapes_;
    std::vector<LayerProgram> programs_;
    std::vector<ChipConfig> chips_;
    std::vector<PerfModel> perf_;
    std::vector<PowerModel> power_;
    std::vector<InferenceSession> sessions_;
    std::vector<TrainingSession> training_;
    std::vector<StorageExperiment> storage_;
    Tensor gemm_a_, gemm_b_;
};

} // namespace

std::unique_ptr<Workload>
makeChipWorkload(uint64_t seed)
{
    return std::make_unique<ChipWorkload>(seed);
}

} // namespace perfbench
