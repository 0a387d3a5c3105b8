/**
 * @file
 * `serve` workload: the serving simulators on the DES core (common/des,
 * serve, llm, cluster). No precision emulation or chip simulation.
 *
 * Set-up builds every simulator (each compiles its own latency
 * tables). One round runs:
 *  - one FleetSim fleet per kFleetLoads entry: a resnet50/mobilenetv1/
 *    bert tenant mix on six chips, seeded kills with failover-restore,
 *    retry budgets, calibrated admission + breakers + brownout on every
 *    chip, offered load spread from below to past the knee; training
 *    tenant off;
 *  - one runServeBatch over a grid of independent ServeSim scenarios
 *    (load x arrival pattern x overload control);
 *  - one runLlmBatch over a continuous-batching LlmSim grid with the
 *    calibrated TPOT admission tier on.
 * The three drive the DES engine three ways: channels and many small
 * windows, channel-free domains in one window, long-lived token steps.
 * An op is one simulated scenario.
 */

#include <cstdio>
#include <map>
#include <string>

#include "cluster/fleet.hh"
#include "cluster/fleet_metrics.hh"
#include "common/fault.hh"
#include "harness.hh"
#include "llm/llm_metrics.hh"
#include "llm/llm_sim.hh"
#include "serve/latency_table.hh"
#include "serve/metrics.hh"
#include "serve/server_sim.hh"
#include "workloads/networks.hh"

using namespace rapid;

namespace perfbench {
namespace {

constexpr int64_t kMs = 1'000'000;
/// Offered load per chip, as a multiple of the four-tenant mix of
/// mixTenant (1,325 rps per chip at 1.0). Fleets and the ServeSim grid
/// put the same mix on every chip, so one load means the same traffic
/// per chip in both grids. A chip's knee lies near 2.5: below it strict
/// deadlines and bursts shed 0-10% of requests, past it the shed
/// fraction follows 1 - 2.6 / load. Seeded kills move a fleet's knee
/// down to 1.0-2.5.
constexpr double kFleetLoads[] = {0.5, 1.0, 2.0, 3.0};
constexpr double kServeLoads[] = {0.5, 1.0, 1.5, 2.5, 3.5, 5.0};
constexpr int kFleetChips = 6;
constexpr double kLlmRps[] = {100, 200, 300, 400, 500, 600, 700, 800};
/// Independently seeded LlmSim scenarios per kLlmRps entry: the
/// scenarios' host cost per token depends on their seed, so more of them
/// average it out.
constexpr int kLlmSeeds = 2;

/** One tenant of the resnet50 / mobilenetv1 / bert mix; @p kind
 *  cycles through a strict web frontend, a bursty background stream,
 *  a premium HFP8-floor NLP tenant and a relaxed web frontend. */
TenantConfig
mixTenant(int kind, int index, double scale)
{
    TenantConfig t;
    t.name = "t" + std::to_string(index);
    switch (kind % 4) {
    case 0:
        t.network = "resnet50";
        t.arrival_rps = 300.0 * scale;
        t.deadline_ns = 15 * kMs;
        t.priority = 2;
        break;
    case 1:
        t.network = "mobilenetv1";
        t.arrival_rps = 800.0 * scale;
        t.pattern = ArrivalPattern::Bursty;
        t.burst_mean = 16.0;
        t.deadline_ns = 20 * kMs;
        t.priority = 0;
        break;
    case 2:
        t.network = "bert";
        t.arrival_rps = 25.0 * scale;
        t.deadline_ns = 60 * kMs;
        t.min_precision = Precision::HFP8;
        t.priority = 2;
        break;
    default:
        t.network = "resnet50";
        t.arrival_rps = 200.0 * scale;
        t.deadline_ns = 30 * kMs;
        t.priority = 1;
        break;
    }
    return t;
}

void
enableOverload(ServeConfig &cfg)
{
    cfg.overload.admission.enabled = true;
    cfg.overload.admission.safety_margin = 1.25;
    cfg.overload.admission.window = 512;
    cfg.overload.breaker.enabled = true;
    cfg.overload.breaker.depth_open = 48;
    cfg.overload.breaker.open_ns = 30 * kMs;
    cfg.overload.brownout.enabled = true;
    cfg.overload.brownout.depth_high = 48;
    cfg.overload.brownout.escalate_ns = 10 * kMs;
    cfg.overload.brownout.recover_ns = 40 * kMs;
}

ClusterConfig
fleetConfig(uint64_t seed, size_t index, double load)
{
    ClusterConfig cfg;
    cfg.num_chips = kFleetChips;
    cfg.policy = FleetPolicy::FailoverRestore;
    cfg.serve.horizon_ns = 1000 * kMs;
    cfg.serve.seed = mixSeed(seed, 100 + index);
    // Tenant i is homed on chip i % kFleetChips, so every chip homes
    // one tenant of each kind.
    for (int i = 0; i < 4 * kFleetChips; ++i)
        cfg.serve.tenants.push_back(mixTenant(i / kFleetChips, i, load));
    cfg.serve.batcher.max_batch = 8;
    cfg.serve.batcher.max_wait_ns = 2 * kMs;
    enableOverload(cfg.serve);
    cfg.failures.rate = 0.35;
    cfg.failures.degraded_fraction = 0.3;
    // One kill plan for every fleet of a round: the fleets differ
    // only in offered load.
    cfg.failures.seed = mixSeed(seed, 200);
    cfg.failover.budget.enabled = true;
    cfg.failover.budget.tokens_per_s = 120.0;
    cfg.failover.budget.burst = 16.0;
    return cfg;
}

ServeConfig
serveConfig(uint64_t seed, size_t index, double load, bool bursty,
            bool overload)
{
    ServeConfig cfg;
    cfg.horizon_ns = 2000 * kMs;
    cfg.seed = mixSeed(seed, 300 + index);
    for (int i = 0; i < 4; ++i) {
        TenantConfig t = mixTenant(i, i, load);
        if (!bursty)
            t.pattern = ArrivalPattern::Poisson;
        cfg.tenants.push_back(t);
    }
    if (overload)
        enableOverload(cfg);
    return cfg;
}

LlmServeConfig
llmConfig(uint64_t seed, size_t index, double rps)
{
    LlmServeConfig cfg;
    cfg.model = "llm-small";
    cfg.policy = BatchPolicy::Continuous;
    cfg.max_batch = 32;
    cfg.horizon_ns = 6000 * kMs;
    cfg.seed = mixSeed(seed, 400 + index);
    LlmTenantConfig chat;
    chat.name = "chat";
    chat.arrival_rps = rps;
    chat.mean_prompt_tokens = 128.0;
    chat.mean_output_tokens = 64.0;
    chat.ttft_deadline_ns = 400 * kMs;
    chat.tpot_deadline_ns = 2 * kMs;
    cfg.tenants.push_back(chat);
    cfg.admission.enabled = true;
    cfg.admission.min_samples = 8;
    cfg.admission.window = 64;
    cfg.admission.safety_margin = 1.25;
    return cfg;
}

void
digestRequests(Digest &d, const ServeResult &r)
{
    d.add(uint64_t(r.requests.size()));
    for (const RequestRecord &q : r.requests) {
        d.add(q.id);
        d.add(q.tenant);
        d.add(q.precision);
        d.add(q.arrival_ns);
        d.add(q.launch_ns);
        d.add(q.completion_ns);
        d.add(q.predicted_ns);
        d.add(q.tier);
        d.add(q.shed_reason);
        d.add(q.probe);
        d.add(q.shed);
        d.add(q.failed);
    }
    d.add(uint64_t(r.batches.size()));
    d.add(r.end_ns);
    d.add(r.queue_depth_integral);
    d.add(r.max_queue_depth);
}

void
digestTenant(Digest &d, const TenantMetrics &t)
{
    for (uint64_t v : {t.offered, t.completed, t.shed, t.failed, t.sla_met,
                       t.violations, t.admitted_calibrated, t.admitted_bound,
                       t.shed_admission, t.shed_brownout})
        d.add(v);
    d.add(t.latency.p50);
    d.add(t.latency.p99);
}

/** "<grid>.load_<load><variant>." prefix of a round figure. */
std::string
loadFigure(const char *grid, double load, const char *variant = "")
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s.load_%.1f%s.", grid, load, variant);
    return buf;
}

/** Shed and SLA-violation fractions of one scenario cell. */
void
addLoadFigures(Round &r, const std::string &prefix, double offered,
               double shed, double completed, double violations)
{
    r.figures[prefix + "shed_frac"] = shed / offered;
    r.figures[prefix + "violation_frac"] = violations / completed;
}

bool
tenantClosed(const TenantMetrics &t)
{
    return t.accountingClosed() && t.tierAccountingClosed();
}

bool
llmClosed(const LlmTenantMetrics &t)
{
    return t.requestAccountingClosed() && t.tierAccountingClosed() &&
           t.tokenAccountingClosed();
}

class ServeWorkload : public Workload
{
  public:
    explicit ServeWorkload(uint64_t seed) : seed_(seed) {}

    // The fleets' DES windows serialize on barriers (two threads run
    // them slower than one). With the kernel on one thread the
    // five-seed spreads of work/side work were 0.09/0.11, against
    // 0.04/0.17 with it on both workers.
    bool parallel() const override { return false; }
    const char *workUnit() const override { return "sim_requests"; }
    const char *sideUnit() const override { return "sim_tokens"; }

    void
    setup(Tracer &tracer) override
    {
        const ChipConfig chip = makeInferenceChip();
        fleet_cfgs_.clear();
        fleets_.clear();
        for (double load : kFleetLoads) {
            fleet_cfgs_.push_back(fleetConfig(seed_, fleet_cfgs_.size(), load));
            SpanGuard span(tracer, "cluster.construct");
            fleets_.push_back(
                std::make_unique<FleetSim>(chip, fleet_cfgs_.back()));
        }

        serve_cfgs_.clear();
        serves_.clear();
        for (double load : kServeLoads)
            for (bool bursty : {false, true})
                for (bool overload : {false, true})
                    serve_cfgs_.push_back(serveConfig(
                        seed_, serve_cfgs_.size(), load, bursty, overload));
        for (const ServeConfig &cfg : serve_cfgs_) {
            SpanGuard span(tracer, "serve.construct");
            serves_.push_back(std::make_unique<ServeSim>(chip, cfg));
        }

        llm_cfgs_.clear();
        llms_.clear();
        for (int i = 0; i < kLlmSeeds; ++i)
            for (double rps : kLlmRps)
                llm_cfgs_.push_back(
                    llmConfig(seed_, llm_cfgs_.size(), rps));
        for (const LlmServeConfig &cfg : llm_cfgs_) {
            SpanGuard span(tracer, "llm.construct");
            llms_.push_back(std::make_unique<LlmSim>(chip, cfg));
        }
    }

    void
    round(Tracer &tracer, Round &r) override
    {
        fleetPhase(tracer, r);
        servePhase(tracer, r);
        llmPhase(tracer, r);
    }

    void
    layers(Tracer &tracer, const SpanSummary &spans, const Round &ref,
           MetricMap &out) override
    {
        // Probes of the two set-up steps inside the simulators'
        // constructors: network and LLM shape construction, and one
        // LatencyTable over the tenant networks.
        std::vector<Network> nets, llm_nets;
        const double t_build = hostSeconds();
        {
            SpanGuard span(tracer, "workloads.build");
            for (const char *name : {"resnet50", "mobilenetv1", "bert"})
                nets.push_back(benchmarkByName(name));
            const LlmModelConfig m = llmModelByName("llm-small");
            llm_nets.push_back(makeLlmPrefill(m, 128));
            llm_nets.push_back(makeLlmDecodeStep(m, 256));
        }
        const double t_table = hostSeconds();
        {
            SpanGuard span(tracer, "perf.latency_table");
            const LatencyTable table(makeInferenceChip(), nets,
                                     {Precision::INT4, Precision::HFP8,
                                      Precision::FP16},
                                     8, FaultConfig{});
        }
        const double t_end = hostSeconds();
        out["workloads.build_ms"] = {1e3 * (t_table - t_build), "ms"};
        out["perf.latency_table_ms"] = {1e3 * (t_end - t_table), "ms"};

        auto ms = [&](const char *name) {
            return spanOf(spans, name).meanMs();
        };
        const double windows = ref.counts.at("common.des.windows");
        out["common.des.requests_per_window"] = {
            ref.counts.at("cluster.requests") / windows, "count"};
        // Fleet run time per engine window; per round, as windows are.
        const SpanStats fleet = spanOf(spans, "cluster.run");
        const double fleet_rounds =
            double(fleet.calls) / double(fleet_cfgs_.size());
        out["common.des.window_us"] = {
            1e6 * fleet.total_s / fleet_rounds / windows, "us"};
        out["cluster.run_ms"] = {fleet.meanMs(), "ms"};
        out["cluster.ledger_ms"] = {ms("cluster.ledger"), "ms"};
        out["serve.run_ms"] = {ms("serve.run_batch"), "ms"};
        out["serve.metrics_ms"] = {ms("serve.metrics"), "ms"};
        out["llm.run_ms"] = {ms("llm.run_batch"), "ms"};
        out["llm.metrics_ms"] = {ms("llm.metrics"), "ms"};
    }

  private:
    void
    fleetPhase(Tracer &tracer, Round &r)
    {
        for (size_t i = 0; i < fleets_.size(); ++i) {
            ++tracer.op;
            const double t0 = hostSeconds();
            FleetResult res;
            {
                SpanGuard span(tracer, "cluster.run");
                res = fleets_[i]->run();
            }
            FleetLedger ledger;
            {
                SpanGuard span(tracer, "cluster.ledger");
                ledger = buildFleetLedger(fleet_cfgs_[i], res);
            }
            const double retired = double(ledger.completed + ledger.shed +
                                          ledger.failed + ledger.shed_budget);
            r.finishOps(t0, 1, ledger.closed() ? 0 : 1, "fleet ledger",
                        "sim_requests", retired);
            r.counts["cluster.requests"] += retired;
            r.counts["common.des.windows"] += double(res.windows);
            r.counts["cluster.adoptions"] += double(res.adoptions.size());
            r.counts["cluster.retries"] += double(ledger.retries);
            r.counts["cluster.retries_denied"] +=
                double(ledger.retries_denied);
            r.counts["cluster.chips_failed"] += double(ledger.chips_failed);
            addLoadFigures(r, loadFigure("fleet", kFleetLoads[i]),
                           double(ledger.offered),
                           double(ledger.shed + ledger.shed_budget),
                           double(ledger.completed),
                           double(ledger.violations));
            for (const ServeResult &c : res.chips)
                digestRequests(r.digest, c);
            for (const AdoptionMeta &a : res.adoptions) {
                r.digest.add(a.host_chip);
                r.digest.add(a.local_id);
                r.digest.add(a.origin_chip);
                r.digest.add(a.origin_id);
                r.digest.add(a.attempts);
            }
            for (uint64_t v :
                 {ledger.offered, ledger.completed, ledger.shed,
                  ledger.failed, ledger.shed_budget, ledger.retries_denied,
                  ledger.failed_over, ledger.retries, ledger.sla_met,
                  ledger.violations, res.windows})
                r.digest.add(v);
        }
    }

    void
    servePhase(Tracer &tracer, Round &r)
    {
        std::vector<const ServeSim *> ptrs;
        for (const auto &s : serves_)
            ptrs.push_back(s.get());
        tracer.op += ptrs.size();
        const double t0 = hostSeconds();
        std::vector<ServeResult> results;
        {
            SpanGuard span(tracer, "serve.run_batch");
            results = runServeBatch(ptrs);
        }
        uint64_t failed = 0;
        double retired = 0;
        std::vector<ServeMetrics> metrics;
        for (size_t i = 0; i < results.size(); ++i) {
            {
                SpanGuard span(tracer, "serve.metrics");
                metrics.push_back(computeMetrics(serve_cfgs_[i], results[i]));
            }
            const ServeMetrics &m = metrics.back();
            bool ok = tenantClosed(m.total);
            for (const TenantMetrics &t : m.tenants)
                ok = ok && tenantClosed(t);
            failed += ok ? 0 : 1;
            retired += double(m.total.completed + m.total.shed +
                              m.total.failed);
        }
        r.finishOps(t0, results.size(), failed, "serve ledger",
                    "sim_requests", retired);
        // Scenario i runs load kServeLoads[i / 4]; bit 0 of i is the
        // overload controls, bit 1 the arrival pattern.
        std::map<std::string, TenantMetrics> cells;
        for (size_t i = 0; i < results.size(); ++i) {
            const TenantMetrics &t = metrics[i].total;
            TenantMetrics &c = cells[loadFigure(
                "serve", kServeLoads[i / 4], i % 2 ? ".overload" : ".plain")];
            c.offered += t.offered;
            c.shed += t.shed;
            c.completed += t.completed;
            c.violations += t.violations;
        }
        for (const auto &[prefix, c] : cells)
            addLoadFigures(r, prefix, double(c.offered), double(c.shed),
                           double(c.completed), double(c.violations));
        for (size_t i = 0; i < results.size(); ++i) {
            const ServeMetrics &m = metrics[i];
            const TenantMetrics &t = m.total;
            r.counts["serve.requests"] += double(t.offered);
            r.counts["serve.batches"] += double(m.batches);
            r.counts["serve.admitted_calibrated"] +=
                double(t.admitted_calibrated);
            r.counts["serve.admitted_bound"] += double(t.admitted_bound);
            r.counts["serve.shed"] += double(t.shed);
            r.counts["serve.brownout_transitions"] +=
                double(m.brownout_transitions);
            digestRequests(r.digest, results[i]);
            digestTenant(r.digest, t);
        }
        r.counts["serve.mean_batch"] =
            (r.counts["serve.admitted_calibrated"] +
             r.counts["serve.admitted_bound"]) /
            r.counts["serve.batches"];
    }

    void
    llmPhase(Tracer &tracer, Round &r)
    {
        std::vector<const LlmSim *> ptrs;
        for (const auto &s : llms_)
            ptrs.push_back(s.get());
        tracer.op += ptrs.size();
        const double t0 = hostSeconds();
        std::vector<LlmResult> results;
        {
            SpanGuard span(tracer, "llm.run_batch");
            results = runLlmBatch(ptrs);
        }
        uint64_t failed = 0;
        double tokens = 0;
        std::vector<LlmMetrics> metrics;
        for (size_t i = 0; i < results.size(); ++i) {
            {
                SpanGuard span(tracer, "llm.metrics");
                metrics.push_back(computeLlmMetrics(llm_cfgs_[i], results[i]));
            }
            const LlmMetrics &m = metrics.back();
            bool ok = llmClosed(m.total);
            for (const LlmTenantMetrics &t : m.tenants)
                ok = ok && llmClosed(t);
            failed += ok ? 0 : 1;
            tokens += double(m.total.generated_tokens);
        }
        r.finishOps(t0, results.size(), failed, "llm ledger", "sim_tokens",
                    tokens);
        for (size_t i = 0; i < results.size(); ++i) {
            const LlmMetrics &m = metrics[i];
            r.counts["llm.steps"] += double(m.prefill_steps + m.decode_steps);
            r.counts["llm.tokens"] += double(m.total.generated_tokens);
            for (const LlmRequestRecord &q : results[i].requests) {
                r.digest.add(q.id);
                r.digest.add(q.arrival_ns);
                r.digest.add(q.prompt_tokens);
                r.digest.add(q.output_tokens);
                r.digest.add(q.mode);
                r.digest.add(q.tier);
                r.digest.add(q.first_token_ns);
                r.digest.add(q.completion_ns);
                r.digest.add(q.generated_tokens);
                r.digest.add(q.shed);
            }
            r.digest.add(uint64_t(results[i].steps.size()));
            r.digest.add(results[i].end_ns);
        }
        r.counts["llm.tokens_per_step"] =
            r.counts["llm.tokens"] / r.counts["llm.steps"];
    }

    uint64_t seed_;
    std::vector<ClusterConfig> fleet_cfgs_;
    std::vector<std::unique_ptr<FleetSim>> fleets_;
    std::vector<ServeConfig> serve_cfgs_;
    std::vector<std::unique_ptr<ServeSim>> serves_;
    std::vector<LlmServeConfig> llm_cfgs_;
    std::vector<std::unique_ptr<LlmSim>> llms_;
};

} // namespace

std::unique_ptr<Workload>
makeServeWorkload(uint64_t seed)
{
    return std::make_unique<ServeWorkload>(seed);
}

} // namespace perfbench
