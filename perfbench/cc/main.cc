/**
 * @file
 * Host-cost benchmark binary.
 *
 *   perfbench --workload train|serve|chip --seed N --seconds S
 *             --trace 0|1 [--threads T] [--trace-out PATH]
 *
 * Sets the workload up three times (setup_s is the median), runs one
 * reference round, then repeats identical rounds until S seconds have
 * passed. Every round must reproduce the reference round's digest and
 * counts, and every op's output check must hold. A host-speed
 * measurement (hostSpeed, on the T workers of a parallel workload, else
 * on one) precedes and follows every set-up and round; end-to-end times
 * and rates are scaled by the geometric mean of the two and so read in
 * reference-host units, with the raw host values printed beside them.
 * With --trace 1 the rounds alternate traced/untraced, so the per-layer
 * metrics and the tracing overhead come from the same process.
 *
 * The last stdout line is one JSON object that perfbench/run.py turns
 * into the benchmark result.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <sstream>
#include <string>
#include <thread>

#include "common/parallel.hh"
#include "harness.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

constexpr int kSetupReps = 3;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    unsigned threads = 2;
    std::string trace_out;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "train|serve|chip --seed N --seconds S --trace 0|1 "
                 "[--threads T] [--trace-out PATH]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
        } else if (key == "--trace") {
            a.trace = val == "1";
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
        } else if (key == "--threads") {
            a.threads = unsigned(std::strtoul(val.c_str(), &end, 10));
        } else if (key == "--trace-out") {
            a.trace_out = val;
        } else {
            usage(("unknown flag " + key).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("bad number for " + key).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0) || a.threads == 0)
        usage("--seconds and --threads must be positive");
    return a;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "train")
        return makeTrainWorkload(seed);
    if (name == "serve")
        return makeServeWorkload(seed);
    if (name == "chip")
        return makeChipWorkload(seed);
    usage(("unknown workload " + name).c_str());
}

/** Peak resident set of this process image. VmHWM, unlike
 *  getrusage's ru_maxrss, restarts at exec, so a launcher's own
 *  footprint does not leak into it. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/** End-to-end metrics of a set of rounds: medians of per-round rates. */
struct EndToEnd
{
    double ops_per_s = 0, work_per_s = 0, side_work_per_s = 0;
    std::map<std::string, double> unit_per_s;
    std::map<std::string, std::vector<double>> samples;
};

/** @p speed[i] is the host speed around round i; pass ones for raw
 *  host rates. */
EndToEnd
endToEnd(const Workload &w, const std::vector<Round> &rounds,
         const std::vector<double> &secs, const std::vector<double> &speed)
{
    EndToEnd e;
    std::vector<double> ops;
    std::map<std::string, std::vector<double>> rates;
    for (size_t i = 0; i < rounds.size(); ++i) {
        const Round &r = rounds[i];
        ops.push_back(double(r.ops) / secs[i] / speed[i]);
        for (const auto &[name, work] : r.units)
            rates[name].push_back(work.first / work.second / speed[i]);
        for (const auto &[name, v] : r.samples)
            e.samples[name].insert(e.samples[name].end(), v.begin(),
                                   v.end());
    }
    e.ops_per_s = median(ops);
    for (const auto &[name, v] : rates)
        e.unit_per_s[name] = median(v);
    e.work_per_s = e.unit_per_s[w.workUnit()];
    e.side_work_per_s = e.unit_per_s[w.sideUnit()];
    return e;
}

/** Run one round; an exception fails the op it interrupted. */
void
runRound(Workload &w, Tracer &tracer, Round &r)
{
    try {
        w.round(tracer, r);
    } catch (const std::exception &ex) {
        ++r.ops;
        ++r.failed;
        if (r.first_failure.empty())
            r.first_failure = ex.what();
    }
}

void
printMetrics(const MetricMap &metrics)
{
    for (const auto &[name, m] : metrics)
        std::printf("  %-40s %.6g %s\n", name.c_str(), m.value,
                    m.unit.c_str());
}

/** @p metrics as a JSON object of full-precision values. */
std::string
jsonValues(const MetricMap &metrics)
{
    std::string out = "{";
    for (const auto &[name, m] : metrics) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", m.value);
        out += (out.size() > 1 ? ", \"" : "\"") + name + "\": " + buf;
    }
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        rapid::ThreadPool::setDefaultThreads(args.threads);
        std::unique_ptr<Workload> w = makeWorkload(args.workload, args.seed);
        Tracer tracer;

        // Host speed around one set-up or round: the geometric mean of
        // the measurements just before and just after it.
        const unsigned speed_threads = w->parallel() ? args.threads : 1;
        double speed_before = hostSpeed(speed_threads);
        auto speedAround = [&] {
            const double after = hostSpeed(speed_threads);
            const double speed = std::sqrt(speed_before * after);
            speed_before = after;
            return speed;
        };

        std::vector<double> setup_plain, setup_traced, setup_raw;
        for (int i = 0; i < kSetupReps; ++i) {
            tracer.enabled = args.trace && i % 2 == 1;
            const double t0 = hostSeconds();
            w->setup(tracer);
            const double dt = hostSeconds() - t0;
            const double speed = speedAround();
            (tracer.enabled ? setup_traced : setup_plain)
                .push_back(dt * speed);
            if (!tracer.enabled)
                setup_raw.push_back(dt);
        }

        // Reference round: warms caches and lazy set-up, and fixes the
        // digest and counts every timed round must reproduce.
        tracer.enabled = false;
        Round ref;
        runRound(*w, tracer, ref);
        bool consistent = ref.failed == 0;
        uint64_t attempted = ref.ops, failed = ref.failed;
        std::string first_failure = ref.first_failure;

        std::vector<Round> plain, traced;
        std::vector<double> plain_s, traced_s, plain_speed, traced_speed;
        speed_before = hostSpeed(speed_threads);
        const double start = hostSeconds();
        for (uint64_t k = 0;; ++k) {
            const bool done = hostSeconds() - start >= args.seconds;
            if (done && !plain.empty() && (!args.trace || !traced.empty()))
                break;
            tracer.enabled = args.trace && k % 2 == 1;
            Round r;
            const double t0 = hostSeconds();
            runRound(*w, tracer, r);
            const double dt = hostSeconds() - t0;
            (tracer.enabled ? traced_speed : plain_speed)
                .push_back(speedAround());
            if (r.digest.value() != ref.digest.value() ||
                r.counts != ref.counts) {
                consistent = false;
                if (first_failure.empty())
                    first_failure = "round digest differs from reference";
            }
            attempted += r.ops;
            failed += r.failed;
            if (first_failure.empty())
                first_failure = r.first_failure;
            (tracer.enabled ? traced_s : plain_s).push_back(dt);
            (tracer.enabled ? traced : plain).push_back(std::move(r));
        }
        tracer.enabled = false;

        const EndToEnd e = endToEnd(*w, plain, plain_s, plain_speed);
        const EndToEnd raw = endToEnd(*w, plain, plain_s,
                                      std::vector<double>(plain.size(), 1.0));
        const double setup_s = median(setup_plain);
        const double rss = peakRssMb();
        const MetricMap e2e = {
            {"setup_s", {setup_s, "s"}},
            {"peak_rss_mb", {rss, "MiB"}},
            {"ops_per_s", {e.ops_per_s, "1/s"}},
            {"work_per_s", {e.work_per_s, "1/s"}},
            {"side_work_per_s", {e.side_work_per_s, "1/s"}},
        };

        MetricMap layers;
        if (args.trace) {
            const SpanSummary spans = tracer.summarize();
            for (const auto &[name, v] : ref.counts)
                layers[name] = {v, "count"};
            layers["host.speed"] = {median(plain_speed), "ratio"};
            tracer.enabled = true;
            w->layers(tracer, spans, ref, layers);
            tracer.enabled = false;
            // Tracing overhead: how much worse each end-to-end metric
            // reads in the traced rounds, as a fraction (> 0 = slower).
            const EndToEnd t = endToEnd(*w, traced, traced_s, traced_speed);
            auto overhead = [&](const char *name, double traced_v,
                                double plain_v, bool higher_is_better) {
                const double worse = higher_is_better ? plain_v / traced_v
                                                      : traced_v / plain_v;
                layers[std::string("trace.overhead.") + name] = {
                    std::isfinite(worse) ? worse - 1 : 0, "frac"};
            };
            overhead("setup_s", median(setup_traced), setup_s, false);
            overhead("ops_per_s", t.ops_per_s, e.ops_per_s, true);
            overhead("work_per_s", t.work_per_s, e.work_per_s, true);
            overhead("side_work_per_s", t.side_work_per_s,
                     e.side_work_per_s, true);
            if (!args.trace_out.empty() &&
                !tracer.write(args.trace_out, args.workload))
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             args.trace_out.c_str());
        }

        const bool correct = consistent && failed == 0;
        char digest[32];
        std::snprintf(digest, sizeof(digest), "%016llx",
                      (unsigned long long)ref.digest.value());
        std::printf("workload %s  seed %llu  threads %u  nproc %u  "
                    "build %s  trace %d\n",
                    args.workload.c_str(), (unsigned long long)args.seed,
                    args.threads, std::thread::hardware_concurrency(),
                    PERFBENCH_BUILD_TYPE, int(args.trace));
        std::printf("rounds %zu  ops %llu  ops_failed %llu  error_rate %g"
                    "  sim_digest %s\n",
                    plain.size() + traced.size() + 1,
                    (unsigned long long)attempted,
                    (unsigned long long)failed,
                    attempted ? double(failed) / double(attempted) : 0.0,
                    digest);
        if (!first_failure.empty())
            std::printf("first failure: %s\n", first_failure.c_str());
        printMetrics(e2e);
        std::printf("  host speed %.4g (median of %zu), raw host rates:\n",
                    median(plain_speed), plain_speed.size());
        printMetrics({{"raw.setup_s", {median(setup_raw), "s"}},
                      {"raw.ops_per_s", {raw.ops_per_s, "1/s"}},
                      {"raw.work_per_s", {raw.work_per_s, "1/s"}},
                      {"raw.side_work_per_s", {raw.side_work_per_s, "1/s"}}});
        for (const auto &[name, v] : e.unit_per_s)
            std::printf("  %-40s %.6g 1/s\n", (name + "_per_s").c_str(), v);
        for (const auto &[name, v] : e.samples)
            std::printf("  %-40s p50 %.6g  p99 %.6g ms  (%zu samples)\n",
                        name.c_str(), percentile(v, 0.5),
                        percentile(v, 0.99), v.size());
        for (const auto &[name, v] : ref.figures)
            std::printf("  %-40s %.4g\n", name.c_str(), v);
        printMetrics(layers);

        std::ostringstream out;
        out << "{\"workload\": \"" << args.workload
            << "\", \"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"sim_digest\": \"" << digest
            << "\", \"e2e\": " << jsonValues(e2e)
            << ", \"layers\": " << jsonValues(layers) << "}";
        std::printf("%s\n", out.str().c_str());
        return 0;
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "perfbench: %s\n", ex.what());
        return 1;
    }
}
