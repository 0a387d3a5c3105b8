/**
 * @file
 * Measurement harness of the host-cost benchmark: the host clock,
 * in-memory spans, the FNV-1a output digest, per-round op accounting
 * and the workload interface.
 *
 * Every host clock read of the benchmark lives in harness.cc. The
 * library under test stays clock-free; spans are recorded here,
 * around calls into its public functions.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

/** Host seconds on a monotonic clock. */
double hostSeconds();

/**
 * Speed of this host right now relative to the reference host: the
 * reference time (15 ms) of a fixed pointer-chasing and floating-point
 * kernel over its measured time, with @p threads workers sharing
 * @p threads copies of the kernel at once, as a workload's rounds run. A shared host's
 * speed drifts by tens of percent over minutes; the benchmark divides
 * every rate by (and multiplies every time by) the speed measured
 * around it, so the end-to-end metrics read in reference-host units.
 */
double hostSpeed(unsigned threads);

/** One recorded span: a timed call into a layer. */
struct Span
{
    std::string name;
    double start = 0; ///< host seconds
    double end = 0;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
    uint64_t op = 0;  ///< op the span belongs to
};

/** Per-name aggregate of recorded spans. */
struct SpanStats
{
    uint64_t calls = 0;
    double total_s = 0; ///< summed span durations
    double self_s = 0;  ///< durations minus direct children

    double meanMs() const { return calls ? 1e3 * total_s / double(calls) : 0; }
};
using SpanSummary = std::map<std::string, SpanStats>;

/** Stats of the spans named @p name; empty when none were recorded. */
SpanStats spanOf(const SpanSummary &spans, const std::string &name);

/**
 * In-memory span recorder. Disabled, it records nothing, so an
 * untraced run pays one branch per instrumented call.
 */
class Tracer
{
  public:
    bool enabled = false;
    uint64_t op = 0; ///< id stamped on new spans

    int open(const std::string &name);
    void close(int index);

    const std::vector<Span> &spans() const { return spans_; }

    /** Aggregate every span by name. */
    SpanSummary summarize() const;

    /** Write all spans and the per-name summary as JSON to @p path;
     *  returns false when the file cannot be written. */
    bool write(const std::string &path, const std::string &workload) const;

  private:
    std::vector<Span> spans_;
    int top_ = -1;
};

/** RAII span around one layer call. */
class SpanGuard
{
  public:
    SpanGuard(Tracer &tracer, const std::string &name)
        : tracer_(tracer),
          index_(tracer.enabled ? tracer.open(name) : -1)
    {
    }
    ~SpanGuard()
    {
        if (index_ >= 0)
            tracer_.close(index_);
    }
    SpanGuard(const SpanGuard &) = delete;
    SpanGuard &operator=(const SpanGuard &) = delete;

  private:
    Tracer &tracer_;
    int index_;
};

/** 64-bit FNV-1a over the simulated outputs of a round. */
class Digest
{
  public:
    void
    bytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ULL;
        }
    }

    template <typename T>
    void
    add(const T &v)
    {
        static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                      "digest scalars field by field");
        bytes(&v, sizeof(v));
    }

    void
    add(const std::string &s)
    {
        add(uint64_t(s.size()));
        bytes(s.data(), s.size());
    }

    template <typename T>
    void
    add(const std::vector<T> &v)
    {
        add(uint64_t(v.size()));
        for (const T &x : v)
            add(x);
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * Outcome of one round: a fixed, deterministic sequence of ops. Every
 * round of a run repeats the same inputs, so its digest and counts
 * must equal those of every other round.
 */
struct Round
{
    uint64_t ops = 0;
    uint64_t failed = 0;
    /// Named work units retired, e.g. "train_steps", with the host
    /// seconds of the ops that retired them; reported as <name>_per_s.
    std::map<std::string, std::pair<double, double>> units;
    /// Named host-latency samples in ms, e.g. "train_step_ms";
    /// reported by their p50 and p99.
    std::map<std::string, std::vector<double>> samples;
    Digest digest;
    /// Deterministic per-round layer counts (per-layer metrics).
    std::map<std::string, double> counts;
    /// Deterministic per-scenario figures that show what the round
    /// simulated (e.g. shed fraction per offered load); printed once,
    /// not metrics.
    std::map<std::string, double> figures;
    /// First failed check, for the report.
    std::string first_failure;

    /** Account @p n ops executed by one call that started at @p t0
     *  and retired @p work units of @p unit; @p n_failed of them failed
     *  their output check. Returns the call's host seconds. */
    double finishOps(double t0, uint64_t n, uint64_t n_failed,
                     const char *what, const char *unit, double work);
};

/** A metric value with its unit. */
struct Metric
{
    double value = 0;
    std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/** A benchmark workload: timed set-up, then identical rounds. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build every input, network, table, program and simulator. */
    virtual void setup(Tracer &tracer) = 0;

    /** Run one round of checked ops. */
    virtual void round(Tracer &tracer, Round &r) = 0;

    /**
     * Traced run only: single-layer probes and the per-layer metrics
     * derived from @p spans of the traced rounds and the reference
     * round @p ref. @p out already holds each of ref.counts as a count.
     */
    virtual void layers(Tracer &tracer, const SpanSummary &spans,
                        const Round &ref, MetricMap &out) = 0;

    /** Whether the host-speed kernel runs on every pool worker (true)
     *  or on one thread (false): whichever tracks the workload's own
     *  host cost better. */
    virtual bool parallel() const = 0;

    /** Round::units keys behind work_per_s and side_work_per_s. */
    virtual const char *workUnit() const = 0;
    virtual const char *sideUnit() const = 0;
};

std::unique_ptr<Workload> makeTrainWorkload(uint64_t seed);
std::unique_ptr<Workload> makeServeWorkload(uint64_t seed);
std::unique_ptr<Workload> makeChipWorkload(uint64_t seed);

/** Time @p iters calls of @p fn in a span named @p name; returns
 *  host ns per call. */
template <typename Fn>
double
probeNs(Tracer &tracer, const std::string &name, uint64_t iters, Fn &&fn)
{
    SpanGuard span(tracer, name);
    const double t0 = hostSeconds();
    for (uint64_t i = 0; i < iters; ++i)
        fn(i);
    return 1e9 * (hostSeconds() - t0) / double(iters ? iters : 1);
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile @p q in [0, 1] of @p v (0 when empty). */
double percentile(std::vector<double> v, double q);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
