#include "harness.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <thread>
#include <utility>

#include "common/fault.hh"

namespace perfbench {

double
hostSeconds()
{
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin)
        .count();
}

namespace {

/** One random cycle through a cache-resident table (Sattolo's
 *  shuffle): entry i holds the successor of i. */
const std::vector<uint32_t> &
chaseTable()
{
    constexpr uint32_t kEntries = 1u << 15; // 128 KiB
    static const std::vector<uint32_t> next = [] {
        std::vector<uint32_t> order(kEntries);
        for (uint32_t i = 0; i < kEntries; ++i)
            order[i] = i;
        for (uint32_t i = kEntries - 1; i > 0; --i)
            std::swap(order[i], order[rapid::mixSeed(0x5eed, i) % i]);
        std::vector<uint32_t> succ(kEntries);
        for (uint32_t i = 0; i < kEntries; ++i)
            succ[order[i]] = order[(i + 1) % kEntries];
        return succ;
    }();
    return next;
}

/** One chunk of the host-speed kernel: a walk of the chase table from
 *  @p start, where every load depends on the previous one, mixed with
 *  floating-point work. */
double
speedChunk(const std::vector<uint32_t> &next, uint32_t start, int steps)
{
    uint32_t at = start;
    double acc = 1.0;
    for (int k = 0; k < steps; ++k) {
        at = next[at];
        acc = acc * 0.999999 + double(at & 255u);
    }
    return acc;
}

} // namespace

double
hostSpeed(unsigned threads)
{
    constexpr double kReferenceSeconds = 0.015;
    constexpr int kSteps = 1 << 21; // one thread's share
    constexpr unsigned kChunks = 8; // per thread
    const std::vector<uint32_t> &next = chaseTable();
    // The threads share the chunks as the workloads' pools share
    // items, so a worker slowed by its neighbour takes fewer of them.
    std::atomic<unsigned> taken{0};
    std::vector<double> sinks(threads, 0.0);
    auto worker = [&](unsigned w) {
        for (unsigned c; (c = taken.fetch_add(1)) < kChunks * threads;)
            sinks[w] += speedChunk(next, c, kSteps / int(kChunks));
    };
    std::vector<std::thread> workers;
    const double t0 = hostSeconds();
    for (unsigned i = 1; i < threads; ++i)
        workers.emplace_back(worker, i);
    worker(0);
    for (std::thread &w : workers)
        w.join();
    const double dt = hostSeconds() - t0;
    volatile double sink = sinks[0];
    (void)sink;
    return kReferenceSeconds / dt;
}

int
Tracer::open(const std::string &name)
{
    Span s;
    s.name = name;
    s.parent = top_;
    s.op = op;
    s.start = hostSeconds();
    spans_.push_back(std::move(s));
    top_ = int(spans_.size()) - 1;
    return top_;
}

void
Tracer::close(int index)
{
    Span &s = spans_[size_t(index)];
    s.end = hostSeconds();
    top_ = s.parent;
}

SpanStats
spanOf(const SpanSummary &spans, const std::string &name)
{
    const auto it = spans.find(name);
    return it == spans.end() ? SpanStats{} : it->second;
}

SpanSummary
Tracer::summarize() const
{
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child_s[size_t(s.parent)] += s.end - s.start;
    SpanSummary out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        SpanStats &st = out[s.name];
        ++st.calls;
        st.total_s += s.end - s.start;
        st.self_s += s.end - s.start - child_s[i];
    }
    return out;
}

bool
Tracer::write(const std::string &path, const std::string &workload) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << "{\"workload\": \"" << workload << "\", \"spans\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        f << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
          << "\", \"start_us\": " << 1e6 * s.start
          << ", \"end_us\": " << 1e6 * s.end << ", \"parent\": " << s.parent
          << ", \"op\": " << s.op << "}";
    }
    f << "\n], \"summary\": {";
    bool first = true;
    for (const auto &[name, st] : summarize()) {
        f << (first ? "\n" : ",\n") << "\"" << name
          << "\": {\"calls\": " << st.calls
          << ", \"total_ms\": " << 1e3 * st.total_s
          << ", \"self_ms\": " << 1e3 * st.self_s << "}";
        first = false;
    }
    f << "\n}}\n";
    return bool(f);
}

double
Round::finishOps(double t0, uint64_t n, uint64_t n_failed, const char *what,
                 const char *unit, double work)
{
    const double dt = hostSeconds() - t0;
    auto &[count, secs] = units[unit];
    count += work;
    secs += dt;
    ops += n;
    failed += n_failed;
    if (n_failed && first_failure.empty())
        first_failure = what;
    return dt;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto rank = size_t(std::ceil(q * double(v.size())));
    return v[std::min(v.size() - 1, rank ? rank - 1 : 0)];
}

} // namespace perfbench
