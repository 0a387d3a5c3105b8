#include "common/parallel.hh"

#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace rapid {

namespace {

/// Depth of pool tasks on this thread (0 outside any task).
thread_local int tls_task_depth = 0;

/// RAII marker for code running as a pool task.
struct TaskScope
{
    TaskScope() { ++tls_task_depth; }
    ~TaskScope() { --tls_task_depth; }
};

/**
 * How long an idle worker polls for the next region, and a caller for
 * the last member at the barrier, before either blocks. It bridges the
 * serial gap between two DES windows (delivering outboxes, computing
 * the next safe bound) many times over, yet an idle pool still parks
 * within a tenth of a millisecond.
 */
constexpr std::chrono::microseconds kSpinBound{100};

/// Polls between two clock reads while spinning.
constexpr unsigned kPollsPerClockRead = 32;

/** Tell the core this is a spin-wait loop. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
}

/**
 * Poll done() with a CPU pause between polls until it holds or
 * kSpinBound has passed; returns done(). The clock is first read only
 * after kPollsPerClockRead polls, so a wait that ends at once costs
 * no clock read.
 */
template <typename Pred>
bool
spinUntil(Pred done)
{
    std::chrono::steady_clock::time_point deadline{};
    for (bool timed = false;; timed = true) {
        for (unsigned i = 0; i < kPollsPerClockRead; ++i) {
            if (done())
                return true;
            cpuRelax();
        }
        const auto now = std::chrono::steady_clock::now();
        if (!timed)
            deadline = now + kSpinBound;
        else if (now >= deadline)
            return done();
    }
}

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;
std::atomic<unsigned> g_thread_override{0};

} // namespace

bool
ThreadPool::inTask()
{
    return tls_task_depth > 0;
}

unsigned
ThreadPool::hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? n : 1;
}

unsigned
ThreadPool::defaultThreads()
{
    const unsigned override_n =
        g_thread_override.load(std::memory_order_relaxed);
    if (override_n > 0)
        return override_n;
    if (const char *env = std::getenv("RAPID_THREADS")) {
        const long n = std::strtol(env, nullptr, 10);
        if (n >= 1 && n <= 1024)
            return unsigned(n);
        rapid_warn("ignoring RAPID_THREADS=", env,
                   " (expected 1..1024)");
    }
    return hardwareThreads();
}

void
ThreadPool::setDefaultThreads(unsigned n)
{
    rapid_assert(n <= 1024, "unreasonable thread count ", n);
    rapid_assert(!inTask(),
                 "cannot resize the shared ThreadPool from inside a "
                 "pool task");
    std::lock_guard<std::mutex> lk(g_pool_mu);
    g_thread_override.store(n, std::memory_order_relaxed);
    if (g_pool && g_pool->numThreads() == defaultThreads())
        return; // already the right size; keep the warm pool
    g_pool.reset();
}

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lk(g_pool_mu);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(0);
    return *g_pool;
}

ThreadPool::ThreadPool(unsigned threads)
    : numThreads_(threads > 0 ? threads : defaultThreads())
{
    rapid_assert(numThreads_ >= 1 && numThreads_ <= 1024,
                 "unreasonable thread count ", numThreads_);
    workers_.reserve(numThreads_ - 1);
    for (unsigned i = 0; i + 1 < numThreads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    stop_.store(true);
    {
        // A worker tests stop_ under mu_ before it blocks.
        std::lock_guard<std::mutex> lk(mu_);
    }
    workCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::runSome()
{
    TaskScope scope;
    const size_t n = n_;
    const std::function<void(size_t)> &fn = *fn_;
    for (;;) {
        const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= n)
            break;
        try {
            fn(i);
        } catch (...) {
            std::lock_guard<std::mutex> lk(errorMu_);
            if (!first_error_)
                first_error_ = std::current_exception();
        }
    }
}

void
ThreadPool::leave()
{
    // seq_cst pairs with the caller's store to callerParked_ followed
    // by its load of active_: one of the two sees the other.
    const uint64_t prev = active_.fetch_sub(1);
    if (members(prev) == 1 && callerParked_.load()) {
        { std::lock_guard<std::mutex> lk(mu_); }
        doneCv_.notify_one();
    }
}

void
ThreadPool::workerLoop()
{
    uint64_t seen = 0;
    for (;;) {
        const auto fresh = [&] {
            return stop_.load() || gen_.load() != seen;
        };
        if (!spinUntil(fresh)) {
            std::unique_lock<std::mutex> lk(mu_);
            // seq_cst pairs with the caller's gen_ bump followed by
            // its load of parked_: a region published while this
            // worker parks is either seen here or notified.
            parked_.fetch_add(1);
            workCv_.wait(lk, fresh);
            parked_.fetch_sub(1);
        }
        if (stop_.load())
            return;
        seen = gen_.load();
        // Join before claiming. The gate opens before gen_ moves, so
        // a closed gate here means the region this worker woke for
        // is already over (its caller ran it alone).
        if (active_.fetch_add(1) & kGateClosed) {
            leave();
            continue;
        }
        runSome();
        leave();
    }
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    if (inTask())
        throw std::logic_error(
            "nested ThreadPool::parallelFor from inside a pool task; "
            "use rapid::parallelFor, which serializes nested regions");
    if (n == 0)
        return;
    if (workers_.empty() || n == 1) {
        // Serial fast path: run inline on the caller, still marked as
        // a task so nesting rules behave identically at any size.
        TaskScope scope;
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // One fork-join region at a time; concurrent callers queue here.
    std::lock_guard<std::mutex> submit(submitMu_);

    // The gate is closed and no member is inside, so the slot is ours.
    n_ = n;
    fn_ = &fn;
    next_.store(0, std::memory_order_relaxed);
    active_.fetch_and(~kGateClosed);  // publishes the slot to joiners
    gen_.fetch_add(1);
    // A parking worker bumps parked_ and then tests gen_, both under
    // mu_; this bumps gen_ and then reads parked_. One of the two sees
    // the other, and taking mu_ before the notify means a worker that
    // counted itself parked is already waiting.
    if (parked_.load() > 0) {
        { std::lock_guard<std::mutex> lk(mu_); }
        workCv_.notify_all();
    }

    runSome();

    // The index space is drained; wait only for workers that joined.
    active_.fetch_or(kGateClosed);
    const auto drained = [&] { return members(active_.load()) == 0; };
    if (!spinUntil(drained)) {
        std::unique_lock<std::mutex> lk(mu_);
        callerParked_.store(true);
        doneCv_.wait(lk, drained);
        callerParked_.store(false);
    }
    if (first_error_)
        std::rethrow_exception(std::exchange(first_error_, nullptr));
}

void
parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    if (ThreadPool::inTask()) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    ThreadPool::global().parallelFor(n, fn);
}

} // namespace rapid
