/**
 * @file
 * Deterministic fork-join parallelism for the sweep engine: a plain
 * thread pool (no work stealing) plus index-space parallelFor /
 * parallelMap helpers. The design rule that keeps every caller
 * ThreadSanitizer-clean and bit-reproducible by construction:
 *
 *  - Tasks are pure functions of their index. The pool hands out
 *    indices from a shared atomic counter, but results are always
 *    gathered *by index* (parallelMap writes out[i]), so the output
 *    is independent of which thread ran what and in which order.
 *  - No shared mutable state crosses tasks. Reductions (best design
 *    point of a sweep, totals over scenarios) happen serially at the
 *    barrier, in the same order a serial loop would use, so
 *    floating-point results are bit-identical at any thread count.
 *  - Grain: regions fork over design points and scenarios (table
 *    points, figure grids, simulator batches), never inside one
 *    network evaluation, whose layers and mapping candidates cost
 *    well under a microsecond each.
 *
 * ThreadPool::parallelFor is strict: calling it from inside a pool
 * task throws std::logic_error (nested fork-join on one pool would
 * deadlock or oversubscribe). The free rapid::parallelFor helper is
 * what library code uses: it degrades to a serial loop when already
 * inside a task, so e.g. a latency table's point sweep stays correct
 * whether the table is built at top level or inside a bench's
 * scenario sweep.
 *
 * Fork-join protocol (spin, then park). The DES engine forks one
 * region per barrier window, and a fleet window carries only a few
 * events, so a region of a few microseconds must cost well under a
 * microsecond to fork and join. The pool therefore keeps one
 * persistent region slot instead of allocating a batch per call:
 *
 *  - Publish. The caller fills the slot (n, fn, index counter), opens
 *    the join gate, then bumps a generation counter. It notifies the
 *    condition variable only when some worker is parked.
 *  - Spin, then park. An idle worker polls the generation with a CPU
 *    pause for a fixed bound (kSpinBound in parallel.cc, 100 us on the
 *    steady clock). Back-to-back windows therefore reach a worker
 *    without a futex round trip. Only after the bound does the worker
 *    park on the condition variable, so an idle pool costs no CPU.
 *  - Join rule. A worker joins a region by bumping an atomic member
 *    count through the open gate before it claims any index, and
 *    leaves by dropping it. Once the index space is drained the
 *    caller closes the gate and waits for the member count to reach
 *    zero; it spins for the same bound, then blocks. A worker that
 *    stayed parked, or arrived after the gate closed, never joined
 *    and never holds up the barrier. When parallelFor returns, no
 *    worker is inside the region and none can still enter it, so
 *    the caller's fn may die.
 *
 * None of this touches determinism: which thread runs which index
 * was never part of the result, because results are gathered by
 * index and reduced serially after the barrier. The first exception
 * thrown by a task is still rethrown after the barrier.
 */

#ifndef RAPID_COMMON_PARALLEL_HH
#define RAPID_COMMON_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace rapid {

/** Fixed-size fork-join pool; one shared instance drives all sweeps. */
class ThreadPool
{
  public:
    /**
     * @param threads Total threads participating in parallelFor,
     *        including the calling thread (so N-1 workers are
     *        spawned). 0 means defaultThreads().
     */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Threads participating in a parallelFor, caller included. */
    unsigned numThreads() const { return numThreads_; }

    /**
     * Run fn(i) for every i in [0, n), blocking until all complete.
     * The caller participates. The first exception thrown by any task
     * is rethrown here after the barrier. Throws std::logic_error if
     * called from inside a pool task (see rapid::parallelFor for the
     * nesting-tolerant variant).
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

    /** Workers currently parked on the condition variable (tests). */
    unsigned parkedWorkers() const { return parked_.load(); }

    /** True while the calling thread is executing a pool task. */
    static bool inTask();

    /** std::thread::hardware_concurrency, never 0. */
    static unsigned hardwareThreads();

    /**
     * Thread count new pools default to: the setDefaultThreads
     * override if set, else the RAPID_THREADS environment variable,
     * else hardwareThreads().
     */
    static unsigned defaultThreads();

    /**
     * Set the process-wide thread count (the --threads flag). Resets
     * the shared pool if its size changes; 0 restores the
     * environment/hardware default. Not safe to call concurrently
     * with parallelFor on the shared pool — configure at startup.
     */
    static void setDefaultThreads(unsigned n);

    /** The shared pool, created on first use at defaultThreads(). */
    static ThreadPool &global();

  private:
    /// Set in active_ while the region slot admits no new members.
    static constexpr uint64_t kGateClosed = uint64_t(1) << 63;

    void workerLoop();
    /** Claim and run indices of the open region until it drains. */
    void runSome();
    /** Drop one member; wakes a caller blocked on the last one. */
    void leave();
    /** Members currently inside the region (gate bit masked off). */
    static uint64_t members(uint64_t active) { return active & ~kGateClosed; }

    unsigned numThreads_;

    // The persistent region slot. n_, fn_ and first_error_ are written
    // by the caller only while the gate is closed and no member is
    // inside; members read them after joining through the open gate.
    size_t n_ = 0;
    const std::function<void(size_t)> *fn_ = nullptr;
    std::exception_ptr first_error_;  ///< tasks write it under errorMu_
    std::mutex errorMu_;

    // Each hot atomic on its own cache line: idle workers poll gen_
    // while members hammer next_ and active_.
    alignas(64) std::atomic<uint64_t> gen_{0};  ///< bumped per region
    alignas(64) std::atomic<size_t> next_{0};   ///< next unclaimed index
    /// Member count, plus kGateClosed between regions.
    alignas(64) std::atomic<uint64_t> active_{kGateClosed};
    alignas(64) std::atomic<unsigned> parked_{0};  ///< workers asleep
    std::atomic<bool> callerParked_{false};
    std::atomic<bool> stop_{false};

    std::mutex mu_;  ///< pairs with workCv_ and doneCv_ for parking
    std::condition_variable workCv_;
    std::condition_variable doneCv_;
    std::mutex submitMu_;  ///< serializes parallelFor callers

    /// Declared last: the workers use every member above.
    std::vector<std::thread> workers_;
};

/**
 * Run fn(i) for i in [0, n) on the shared pool; when the calling
 * thread is already inside a pool task the loop runs serially inline
 * (nested regions collapse, they do not reject). Results must be
 * gathered by index for determinism.
 */
void parallelFor(size_t n, const std::function<void(size_t)> &fn);

/**
 * Evaluate fn(i) for i in [0, n) in parallel and gather the results
 * into a vector indexed by i — the deterministic-by-construction
 * sweep primitive. The element type must be default-constructible.
 */
template <typename Fn>
auto
parallelMap(size_t n, Fn &&fn)
{
    using R = std::decay_t<decltype(fn(size_t{0}))>;
    std::vector<R> out(n);
    parallelFor(n, [&](size_t i) { out[i] = fn(i); });
    return out;
}

} // namespace rapid

#endif // RAPID_COMMON_PARALLEL_HH
