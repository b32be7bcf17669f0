/**
 * @file
 * Fixed-size worker pool for the library's embarrassingly parallel
 * loops (batch simulation, per-fold ensemble training, design-space
 * prediction).
 *
 * Design goals, in order:
 *
 *  1. **Determinism.** parallelFor(i) writes results into slot i of a
 *     caller-owned vector; the loop body never shares mutable state
 *     between iterations, so results are bit-identical at any thread
 *     count (including 1). The pool only schedules — it never
 *     reorders observable effects.
 *  2. **Simplicity over peak throughput.** Each call's range is handed
 *     out as contiguous index chunks from one atomic counter
 *     ("work-stealing-lite"): idle workers grab the next chunk, so
 *     uneven iteration costs self-balance without per-worker deques.
 *  3. **Shared workers.** Concurrent calls from different threads (a
 *     server's request handlers, say) each submit a job; workers serve
 *     the oldest job with unclaimed chunks, and every caller runs its
 *     own job's chunks too, so no call waits on an idle worker.
 *  4. **Graceful degradation.** With one configured thread, a single
 *     iteration, or a nested call from a thread already running this
 *     pool's loop, the loop runs inline on the calling thread — same
 *     results, no deadlock.
 *
 * The worker count comes from DSE_THREADS when set (>0), else
 * std::thread::hardware_concurrency(). The calling thread always
 * participates, so a pool of size N spawns N-1 workers.
 */

#ifndef DSE_UTIL_THREAD_POOL_HH
#define DSE_UTIL_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dse {
namespace util {

class ThreadPool
{
  public:
    /**
     * @param threads total thread count including the caller;
     *        0 = configuredThreads() (DSE_THREADS or hardware)
     */
    explicit ThreadPool(size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total threads that execute a loop (workers + calling thread). */
    size_t threadCount() const { return workers_.size() + 1; }

    /**
     * Threads a parallelFor issued from the calling thread would run
     * on: 1 when it would run inline (a pool without workers, or a
     * thread already running this pool's loop), else threadCount().
     * Lets a caller size per-thread state before fanning out.
     */
    size_t concurrency() const;

    /**
     * Run fn(i) for every i in [begin, end). Blocks until all
     * iterations complete; rethrows the first exception any iteration
     * threw. Iterations must not share mutable state except through
     * their own synchronization. Safe to call from several threads at
     * once; a nested call from inside one of this pool's iterations
     * runs inline.
     */
    void parallelFor(size_t begin, size_t end,
                     const std::function<void(size_t)> &fn);

    /** DSE_THREADS when set (>0), else hardware concurrency (>=1). */
    static size_t configuredThreads();

    /** The process-wide pool (created on first use). */
    static ThreadPool &global();

    /**
     * Replace the global pool with one of the given size (0 = re-read
     * the environment). Test/bench hook: callers must ensure no
     * parallel work is in flight.
     */
    static void resetGlobal(size_t threads = 0);

  private:
    /** One parallelFor call; lives on its caller's stack, on cache
     *  lines of its own so claims do not contend with the caller. */
    struct alignas(64) Job
    {
        const std::function<void(size_t)> *fn;
        std::atomic<size_t> next;  ///< first unclaimed index
        size_t end;
        size_t chunk;
        size_t helpers = 0;        ///< workers running it (under mu_)
        std::exception_ptr error{};  ///< first exception (under mu_)
    };

    void workerLoop();
    void runChunks(Job &job);

    std::mutex mu_;
    std::condition_variable workCv_;
    std::condition_variable doneCv_;
    std::vector<Job *> jobs_;  ///< submission order (under mu_)
    bool stop_ = false;

    std::vector<std::thread> workers_;
};

} // namespace util
} // namespace dse

#endif // DSE_UTIL_THREAD_POOL_HH
