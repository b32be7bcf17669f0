#include "util/thread_pool.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/env.hh"
#include "util/metrics.hh"

namespace dse {
namespace util {

namespace {

/**
 * The pool whose loop this thread is running: its own pool on a
 * worker, the submitted-to pool on a caller running its chunks. A
 * parallelFor into that same pool runs inline — the outer loop already
 * owns the workers. A call into any other pool (a server thread fanning
 * out on the global pool, say) is an ordinary submission.
 */
thread_local const ThreadPool *t_running = nullptr;

} // namespace

ThreadPool::ThreadPool(size_t threads)
{
    if (threads == 0)
        threads = configuredThreads();
    workers_.reserve(threads - 1);
    for (size_t i = 0; i + 1 < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

size_t
ThreadPool::configuredThreads()
{
    const long long v = envInt("DSE_THREADS", 0);
    if (v > 0)
        return static_cast<size_t>(v);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

size_t
ThreadPool::concurrency() const
{
    return t_running == this ? 1 : threadCount();
}

void
ThreadPool::runChunks(Job &job)
{
    for (;;) {
        const size_t start = job.next.fetch_add(job.chunk);
        if (start >= job.end)
            return;
        const size_t stop = std::min(job.end, start + job.chunk);
        for (size_t i = start; i < stop; ++i) {
            try {
                (*job.fn)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu_);
                if (!job.error)
                    job.error = std::current_exception();
                job.next.store(job.end);  // abandon remaining iterations
                return;
            }
        }
    }
}

void
ThreadPool::workerLoop()
{
    t_running = this;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        // The oldest job with unclaimed chunks. A listed job stays
        // alive until its helpers drop to zero, so it is safe to run
        // after unlocking. `next` only grows outside mu_, so a job
        // becomes claimable only when listed under it: no lost wakeup.
        Job *job = nullptr;
        workCv_.wait(lock, [&] {
            for (Job *j : jobs_) {
                if (j->next.load(std::memory_order_relaxed) < j->end) {
                    job = j;
                    return true;
                }
            }
            return stop_;
        });
        if (stop_)
            return;
        ++job->helpers;
        lock.unlock();
        runChunks(*job);
        lock.lock();
        if (--job->helpers == 0)
            doneCv_.notify_all();
    }
}

void
ThreadPool::parallelFor(size_t begin, size_t end,
                        const std::function<void(size_t)> &fn)
{
    if (end <= begin)
        return;
    const size_t n = end - begin;

    // Inline: single-threaded pool, a single iteration, or a nested
    // call from this pool's own loop. All give the same results as the
    // parallel path.
    if (workers_.empty() || n == 1 || t_running == this) {
        for (size_t i = begin; i < end; ++i)
            fn(i);
        return;
    }

    // ~4 chunks per thread: coarse enough to amortize the claim,
    // fine enough for the atomic counter to balance uneven work.
    Job job{&fn, {begin}, end,
            std::max<size_t>(1, n / (4 * threadCount()))};
    {
        std::lock_guard<std::mutex> lock(mu_);
        jobs_.push_back(&job);
    }
    workCv_.notify_all();

    const ThreadPool *outer = std::exchange(t_running, this);
    runChunks(job);
    t_running = outer;

    // Every chunk is claimed: unlist the job so no new helper joins,
    // then wait out the ones still running it.
    std::unique_lock<std::mutex> lock(mu_);
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
    doneCv_.wait(lock, [&] { return job.helpers == 0; });
    if (job.error)
        std::rethrow_exception(job.error);
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;

/** Record the global pool's width as the `pool.threads` gauge. */
void
recordPoolWidth(const ThreadPool &pool)
{
    auto &registry = obs::MetricsRegistry::global();
    static const obs::GaugeId gauge = registry.gauge("pool.threads");
    registry.setGauge(gauge,
                      static_cast<int64_t>(pool.threadCount()));
}

} // namespace

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(g_pool_mu);
    if (!g_pool) {
        g_pool = std::make_unique<ThreadPool>();
        recordPoolWidth(*g_pool);
    }
    return *g_pool;
}

void
ThreadPool::resetGlobal(size_t threads)
{
    std::lock_guard<std::mutex> lock(g_pool_mu);
    g_pool = std::make_unique<ThreadPool>(threads);
    recordPoolWidth(*g_pool);
}

} // namespace util
} // namespace dse
