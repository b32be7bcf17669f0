/**
 * @file
 * dse::remote::RemoteDispatcher — fans a study's batch-simulation step
 * out across simulation workers (SimWorker daemons) with the full
 * resilience kit: per-request deadlines, retry with decorrelated
 * jitter backoff, per-worker circuit breakers with half-open ping
 * probing, re-dispatch of batches in flight on a dying worker, hedged
 * duplicate dispatch for stragglers, and graceful degradation to local
 * simulation.
 *
 * Correctness invariant (the headline): a worker that hangs, crashes,
 * or drops its connection costs latency, never correctness. Remote
 * results carry full SimResult records (or calibrated SimPoint IPCs)
 * that are bit-identical to local computation by purity — the
 * dispatcher merges them into the StudyContext memo cache by
 * design-point index, and any batch whose retries exhaust is simply
 * left for the context's own local simulation path. An exploration
 * with every worker SIGKILLed mid-flight therefore completes
 * bit-identically to an all-local run; the only observable difference
 * is wall-clock time and the remote.* counters.
 *
 * Determinism: the backoff schedule is a pure function of
 * (seed, batch key, attempt) — SplitMix64-derived decorrelated jitter
 * — so retry timing is identical at any thread count. Fault-injection
 * keys are per-batch (first index), never wall clocks, keeping the
 * chaos suite's injected-fault sets reproducible.
 *
 * Topology comes from DispatcherOptions::endpoints (dse_explore
 * --workers=host:port[,host:port...]); with no endpoints every call
 * degrades to plain local simulation, so callers can wire the
 * dispatcher unconditionally.
 *
 * Threading: one persistent I/O thread per endpoint pulls batch tasks
 * from a shared queue; the caller of simulateBatch()/prefetch() acts
 * as coordinator (hedging scan, all-breakers-open escalation,
 * completion wait). The StudyContext's locked memo makes concurrent
 * result injection safe.
 */

#ifndef DSE_REMOTE_DISPATCHER_HH
#define DSE_REMOTE_DISPATCHER_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "study/harness.hh"
#include "util/metrics.hh"

namespace dse {
namespace remote {

/** One worker endpoint. */
struct Endpoint
{
    std::string host;
    uint16_t port = 0;
};

/** Parse "host:port[,host:port...]" (the dse_explore --workers
 *  format). Each port is the whole text after its entry's last ':',
 *  an integer in [1, 65535].
 *  @throws std::invalid_argument on a malformed entry */
std::vector<Endpoint> parseEndpoints(const std::string &spec);

struct DispatcherOptions
{
    /** Worker endpoints; empty = dispatcher is a transparent no-op
     *  (everything simulates locally). */
    std::vector<Endpoint> endpoints;
    /** Design points per remote batch task. */
    size_t batchPoints = 16;
    /** Per-request deadline (connect/send/recv each bounded); 0 =
     *  the serve::Client default (30 s). */
    int requestTimeoutMs = 0;
    /** Attempts per batch before falling back to local simulation. */
    uint32_t maxAttempts = 3;
    /** Backoff base and cap for the jittered retry delay. */
    int backoffBaseMs = 5;
    int backoffCapMs = 1000;
    /** Hedge a batch onto a second worker once it has been in flight
     *  this long with no reply (0 = hedging off). */
    int hedgeAfterMs = 0;
    /** Consecutive failures that open a worker's circuit breaker. */
    uint32_t breakerThreshold = 3;
    /** Route SimPoint-estimate batches instead of detailed ones. */
    bool simpoint = false;
};

/** Dispatch counts of one dispatcher. Each field reads the owned
 *  counter that also feeds the remote.* metric of the same name. */
struct DispatchStats
{
    uint64_t dispatched = 0;    ///< batch attempts sent (incl. hedges)
    uint64_t completed = 0;     ///< batches answered by a worker
    uint64_t retries = 0;       ///< re-attempts after a failure
    uint64_t hedges = 0;        ///< duplicate dispatches issued
    uint64_t redispatches = 0;  ///< batches re-queued off a dead worker
    uint64_t fallbacks = 0;     ///< batches exhausted to local sim
};

class RemoteDispatcher
{
  public:
    /** @param ctx the study context remote results merge into (must
     *         outlive the dispatcher) */
    RemoteDispatcher(study::StudyContext &ctx, DispatcherOptions opts);
    ~RemoteDispatcher();

    RemoteDispatcher(const RemoteDispatcher &) = delete;
    RemoteDispatcher &operator=(const RemoteDispatcher &) = delete;

    /**
     * Pre-warm the context's memo cache for a batch: fan the missing
     * indices out across live workers, merge what comes back, leave
     * the rest. Never throws on worker failure; with no endpoints it
     * returns immediately. Matches ml::ExplorerOptions::prefetch.
     */
    void prefetch(const std::vector<uint64_t> &indices);

    /**
     * prefetch() + the context's own batch call: every index resolves
     * (remote where possible, locally otherwise), in input order.
     * Bit-identical to StudyContext::simulateBatch at any topology,
     * including every worker dead.
     */
    std::vector<double>
    simulateBatch(const std::vector<uint64_t> &indices);

    /** True when at least one endpoint is configured. */
    bool active() const { return !opts_.endpoints.empty(); }

    DispatchStats stats() const;

    /**
     * The retry delay before attempt @p attempt of the batch keyed
     * @p key: decorrelated jitter in [base, min(cap, base << attempt)]
     * derived from a SplitMix64 stream over (seed, key, attempt). A
     * pure function — the whole backoff schedule is deterministic at
     * any thread count.
     */
    static int backoffDelayMs(uint64_t seed, uint64_t key,
                              uint32_t attempt, int base_ms, int cap_ms);

  private:
    struct Task;
    struct Worker;

    void workerLoop(size_t wi);
    /** One remote attempt of @p task on worker @p wi; returns true on
     *  success (results merged). */
    bool attempt(size_t wi, const std::shared_ptr<Task> &task);
    void requeue(const std::shared_ptr<Task> &task, uint64_t not_before_ns);
    void failTask(const std::shared_ptr<Task> &task);
    bool allBreakersOpen() const;
    static uint64_t nowNs();

    study::StudyContext &ctx_;
    DispatcherOptions opts_;

    mutable std::mutex mu_;          ///< queue + task bookkeeping
    std::condition_variable workCv_;  ///< wakes endpoint threads
    std::condition_variable doneCv_;  ///< wakes the coordinator
    std::deque<std::shared_ptr<Task>> queue_;
    size_t outstanding_ = 0;  ///< tasks neither done nor failed
    bool exiting_ = false;

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;

    /** The counts behind stats(); each feeds its remote.* metric. */
    struct Counts
    {
        Counts();
        obs::OwnedCounter dispatched, completed, retries, hedges,
            redispatches, fallbacks;
    };
    Counts counts_;
};

} // namespace remote
} // namespace dse

#endif // DSE_REMOTE_DISPATCHER_HH
