/**
 * @file
 * dse::remote::RemoteDispatcher — fans a study's batch-simulation step
 * out across simulation workers (SimWorker daemons) with the full
 * resilience kit: per-request deadlines, retry with decorrelated
 * jitter backoff, per-worker circuit breakers with half-open ping
 * probing, re-dispatch of batches in flight on a dying worker, and
 * graceful degradation to local simulation.
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
 * as coordinator (completion wait, all-breakers-open escalation). A
 * batch is in flight on at most one worker at any time: each task is
 * either in the queue or with the one endpoint thread attempting it,
 * so it settles exactly once, answered or left to local simulation.
 * The StudyContext's locked memo makes concurrent result injection
 * safe.
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
    /** Consecutive failures that open a worker's circuit breaker. */
    uint32_t breakerThreshold = 3;
    /** Route SimPoint-estimate batches instead of detailed ones. */
    bool simpoint = false;
};

/** Dispatch counts of one dispatcher. Each field but hedges reads the
 *  owned counter that also feeds the remote.* metric of the same name. */
struct DispatchStats
{
    uint64_t dispatched = 0;    ///< batch attempts sent
    uint64_t completed = 0;     ///< batches answered by a worker
    uint64_t retries = 0;       ///< re-attempts after a failure
    /** Always 0: a batch is never in flight twice. Kept because the
     *  end-to-end benchmark (bench/e2e) reads it and BENCHMARK.json
     *  lists remote.hedges; both drop it together. */
    uint64_t hedges = 0;
    uint64_t redispatches = 0;  ///< retries after a connection dropped
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
    /** One batch of design points. Its first index keys its fault
     *  probes and its backoff schedule. */
    struct Task
    {
        std::vector<uint64_t> indices;
        uint32_t attempt = 0;      ///< failed attempts so far
        uint64_t notBeforeNs = 0;  ///< backoff gate
    };
    struct Worker;

    void workerLoop(size_t wi);
    /** One remote attempt of @p task on worker @p wi; returns true on
     *  success (results merged) and false when the worker could not be
     *  reached. A connection lost mid-request throws. */
    bool attempt(size_t wi, const Task &task);
    bool allBreakersOpen() const;
    static uint64_t nowNs();

    study::StudyContext &ctx_;
    DispatcherOptions opts_;

    std::mutex mu_;                   ///< queue + outstanding_
    std::condition_variable workCv_;  ///< wakes endpoint threads
    std::condition_variable doneCv_;  ///< wakes the coordinator
    std::deque<Task> queue_;
    size_t outstanding_ = 0;  ///< tasks not yet answered or failed
    bool exiting_ = false;

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;

    /** The counts behind stats(); each feeds its remote.* metric. */
    struct Counts
    {
        Counts();
        obs::OwnedCounter dispatched, completed, retries, redispatches,
            fallbacks;
    };
    Counts counts_;
};

} // namespace remote
} // namespace dse

#endif // DSE_REMOTE_DISPATCHER_HH
