#include "remote/dispatcher.hh"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>

#include "serve/client.hh"
#include "util/fault.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace dse {
namespace remote {

namespace {

/** remote.* instrumentation (DESIGN.md "Observability"). */
const obs::Counter kDispatched("remote.dispatched");
const obs::Counter kCompleted("remote.completed");
const obs::Counter kRetries("remote.retries");
const obs::Counter kRedispatches("remote.redispatches");
const obs::Counter kFallbacks("remote.fallbacks");
const obs::Histogram kBatchWallNs("remote.batch_wall_ns");

/** Half-open probe (Ping) interval while a worker's breaker is open. */
constexpr int kProbeIntervalMs = 100;

/** Seed of the backoff jitter stream (backoffDelayMs). */
constexpr uint64_t kBackoffSeed = 0xd15e7c4ull;

/** Outcome of one remote attempt: a lost connection counts as a
 *  redispatch, any other failure only as a retry. */
enum class Outcome { Ok, Disconnected, Failed };

} // namespace

std::vector<Endpoint>
parseEndpoints(const std::string &spec)
{
    std::vector<Endpoint> out;
    for (const std::string &entry : split(spec, ',')) {
        const auto colon = entry.rfind(':');
        if (colon == std::string::npos || colon == 0)
            throw std::invalid_argument(
                "--workers entry '" + entry + "' is not host:port");
        const char *end = entry.data() + entry.size();
        int port = 0;
        const auto [stop, ec] =
            std::from_chars(entry.data() + colon + 1, end, port);
        if (ec != std::errc() || stop != end || port < 1 || port > 65535)
            throw std::invalid_argument(
                "--workers entry '" + entry + "' has a bad port");
        out.push_back(Endpoint{entry.substr(0, colon),
                               static_cast<uint16_t>(port)});
    }
    return out;
}

int
RemoteDispatcher::backoffDelayMs(uint64_t seed, uint64_t key,
                                 uint32_t attempt, int base_ms,
                                 int cap_ms)
{
    if (base_ms < 1)
        base_ms = 1;
    if (cap_ms < base_ms)
        cap_ms = base_ms;
    // Decorrelated jitter over an exponentially growing window: the
    // delay is uniform in [base, min(cap, base << attempt)], drawn
    // from a SplitMix64 stream keyed by (seed, batch key, attempt).
    // A pure function of its arguments — no clocks, no shared state —
    // so the whole retry schedule is identical at any thread count.
    SplitMix64 sm(seed ^ (key * 0x9e3779b97f4a7c15ull) ^
                  (static_cast<uint64_t>(attempt) << 32));
    const uint64_t r = sm.next();
    const uint32_t shift = attempt < 20 ? attempt : 20;
    uint64_t window = static_cast<uint64_t>(base_ms) << shift;
    window = std::min<uint64_t>(window, static_cast<uint64_t>(cap_ms));
    window = std::max<uint64_t>(window, static_cast<uint64_t>(base_ms));
    const uint64_t span = window - static_cast<uint64_t>(base_ms) + 1;
    return static_cast<int>(base_ms + r % span);
}

// ------------------------------------------------------------ structure

struct RemoteDispatcher::Worker
{
    Endpoint ep;
    serve::Client client;
    bool connected = false;      ///< thread-private
    uint64_t lastProbeNs = 0;    ///< thread-private (half-open pings)
    std::atomic<uint32_t> consecutiveFailures{0};
    std::atomic<bool> open{false};  ///< circuit breaker state
    obs::HistogramId latency;       ///< per-worker wall time
};

RemoteDispatcher::Counts::Counts()
    : dispatched(kDispatched), completed(kCompleted), retries(kRetries),
      redispatches(kRedispatches), fallbacks(kFallbacks)
{
}

RemoteDispatcher::RemoteDispatcher(study::StudyContext &ctx,
                                   DispatcherOptions opts)
    : ctx_(ctx), opts_(std::move(opts))
{
    if (opts_.batchPoints == 0)
        opts_.batchPoints = 1;
    if (opts_.maxAttempts == 0)
        opts_.maxAttempts = 1;
    workers_.reserve(opts_.endpoints.size());
    for (size_t i = 0; i < opts_.endpoints.size(); ++i) {
        auto w = std::make_unique<Worker>();
        w->ep = opts_.endpoints[i];
        if (opts_.requestTimeoutMs > 0)
            w->client.setTimeout(opts_.requestTimeoutMs);
        // Per-worker latency series for the first few endpoints (the
        // common case); the registry treats an invalid id as a no-op.
        if (i < 8) {
            w->latency = obs::MetricsRegistry::global().histogram(
                "remote.worker" + std::to_string(i) + ".latency_ns");
        }
        workers_.push_back(std::move(w));
    }
    threads_.reserve(workers_.size());
    for (size_t i = 0; i < workers_.size(); ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

RemoteDispatcher::~RemoteDispatcher()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        exiting_ = true;
    }
    workCv_.notify_all();
    for (auto &t : threads_) {
        if (t.joinable())
            t.join();
    }
}

uint64_t
RemoteDispatcher::nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

DispatchStats
RemoteDispatcher::stats() const
{
    DispatchStats s;
    s.dispatched = counts_.dispatched.value();
    s.completed = counts_.completed.value();
    s.retries = counts_.retries.value();
    s.redispatches = counts_.redispatches.value();
    s.fallbacks = counts_.fallbacks.value();
    return s;
}

bool
RemoteDispatcher::allBreakersOpen() const
{
    for (const auto &w : workers_) {
        if (!w->open.load(std::memory_order_relaxed))
            return false;
    }
    return !workers_.empty();
}

// ---------------------------------------------------------- coordinator

void
RemoteDispatcher::prefetch(const std::vector<uint64_t> &indices)
{
    if (!active() || indices.empty())
        return;

    // Only missing points travel; duplicates collapse.
    const auto todo = ctx_.missing(indices, opts_.simpoint);
    if (todo.empty())
        return;

    {
        std::lock_guard<std::mutex> lock(mu_);
        for (size_t at = 0; at < todo.size(); at += opts_.batchPoints) {
            const size_t end = std::min(todo.size(), at + opts_.batchPoints);
            Task task;
            task.indices.assign(todo.begin() + static_cast<ptrdiff_t>(at),
                                todo.begin() + static_cast<ptrdiff_t>(end));
            queue_.push_back(std::move(task));
            ++outstanding_;
        }
    }
    workCv_.notify_all();

    // Coordinator: wait until every task is answered or failed. Attempts
    // are deadline-bounded (serve::Client) and retries are capped, so
    // each task settles; when every breaker is open, whatever the queue
    // holds is left to the local path at once.
    std::unique_lock<std::mutex> lock(mu_);
    while (!doneCv_.wait_for(lock, std::chrono::milliseconds(5),
                             [&] { return outstanding_ == 0; })) {
        if (allBreakersOpen()) {
            // A task still in flight comes back within its deadline and
            // is requeued or settled then.
            counts_.fallbacks.add(queue_.size());
            outstanding_ -= queue_.size();
            queue_.clear();
        }
    }
}

std::vector<double>
RemoteDispatcher::simulateBatch(const std::vector<uint64_t> &indices)
{
    prefetch(indices);
    // The context call resolves every index: remote results are memo
    // hits, exhausted batches simulate locally here. Merging by index
    // makes the sourcing invisible — output order and values are those
    // of an all-local run.
    return opts_.simpoint ? ctx_.simulateSimPointBatch(indices)
                          : ctx_.simulateBatch(indices);
}

// ------------------------------------------------------- endpoint threads

void
RemoteDispatcher::workerLoop(size_t wi)
{
    auto &w = *workers_[wi];

    for (;;) {
        std::optional<Task> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            workCv_.wait_for(lock, std::chrono::milliseconds(5), [&] {
                return exiting_ || !queue_.empty();
            });
            // A closed breaker takes the first task past its backoff
            // gate. While every queued task is still inside its
            // backoff, sleep until the earliest gate rather than
            // rescan at once; a push or exit wakes the thread early.
            while (!exiting_ && !queue_.empty() &&
                   !w.open.load(std::memory_order_relaxed)) {
                const uint64_t now = nowNs();
                uint64_t gate = std::numeric_limits<uint64_t>::max();
                auto due = queue_.begin();
                for (; due != queue_.end(); ++due) {
                    if (due->notBeforeNs <= now)
                        break;
                    gate = std::min(gate, due->notBeforeNs);
                }
                if (due != queue_.end()) {
                    task = std::move(*due);
                    queue_.erase(due);
                    break;
                }
                workCv_.wait_until(
                    lock, std::chrono::steady_clock::time_point(
                              std::chrono::duration_cast<
                                  std::chrono::steady_clock::duration>(
                                  std::chrono::nanoseconds(gate))));
            }
            if (exiting_)
                return;
        }

        if (!task) {
            // Breaker open (or nothing due): half-open probe on its
            // schedule, then yield briefly so this loop stays cold.
            if (w.open.load(std::memory_order_relaxed)) {
                const uint64_t now = nowNs();
                if (now - w.lastProbeNs >=
                    static_cast<uint64_t>(kProbeIntervalMs) *
                        1000000ull) {
                    w.lastProbeNs = now;
                    try {
                        if (!w.connected) {
                            w.client.connect(w.ep.host, w.ep.port);
                            w.connected = true;
                        }
                        w.client.ping();
                        // The worker answered: close the breaker and
                        // resume taking real traffic.
                        w.consecutiveFailures.store(0);
                        w.open.store(false);
                    } catch (const std::exception &) {
                        w.connected = false;
                        w.client.close();
                    }
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
            }
            continue;
        }

        Outcome outcome = Outcome::Failed;
        try {
            if (attempt(wi, *task))
                outcome = Outcome::Ok;
        } catch (const serve::ServeError &e) {
            if (e.code() == serve::ErrCode::Disconnected)
                outcome = Outcome::Disconnected;
        } catch (const std::exception &) {
            // Failed, like a timeout or an error reply above.
        }

        if (outcome != Outcome::Ok) {
            // Reset, so the worker skips the abandoned batch if it is
            // still queued there.
            w.connected = false;
            w.client.abort();
            const uint32_t fails =
                w.consecutiveFailures.fetch_add(1) + 1;
            if (fails >= opts_.breakerThreshold) {
                w.open.store(true);
                w.lastProbeNs = nowNs();
            }
        }

        {
            std::lock_guard<std::mutex> lock(mu_);
            if (outcome != Outcome::Ok &&
                ++task->attempt < opts_.maxAttempts) {
                counts_.retries.add();
                if (outcome == Outcome::Disconnected) {
                    // The worker died with this batch in flight; it goes
                    // back on the queue for someone else.
                    counts_.redispatches.add();
                }
                const int delay = backoffDelayMs(
                    kBackoffSeed, task->indices[0], task->attempt,
                    opts_.backoffBaseMs, opts_.backoffCapMs);
                task->notBeforeNs =
                    nowNs() + static_cast<uint64_t>(delay) * 1000000ull;
                queue_.push_back(std::move(*task));
            } else {
                // Answered, or exhausted and left to local simulation.
                if (outcome != Outcome::Ok)
                    counts_.fallbacks.add();
                --outstanding_;
                doneCv_.notify_all();
            }
        }
        workCv_.notify_all();
    }
}

bool
RemoteDispatcher::attempt(size_t wi, const Task &task)
{
    auto &w = *workers_[wi];
    counts_.dispatched.add();

    // Client-side chaos: a dropped connection, keyed per batch so the
    // decision is deterministic at any thread count.
    if (util::FaultInjector::global().shouldFail("remote.conn.drop",
                                                 task.indices[0])) {
        w.connected = false;
        w.client.close();
        throw serve::ServeError(serve::ErrCode::Disconnected,
                                "injected connection drop");
    }

    const uint64_t t0 = nowNs();
    if (!w.connected) {
        // A worker that cannot be reached never saw the batch: the
        // attempt fails, but nothing was lost in flight.
        try {
            w.client.connect(w.ep.host, w.ep.port);
        } catch (const std::exception &) {
            return false;
        }
        w.connected = true;
    }
    serve::SimulateBatchRequest req;
    req.study = static_cast<uint8_t>(ctx_.kind());
    req.app = ctx_.app();
    req.traceLength = ctx_.trace().size();
    req.simpoint = opts_.simpoint;
    req.indices = task.indices;
    const serve::SimulateBatchReply reply = w.client.simulateBatch(req);
    if (reply.simpoint != opts_.simpoint)
        throw serve::ServeError(serve::ErrCode::Internal,
                                "reply mode does not match the request");

    w.consecutiveFailures.store(0);
    w.open.store(false);

    if (reply.simpoint) {
        for (size_t i = 0; i < task.indices.size(); ++i)
            ctx_.injectSimPointEstimate(task.indices[i], reply.ipc[i]);
    } else {
        for (size_t i = 0; i < task.indices.size(); ++i)
            ctx_.injectResult(task.indices[i], reply.results[i]);
    }
    counts_.completed.add();

    const uint64_t wall = nowNs() - t0;
    kBatchWallNs.observe(wall);
    obs::MetricsRegistry::global().observe(w.latency, wall);
    return true;
}

} // namespace remote
} // namespace dse
