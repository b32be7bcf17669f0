/**
 * @file
 * dse::obs — lock-cheap, thread-aware metrics for the study engine.
 *
 * A MetricsRegistry holds named counters, gauges, and fixed-bucket
 * latency histograms. Registration (cold) hands back a small integer
 * id; the hot mutation paths (add/observe) write through a per-thread
 * shard of relaxed atomics, so concurrent instrumented code never
 * contends on a shared cache line. snapshot() merges every thread's
 * shard into one consistent view on demand.
 *
 * Naming scheme: every metric name is lowercase dotted —
 * `^[a-z0-9_.]+$` — with the subsystem as the leading component
 * (`sim.executed`, `train.fold_retries`, `journal.appends`).
 * Registration enforces the pattern and rejects a name already taken
 * by a different metric kind, so exported series can never collide.
 *
 * Cost model:
 *  - disabled (the default; DSE_METRICS env var unset or 0): one
 *    relaxed atomic load and a branch per probe;
 *  - enabled (DSE_METRICS=1 or setMetricsEnabled(true)): one
 *    relaxed fetch_add on a thread-private cell per probe.
 *
 * Determinism: metrics only ever read the clock and bump counters —
 * they touch no RNG stream and no model arithmetic, so enabling them
 * leaves every study result bit-for-bit identical (tests/test_obs.cc
 * proves this against the golden pins).
 */

#ifndef DSE_UTIL_METRICS_HH
#define DSE_UTIL_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace dse {
namespace obs {

/** Buckets per histogram: bucket i counts values whose bit width is
 *  i (bucket 0 holds zeros, bucket i holds [2^(i-1), 2^i - 1]); the
 *  last bucket absorbs everything wider. 40 buckets span 1 ns to
 *  ~9 minutes of latency. */
constexpr size_t kHistogramBuckets = 40;

/** Fixed shard capacities (per-thread storage is allocated once per
 *  thread at first touch; registration past these throws). */
constexpr size_t kMaxCounters = 96;
constexpr size_t kMaxGauges = 32;
constexpr size_t kMaxHistograms = 48;

struct CounterId
{
    uint32_t idx = UINT32_MAX;
    bool valid() const { return idx != UINT32_MAX; }
};
struct GaugeId
{
    uint32_t idx = UINT32_MAX;
    bool valid() const { return idx != UINT32_MAX; }
};
struct HistogramId
{
    uint32_t idx = UINT32_MAX;
    bool valid() const { return idx != UINT32_MAX; }
};

namespace detail {
/** -1 = not yet resolved (consult DSE_METRICS), 0 = off, 1 = on. */
extern std::atomic<int> metricsMode;
bool metricsEnabledSlow();
} // namespace detail

/** True when metric collection is on (env DSE_METRICS or setter). */
inline bool
metricsEnabled()
{
    const int mode = detail::metricsMode.load(std::memory_order_relaxed);
    if (mode >= 0)
        return mode != 0;
    return detail::metricsEnabledSlow();
}

/** Force collection on/off (tests, --metrics); overrides DSE_METRICS. */
void setMetricsEnabled(bool on);

/**
 * Snapshot the global registry and report it: JSON written to @p path
 * when non-empty, else a human-readable table to stdout. The shared
 * back end of the tools' `--metrics[=path]` flag.
 * @throws std::runtime_error when @p path cannot be written.
 */
void reportGlobalMetrics(const std::string &path);

/** One histogram's merged state in a snapshot. */
struct HistogramSnapshot
{
    std::string name;
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;  ///< 0 when count == 0
    uint64_t max = 0;
    std::array<uint64_t, kHistogramBuckets> buckets{};

    double mean() const
    {
        return count ? static_cast<double>(sum) /
                static_cast<double>(count)
                     : 0.0;
    }
    /** Inclusive upper bound of bucket i (UINT64_MAX for the last). */
    static uint64_t bucketBound(size_t i);
};

/**
 * A point-in-time merge of every thread's shard. Lookups are by name;
 * a name that was never registered reads as zero/absent so report
 * code need not care which subsystems ran.
 */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, int64_t>> gauges;
    std::vector<HistogramSnapshot> histograms;

    uint64_t counter(const std::string &name) const;
    int64_t gauge(const std::string &name) const;
    const HistogramSnapshot *histogram(const std::string &name) const;

    /** Machine-readable JSON (stable key order; nonzero buckets only). */
    std::string toJson() const;
    /** Human-readable aligned tables (counters, gauges, histograms). */
    void printTable(std::ostream &os) const;
};

class MetricsRegistry
{
  public:
    MetricsRegistry();
    ~MetricsRegistry();

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Register (or look up) a metric by name. Re-registering the same
     * name with the same kind returns the existing id; the same name
     * as a different kind, an invalid name (must match
     * `^[a-z0-9_.]+$`), or exhausting the fixed capacity throws.
     */
    CounterId counter(const std::string &name);
    GaugeId gauge(const std::string &name);
    HistogramId histogram(const std::string &name);

    /** Hot paths: no-ops unless metricsEnabled(). */
    void
    add(CounterId id, uint64_t n = 1)
    {
        if (metricsEnabled() && id.valid())
            addSlow(id, n);
    }

    void
    observe(HistogramId id, uint64_t value)
    {
        if (metricsEnabled() && id.valid())
            observeSlow(id, value);
    }

    /** Gauges are registry-global (last write wins), not sharded. */
    void
    setGauge(GaugeId id, int64_t value)
    {
        if (metricsEnabled() && id.valid())
            setGaugeSlow(id, value);
    }

    /** Merge every thread's shard into one consistent view. */
    MetricsSnapshot snapshot() const;

    /** Zero all values everywhere; registered names survive. */
    void reset();

    /** True iff @p name matches the metric naming scheme. */
    static bool validName(const std::string &name);

    /** The process-wide registry all built-in instrumentation uses. */
    static MetricsRegistry &global();

    struct Impl;  ///< internal (named publicly for the .cc helpers)

  private:
    void addSlow(CounterId id, uint64_t n);
    void observeSlow(HistogramId id, uint64_t value);
    void setGaugeSlow(GaugeId id, int64_t value);

    std::unique_ptr<Impl> impl_;
};

} // namespace obs
} // namespace dse

#endif // DSE_UTIL_METRICS_HH
