/**
 * @file
 * dse::obs scoped tracing — RAII spans over the engine's coarse
 * stages (sim / encode / train-fold / predict-batch / journal-append)
 * that feed the latency histograms of the MetricsRegistry and,
 * optionally, a chrome://tracing-compatible JSON timeline.
 *
 * A TraceScope reads the steady clock twice (construction and
 * destruction) only when metrics or tracing are enabled; otherwise it
 * costs two relaxed loads. Span names are expected to be string
 * literals (the collector stores the pointer, not a copy).
 *
 * Tracing is armed by the DSE_TRACE environment variable (a file
 * path) or programmatically via TraceCollector::global().start().
 * Events accumulate in per-thread buffers — no contention on the
 * record path — and are merged when write() runs (explicitly, or at
 * process exit when DSE_TRACE armed it). write() must not run while
 * spans are still being recorded on other threads; quiesce first,
 * which every call site here does naturally (tools flush after the
 * study, tests after the pool drains).
 *
 * The emitted file loads directly in chrome://tracing or Perfetto:
 * one complete ("ph":"X") event per span, microsecond timestamps on
 * the process steady clock, one tid per recording thread.
 */

#ifndef DSE_UTIL_TRACE_HH
#define DSE_UTIL_TRACE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "util/metrics.hh"

namespace dse {
namespace obs {

namespace detail {
/** -1 = not yet resolved (consult DSE_TRACE), 0 = off, 1 = on. */
extern std::atomic<int> traceMode;
bool tracingEnabledSlow();
uint64_t steadyNowNs();
} // namespace detail

/** True when span events are being collected. */
inline bool
tracingEnabled()
{
    const int mode = detail::traceMode.load(std::memory_order_relaxed);
    if (mode >= 0)
        return mode != 0;
    return detail::tracingEnabledSlow();
}

class TraceCollector
{
  public:
    TraceCollector();
    ~TraceCollector();

    TraceCollector(const TraceCollector &) = delete;
    TraceCollector &operator=(const TraceCollector &) = delete;

    /** Arm collection and remember where write() should publish. */
    void start(const std::string &path);

    /** Disarm collection (buffered events are kept until clear()). */
    void stop();

    /** Record one complete span. @p name must be a string literal. */
    void record(const char *name, uint64_t start_ns, uint64_t dur_ns);

    /**
     * Merge every thread's buffer and write the chrome://tracing JSON
     * to @p path. Returns false (after logging to stderr) on I/O
     * failure instead of throwing: tracing must never abort a study.
     */
    bool writeTo(const std::string &path) const;

    /** writeTo() the start() path; no-op without one. */
    bool write() const;

    /** Drop all buffered events (tests). */
    void clear();

    /** Events recorded so far across all threads. */
    size_t eventCount() const;

    /** Events dropped because a thread hit its buffer cap. */
    uint64_t droppedCount() const;

    /** Per-thread buffer cap; beyond it events are counted, not kept. */
    static constexpr size_t kMaxEventsPerThread = 1u << 20;

    /** The process-wide collector DSE_TRACE arms. */
    static TraceCollector &global();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * RAII span: times a scope, feeds the duration into @p hist, and
 * emits a trace event when tracing is armed. Does nothing (not even a
 * clock read) when both metrics and tracing are off.
 */
class TraceScope
{
  public:
    TraceScope(const char *name, HistogramId hist)
    {
        name_ = name;
        hist_ = hist;
        metrics_ = metricsEnabled();
        trace_ = tracingEnabled();
        if (metrics_ || trace_)
            startNs_ = detail::steadyNowNs();
    }

    ~TraceScope()
    {
        if (!metrics_ && !trace_)
            return;
        const uint64_t end = detail::steadyNowNs();
        const uint64_t dur = end - startNs_;
        if (metrics_)
            MetricsRegistry::global().observe(hist_, dur);
        if (trace_)
            TraceCollector::global().record(name_, startNs_, dur);
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    const char *name_ = nullptr;
    HistogramId hist_;
    uint64_t startNs_ = 0;
    bool metrics_ = false;
    bool trace_ = false;
};

} // namespace obs
} // namespace dse

#endif // DSE_UTIL_TRACE_HH
