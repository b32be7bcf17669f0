#include "util/metrics.hh"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/env.hh"
#include "util/table.hh"

namespace dse {
namespace obs {

namespace detail {
std::atomic<int> metricsMode{-1};

bool
metricsEnabledSlow()
{
    // First probe with the mode unset: resolve DSE_METRICS once. A
    // concurrent racer resolves to the same value, so the CAS loser
    // just rereads.
    const int resolved = envBool("DSE_METRICS", false) ? 1 : 0;
    int expected = -1;
    metricsMode.compare_exchange_strong(expected, resolved,
                                        std::memory_order_relaxed);
    return metricsMode.load(std::memory_order_relaxed) != 0;
}
} // namespace detail

void
setMetricsEnabled(bool on)
{
    detail::metricsMode.store(on ? 1 : 0, std::memory_order_relaxed);
}

void
reportGlobalMetrics(const std::string &path)
{
    const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
    if (path.empty()) {
        std::fflush(stdout);  // tools print via stdio; keep order
        snap.printTable(std::cout);
        std::cout.flush();
        return;
    }
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        throw std::runtime_error("cannot write metrics file: " + path);
    out << snap.toJson() << '\n';
    out.flush();
    if (!out)
        throw std::runtime_error("metrics write failed: " + path);
}

uint64_t
HistogramSnapshot::bucketBound(size_t i)
{
    if (i + 1 >= kHistogramBuckets)
        return UINT64_MAX;
    return (uint64_t{1} << i) - 1;
}

namespace {

size_t
bucketOf(uint64_t value)
{
    const size_t width = static_cast<size_t>(std::bit_width(value));
    return std::min(width, kHistogramBuckets - 1);
}

/** One thread's accumulation cells. Writes are thread-private; every
 *  cell is a relaxed atomic only so snapshot() can read concurrently
 *  without a data race. */
struct alignas(64) Shard
{
    struct Hist
    {
        std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
        std::atomic<uint64_t> count{0};
        std::atomic<uint64_t> sum{0};
        std::atomic<uint64_t> min{UINT64_MAX};
        std::atomic<uint64_t> max{0};
    };
    std::array<std::atomic<uint64_t>, kMaxCounters> counters{};
    std::array<Hist, kMaxHistograms> hists{};
};

} // namespace

struct MetricsRegistry::Impl
{
    mutable std::mutex mu;  ///< guards names and the shard list shape
    std::vector<std::string> counterNames;
    std::vector<std::string> gaugeNames;
    std::vector<std::string> histogramNames;
    std::array<std::atomic<int64_t>, kMaxGauges> gauges{};
    std::vector<std::unique_ptr<Shard>> shards;
    uint64_t serial = 0;  ///< globally unique per registry instance

    uint32_t
    registerName(std::vector<std::string> &names, const char *kind,
                 size_t cap, const std::string &name)
    {
        if (!MetricsRegistry::validName(name)) {
            throw std::invalid_argument(
                std::string("metric name '") + name +
                "' must match ^[a-z0-9_.]+$");
        }
        std::lock_guard<std::mutex> lock(mu);
        const auto hit = std::find(names.begin(), names.end(), name);
        if (hit != names.end())
            return static_cast<uint32_t>(hit - names.begin());
        // Same name under a different kind would export two colliding
        // series; refuse at registration, not at dashboard time.
        for (const auto *other :
             {&counterNames, &gaugeNames, &histogramNames}) {
            if (other != &names &&
                std::find(other->begin(), other->end(), name) !=
                    other->end()) {
                throw std::invalid_argument(
                    "metric name '" + name +
                    "' already registered as a different kind");
            }
        }
        if (names.size() >= cap) {
            throw std::length_error(std::string("too many ") + kind +
                                    " metrics (cap " +
                                    std::to_string(cap) + ")");
        }
        names.push_back(name);
        return static_cast<uint32_t>(names.size() - 1);
    }
};

namespace {

/** Thread-local shard cache. Entries are keyed by (registry pointer,
 *  registry serial): serials are globally unique, so an entry left by
 *  a destroyed registry can never be matched — even if a new registry
 *  reuses the same address — and its dangling shard pointer is never
 *  dereferenced. */
struct TlsEntry
{
    const void *registry;
    uint64_t serial;
    Shard *shard;
};
thread_local std::vector<TlsEntry> t_shardCache;

std::atomic<uint64_t> g_registrySerial{1};

Shard &
localShard(const MetricsRegistry::Impl &impl)
{
    for (const auto &e : t_shardCache) {
        if (e.registry == &impl && e.serial == impl.serial)
            return *e.shard;
    }
    auto shard = std::make_unique<Shard>();
    Shard *raw = shard.get();
    {
        auto &mu = const_cast<std::mutex &>(impl.mu);
        std::lock_guard<std::mutex> lock(mu);
        const_cast<MetricsRegistry::Impl &>(impl).shards.push_back(
            std::move(shard));
    }
    t_shardCache.push_back({&impl, impl.serial, raw});
    return *raw;
}

} // namespace

MetricsRegistry::MetricsRegistry() : impl_(std::make_unique<Impl>())
{
    impl_->serial =
        g_registrySerial.fetch_add(1, std::memory_order_relaxed);
}

MetricsRegistry::~MetricsRegistry() = default;

bool
MetricsRegistry::validName(const std::string &name)
{
    if (name.empty())
        return false;
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
            (c >= '0' && c <= '9') || c == '_' || c == '.';
        if (!ok)
            return false;
    }
    return true;
}

CounterId
MetricsRegistry::counter(const std::string &name)
{
    return CounterId{impl_->registerName(impl_->counterNames, "counter",
                                         kMaxCounters, name)};
}

GaugeId
MetricsRegistry::gauge(const std::string &name)
{
    return GaugeId{impl_->registerName(impl_->gaugeNames, "gauge",
                                       kMaxGauges, name)};
}

HistogramId
MetricsRegistry::histogram(const std::string &name)
{
    return HistogramId{impl_->registerName(
        impl_->histogramNames, "histogram", kMaxHistograms, name)};
}

void
MetricsRegistry::addSlow(CounterId id, uint64_t n)
{
    localShard(*impl_).counters[id.idx].fetch_add(
        n, std::memory_order_relaxed);
}

void
MetricsRegistry::observeSlow(HistogramId id, uint64_t value)
{
    auto &h = localShard(*impl_).hists[id.idx];
    h.buckets[bucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    h.count.fetch_add(1, std::memory_order_relaxed);
    h.sum.fetch_add(value, std::memory_order_relaxed);
    // The cell is thread-private, so plain read-modify-write ordering
    // suffices; the atomics only make snapshot() race-free.
    if (value < h.min.load(std::memory_order_relaxed))
        h.min.store(value, std::memory_order_relaxed);
    if (value > h.max.load(std::memory_order_relaxed))
        h.max.store(value, std::memory_order_relaxed);
}

void
MetricsRegistry::setGaugeSlow(GaugeId id, int64_t value)
{
    impl_->gauges[id.idx].store(value, std::memory_order_relaxed);
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (size_t c = 0; c < impl_->counterNames.size(); ++c) {
        uint64_t total = 0;
        for (const auto &shard : impl_->shards)
            total += shard->counters[c].load(std::memory_order_relaxed);
        snap.counters.emplace_back(impl_->counterNames[c], total);
    }
    for (size_t g = 0; g < impl_->gaugeNames.size(); ++g) {
        snap.gauges.emplace_back(
            impl_->gaugeNames[g],
            impl_->gauges[g].load(std::memory_order_relaxed));
    }
    for (size_t h = 0; h < impl_->histogramNames.size(); ++h) {
        HistogramSnapshot hs;
        hs.name = impl_->histogramNames[h];
        uint64_t min = UINT64_MAX;
        for (const auto &shard : impl_->shards) {
            const auto &cell = shard->hists[h];
            hs.count += cell.count.load(std::memory_order_relaxed);
            hs.sum += cell.sum.load(std::memory_order_relaxed);
            min = std::min(min,
                           cell.min.load(std::memory_order_relaxed));
            hs.max = std::max(hs.max,
                              cell.max.load(std::memory_order_relaxed));
            for (size_t b = 0; b < kHistogramBuckets; ++b) {
                hs.buckets[b] +=
                    cell.buckets[b].load(std::memory_order_relaxed);
            }
        }
        hs.min = hs.count ? min : 0;
        snap.histograms.push_back(std::move(hs));
    }
    return snap;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (auto &g : impl_->gauges)
        g.store(0, std::memory_order_relaxed);
    for (auto &shard : impl_->shards) {
        for (auto &c : shard->counters)
            c.store(0, std::memory_order_relaxed);
        for (auto &h : shard->hists) {
            for (auto &b : h.buckets)
                b.store(0, std::memory_order_relaxed);
            h.count.store(0, std::memory_order_relaxed);
            h.sum.store(0, std::memory_order_relaxed);
            h.min.store(UINT64_MAX, std::memory_order_relaxed);
            h.max.store(0, std::memory_order_relaxed);
        }
    }
}

MetricsRegistry &
MetricsRegistry::global()
{
    // Leaked: instrumented code and thread-local caches may outlive
    // any static destruction order.
    static MetricsRegistry *registry = new MetricsRegistry();
    return *registry;
}

Counter::Counter(const std::string &name)
    : id_(MetricsRegistry::global().counter(name))
{
}

Histogram::Histogram(const std::string &name)
    : id_(MetricsRegistry::global().histogram(name))
{
}

uint64_t
MetricsSnapshot::counter(const std::string &name) const
{
    for (const auto &[n, v] : counters) {
        if (n == name)
            return v;
    }
    return 0;
}

int64_t
MetricsSnapshot::gauge(const std::string &name) const
{
    for (const auto &[n, v] : gauges) {
        if (n == name)
            return v;
    }
    return 0;
}

const HistogramSnapshot *
MetricsSnapshot::histogram(const std::string &name) const
{
    for (const auto &h : histograms) {
        if (h.name == name)
            return &h;
    }
    return nullptr;
}

std::string
MetricsSnapshot::toJson() const
{
    std::ostringstream os;
    os << "{\"counters\":{";
    for (size_t i = 0; i < counters.size(); ++i) {
        os << (i ? "," : "") << '"' << counters[i].first
           << "\":" << counters[i].second;
    }
    os << "},\"gauges\":{";
    for (size_t i = 0; i < gauges.size(); ++i) {
        os << (i ? "," : "") << '"' << gauges[i].first
           << "\":" << gauges[i].second;
    }
    os << "},\"histograms\":{";
    for (size_t i = 0; i < histograms.size(); ++i) {
        const auto &h = histograms[i];
        os << (i ? "," : "") << '"' << h.name << "\":{\"count\":"
           << h.count << ",\"sum\":" << h.sum << ",\"min\":" << h.min
           << ",\"max\":" << h.max << ",\"buckets\":[";
        bool first = true;
        for (size_t b = 0; b < kHistogramBuckets; ++b) {
            if (!h.buckets[b])
                continue;
            os << (first ? "" : ",") << "{\"le\":"
               << HistogramSnapshot::bucketBound(b)
               << ",\"count\":" << h.buckets[b] << '}';
            first = false;
        }
        os << "]}";
    }
    os << "}}";
    return os.str();
}

void
MetricsSnapshot::printTable(std::ostream &os) const
{
    if (!counters.empty()) {
        os << "counters:\n";
        Table t({"name", "value"});
        for (const auto &[n, v] : counters) {
            t.newRow();
            t.add(n);
            t.add(static_cast<long long>(v));
        }
        t.print(os);
    }
    if (!gauges.empty()) {
        os << "gauges:\n";
        Table t({"name", "value"});
        for (const auto &[n, v] : gauges) {
            t.newRow();
            t.add(n);
            t.add(static_cast<long long>(v));
        }
        t.print(os);
    }
    if (!histograms.empty()) {
        os << "histograms:\n";
        Table t({"name", "count", "mean", "min", "max"});
        for (const auto &h : histograms) {
            t.newRow();
            t.add(h.name);
            t.add(static_cast<long long>(h.count));
            t.add(h.mean(), 1);
            t.add(static_cast<long long>(h.min));
            t.add(static_cast<long long>(h.max));
        }
        t.print(os);
    }
}

} // namespace obs
} // namespace dse
