/**
 * @file
 * Deterministic fault injection for exercising the library's recovery
 * paths (journal replay, fold retry/degradation, torn-write
 * detection) from tests and from the command line.
 *
 * Faults are configured per *site* — a short string compiled into the
 * code path that can fail (e.g. "sim", "fold", "journal", "save") —
 * with a failure rate and a seed:
 *
 *     DSE_FAULTS=site:rate:seed[,site:rate:seed...]
 *
 * e.g. `DSE_FAULTS=sim:0.1:42,fold:1:7`. A site that is not listed
 * never fails, so production runs (DSE_FAULTS unset) pay one atomic
 * load per probe and nothing else. Every site must be one of
 * kFaultSites, so a misspelt site is refused instead of never firing.
 *
 * Determinism: the fail/no-fail decision for a probe is a pure
 * function of (site seed, probe key) — the key is a caller-supplied
 * stable identifier such as a design-point index or a fold number,
 * never a wall clock or a global counter racing across threads. The
 * same configuration therefore injects the same faults at any thread
 * count and in any interleaving, which is what lets the fault suite
 * assert exact recovery behavior. Probes without a natural key fall
 * back to a per-site counter (deterministic in single-threaded use).
 */

#ifndef DSE_UTIL_FAULT_HH
#define DSE_UTIL_FAULT_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "util/metrics.hh"

namespace dse {
namespace util {

/**
 * Every site a probe names, and so every site configure() accepts.
 * Adding a probe means adding its site here; the metric-name lint
 * (tools/check_metrics_names.py) checks each literal probe against
 * this list.
 */
inline constexpr const char *kFaultSites[] = {
    "sim",                  // simulator execution (study/harness.cc)
    "fold",                 // cross-validation fold training (ml)
    "journal",              // journal appends (study/journal.cc)
    "save",                 // model save I/O (ml/io.cc)
    "serve.accept",         // prediction-service accept path
    "serve.read",           // prediction-service socket reads
    "serve.write",          // prediction-service socket writes
    "remote.conn.drop",     // dispatcher: drop before a batch attempt
    "remote.conn.delay",    // worker: stall a batch reply
    "remote.worker.crash",  // worker: die mid-request, no reply
};

class FaultInjector
{
  public:
    FaultInjector() = default;

    /**
     * Replace the configuration with a parsed `site:rate:seed,...`
     * spec (empty string disables all sites). Each site must be one
     * of kFaultSites (each exports `faults.injected.<site>`) and each
     * rate must be in [0, 1].
     * @throws std::invalid_argument on a malformed spec or an unknown
     *         site; the message lists the valid sites.
     */
    void configure(const std::string &spec);

    /** Disable every site and zero the probe/injection counters. */
    void reset();

    /**
     * Probe a site with a stable key. Returns true if the fault
     * fires: the decision is hash(site seed, key) < rate, so it is
     * identical for the same (configuration, site, key) regardless
     * of threading or call order.
     */
    bool shouldFail(const char *site, uint64_t key);

    /** Probe with an auto-incremented per-site key (nth call). */
    bool shouldFail(const char *site);

    /** Number of faults injected at a site so far (0 if unknown). */
    uint64_t injected(const char *site) const;

    /** True if any site is configured (cheap; one relaxed load). */
    bool active() const { return active_.load(std::memory_order_relaxed); }

    /**
     * The process-wide injector, configured once from DSE_FAULTS on
     * first use. Tests reconfigure it directly via configure()/reset().
     */
    static FaultInjector &global();

  private:
    struct Site
    {
        explicit Site(const obs::Counter &metric) : injected(metric) {}

        uint64_t threshold = 0;  ///< fail iff hash < threshold
        uint64_t seed = 0;
        std::atomic<uint64_t> autoKey{0};
        /** Faults fired here; feeds `faults.injected.<site>`. */
        obs::OwnedCounter injected;
    };

    Site *find(const char *site) const;

    mutable std::mutex mu_;  ///< guards sites_ (map shape only)
    std::map<std::string, std::unique_ptr<Site>> sites_;
    std::atomic<bool> active_{false};
};

} // namespace util
} // namespace dse

#endif // DSE_UTIL_FAULT_HH
