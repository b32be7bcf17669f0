#include "util/fault.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "util/rng.hh"
#include "util/table.hh"

namespace dse {
namespace util {

namespace {

/**
 * Mix (site seed, probe key) into a uniform 64-bit hash. Two rounds
 * of SplitMix64 over the xor keeps distinct keys decorrelated even
 * when they are small consecutive integers (the common case: design
 * point indices, fold numbers).
 */
uint64_t
probeHash(uint64_t seed, uint64_t key)
{
    SplitMix64 mix(seed ^ (key * 0x9e3779b97f4a7c15ull));
    mix.next();
    return mix.next();
}

} // namespace

void
FaultInjector::configure(const std::string &spec)
{
    std::map<std::string, std::unique_ptr<Site>> sites;
    for (const auto &entry : split(spec, ',')) {
        if (entry.empty())
            continue;
        const auto parts = split(entry, ':');
        if (parts.size() != 3 || parts[0].empty()) {
            throw std::invalid_argument(
                "DSE_FAULTS entry '" + entry +
                "' is not site:rate:seed");
        }
        if (std::find(std::begin(kFaultSites), std::end(kFaultSites),
                      parts[0]) == std::end(kFaultSites)) {
            const std::vector<std::string> valid(std::begin(kFaultSites),
                                                 std::end(kFaultSites));
            throw std::invalid_argument("DSE_FAULTS site '" + parts[0] +
                                        "' is not one of " +
                                        join(valid, ", "));
        }
        char *end = nullptr;
        const double rate = std::strtod(parts[1].c_str(), &end);
        if (!end || *end != '\0' || !(rate >= 0.0) || rate > 1.0) {
            throw std::invalid_argument(
                "DSE_FAULTS rate '" + parts[1] +
                "' must be a number in [0, 1]");
        }
        const unsigned long long seed =
            std::strtoull(parts[2].c_str(), &end, 10);
        if (!end || *end != '\0') {
            throw std::invalid_argument(
                "DSE_FAULTS seed '" + parts[2] + "' is not an integer");
        }
        auto site = std::make_unique<Site>(
            obs::Counter("faults.injected." + parts[0]));
        // threshold == ~0ull is reserved to mean "always fire" so
        // rate 1 hits every key, including one whose hash is ~0ull;
        // fractional rates map onto [0, 2^64) with a clamp to keep
        // the double->uint64 conversion in range.
        if (rate >= 1.0) {
            site->threshold = ~0ull;
        } else {
            const long double scaled =
                static_cast<long double>(rate) * 18446744073709551616.0L;
            site->threshold = scaled >= 18446744073709551615.0L
                ? ~0ull - 1
                : static_cast<uint64_t>(scaled);
        }
        site->seed = seed;
        sites[parts[0]] = std::move(site);
    }

    std::lock_guard<std::mutex> lock(mu_);
    sites_ = std::move(sites);
    active_.store(!sites_.empty(), std::memory_order_relaxed);
}

void
FaultInjector::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    sites_.clear();
    active_.store(false, std::memory_order_relaxed);
}

FaultInjector::Site *
FaultInjector::find(const char *site) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sites_.find(site);
    return it == sites_.end() ? nullptr : it->second.get();
}

bool
FaultInjector::shouldFail(const char *site, uint64_t key)
{
    if (!active())
        return false;
    Site *s = find(site);
    if (!s)
        return false;
    const bool fail = s->threshold == ~0ull ||
        probeHash(s->seed, key) < s->threshold;
    if (fail)
        s->injected.add();
    return fail;
}

bool
FaultInjector::shouldFail(const char *site)
{
    if (!active())
        return false;
    Site *s = find(site);
    if (!s)
        return false;
    return shouldFail(site,
                      s->autoKey.fetch_add(1, std::memory_order_relaxed));
}

uint64_t
FaultInjector::injected(const char *site) const
{
    Site *s = find(site);
    return s ? s->injected.value() : 0;
}

FaultInjector &
FaultInjector::global()
{
    // A malformed spec throws out of this initializer, and the next
    // call tries again; the unique_ptr frees the rejected injector.
    static FaultInjector *injector = [] {
        auto fi = std::make_unique<FaultInjector>();
        if (const char *spec = std::getenv("DSE_FAULTS"); spec && *spec)
            fi->configure(spec);
        return fi.release();
    }();
    return *injector;
}

} // namespace util
} // namespace dse
