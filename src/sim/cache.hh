/**
 * @file
 * Set-associative cache model with LRU replacement and write-back or
 * write-through policy. Timing is handled by the memory system
 * (dse::sim::MemorySystem); this class models only hit/miss state,
 * replacement, and dirty-victim generation.
 */

#ifndef DSE_SIM_CACHE_HH
#define DSE_SIM_CACHE_HH

#include <cstdint>
#include <vector>

#include "sim/config.hh"

namespace dse {
namespace sim {

/** Result of a cache access. */
struct CacheAccessResult
{
    bool hit = false;
    bool writeback = false;     ///< a dirty victim was evicted
    uint64_t victimAddr = 0;    ///< block address of the dirty victim
};

/**
 * One level of set-associative cache.
 *
 * Tags are full block addresses; LRU is tracked with a per-line
 * last-use stamp (monotone access counter), which is exact LRU and
 * cheap at the associativities in the studies (1-16).
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Access the cache.
     *
     * @param addr byte address
     * @param is_write true for stores
     * @param allocate fill the block on miss (no-allocate lets a
     *        write-through L1 send stores past itself)
     * @return hit/miss and any dirty victim
     */
    CacheAccessResult access(uint64_t addr, bool is_write,
                             bool allocate = true);

    /** True if the block containing addr is currently resident. */
    bool contains(uint64_t addr) const;

    /** Invalidate all lines and reset statistics. */
    void reset();

    /** Zero the statistics counters, keeping cache contents. */
    void resetStats();

    /** Geometry in use. */
    const CacheConfig &config() const { return cfg_; }

    /// @name Statistics.
    /// @{
    uint64_t accesses() const { return accesses_; }
    uint64_t misses() const { return misses_; }
    uint64_t writebacks() const { return writebacks_; }
    double
    missRate() const
    {
        return accesses_ ? static_cast<double>(misses_) /
            static_cast<double>(accesses_) : 0.0;
    }
    /// @}

  private:
    /** 16 bytes. A line is valid iff lastUse != 0: the clock is
     *  pre-incremented, and reset() zeroes it and every line. */
    struct Line
    {
        uint64_t tag = 0;
        uint64_t lastUse : 63 = 0;
        uint64_t dirty : 1 = 0;

        bool valid() const { return lastUse != 0; }
    };
    static_assert(sizeof(Line) == 16);

    uint64_t blockAddr(uint64_t addr) const { return addr >> blockShift_; }
    size_t setIndex(uint64_t block) const
    {
        return static_cast<size_t>(block & (numSets_ - 1));
    }

    CacheConfig cfg_;
    int blockShift_;
    uint64_t numSets_;
    std::vector<Line> lines_;   ///< numSets_ * assoc, set-major
    uint64_t clock_ = 0;
    uint64_t accesses_ = 0;
    uint64_t misses_ = 0;
    uint64_t writebacks_ = 0;
};

} // namespace sim
} // namespace dse

#endif // DSE_SIM_CACHE_HH
