/**
 * @file
 * Timed memory hierarchy: L1I + L1D + unified L2 with an L2 bus at
 * core frequency, a front-side bus at its own frequency, and SDRAM.
 *
 * Contention and latency are modeled at every level (as in the
 * paper's simulator): buses are occupied for the duration of each
 * block transfer, so bandwidth saturation emerges naturally; dirty
 * write-backs and write-through store traffic consume the same bus
 * capacity loads need; outstanding L1D misses are limited by MSHRs
 * and merged when they hit the same in-flight block.
 */

#ifndef DSE_SIM_MEMSYS_HH
#define DSE_SIM_MEMSYS_HH

#include <cstdint>
#include <span>
#include <vector>

#include "sim/cache.hh"
#include "sim/config.hh"

namespace dse {
namespace sim {

/** An L1I miss of a functional warm-up: the fetch's pc, and how many
 *  of the warm-up's data accesses came before it in the trace. */
struct WarmFetchMiss
{
    uint32_t pc = 0;
    uint32_t before = 0;
};

/**
 * The full data/instruction memory hierarchy with timing.
 * All times are in core cycles.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MachineConfig &cfg);

    /**
     * Issue a load at cycle `now`.
     *
     * @return the cycle the data is available, or 0 when no MSHR is
     *         free (the caller must retry later).
     */
    uint64_t load(uint64_t addr, uint64_t now);

    /**
     * Issue a store at cycle `now`. Stores complete quickly from the
     * core's perspective (store buffer); their cost is the bus and
     * cache traffic they generate, which this call models.
     * @return the cycle the store leaves the store buffer.
     */
    uint64_t store(uint64_t addr, uint64_t now);

    /**
     * Instruction fetch of the block containing `pc` at cycle `now`.
     * @return the cycle the instructions are available.
     */
    uint64_t fetch(uint32_t pc, uint64_t now);

    /** Functional (untimed) warmup access, e.g. for SimPoint warmup. */
    void warmAccess(uint64_t addr, bool is_write);

    /**
     * Functional warmup from a trace's split streams (sim::WarmStart):
     * take `l1i`, already warmed, and send the packed data accesses
     * (`addr << 1 | is_write`) through warmAccess(). Each L1I miss
     * reaches the L2 just before the data access it preceded in the
     * trace, so the L2 sees the sequence a per-op replay gives it.
     */
    void warm(const Cache &l1i, std::span<const WarmFetchMiss> l1i_misses,
              std::span<const uint64_t> accesses);

    /** Zero cache statistics (e.g. after warmup), keeping contents. */
    void
    resetStats()
    {
        l1i_.resetStats();
        l1d_.resetStats();
        l2_.resetStats();
    }

    /// @name Statistics.
    /// @{
    const Cache &l1d() const { return l1d_; }
    const Cache &l1i() const { return l1i_; }
    const Cache &l2() const { return l2_; }
    /// @}

  private:
    /**
     * Service an L1 miss (data or instruction side) through the L2
     * and, if needed, the FSB/SDRAM. Handles bus occupancy and L2
     * dirty victims.
     *
     * @param block_bytes L1 block size being filled
     * @return completion cycle
     */
    uint64_t serviceL1Miss(uint64_t addr, bool is_write, int block_bytes,
                           uint64_t ready);

    /** Cycles to move `bytes` across the L2 bus (core frequency). */
    uint64_t l2BusCycles(int bytes) const;

    /** Cycles (core) to move `bytes` across the FSB. */
    uint64_t fsbCycles(int bytes) const;

    MachineConfig cfg_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;

    uint64_t l2BusFree_ = 0;   ///< next cycle the L2 bus is idle
    uint64_t fsbFree_ = 0;     ///< next cycle the FSB is idle
    uint64_t dramCycles_;      ///< SDRAM latency in core cycles

    struct Mshr
    {
        uint64_t block = 0;
        uint64_t ready = 0;
        bool valid = false;
    };
    std::vector<Mshr> mshrs_;
};

} // namespace sim
} // namespace dse

#endif // DSE_SIM_MEMSYS_HH
