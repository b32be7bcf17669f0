/**
 * @file
 * Machine configuration and simulation-result types.
 *
 * A MachineConfig captures every parameter either study varies
 * (Tables 4.1 and 4.2 of the paper) plus the fixed parameters both
 * studies hold constant. Defaults reproduce the memory-system study's
 * fixed core (4 GHz, 4-wide, 128-entry ROB, ...).
 */

#ifndef DSE_SIM_CONFIG_HH
#define DSE_SIM_CONFIG_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace dse {
namespace util {
class WireReader;
class WireWriter;
} // namespace util

namespace sim {

/** One cache's geometry and policy. */
struct CacheConfig
{
    int sizeKB = 32;
    int blockBytes = 32;
    int assoc = 2;
    bool writeBack = true;   ///< false = write-through

    /** Number of sets implied by the geometry. */
    int
    numSets() const
    {
        return (sizeKB * 1024) / (blockBytes * assoc);
    }

    std::string describe() const;

    bool operator==(const CacheConfig &) const = default;
};

/** Full machine description. */
struct MachineConfig
{
    /// @name Core.
    /// @{
    double freqGHz = 4.0;
    int fetchWidth = 4;
    int issueWidth = 4;
    int commitWidth = 4;
    int intAluUnits = 4;     ///< single-cycle integer units
    int fpUnits = 4;         ///< floating-point units
    int loadPorts = 2;
    int storePorts = 2;
    int robSize = 128;
    int intRegs = 96;        ///< physical integer registers
    int fpRegs = 96;         ///< physical floating-point registers
    int lsqLoads = 48;
    int lsqStores = 48;
    int maxBranches = 16;    ///< unresolved branches in flight
    /// @}

    /// @name Branch prediction (tournament, Alpha 21264 style).
    /// @{
    int bpEntries = 4096;    ///< entries per tournament component table
    int btbSets = 1024;      ///< BTB sets (2-way)
    int mispredictPenaltyCycles = 20;  ///< minimum refill penalty
    /// @}

    /// @name Memory hierarchy.
    /// @{
    CacheConfig l1i{32, 32, 2, true};
    CacheConfig l1d{32, 32, 2, true};
    CacheConfig l2{1024, 64, 8, true};
    int l2BusBytes = 32;     ///< L1<->L2 bus width; runs at core frequency
    double fsbGHz = 0.8;     ///< front-side bus frequency
    int fsbBytes = 8;        ///< FSB width (64 bits)
    double sdramNs = 100.0;  ///< SDRAM access latency
    int mshrs = 8;           ///< outstanding L1D misses
    /// @}

    /// @name Derived latencies (cycles); fill with applyCactiLatencies().
    /// @{
    int l1iLatency = 2;
    int l1dLatency = 2;
    int l2Latency = 16;
    /// @}

    std::string describe() const;
};

/** Aggregate outcome of one simulation. */
struct SimResult
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    double ipc = 0.0;

    // Secondary metrics (used by the multi-task learning extension).
    double l1dMissRate = 0.0;
    double l2MissRate = 0.0;
    double l1iMissRate = 0.0;
    double branchMispredictRate = 0.0;

    uint64_t l1dAccesses = 0;
    uint64_t l1dMisses = 0;
    uint64_t l2Accesses = 0;
    uint64_t l2Misses = 0;
    uint64_t l1iAccesses = 0;
    uint64_t l1iMisses = 0;
    uint64_t branches = 0;
    uint64_t branchMispredicts = 0;
};

/**
 * The SimResult record: the 15 fields above in declaration order, 8
 * bytes each, doubles as their bit patterns. The journal and
 * SimulateBatchReply both carry results in this one layout.
 */
constexpr size_t kSimResultBytes = 15 * 8;

/** Append @p r as one kSimResultBytes record. */
void putSimResult(util::WireWriter &w, const SimResult &r);

/** Read one record written by putSimResult (zeros past the end; check
 *  @p r.ok()). */
SimResult getSimResult(util::WireReader &r);

} // namespace sim
} // namespace dse

#endif // DSE_SIM_CONFIG_HH
