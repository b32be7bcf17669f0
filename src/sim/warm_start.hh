/**
 * @file
 * Functional warm-up shared across machine configurations.
 *
 * A warm run (SimOptions::warmCaches) starts from structures that have
 * replayed the whole trace functionally: branches train the predictor
 * and the BTB, each change of fetch block accesses the L1I, and warm
 * loads and stores access the L1D. The L2 sees the misses and victims
 * of both L1s. Only the L2's warmed state depends on more than one
 * structure's configuration, so a WarmStart splits the replay along
 * those lines and a study pays for each part once per distinct
 * configuration of the structure it warms:
 *
 *  - the predictor, memoized by `bpEntries`;
 *  - the BTB, memoized by `btbSets`;
 *  - the L1I, memoized by its geometry, together with its misses as
 *    (pc, index into the data accesses below);
 *  - the trace's warm data accesses, packed once as
 *    `addr << 1 | store` in 8 bytes each.
 *
 * Each warm run copies the three memoized structures and replays the
 * packed accesses through its own L1D and L2, sending every L1I miss
 * to the L2 ahead of the data access of the same op. Every structure
 * thus sees the access sequence a per-op replay gives it, and the
 * warmed state is bit-identical to one built from scratch.
 *
 * Nothing is evicted: the memo holds one entry per distinct
 * configuration a caller asks for. A study has few (the memory study
 * varies none of the three; the processor study has three predictor
 * sizes, two BTB sizes and two L1I sizes).
 */

#ifndef DSE_SIM_WARM_START_HH
#define DSE_SIM_WARM_START_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/branch.hh"
#include "sim/config.hh"
#include "sim/memsys.hh"
#include "workload/trace.hh"

namespace dse {
namespace sim {

/** The state functional warming prepares: caches, predictor, BTB. */
struct Structures
{
    /** Cold structures for `cfg`. */
    explicit Structures(const MachineConfig &cfg);

    /** A cold memory system for `cfg` beside copies of a predictor
     *  and a BTB. */
    Structures(const MachineConfig &cfg, const TournamentPredictor &p,
               const BranchTargetBuffer &b);

    MemorySystem mem;
    TournamentPredictor predictor;
    BranchTargetBuffer btb;
};

/**
 * The warm-up of one trace, reusable across machine configurations.
 * Construction packs the trace's warm data accesses; the memoized
 * structures are built on first request. The trace must outlive the
 * WarmStart. Thread-safe: concurrent warm() calls share the memo.
 */
class WarmStart
{
  public:
    /**
     * @throws std::invalid_argument when the trace has 2^32 or more
     *         ops, or a warm access whose address needs all 64 bits
     */
    explicit WarmStart(const workload::Trace &trace);
    ~WarmStart();

    /** The trace this warm-up replays (compared by identity). */
    const workload::Trace &trace() const { return trace_; }

    /** Structures for `cfg`, warmed over the whole trace. */
    Structures warm(const MachineConfig &cfg);

    /** The same passes over trace [from, to), memoizing nothing. */
    static Structures warmRange(const workload::Trace &trace,
                                const MachineConfig &cfg, size_t from,
                                size_t to);

  private:
    struct Memos;

    const workload::Trace &trace_;
    std::vector<uint64_t> accesses_;  ///< packed warm data accesses
    std::unique_ptr<Memos> memos_;
};

} // namespace sim
} // namespace dse

#endif // DSE_SIM_WARM_START_HH
