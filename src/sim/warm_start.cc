#include "sim/warm_start.hh"

#include <deque>
#include <limits>
#include <mutex>
#include <span>
#include <stdexcept>
#include <utility>

#include "sim/cache.hh"
#include "util/metrics.hh"

namespace dse {
namespace sim {

namespace {

using workload::OpClass;
using workload::Trace;
using workload::TraceOp;

/** Does functional warm-up send this op to the data caches? */
bool
warmsData(const TraceOp &op)
{
    return (op.cls == OpClass::Load || op.cls == OpClass::Store) &&
        !op.noWarm;
}

/** Warm data accesses of trace [from, to) as `addr << 1 | store`,
 *  allocated at their exact count. */
std::vector<uint64_t>
packAccesses(const Trace &trace, size_t from, size_t to)
{
    size_t count = 0;
    for (size_t i = from; i < to; ++i)
        count += warmsData(trace.ops[i]);
    std::vector<uint64_t> out;
    out.reserve(count);
    for (size_t i = from; i < to; ++i) {
        const TraceOp &op = trace.ops[i];
        if (!warmsData(op))
            continue;
        if (op.addr >> 63)
            throw std::invalid_argument(
                "WarmStart: address needs all 64 bits");
        out.push_back(op.addr << 1 | (op.cls == OpClass::Store));
    }
    return out;
}

TournamentPredictor
warmPredictor(const Trace &trace, int entries, size_t from, size_t to)
{
    TournamentPredictor predictor(entries);
    for (size_t i = from; i < to; ++i) {
        const TraceOp &op = trace.ops[i];
        if (op.cls == OpClass::Branch)
            predictor.update(op.pc, op.taken);
    }
    return predictor;
}

BranchTargetBuffer
warmBtb(const Trace &trace, int sets, size_t from, size_t to)
{
    BranchTargetBuffer btb(sets);
    for (size_t i = from; i < to; ++i) {
        const TraceOp &op = trace.ops[i];
        if (op.cls == OpClass::Branch && op.taken)
            btb.insert(op.pc);
    }
    return btb;
}

/** A warmed L1I and the misses it sent towards the L2. */
struct WarmL1i
{
    Cache cache;
    std::vector<WarmFetchMiss> misses;
};

/** One access per change of fetch block, as the timed front end. */
WarmL1i
warmL1i(const Trace &trace, const CacheConfig &cfg, size_t from, size_t to)
{
    WarmL1i out{Cache(cfg), {}};
    const auto iblock = static_cast<uint32_t>(cfg.blockBytes);
    uint32_t last_block = ~0u;
    uint32_t before = 0;
    for (size_t i = from; i < to; ++i) {
        const TraceOp &op = trace.ops[i];
        const uint32_t blk = op.pc / iblock;
        if (blk != last_block) {
            if (!out.cache.access(op.pc, false).hit)
                out.misses.push_back({op.pc, before});
            last_block = blk;
        }
        before += warmsData(op);
    }
    return out;
}

/** Warm a cold memory system beside the warmed predictor and BTB. */
Structures
assemble(const MachineConfig &cfg, const TournamentPredictor &predictor,
         const BranchTargetBuffer &btb, const WarmL1i &l1i,
         std::span<const uint64_t> accesses)
{
    Structures s(cfg, predictor, btb);
    s.mem.warm(l1i.cache, l1i.misses, accesses);
    return s;
}

/**
 * Values built once per key and never evicted. The lock is held while
 * a value builds, so concurrent first requests for a key build it
 * once; deque keeps the returned references valid as entries arrive.
 */
template <typename Key, typename Value>
class Memo
{
  public:
    Memo(const obs::Counter &builds, const obs::Counter &hits)
        : builds_(builds), hits_(hits)
    {
    }

    template <typename Build>
    const Value &
    get(const Key &key, Build &&build)
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &[k, value] : entries_) {
            if (k == key) {
                hits_.add();
                return value;
            }
        }
        builds_.add();
        return entries_.emplace_back(key, build()).second;
    }

  private:
    obs::Counter builds_, hits_;
    std::mutex mu_;
    std::deque<std::pair<Key, Value>> entries_;
};

/** Memo metrics (DESIGN.md "Observability"). */
const obs::Counter kPredictorBuilds("sim.warm_builds.predictor");
const obs::Counter kPredictorHits("sim.warm_hits.predictor");
const obs::Counter kBtbBuilds("sim.warm_builds.btb");
const obs::Counter kBtbHits("sim.warm_hits.btb");
const obs::Counter kL1iBuilds("sim.warm_builds.l1i");
const obs::Counter kL1iHits("sim.warm_hits.l1i");

} // namespace

Structures::Structures(const MachineConfig &cfg)
    : mem(cfg), predictor(cfg.bpEntries), btb(cfg.btbSets)
{
}

Structures::Structures(const MachineConfig &cfg,
                       const TournamentPredictor &p,
                       const BranchTargetBuffer &b)
    : mem(cfg), predictor(p), btb(b)
{
}

struct WarmStart::Memos
{
    Memo<int, TournamentPredictor> predictor{kPredictorBuilds,
                                             kPredictorHits};
    Memo<int, BranchTargetBuffer> btb{kBtbBuilds, kBtbHits};
    Memo<CacheConfig, WarmL1i> l1i{kL1iBuilds, kL1iHits};
};

WarmStart::WarmStart(const Trace &trace)
    : trace_(trace),
      memos_(std::make_unique<Memos>())
{
    // WarmFetchMiss counts data accesses in 32 bits.
    if (trace.size() > std::numeric_limits<uint32_t>::max())
        throw std::invalid_argument("WarmStart: trace too long");
    accesses_ = packAccesses(trace, 0, trace.size());
}

WarmStart::~WarmStart() = default;

Structures
WarmStart::warm(const MachineConfig &cfg)
{
    const size_t n = trace_.size();
    const auto &predictor = memos_->predictor.get(cfg.bpEntries, [&] {
        return warmPredictor(trace_, cfg.bpEntries, 0, n);
    });
    const auto &btb = memos_->btb.get(
        cfg.btbSets, [&] { return warmBtb(trace_, cfg.btbSets, 0, n); });
    const auto &l1i = memos_->l1i.get(
        cfg.l1i, [&] { return warmL1i(trace_, cfg.l1i, 0, n); });
    return assemble(cfg, predictor, btb, l1i, accesses_);
}

Structures
WarmStart::warmRange(const Trace &trace, const MachineConfig &cfg,
                     size_t from, size_t to)
{
    return assemble(cfg, warmPredictor(trace, cfg.bpEntries, from, to),
                    warmBtb(trace, cfg.btbSets, from, to),
                    warmL1i(trace, cfg.l1i, from, to),
                    packAccesses(trace, from, to));
}

} // namespace sim
} // namespace dse
