#include "sim/core.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <optional>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hh"

namespace dse {
namespace sim {

namespace {

using workload::OpClass;
using workload::Trace;
using workload::TraceOp;

/** Intrinsic execution latencies (cycles) per class. */
int
execLatency(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu: return 1;
      case OpClass::IntMul: return 3;
      case OpClass::FpAlu: return 2;
      case OpClass::FpMul: return 4;
      case OpClass::Branch: return 1;
      case OpClass::Load: return 0;   // memory system supplies timing
      case OpClass::Store: return 1;
    }
    return 1;
}

constexpr uint64_t kNotDone = ~0ull;
/// ROB ring capacity; must be a power of two exceeding the largest
/// ROB in any study so each in-flight trace index maps to its own slot.
constexpr size_t kRobRing = 256;
constexpr size_t kRobMask = kRobRing - 1;
/// Overflowing completions pack (doneAt << kSlotBits) | slot.
constexpr int kSlotBits = 8;
static_assert(kRobRing == size_t{1} << kSlotBits);
/// Cycles the completion calendar's ring covers; a power of two. An
/// L2 miss on the default, idle memory bus (under 480 cycles) fits.
constexpr size_t kCalendarCycles = 512;
constexpr size_t kCalendarMask = kCalendarCycles - 1;
/// Granularity (log2 bytes) of load/store disambiguation.
constexpr int kDisambiguationShift = 3;
/// End of a consumer list.
constexpr uint16_t kNoLink = 0xffff;

/** Per-ROB-entry bookkeeping. */
struct RobEntry
{
    uint32_t idx = 0;            ///< absolute trace index
    uint64_t doneAt = kNotDone;  ///< completion cycle; kNotDone until issue
    /// Head of the list of link nodes (one per source operand of a
    /// younger op) waiting for this op to complete.
    uint16_t consumers = kNoLink;
    uint8_t waiting = 0;         ///< producers that have not completed
    OpClass cls = OpClass::IntAlu;
    bool fpDest = false;
    bool hasDest = false;
    bool mispredicted = false;
};

/** A set of slots of a ring of N (a power of two), walked in ring
 *  order. */
template <size_t N>
class RingBits
{
    static_assert(N % 64 == 0 && (N & (N - 1)) == 0);

  public:
    void set(size_t slot) { words_[slot >> 6] |= bit(slot); }
    void clear(size_t slot) { words_[slot >> 6] &= ~bit(slot); }

    /**
     * Call fn(slot) for each member among the `count` slots starting
     * at `first`, in ring order, until fn returns false. Each 64-slot
     * word is read when the walk reaches it, so fn may clear the
     * member it is given.
     */
    template <typename Fn>
    void
    forEach(size_t first, size_t count, Fn &&fn) const
    {
        while (count > 0) {
            const size_t offset = first & 63;
            const size_t take = std::min<size_t>(64 - offset, count);
            uint64_t bits = words_[first >> 6] >> offset;
            if (take < 64)
                bits &= (1ull << take) - 1;
            for (; bits; bits &= bits - 1) {
                if (!fn(first + static_cast<size_t>(std::countr_zero(bits))))
                    return;
            }
            first = (first + take) & (N - 1);
            count -= take;
        }
    }

  private:
    static uint64_t bit(size_t slot) { return 1ull << (slot & 63); }

    std::array<uint64_t, N / 64> words_{};
};

/** A set of ROB ring slots, walked in age order. */
using RingSet = RingBits<kRobRing>;

/**
 * Issued ops by completion cycle. A ring of per-cycle lists covers the
 * kCalendarCycles cycles after the last drain, with an occupancy
 * bitmap over it; completions further out wait in an overflow list
 * until the ring reaches them. The lists thread through ROB slots: an
 * op stays in the calendar from issue until its completion drains, and
 * its slot is not reused before then.
 */
class CompletionCalendar
{
  public:
    CompletionCalendar() { heads_.fill(kNoLink); }

    /** Add the op in ROB `slot`, completing at `done` (after the last
     *  drain). */
    void
    push(uint64_t done, size_t slot)
    {
        if (done - now_ <= kCalendarCycles) {
            link(done, slot);
        } else {
            overflow_.push_back(done << kSlotBits | slot);
            overflowMin_ = std::min(overflowMin_, done);
        }
    }

    /** Call fn(slot) for each op completing at or before `cycle`, in
     *  no particular order, and advance to `cycle`. */
    template <typename Fn>
    void
    drain(uint64_t cycle, Fn &&fn)
    {
        const auto span = static_cast<size_t>(
            std::min<uint64_t>(cycle - now_, kCalendarCycles));
        occupied_.forEach((now_ + 1) & kCalendarMask, span, [&](size_t b) {
            for (uint16_t slot = heads_[b]; slot != kNoLink;
                 slot = next_[slot])
                fn(slot);
            heads_[b] = kNoLink;
            occupied_.clear(b);
            return true;
        });
        now_ = cycle;
        if (overflowMin_ > cycle + kCalendarCycles)
            return;
        // Overflow the ring now covers moves in; anything already due
        // (the cycle jumped straight to it) drains here.
        overflowMin_ = ~0ull;
        size_t kept = 0;
        for (const uint64_t key : overflow_) {
            const uint64_t done = key >> kSlotBits;
            if (done <= cycle) {
                fn(key & kRobMask);
            } else if (done - cycle <= kCalendarCycles) {
                link(done, key & kRobMask);
            } else {
                overflow_[kept++] = key;
                overflowMin_ = std::min(overflowMin_, done);
            }
        }
        overflow_.resize(kept);
    }

    /** The soonest pending completion; ~0 when none. Every ring entry
     *  precedes every overflow entry. */
    uint64_t
    next() const
    {
        uint64_t soonest = overflowMin_;
        const size_t first = (now_ + 1) & kCalendarMask;
        occupied_.forEach(first, kCalendarCycles, [&](size_t b) {
            soonest = now_ + 1 + ((b - first) & kCalendarMask);
            return false;
        });
        return soonest;
    }

  private:
    void
    link(uint64_t done, size_t slot)
    {
        const size_t b = done & kCalendarMask;
        next_[slot] = heads_[b];
        heads_[b] = static_cast<uint16_t>(slot);
        occupied_.set(b);
    }

    uint64_t now_ = 0;  ///< every completion up to here has drained
    std::array<uint16_t, kCalendarCycles> heads_;  ///< per-cycle lists
    std::array<uint16_t, kRobRing> next_{};        ///< list links
    RingBits<kCalendarCycles> occupied_;           ///< nonempty lists
    std::vector<uint64_t> overflow_;  ///< (doneAt << kSlotBits) | slot
    uint64_t overflowMin_ = ~0ull;
};

/** The trace range a SimOptions selects, clamped to the trace. */
struct Range
{
    size_t begin;        ///< first measured instruction
    size_t end;          ///< one past the last
    size_t detailBegin;  ///< first instruction simulated in detail

    Range(const SimOptions &opts, size_t trace_size)
    {
        end = std::min(opts.end, trace_size);
        begin = std::min(opts.begin, end);
        // Detailed warming: start simulating earlier, measure later.
        detailBegin = begin > opts.detailedWarmup
            ? begin - opts.detailedWarmup : 0;
    }
};

void
checkWarmStart(const Trace &trace, const WarmStart *warm)
{
    if (warm && &warm->trace() != &trace)
        throw std::invalid_argument("WarmStart built for another trace");
}

/** Fresh structures, warmed the way `opts` asks. */
Structures
prepare(const Trace &trace, const MachineConfig &cfg,
        const SimOptions &opts, WarmStart *warm)
{
    if (opts.warmCaches)
        return warm ? warm->warm(cfg) : WarmStart(trace).warm(cfg);
    if (opts.warmupInstructions == 0)
        return Structures(cfg);
    const Range range(opts, trace.size());
    return WarmStart::warmRange(
        trace, cfg,
        range.detailBegin > opts.warmupInstructions
            ? range.detailBegin - opts.warmupInstructions : 0,
        range.detailBegin);
}

/**
 * The core pipeline state machine; one instance per simulated range.
 *
 * Issue scheduling is event-driven. At dispatch an op links itself
 * into the consumer lists of its in-flight producers that have not
 * completed. Issued ops enter a CompletionCalendar; issue() first
 * drains the due completions, each waking its consumers, and an op
 * whose last producer has completed joins an age-ordered ready set.
 * issue() walks only that set, and nextEventCycle() asks the calendar
 * for its soonest completion.
 */
class Pipeline
{
  public:
    /** Runs on `s` in place: the caches, predictor and BTB it leaves
     *  behind are the ones the simulated range ended with. */
    Pipeline(const Trace &trace, const MachineConfig &cfg, Structures &s)
        : trace_(trace), cfg_(cfg), mem_(s.mem), predictor_(s.predictor),
          btb_(s.btb)
    {
        if (static_cast<size_t>(cfg.robSize) >= kRobRing)
            throw std::invalid_argument("ROB too large for ROB ring");
        rob_.resize(kRobRing);
    }

    SimResult
    run(const SimOptions &opts)
    {
        const Range range(opts, trace_.size());
        const size_t skip = range.begin - range.detailBegin;
        mem_.resetStats();

        fetchIdx_ = range.detailBegin;
        end_ = range.end;
        headIdx_ = static_cast<uint32_t>(range.detailBegin);

        uint64_t cycle = 0;
        uint64_t measure_start_cycle = 0;
        bool measuring = skip == 0;
        const uint64_t cycle_cap =
            20000ull * (range.end - range.detailBegin) + 1000000;
        while (committed_ < range.end - range.detailBegin) {
            const size_t before_committed = committed_;
            const size_t before_fetch = fetchIdx_;
            commit(cycle);
            const int issued = issue(cycle);
            fetchAndDispatch(cycle);

            if (committed_ == before_committed && issued == 0 &&
                fetchIdx_ == before_fetch) {
                // Nothing moved: jump to the next event (a completion
                // or the fetch-resume point) instead of idling one
                // cycle at a time through long memory stalls.
                cycle = std::max(cycle + 1, nextEventCycle(cycle));
            } else {
                ++cycle;
            }
            if (!measuring && committed_ >= skip) {
                // The warm prefix has drained: measurement begins.
                measuring = true;
                measure_start_cycle = cycle;
                mem_.resetStats();
                branches_ = 0;
                mispredicts_ = 0;
            }
            if (cycle > cycle_cap)
                throw std::runtime_error("simulation deadlock");
        }

        SimResult res;
        res.cycles = cycle - measure_start_cycle;
        res.instructions = range.end - range.begin;
        // Divides by every cycle, detailed-warmup prefix included.
        res.ipc = cycle ? static_cast<double>(res.instructions) /
            static_cast<double>(cycle) : 0.0;
        res.l1dAccesses = mem_.l1d().accesses();
        res.l1dMisses = mem_.l1d().misses();
        res.l2Accesses = mem_.l2().accesses();
        res.l2Misses = mem_.l2().misses();
        res.l1iAccesses = mem_.l1i().accesses();
        res.l1iMisses = mem_.l1i().misses();
        res.branches = branches_;
        res.branchMispredicts = mispredicts_;
        res.l1dMissRate = mem_.l1d().missRate();
        res.l2MissRate = mem_.l2().missRate();
        res.l1iMissRate = mem_.l1i().missRate();
        res.branchMispredictRate = branches_
            ? static_cast<double>(mispredicts_) /
              static_cast<double>(branches_) : 0.0;
        return res;
    }

  private:
    /**
     * Earliest future cycle at which pipeline state can change: the
     * soonest in-flight completion, or the fetch-restart point.
     * Returns cycle + 1 when no event is pending (defensive).
     */
    uint64_t
    nextEventCycle(uint64_t cycle) const
    {
        // issue() drained every completion at or before `cycle`.
        uint64_t next = completions_.next();
        if (!waitingBranch_ && fetchIdx_ < end_ && fetchResume_ > cycle)
            next = std::min(next, fetchResume_);
        return next == ~0ull ? cycle + 1 : next;
    }

    bool
    robFull() const
    {
        return robCount_ == static_cast<size_t>(cfg_.robSize);
    }

    /** Does an unissued store older than the load in `slot` write
     *  `addr`'s block? */
    bool
    conflictsWithOlderStore(size_t slot, uint64_t addr) const
    {
        const uint64_t block = addr >> kDisambiguationShift;
        const size_t head = headIdx_ & kRobMask;
        bool conflict = false;
        unissuedStores_.forEach(head, (slot - head) & kRobMask,
                                [&](size_t s) {
            conflict = storeBlock_[s] == block;
            return !conflict;
        });
        return conflict;
    }

    /** Can this op be dispatched given current resource occupancy? */
    bool
    canDispatch(const TraceOp &op) const
    {
        if (robFull())
            return false;
        switch (op.cls) {
          case OpClass::Load:
            if (lsqLoads_ >= cfg_.lsqLoads)
                return false;
            break;
          case OpClass::Store:
            if (lsqStores_ >= cfg_.lsqStores)
                return false;
            break;
          case OpClass::Branch:
            if (inflightBranches_ >= cfg_.maxBranches)
                return false;
            break;
          default:
            break;
        }
        const bool has_dest = op.cls != OpClass::Store &&
            op.cls != OpClass::Branch;
        if (has_dest) {
            if (op.fpDest) {
                if (fpRegsUsed_ >= cfg_.fpRegs - 32)
                    return false;
            } else {
                if (intRegsUsed_ >= cfg_.intRegs - 32)
                    return false;
            }
        }
        return true;
    }

    /**
     * Record the dependence of the op in `slot` on the producer `dist`
     * instructions back, through link node `link`, unless that
     * producer has already completed by `cycle`.
     */
    void
    dependOn(size_t slot, uint16_t link, int32_t dist, uint64_t cycle)
    {
        RobEntry &c = rob_[slot];
        // dist > idx would reach before the trace: no producer.
        if (dist <= 0 || static_cast<uint32_t>(dist) > c.idx)
            return;
        const uint32_t producer = c.idx - static_cast<uint32_t>(dist);
        if (producer < headIdx_)
            return;  // already committed
        RobEntry &p = rob_[producer & kRobMask];
        if (p.doneAt <= cycle)
            return;  // already complete
        links_[link] = p.consumers;
        p.consumers = link;
        ++c.waiting;
    }

    void
    fetchAndDispatch(uint64_t cycle)
    {
        if (waitingBranch_ || cycle < fetchResume_)
            return;
        const uint32_t iblock = static_cast<uint32_t>(cfg_.l1i.blockBytes);

        for (int slot = 0; slot < cfg_.fetchWidth; ++slot) {
            if (fetchIdx_ >= end_)
                return;
            const TraceOp &op = trace_.ops[fetchIdx_];

            // Instruction cache: one access per block crossing.
            const uint32_t blk = op.pc / iblock;
            if (blk != lastFetchBlock_) {
                const uint64_t done = mem_.fetch(op.pc, cycle);
                lastFetchBlock_ = blk;
                if (done > cycle + static_cast<uint64_t>(cfg_.l1iLatency)) {
                    fetchResume_ = done;
                    return;
                }
            }

            if (!canDispatch(op))
                return;

            // Allocate the ROB entry.
            const size_t rob_slot = fetchIdx_ & kRobMask;
            RobEntry &e = rob_[rob_slot];
            e.idx = static_cast<uint32_t>(fetchIdx_);
            e.cls = op.cls;
            e.fpDest = op.fpDest;
            e.hasDest = op.cls != OpClass::Store &&
                op.cls != OpClass::Branch;
            e.mispredicted = false;
            e.doneAt = kNotDone;
            e.waiting = 0;
            e.consumers = kNoLink;
            ++robCount_;

            const auto link = static_cast<uint16_t>(2 * rob_slot);
            dependOn(rob_slot, link, op.src1, cycle);
            dependOn(rob_slot, link + 1, op.src2, cycle);
            if (e.waiting == 0)
                ready_.set(rob_slot);
            if (op.cls == OpClass::Store) {
                unissuedStores_.set(rob_slot);
                storeBlock_[rob_slot] = op.addr >> kDisambiguationShift;
            }

            if (e.hasDest) {
                if (e.fpDest)
                    ++fpRegsUsed_;
                else
                    ++intRegsUsed_;
            }
            if (op.cls == OpClass::Load)
                ++lsqLoads_;
            if (op.cls == OpClass::Store)
                ++lsqStores_;

            ++fetchIdx_;

            if (op.cls == OpClass::Branch) {
                ++inflightBranches_;
                ++branches_;
                const bool predicted = predictor_.predict(op.pc);
                predictor_.update(op.pc, op.taken);
                if (predicted != op.taken) {
                    ++mispredicts_;
                    e.mispredicted = true;
                    waitingBranch_ = true;
                    if (op.taken)
                        btb_.insert(op.pc);
                    return;
                }
                if (op.taken) {
                    const bool btb_hit = btb_.lookup(op.pc);
                    btb_.insert(op.pc);
                    if (!btb_hit) {
                        // Target computed in decode: short bubble.
                        fetchResume_ = cycle + 2;
                        return;
                    }
                    // Correctly predicted taken branch ends the
                    // fetch group.
                    return;
                }
            }
        }
    }

    /** Issue ready ops at `cycle`; returns how many issued. */
    int
    issue(uint64_t cycle)
    {
        // Drain due completions and wake their consumers. The
        // producer may have committed this cycle, but its slot is not
        // reused before fetchAndDispatch(). Draining only decrements
        // counts and sets ready bits, so its order is not observable.
        completions_.drain(cycle, [&](size_t slot) {
            RobEntry &p = rob_[slot];
            for (uint16_t l = p.consumers; l != kNoLink; l = links_[l]) {
                if (--rob_[l >> 1].waiting == 0)
                    ready_.set(l >> 1);
            }
            p.consumers = kNoLink;
        });

        // Every op in the ready set has its operands available; visit
        // them oldest first. An op issued now completes at cycle + 1
        // or later, so nothing it wakes joins this walk.
        int issued = 0;
        int int_used = 0, fp_used = 0, ld_used = 0, st_used = 0;
        ready_.forEach(headIdx_ & kRobMask, robCount_, [&](size_t slot) {
            if (issued >= cfg_.issueWidth)
                return false;
            RobEntry &e = rob_[slot];
            const TraceOp &op = trace_.ops[e.idx];

            bool can_issue = false;
            switch (e.cls) {
              case OpClass::IntAlu:
              case OpClass::IntMul:
              case OpClass::Branch:
                can_issue = int_used < cfg_.intAluUnits;
                break;
              case OpClass::FpAlu:
              case OpClass::FpMul:
                can_issue = fp_used < cfg_.fpUnits;
                break;
              case OpClass::Load:
                // A load may bypass older stores unless one writes its
                // block (then it waits — conservative forwarding).
                can_issue = ld_used < cfg_.loadPorts &&
                    !conflictsWithOlderStore(slot, op.addr);
                break;
              case OpClass::Store:
                can_issue = st_used < cfg_.storePorts;
                break;
            }
            if (!can_issue)
                return true;

            uint64_t done = 0;
            if (e.cls == OpClass::Load) {
                done = mem_.load(op.addr, cycle + 1);
                // MSHRs full: retry later. The L1D line is already
                // allocated by this attempt, so the retry hits.
                if (done == 0)
                    return true;
            } else if (e.cls == OpClass::Store) {
                mem_.store(op.addr, cycle + 1);
                done = cycle + 1 + execLatency(e.cls);
            } else {
                done = cycle + 1 +
                    static_cast<uint64_t>(execLatency(e.cls));
            }

            // Issue.
            ++issued;
            switch (e.cls) {
              case OpClass::IntAlu:
              case OpClass::IntMul:
              case OpClass::Branch:
                ++int_used;
                break;
              case OpClass::FpAlu:
              case OpClass::FpMul:
                ++fp_used;
                break;
              case OpClass::Load:
                ++ld_used;
                break;
              case OpClass::Store:
                ++st_used;
                unissuedStores_.clear(slot);
                break;
            }
            e.doneAt = done;
            ready_.clear(slot);
            completions_.push(done, slot);

            if (e.cls == OpClass::Branch && e.mispredicted) {
                // Redirect: fetch restarts after resolution plus the
                // pipeline-refill penalty.
                fetchResume_ = done +
                    static_cast<uint64_t>(cfg_.mispredictPenaltyCycles);
                waitingBranch_ = false;
            }
            return true;
        });
        return issued;
    }

    void
    commit(uint64_t cycle)
    {
        for (int c = 0; c < cfg_.commitWidth && robCount_ > 0; ++c) {
            RobEntry &head = rob_[headIdx_ & kRobMask];
            if (head.doneAt > cycle)
                break;
            if (head.hasDest) {
                if (head.fpDest)
                    --fpRegsUsed_;
                else
                    --intRegsUsed_;
            }
            switch (head.cls) {
              case OpClass::Load:
                --lsqLoads_;
                break;
              case OpClass::Store:
                --lsqStores_;
                break;
              case OpClass::Branch:
                --inflightBranches_;
                break;
              default:
                break;
            }
            --robCount_;
            ++headIdx_;
            ++committed_;
        }
    }

    const Trace &trace_;
    const MachineConfig &cfg_;
    MemorySystem &mem_;
    TournamentPredictor &predictor_;
    BranchTargetBuffer &btb_;

    std::vector<RobEntry> rob_;
    size_t robCount_ = 0;
    uint32_t headIdx_ = 0;  ///< trace index of the oldest in-flight op

    /// Consumer-list links: node 2s + k is source k of the op in slot s.
    std::array<uint16_t, 2 * kRobRing> links_{};
    RingSet ready_;            ///< ops free to issue this cycle
    RingSet unissuedStores_;   ///< dispatched stores not yet issued
    std::array<uint64_t, kRobRing> storeBlock_{};  ///< store's 8B block
    CompletionCalendar completions_;  ///< issued ops not yet drained

    size_t fetchIdx_ = 0;
    size_t end_ = 0;
    uint64_t fetchResume_ = 0;
    uint32_t lastFetchBlock_ = ~0u;
    bool waitingBranch_ = false;

    int intRegsUsed_ = 0;
    int fpRegsUsed_ = 0;
    int lsqLoads_ = 0;
    int lsqStores_ = 0;
    int inflightBranches_ = 0;

    size_t committed_ = 0;
    uint64_t branches_ = 0;
    uint64_t mispredicts_ = 0;
};

} // namespace

SimResult
simulate(const Trace &trace, const MachineConfig &cfg,
         const SimOptions &opts, WarmStart *warm_start)
{
    checkWarmStart(trace, warm_start);
    Structures s = prepare(trace, cfg, opts, warm_start);
    return Pipeline(trace, cfg, s).run(opts);
}

std::vector<SimResult>
simulateIntervals(const Trace &trace, const MachineConfig &cfg,
                  const std::vector<SimOptions> &runs,
                  WarmStart *warm_start)
{
    checkWarmStart(trace, warm_start);
    std::vector<size_t> warm, cold;
    for (size_t i = 0; i < runs.size(); ++i)
        (runs[i].warmCaches ? warm : cold).push_back(i);

    util::ThreadPool &pool = util::ThreadPool::global();
    const size_t slots = std::min(runs.size(), pool.concurrency());

    // Warmed runs share one functional warm-up. Each slot that runs
    // them gets its own copy, made here on the calling thread. When
    // every warmed run has a slot of its own, the original is one of
    // the copies; otherwise it stays pristine, and a slot resets its
    // state from it (an allocation-free copy-assignment) between runs.
    std::optional<Structures> pristine;
    std::vector<Structures> states;
    if (!warm.empty()) {
        pristine.emplace(
            prepare(trace, cfg, runs[warm.front()], warm_start));
        const size_t n = std::min(warm.size(), slots);
        states.reserve(n);
        for (size_t s = 1; s < n; ++s)
            states.push_back(*pristine);
        if (n == warm.size()) {
            states.push_back(std::move(*pristine));
            pristine.reset();
        } else {
            states.push_back(*pristine);
        }
    }

    std::vector<SimResult> out(runs.size());
    std::atomic<size_t> next_warm{0}, next_cold{0};
    pool.parallelFor(0, slots, [&](size_t slot) {
        if (slot < states.size()) {
            Structures &state = states[slot];
            size_t w = next_warm.fetch_add(1);
            while (w < warm.size()) {
                out[warm[w]] = Pipeline(trace, cfg, state).run(runs[warm[w]]);
                // Without a pristine state every warmed run has a slot
                // of its own, so this slot's one run was its last.
                if (!pristine || (w = next_warm.fetch_add(1)) >= warm.size())
                    break;
                state = *pristine;
            }
        }
        for (size_t c; (c = next_cold.fetch_add(1)) < cold.size();)
            out[cold[c]] = simulate(trace, cfg, runs[cold[c]]);
    });
    return out;
}

} // namespace sim
} // namespace dse
