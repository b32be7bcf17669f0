/**
 * @file
 * sim::WarmStart: warm runs through one shared warm-up memo equal warm
 * runs through a fresh one on every SimResult field. That holds for
 * detailed runs and SimPoint/SMARTS estimates on both studies, while
 * the memo is cold and once it holds every structure, and with the
 * memo shared by concurrent callers at 1, 2 and 8 pool threads. The
 * L2 sees each L1I miss before the data access of the same op, as in
 * a per-op replay.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "sim/core.hh"
#include "sim/warm_start.hh"
#include "simpoint/simpoint.hh"
#include "simpoint/smarts.hh"
#include "study/spaces.hh"
#include "util/thread_pool.hh"
#include "workload/generator.hh"

namespace dse {
namespace {

using sim::MachineConfig;
using sim::SimOptions;
using sim::WarmStart;
using util::ThreadPool;

constexpr size_t kTraceLength = 8192;
constexpr size_t kThreadCounts[] = {1, 2, 8};

/** Restores the default global pool when a test scope ends. */
struct PoolGuard
{
    explicit PoolGuard(size_t threads) { ThreadPool::resetGlobal(threads); }
    ~PoolGuard() { ThreadPool::resetGlobal(); }
};

auto
fields(const sim::SimResult &r)
{
    return std::make_tuple(r.cycles, r.instructions, r.ipc, r.l1dMissRate,
                           r.l2MissRate, r.l1iMissRate,
                           r.branchMispredictRate, r.l1dAccesses,
                           r.l1dMisses, r.l2Accesses, r.l2Misses,
                           r.l1iAccesses, r.l1iMisses, r.branches,
                           r.branchMispredicts);
}

using Fields = decltype(fields(sim::SimResult{}));

/** Everything one configuration's warm runs return. */
struct Outcome
{
    Fields full;
    Fields partial;  ///< a warmupInstructions range, which ignores the memo
    double simpoint = 0.0;
    double smarts = 0.0;

    bool operator==(const Outcome &) const = default;
};

/** One study's trace, a spread of its configurations, and SimPoints. */
class StudyCase
{
  public:
    explicit StudyCase(study::StudyKind kind)
        : kind_(kind),
          trace_(workload::generateBenchmarkTrace("gzip", kTraceLength))
    {
        const auto space = study::spaceFor(kind);
        // Ten points of a golden-ratio walk: in the processor study
        // they repeat some predictor, BTB and L1I sizes and vary others.
        for (uint64_t k = 1; k <= 10; ++k) {
            const uint64_t idx = (k * 0x9e3779b97f4a7c15ull >> 17) %
                space.size();
            configs_.push_back(
                study::configFor(kind, space, space.levels(idx)));
        }
        simpoint::SimPointOptions sp;
        sp.intervalLength = 1024;
        sp.maxK = 6;
        points_ = simpoint::pickSimPoints(trace_, sp);
    }

    const char *name() const { return study::studyName(kind_); }
    const workload::Trace &trace() const { return trace_; }
    size_t size() const { return configs_.size(); }

    /** Configuration i's warm runs through `warm` (null: a throwaway
     *  memo per call). */
    Outcome
    run(size_t i, WarmStart *warm) const
    {
        const MachineConfig &cfg = configs_[i];
        SimOptions full;
        full.warmCaches = true;
        SimOptions partial;
        partial.begin = 3000;
        partial.end = 5000;
        partial.warmupInstructions = 2000;
        simpoint::SmartsOptions smarts;
        smarts.unitInstructions = 256;
        smarts.cadence = 5;

        Outcome out;
        out.full = fields(sim::simulate(trace_, cfg, full, warm));
        out.partial = fields(sim::simulate(trace_, cfg, partial, warm));
        out.simpoint =
            simpoint::estimateIpc(trace_, cfg, points_, warm).ipc;
        out.smarts =
            simpoint::smartsEstimateIpc(trace_, cfg, smarts, warm).ipc;
        return out;
    }

    /** Every configuration, each through a WarmStart of its own. */
    std::vector<Outcome>
    fresh() const
    {
        std::vector<Outcome> out;
        for (size_t i = 0; i < size(); ++i) {
            WarmStart own(trace_);
            out.push_back(run(i, &own));
        }
        return out;
    }

  private:
    study::StudyKind kind_;
    workload::Trace trace_;
    std::vector<MachineConfig> configs_;
    simpoint::SimPoints points_;
};

const study::StudyKind kStudies[] = {study::StudyKind::MemorySystem,
                                     study::StudyKind::Processor};

TEST(SimWarmStart, SharedMemoMatchesFreshMemoColdThenWarm)
{
    for (auto kind : kStudies) {
        const StudyCase c(kind);
        const auto want = c.fresh();
        WarmStart shared(c.trace());
        for (const char *pass : {"memo cold", "memo warm"}) {
            for (size_t i = 0; i < c.size(); ++i)
                EXPECT_EQ(c.run(i, &shared), want[i])
                    << c.name() << " " << pass << " config " << i;
        }
        // A throwaway memo per call is the fresh case too.
        for (size_t i = 0; i < c.size(); ++i)
            EXPECT_EQ(c.run(i, nullptr), want[i])
                << c.name() << " no memo, config " << i;
    }
}

TEST(SimWarmStart, SharedMemoMatchesFreshMemoAcrossPoolSizes)
{
    for (auto kind : kStudies) {
        const StudyCase c(kind);
        const auto want = c.fresh();
        for (size_t threads : kThreadCounts) {
            PoolGuard guard(threads);
            const std::string what = std::string(c.name()) +
                " threads=" + std::to_string(threads);
            // Concurrent callers build and read one memo (estimates
            // nested in the pool run their intervals inline) ...
            WarmStart shared(c.trace());
            std::vector<Outcome> got(c.size());
            ThreadPool::global().parallelFor(
                0, c.size(), [&](size_t i) { got[i] = c.run(i, &shared); });
            for (size_t i = 0; i < c.size(); ++i)
                EXPECT_EQ(got[i], want[i]) << what << " config " << i;
            // ... and top-level estimates fan their intervals out from
            // the warm memo.
            for (size_t i = 0; i < c.size(); ++i)
                EXPECT_EQ(c.run(i, &shared), want[i])
                    << what << " top level, config " << i;
        }
    }
}

TEST(SimWarmStart, FetchMissReachesTheL2BeforeItsOpsDataAccess)
{
    // One load whose block shares a direct-mapped L2 set with its own
    // instruction block. A per-op replay sends the L1I miss to the L2
    // first and the load's miss second, which evicts it.
    constexpr uint32_t kPc = 0x1000;
    constexpr uint64_t kAlias = kPc + 256 * 1024;  // one L2 way apart
    workload::Trace trace;
    trace.app = "alias";
    workload::TraceOp load;
    load.cls = workload::OpClass::Load;
    load.pc = kPc;
    load.addr = kAlias;
    trace.ops = {load};
    MachineConfig cfg;
    cfg.l2 = {256, 64, 1, true};

    const sim::Structures s = WarmStart(trace).warm(cfg);
    EXPECT_TRUE(s.mem.l2().contains(kAlias));
    EXPECT_FALSE(s.mem.l2().contains(kPc));
    EXPECT_EQ(s.mem.l2().accesses(), 2u);
}

TEST(SimWarmStart, RejectsAWarmStartBuiltForAnotherTrace)
{
    const auto trace = workload::generateBenchmarkTrace("gzip", 4096);
    const auto same_ops = trace;  // equal content, another object
    const auto other = workload::generateBenchmarkTrace("mcf", 4096);
    MachineConfig cfg = study::configFor(
        study::StudyKind::MemorySystem,
        study::spaceFor(study::StudyKind::MemorySystem),
        study::spaceFor(study::StudyKind::MemorySystem).levels(0));
    SimOptions warm_opts;
    warm_opts.warmCaches = true;
    simpoint::SimPointOptions sp;
    sp.intervalLength = 1024;
    const auto points = simpoint::pickSimPoints(trace, sp);

    WarmStart warm(trace);
    EXPECT_NO_THROW(sim::simulate(trace, cfg, warm_opts, &warm));
    for (const auto *t : {&same_ops, &other}) {
        EXPECT_THROW(sim::simulate(*t, cfg, warm_opts, &warm),
                     std::invalid_argument);
        EXPECT_THROW(sim::simulate(*t, cfg, SimOptions{}, &warm),
                     std::invalid_argument);
        EXPECT_THROW(sim::simulateIntervals(*t, cfg, {warm_opts}, &warm),
                     std::invalid_argument);
        EXPECT_THROW(simpoint::estimateIpc(*t, cfg, points, &warm),
                     std::invalid_argument);
        EXPECT_THROW(simpoint::smartsEstimateIpc(*t, cfg, {}, &warm),
                     std::invalid_argument);
    }
}

} // namespace
} // namespace dse
