/**
 * @file
 * Determinism suite for the parallel simulation & training engine.
 *
 * The contract under test (DESIGN.md, "Parallel execution &
 * determinism"): every parallel loop in the library — batch
 * simulation, per-fold ensemble training, design-space prediction,
 * holdout evaluation — produces results **bit-identical** to serial
 * execution at any thread count. Each case below computes the same
 * quantity with the global pool set to 1, 2, and 8 threads and
 * compares exactly (no tolerances), plus a stress test hammering the
 * memoization cache from concurrent batches. The ThreadPoolTest
 * cases pin the pool's own contract: concurrent callers share its
 * workers, and only its own nested calls run inline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "ml/ann.hh"
#include "ml/explorer.hh"
#include "ml/multitask.hh"
#include "reference_ann.hh"
#include "sim/core.hh"
#include "simpoint/simpoint.hh"
#include "simpoint/smarts.hh"
#include "study/harness.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace dse {
namespace {

using util::ThreadPool;

constexpr size_t kThreadCounts[] = {1, 2, 8};

/** Restores the default global pool when a test scope ends. */
struct PoolGuard
{
    explicit PoolGuard(size_t threads) { ThreadPool::resetGlobal(threads); }
    ~PoolGuard() { ThreadPool::resetGlobal(); }
};

void
expectEnsemblesIdentical(const ml::Ensemble &a, const ml::Ensemble &b,
                         const char *what)
{
    ASSERT_EQ(a.members(), b.members()) << what;
    for (size_t m = 0; m < a.members(); ++m)
        EXPECT_EQ(a.memberWeights(m), b.memberWeights(m))
            << what << ": member " << m;
    EXPECT_EQ(a.estimate().meanPct, b.estimate().meanPct) << what;
    EXPECT_EQ(a.estimate().sdPct, b.estimate().sdPct) << what;
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(8);
    std::vector<int> hits(5000, 0);
    pool.parallelFor(0, hits.size(),
                     [&](size_t i) { hits[i] += 1; });
    for (size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i], 1) << i;
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp)
{
    ThreadPool pool(4);
    bool ran = false;
    pool.parallelFor(5, 5, [&](size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, PropagatesFirstException)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(0, 200,
                                  [](size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The pool must still be usable afterwards.
    std::atomic<size_t> n{0};
    pool.parallelFor(0, 64, [&](size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 64u);
}

TEST(ThreadPoolTest, NestedCallsRunInline)
{
    PoolGuard guard(4);
    std::vector<int> hits(40 * 40, 0);
    ThreadPool::global().parallelFor(0, 40, [&](size_t i) {
        // Nested parallelFor must not deadlock; it degrades to a
        // serial inner loop on the calling worker.
        ThreadPool::global().parallelFor(0, 40, [&](size_t j) {
            hits[i * 40 + j] += 1;
        });
    });
    for (int h : hits)
        ASSERT_EQ(h, 1);
}

/** A loop body slow enough that concurrent jobs overlap even when the
 *  pool's threads are time-sliced onto one CPU. */
void
slowIteration()
{
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
}

size_t
distinctThreads(const std::vector<std::thread::id> &ids)
{
    return std::set<std::thread::id>(ids.begin(), ids.end()).size();
}

TEST(ThreadPoolTest, ConcurrentCallersShareTheWorkers)
{
    ThreadPool pool(4);
    constexpr size_t kN = 60;
    std::vector<int> hitsA(kN, 0), hitsB(kN, 0);
    std::vector<std::thread::id> ranB(kN);
    std::atomic<bool> aStarted{false};

    std::thread first([&] {
        pool.parallelFor(0, kN, [&](size_t i) {
            aStarted.store(true);
            slowIteration();
            hitsA[i] += 1;
        });
    });
    while (!aStarted.load())
        std::this_thread::yield();
    // Submitted while the first job is in flight: it must not run
    // serially on this thread alone.
    pool.parallelFor(0, kN, [&](size_t i) {
        slowIteration();
        hitsB[i] += 1;
        ranB[i] = std::this_thread::get_id();
    });
    first.join();

    for (size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(hitsA[i], 1) << i;
        ASSERT_EQ(hitsB[i], 1) << i;
    }
    EXPECT_GE(distinctThreads(ranB), 2u);
}

TEST(ThreadPoolTest, CallFromAnotherPoolsWorkerUsesTheGlobalPool)
{
    // The serve shape: a thread of one pool (a server worker) fans out
    // on the global pool. Only this pool's own nesting runs inline.
    PoolGuard guard(4);
    constexpr size_t kN = 32;
    ThreadPool outer(2);
    std::vector<std::vector<std::thread::id>> ran(
        2, std::vector<std::thread::id>(kN));
    std::vector<std::thread::id> callers(2);
    outer.parallelFor(0, 2, [&](size_t o) {
        callers[o] = std::this_thread::get_id();
        ThreadPool::global().parallelFor(0, kN, [&](size_t i) {
            slowIteration();
            ran[o][i] = std::this_thread::get_id();
        });
    });
    for (size_t o = 0; o < 2; ++o) {
        const size_t helped = std::count_if(
            ran[o].begin(), ran[o].end(),
            [&](std::thread::id id) { return id != callers[o]; });
        EXPECT_GT(helped, 0u) << "outer iteration " << o;
    }
}

TEST(ThreadPoolTest, ExceptionReachesOnlyItsOwnSubmitter)
{
    ThreadPool pool(4);
    constexpr size_t kN = 60;
    std::atomic<size_t> completed{0};
    bool failedThrew = false;
    bool healthyThrew = false;

    std::thread failing([&] {
        try {
            pool.parallelFor(0, kN, [&](size_t i) {
                slowIteration();
                if (i == 10)
                    throw std::runtime_error("boom");
            });
        } catch (const std::runtime_error &) {
            failedThrew = true;
        }
    });
    std::thread healthy([&] {
        try {
            pool.parallelFor(0, kN, [&](size_t) {
                slowIteration();
                completed.fetch_add(1);
            });
        } catch (...) {
            healthyThrew = true;
        }
    });
    failing.join();
    healthy.join();

    EXPECT_TRUE(failedThrew);
    EXPECT_FALSE(healthyThrew);
    EXPECT_EQ(completed.load(), kN);
}

TEST(ThreadPoolTest, ConcurrencyIsOneOnlyInsideThePoolsOwnLoop)
{
    ThreadPool pool(4);
    ThreadPool other(2);
    EXPECT_EQ(pool.concurrency(), pool.threadCount());
    EXPECT_EQ(ThreadPool(1).concurrency(), 1u);

    std::vector<size_t> own(8), foreign(8), fromOther(2);
    pool.parallelFor(0, own.size(), [&](size_t i) {
        own[i] = pool.concurrency();
        foreign[i] = other.concurrency();
    });
    other.parallelFor(0, fromOther.size(),
                      [&](size_t i) { fromOther[i] = pool.concurrency(); });
    size_t fromThread = 0;
    std::thread([&] { fromThread = pool.concurrency(); }).join();

    for (size_t i = 0; i < own.size(); ++i) {
        EXPECT_EQ(own[i], 1u) << i;
        EXPECT_EQ(foreign[i], other.threadCount()) << i;
    }
    for (size_t c : fromOther)
        EXPECT_EQ(c, pool.threadCount());
    EXPECT_EQ(fromThread, pool.threadCount());
}

TEST(ThreadPoolTest, ConfiguredThreadsReadsEnv)
{
    setenv("DSE_THREADS", "3", 1);
    EXPECT_EQ(ThreadPool::configuredThreads(), 3u);
    unsetenv("DSE_THREADS");
    EXPECT_GE(ThreadPool::configuredThreads(), 1u);
}

TEST(ParallelDeterminism, SplitMixFoldSeedsAreStableAndDistinct)
{
    SplitMix64 a(12345), b(12345);
    std::set<uint64_t> seen;
    for (int i = 0; i < 64; ++i) {
        const uint64_t v = a.next();
        EXPECT_EQ(v, b.next());
        EXPECT_TRUE(seen.insert(v).second) << "seed collision at " << i;
    }
}

TEST(ParallelDeterminism, SimulateBatchBitIdenticalAcrossThreadCounts)
{
    // The same indices simulated at 1/2/8 threads must give the same
    // bits: simulation is a pure function of the design point, and
    // the memo cache only memoizes.
    std::vector<uint64_t> indices;
    {
        Rng rng(0x5eed);
        study::StudyContext probe(study::StudyKind::MemorySystem,
                                  "gzip", 4096);
        for (int i = 0; i < 24; ++i)
            indices.push_back(rng.below(probe.space().size()));
    }

    std::vector<std::vector<double>> results;
    for (size_t threads : kThreadCounts) {
        PoolGuard guard(threads);
        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                4096);
        results.push_back(ctx.simulateBatch(indices));
    }
    for (size_t t = 1; t < results.size(); ++t) {
        ASSERT_EQ(results[t].size(), results[0].size());
        for (size_t i = 0; i < results[0].size(); ++i)
            EXPECT_EQ(results[t][i], results[0][i])
                << "threads=" << kThreadCounts[t] << " index " << i;
    }
}

TEST(ParallelDeterminism, TrainEnsembleBitIdenticalAcrossThreadCounts)
{
    // Build a synthetic regression set once.
    Rng rng(21);
    ml::DataSet data;
    for (int i = 0; i < 100; ++i) {
        const double a = rng.uniform(), b = rng.uniform();
        data.add({a, b}, 0.5 + 0.9 * a - 0.4 * a * b);
    }
    ml::TrainOptions opts;
    opts.folds = 5;
    opts.maxEpochs = 150;
    opts.esInterval = 25;
    opts.patience = 4;

    std::vector<ml::Ensemble> models;
    for (size_t threads : kThreadCounts) {
        PoolGuard guard(threads);
        models.push_back(ml::trainEnsemble(data, opts));
    }
    expectEnsemblesIdentical(models[0], models[1], "1 vs 2 threads");
    expectEnsemblesIdentical(models[0], models[2], "1 vs 8 threads");
    EXPECT_EQ(models[0].predict({0.3, 0.7}),
              models[2].predict({0.3, 0.7}));
}

TEST(ParallelDeterminism, MultiTaskBitIdenticalAcrossThreadCounts)
{
    // Two targets through the shared fold driver: the folds train
    // concurrently, and every output of every prediction matches the
    // serial run exactly.
    Rng rng(22);
    ml::MultiTaskDataSet data;
    data.targetNames = {"ipc", "miss"};
    for (int i = 0; i < 100; ++i) {
        const double a = rng.uniform(), b = rng.uniform();
        data.add({a, b}, {0.5 + 0.9 * a - 0.4 * a * b,
                          0.3 - 0.2 * a + 0.1 * b});
    }
    ml::TrainOptions opts;
    opts.folds = 5;
    opts.maxEpochs = 150;
    opts.esInterval = 25;
    opts.patience = 4;
    const std::vector<std::vector<double>> probes = {
        {0.3, 0.7}, {0.0, 1.0}, {0.9, 0.1}};

    std::vector<ml::MultiTaskEnsemble> models;
    for (size_t threads : kThreadCounts) {
        PoolGuard guard(threads);
        models.push_back(ml::trainMultiTaskEnsemble(data, opts));
    }
    for (size_t t = 1; t < models.size(); ++t) {
        ASSERT_EQ(models[t].members(), models[0].members());
        EXPECT_EQ(models[t].estimate().meanPct,
                  models[0].estimate().meanPct);
        EXPECT_EQ(models[t].estimate().sdPct, models[0].estimate().sdPct);
        for (const auto &x : probes)
            EXPECT_EQ(models[t].predictAll(x), models[0].predictAll(x))
                << "threads=" << kThreadCounts[t];
    }
}

TEST(ParallelDeterminism, TrainEpochBitIdenticalToPerExampleAcrossThreadCounts)
{
    // The fused epoch pipeline under the pool: six networks trained
    // concurrently via trainEpoch (one per pool task, as trainEnsemble
    // trains folds) must match a serial one-row-epoch oracle
    // exactly, at every thread count. Exercises the fused
    // backward+update kernels' dispatch under concurrent execution.
    constexpr size_t kNets = 6;
    constexpr size_t kRows = 20;
    constexpr int kInputs = 8;
    constexpr int kEpochs = 3;

    std::vector<double> x(kRows * kInputs);
    std::vector<double> target(kRows);
    std::vector<uint32_t> order(kRows);
    {
        Rng rng(0xfa57);
        for (auto &v : x)
            v = rng.uniform();
        for (auto &v : target)
            v = rng.uniform();
        for (auto &o : order)
            o = static_cast<uint32_t>(rng.below(kRows));
    }

    auto make_net = [&](size_t m) {
        ml::AnnParams p;
        Rng rng(1000 + m);
        return ml::Ann(kInputs, 1, p, rng);
    };

    // Serial oracle: one-row epochs, no pool involved.
    std::vector<std::vector<double>> expected;
    for (size_t m = 0; m < kNets; ++m) {
        ml::Ann net = make_net(m);
        for (int e = 0; e < kEpochs; ++e)
            for (uint32_t row : order)
                ml::testref::trainStep(
                    net,
                    std::vector<double>(x.begin() + row * kInputs,
                                        x.begin() + (row + 1) * kInputs),
                    {target[row]});
        expected.push_back(net.weights());
    }

    for (size_t threads : kThreadCounts) {
        PoolGuard guard(threads);
        std::vector<std::vector<double>> got(kNets);
        ThreadPool::global().parallelFor(0, kNets, [&](size_t m) {
            ml::Ann net = make_net(m);
            for (int e = 0; e < kEpochs; ++e)
                net.trainEpoch(x.data(), target.data(), order.data(),
                               order.size());
            got[m] = net.weights();
        });
        for (size_t m = 0; m < kNets; ++m)
            EXPECT_EQ(got[m], expected[m])
                << "threads=" << threads << " net " << m;
    }
}

TEST(ParallelDeterminism, ExplorerPredictionsBitIdenticalAcrossThreadCounts)
{
    ml::DesignSpace space;
    space.addCardinal("a", {1, 2, 3, 4, 5, 6});
    space.addCardinal("b", {1, 2, 3, 4, 5, 6});
    space.addCardinal("c", {1, 2, 3, 4, 5, 6});
    auto simulator = [&](uint64_t idx) {
        const auto x = space.encodeIndex(idx);
        return 0.8 + 0.6 * x[0] + 0.3 * x[1] * x[2];
    };

    ml::ExplorerOptions opts;
    opts.batchSize = 30;
    opts.train.folds = 5;
    opts.train.maxEpochs = 120;
    opts.train.esInterval = 25;
    opts.train.patience = 4;

    std::vector<std::vector<uint64_t>> sampled;
    std::vector<std::vector<double>> predictions;
    for (size_t threads : kThreadCounts) {
        PoolGuard guard(threads);
        ml::Explorer explorer(space, simulator, opts);
        explorer.step();
        explorer.step();
        sampled.push_back(explorer.sampledIndices());
        predictions.push_back(explorer.predictSpace());
    }
    for (size_t t = 1; t < predictions.size(); ++t) {
        EXPECT_EQ(sampled[t], sampled[0])
            << "threads=" << kThreadCounts[t];
        ASSERT_EQ(predictions[t].size(), predictions[0].size());
        for (size_t i = 0; i < predictions[0].size(); ++i)
            EXPECT_EQ(predictions[t][i], predictions[0][i])
                << "threads=" << kThreadCounts[t] << " point " << i;
    }
}

TEST(ParallelDeterminism, MeasureTrueErrorBitIdenticalAcrossThreadCounts)
{
    // Train one tiny model, then evaluate the same holdout at each
    // thread count on a fresh (cold-cache) context.
    std::vector<uint64_t> train_idx;
    std::vector<uint64_t> eval_idx;
    ml::DataSet data;
    {
        PoolGuard guard(1);
        study::StudyContext ctx(study::StudyKind::Processor, "equake",
                                4096);
        Rng rng(77);
        train_idx = rng.sampleWithoutReplacement(ctx.space().size(), 40);
        eval_idx = study::holdoutIndices(ctx.space(), train_idx, 30, 78);
        const auto y = ctx.simulateBatch(train_idx);
        for (size_t i = 0; i < train_idx.size(); ++i)
            data.add(ctx.space().encodeIndex(train_idx[i]), y[i]);
    }
    ml::TrainOptions opts;
    opts.folds = 5;
    opts.maxEpochs = 120;
    opts.esInterval = 25;
    opts.patience = 4;
    const auto model = ml::trainEnsemble(data, opts);

    std::vector<study::TrueError> errors;
    for (size_t threads : kThreadCounts) {
        PoolGuard guard(threads);
        study::StudyContext ctx(study::StudyKind::Processor, "equake",
                                4096);
        errors.push_back(study::measureTrueError(ctx, model, eval_idx));
    }
    for (size_t t = 1; t < errors.size(); ++t) {
        EXPECT_EQ(errors[t].meanPct, errors[0].meanPct)
            << "threads=" << kThreadCounts[t];
        EXPECT_EQ(errors[t].sdPct, errors[0].sdPct)
            << "threads=" << kThreadCounts[t];
    }
}

TEST(ParallelDeterminism, SimPointBatchBitIdenticalAcrossThreadCounts)
{
    std::vector<uint64_t> indices;
    {
        Rng rng(0x51);
        study::StudyContext probe(study::StudyKind::Processor, "gzip",
                                  16384);
        for (int i = 0; i < 10; ++i)
            indices.push_back(rng.below(probe.space().size()));
    }
    std::vector<std::vector<double>> results;
    for (size_t threads : kThreadCounts) {
        PoolGuard guard(threads);
        study::StudyContext ctx(study::StudyKind::Processor, "gzip",
                                16384);
        results.push_back(ctx.simulateSimPointBatch(indices));
    }
    for (size_t t = 1; t < results.size(); ++t)
        EXPECT_EQ(results[t], results[0])
            << "threads=" << kThreadCounts[t];
}

/** Every SimResult field, so EXPECT_EQ compares runs exactly. */
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

/** What simulateIntervals, estimateIpc and smartsEstimateIpc return
 *  for one configuration. */
struct IntervalOutcome
{
    std::vector<std::vector<Fields>> runSets;
    double simpointIpc = 0.0;
    double smartsIpc = 0.0;
};

/**
 * One mcf memory-study configuration on a 65,536-instruction trace,
 * where SimPoint picks a few intervals. The first run set is default
 * SMARTS (16 units) plus one cold run, more runs than any pool size
 * here; the second has fewer warmed runs than 8 slots.
 */
class IntervalCase
{
  public:
    IntervalCase()
        : ctx_(study::StudyKind::MemorySystem, "mcf", 65536),
          cfg_(ctx_.config(ctx_.space().size() / 3)),
          points_(ctx_.simPoints())
    {
        const simpoint::SmartsOptions smarts;
        std::vector<sim::SimOptions> units;
        for (size_t u = 0; u < ctx_.trace().size() / smarts.unitInstructions;
             u += smarts.cadence) {
            sim::SimOptions opts;
            opts.begin = u * smarts.unitInstructions;
            opts.end = opts.begin + smarts.unitInstructions;
            opts.warmCaches = true;
            units.push_back(opts);
        }
        sim::SimOptions cold;
        cold.begin = 20000;
        cold.end = 24096;
        cold.warmupInstructions = 4096;

        runSets_.push_back(units);
        runSets_.back().push_back(cold);
        runSets_.push_back({units[3], cold, units[9]});
    }

    /** What every pool size must reproduce: each run simulated on its
     *  own, and the estimates on a one-thread pool. */
    IntervalOutcome
    reference() const
    {
        IntervalOutcome out;
        {
            PoolGuard guard(1);
            out = run();
        }
        for (size_t s = 0; s < runSets_.size(); ++s) {
            for (size_t i = 0; i < runSets_[s].size(); ++i)
                out.runSets[s][i] = fields(
                    sim::simulate(ctx_.trace(), cfg_, runSets_[s][i]));
        }
        return out;
    }

    /** Const, so several threads may run it at once. */
    IntervalOutcome
    run() const
    {
        IntervalOutcome out;
        for (const auto &runs : runSets_) {
            out.runSets.emplace_back();
            for (const auto &r :
                 sim::simulateIntervals(ctx_.trace(), cfg_, runs))
                out.runSets.back().push_back(fields(r));
        }
        out.simpointIpc =
            simpoint::estimateIpc(ctx_.trace(), cfg_, points_).ipc;
        out.smartsIpc =
            simpoint::smartsEstimateIpc(ctx_.trace(), cfg_).ipc;
        return out;
    }

  private:
    study::StudyContext ctx_;
    sim::MachineConfig cfg_;
    simpoint::SimPoints points_;
    std::vector<std::vector<sim::SimOptions>> runSets_;
};

void
expectSameOutcome(const IntervalOutcome &got, const IntervalOutcome &want,
                  const std::string &what)
{
    ASSERT_EQ(got.runSets.size(), want.runSets.size()) << what;
    for (size_t s = 0; s < want.runSets.size(); ++s) {
        ASSERT_EQ(got.runSets[s].size(), want.runSets[s].size()) << what;
        for (size_t i = 0; i < want.runSets[s].size(); ++i)
            EXPECT_EQ(got.runSets[s][i], want.runSets[s][i])
                << what << ": run set " << s << " run " << i;
    }
    EXPECT_EQ(got.simpointIpc, want.simpointIpc) << what;
    EXPECT_EQ(got.smartsIpc, want.smartsIpc) << what;
}

TEST(ParallelDeterminism, IntervalEstimatesBitIdenticalAcrossThreadCounts)
{
    // simulateIntervals fans its runs out over the pool from copies of
    // one warmed state: every run must equal simulate() from scratch,
    // and every estimate the one-thread estimate.
    const IntervalCase c;
    const IntervalOutcome want = c.reference();
    for (size_t threads : kThreadCounts) {
        PoolGuard guard(threads);
        expectSameOutcome(c.run(), want,
                          "threads=" + std::to_string(threads));
    }
}

TEST(ParallelDeterminism, NestedIntervalEstimatesMatchTopLevel)
{
    // A batch of estimates fans out over the pool, so each estimate
    // runs inside a pool iteration: it sees concurrency 1 and runs its
    // intervals inline, with the same results.
    const IntervalCase c;
    const IntervalOutcome want = c.reference();
    for (size_t threads : kThreadCounts) {
        PoolGuard guard(threads);
        std::vector<IntervalOutcome> got(4);
        std::vector<size_t> seen(got.size());
        ThreadPool::global().parallelFor(0, got.size(), [&](size_t i) {
            seen[i] = ThreadPool::global().concurrency();
            got[i] = c.run();
        });
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(seen[i], 1u) << "threads=" << threads;
            expectSameOutcome(got[i], want,
                              "threads=" + std::to_string(threads) +
                                  " caller " + std::to_string(i));
        }
    }
}

TEST(ParallelStress, ConcurrentOverlappingBatchesShareTheCache)
{
    // Four threads hammer simulateBatch with overlapping index sets
    // while the global pool also runs 8 workers: every result must
    // match a serially computed reference, and the cache must hold
    // exactly the distinct indices.
    PoolGuard guard(8);

    std::vector<std::vector<uint64_t>> sets(4);
    std::set<uint64_t> unique;
    {
        Rng rng(0xca11);
        study::StudyContext probe(study::StudyKind::MemorySystem,
                                  "twolf", 4096);
        for (auto &set : sets) {
            for (int i = 0; i < 20; ++i) {
                // Small window so sets overlap heavily.
                const uint64_t idx = rng.below(60);
                set.push_back(idx);
                unique.insert(idx);
            }
        }
    }

    study::StudyContext ctx(study::StudyKind::MemorySystem, "twolf",
                            4096);
    std::vector<std::vector<double>> got(sets.size());
    std::vector<std::thread> threads;
    for (size_t t = 0; t < sets.size(); ++t) {
        threads.emplace_back([&, t] {
            // Two rounds each: the second round is all cache hits.
            got[t] = ctx.simulateBatch(sets[t]);
            const auto again = ctx.simulateBatch(sets[t]);
            EXPECT_EQ(again, got[t]);
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(ctx.simulationsRun(), unique.size());

    study::StudyContext ref(study::StudyKind::MemorySystem, "twolf",
                            4096);
    for (size_t t = 0; t < sets.size(); ++t) {
        ASSERT_EQ(got[t].size(), sets[t].size());
        for (size_t i = 0; i < sets[t].size(); ++i)
            EXPECT_EQ(got[t][i], ref.simulateIpc(sets[t][i]))
                << "set " << t << " index " << i;
    }
}

} // namespace
} // namespace dse
