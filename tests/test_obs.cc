/**
 * @file
 * dse::obs observability tests: registry/naming semantics, histogram
 * bucketing, per-thread shard merging under the pool, trace JSON
 * emission, and — the property the whole layer is designed around —
 * proof that enabling metrics and tracing leaves study results
 * bit-for-bit identical to the instrumentation-free run (and to the
 * golden pins).
 *
 * Suites are named Obs* so the obs-tsan / obs-asan presets (and the
 * main tsan preset's filter) can select exactly this file; the binary
 * carries the `obs` ctest label.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ml/cross_validation.hh"
#include "ml/explorer.hh"
#include "study/harness.hh"
#include "util/fault.hh"
#include "util/metrics.hh"
#include "util/thread_pool.hh"
#include "util/trace.hh"

namespace dse {
namespace {

std::string
tmpPath(const std::string &name)
{
    std::string path = "/tmp/dse_obs_" + name;
    std::remove(path.c_str());
    return path;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

/** Every test leaves collection in the armed state it found nothing
 *  in: metrics on for the test body, off afterwards, no tracing. */
class ObsBase : public ::testing::Test
{
  protected:
    void SetUp() override { obs::setMetricsEnabled(true); }
    void TearDown() override
    {
        obs::TraceCollector::global().stop();
        obs::TraceCollector::global().clear();
        obs::setMetricsEnabled(false);
    }
};

using ObsRegistry = ObsBase;
using ObsHistogram = ObsBase;
using ObsSharding = ObsBase;
using ObsDeterminism = ObsBase;
using ObsTrace = ObsBase;
using ObsNames = ObsBase;
using ObsHandles = ObsBase;

// ---------------------------------------------------------------------
// Registry semantics.
// ---------------------------------------------------------------------

TEST_F(ObsRegistry, RejectsInvalidNames)
{
    obs::MetricsRegistry r;
    EXPECT_THROW(r.counter(""), std::invalid_argument);
    EXPECT_THROW(r.counter("Sim.executed"), std::invalid_argument);
    EXPECT_THROW(r.counter("sim-executed"), std::invalid_argument);
    EXPECT_THROW(r.counter("sim executed"), std::invalid_argument);
    EXPECT_THROW(r.gauge("pool/threads"), std::invalid_argument);
    EXPECT_THROW(r.histogram("wall:ns"), std::invalid_argument);
    EXPECT_NO_THROW(r.counter("sim.executed_2"));

    EXPECT_TRUE(obs::MetricsRegistry::validName("a.b_c.0"));
    EXPECT_FALSE(obs::MetricsRegistry::validName("A"));
    EXPECT_FALSE(obs::MetricsRegistry::validName(""));
}

TEST_F(ObsRegistry, SameNameSameKindIsSameSeries)
{
    obs::MetricsRegistry r;
    const auto a = r.counter("dup.count");
    const auto b = r.counter("dup.count");
    EXPECT_EQ(a.idx, b.idx);
    r.add(a, 2);
    r.add(b, 3);
    EXPECT_EQ(r.snapshot().counter("dup.count"), 5u);
}

TEST_F(ObsRegistry, SameNameDifferentKindThrows)
{
    obs::MetricsRegistry r;
    r.counter("x.y");
    EXPECT_THROW(r.gauge("x.y"), std::invalid_argument);
    EXPECT_THROW(r.histogram("x.y"), std::invalid_argument);
    r.histogram("h.y");
    EXPECT_THROW(r.counter("h.y"), std::invalid_argument);
}

TEST_F(ObsRegistry, CapacityIsEnforced)
{
    obs::MetricsRegistry r;
    for (size_t i = 0; i < obs::kMaxCounters; ++i)
        r.counter("c." + std::to_string(i));
    EXPECT_THROW(r.counter("c.overflow"), std::length_error);
}

TEST_F(ObsRegistry, ResetZeroesValuesButKeepsNames)
{
    obs::MetricsRegistry r;
    const auto c = r.counter("reset.count");
    const auto g = r.gauge("reset.gauge");
    const auto h = r.histogram("reset.hist");
    r.add(c, 7);
    r.setGauge(g, -3);
    r.observe(h, 100);
    r.reset();
    const auto snap = r.snapshot();
    EXPECT_EQ(snap.counter("reset.count"), 0u);
    EXPECT_EQ(snap.gauge("reset.gauge"), 0);
    ASSERT_NE(snap.histogram("reset.hist"), nullptr);
    EXPECT_EQ(snap.histogram("reset.hist")->count, 0u);
    EXPECT_EQ(snap.histogram("reset.hist")->min, 0u);
}

TEST_F(ObsRegistry, RuntimeDisabledProbesAreDropped)
{
    obs::MetricsRegistry r;
    const auto c = r.counter("off.count");
    obs::setMetricsEnabled(false);
    r.add(c, 41);
    EXPECT_EQ(r.snapshot().counter("off.count"), 0u);
    obs::setMetricsEnabled(true);
    r.add(c, 41);
    EXPECT_EQ(r.snapshot().counter("off.count"), 41u);
}

TEST_F(ObsRegistry, UnregisteredNamesReadAsAbsent)
{
    obs::MetricsRegistry r;
    const auto snap = r.snapshot();
    EXPECT_EQ(snap.counter("never.registered"), 0u);
    EXPECT_EQ(snap.gauge("never.registered"), 0);
    EXPECT_EQ(snap.histogram("never.registered"), nullptr);
}

// ---------------------------------------------------------------------
// Histogram semantics.
// ---------------------------------------------------------------------

TEST_F(ObsHistogram, BucketsByBitWidth)
{
    obs::MetricsRegistry r;
    const auto h = r.histogram("bw.hist");
    const std::vector<std::pair<uint64_t, size_t>> cases = {
        {0, 0},  {1, 1},    {2, 2},    {3, 2},
        {4, 3},  {7, 3},    {8, 4},    {1023, 10},
        {1024, 11}, {UINT64_MAX, obs::kHistogramBuckets - 1},
    };
    for (const auto &[value, bucket] : cases)
        r.observe(h, value);
    const auto snap = r.snapshot();
    const auto *hs = snap.histogram("bw.hist");
    ASSERT_NE(hs, nullptr);
    EXPECT_EQ(hs->count, cases.size());
    EXPECT_EQ(hs->min, 0u);
    EXPECT_EQ(hs->max, UINT64_MAX);
    std::array<uint64_t, obs::kHistogramBuckets> want{};
    for (const auto &[value, bucket] : cases)
        ++want[bucket];
    for (size_t b = 0; b < obs::kHistogramBuckets; ++b)
        EXPECT_EQ(hs->buckets[b], want[b]) << "bucket " << b;
}

TEST_F(ObsHistogram, BucketBoundsArePowersOfTwoMinusOne)
{
    EXPECT_EQ(obs::HistogramSnapshot::bucketBound(0), 0u);
    EXPECT_EQ(obs::HistogramSnapshot::bucketBound(1), 1u);
    EXPECT_EQ(obs::HistogramSnapshot::bucketBound(2), 3u);
    EXPECT_EQ(obs::HistogramSnapshot::bucketBound(10), 1023u);
    EXPECT_EQ(obs::HistogramSnapshot::bucketBound(
                  obs::kHistogramBuckets - 1),
              UINT64_MAX);
}

TEST_F(ObsHistogram, MeanMinMaxSum)
{
    obs::MetricsRegistry r;
    const auto h = r.histogram("mm.hist");
    for (uint64_t v : {10u, 20u, 30u})
        r.observe(h, v);
    const auto snap = r.snapshot();
    const auto *hs = snap.histogram("mm.hist");
    ASSERT_NE(hs, nullptr);
    EXPECT_EQ(hs->sum, 60u);
    EXPECT_EQ(hs->min, 10u);
    EXPECT_EQ(hs->max, 30u);
    EXPECT_DOUBLE_EQ(hs->mean(), 20.0);
}

// ---------------------------------------------------------------------
// Per-thread sharding: concurrent accumulation merges exactly.
// ---------------------------------------------------------------------

TEST_F(ObsSharding, SnapshotMergesShardsAtAnyThreadCount)
{
    constexpr size_t kN = 20000;
    for (const size_t threads : {1u, 2u, 8u}) {
        util::ThreadPool::resetGlobal(threads);
        obs::MetricsRegistry r;
        const auto c = r.counter("merge.count");
        const auto h = r.histogram("merge.hist");
        util::ThreadPool::global().parallelFor(0, kN, [&](size_t i) {
            r.add(c);
            r.observe(h, static_cast<uint64_t>(i));
        });
        const auto snap = r.snapshot();
        EXPECT_EQ(snap.counter("merge.count"), kN) << threads;
        const auto *hs = snap.histogram("merge.hist");
        ASSERT_NE(hs, nullptr);
        EXPECT_EQ(hs->count, kN) << threads;
        EXPECT_EQ(hs->sum, kN * (kN - 1) / 2) << threads;
        EXPECT_EQ(hs->min, 0u) << threads;
        EXPECT_EQ(hs->max, kN - 1) << threads;
        uint64_t bucket_total = 0;
        for (const uint64_t b : hs->buckets)
            bucket_total += b;
        EXPECT_EQ(bucket_total, kN) << threads;
    }
    util::ThreadPool::resetGlobal();
}

TEST_F(ObsSharding, SnapshotIsReadableWhileWritersRun)
{
    // A mid-flight snapshot must be race-free (the tsan preset runs
    // this) and see between 0 and kN increments.
    constexpr size_t kN = 20000;
    util::ThreadPool::resetGlobal(8);
    obs::MetricsRegistry r;
    const auto c = r.counter("live.count");
    util::ThreadPool::global().parallelFor(0, kN, [&](size_t i) {
        r.add(c);
        if (i % 512 == 0) {
            const uint64_t seen = r.snapshot().counter("live.count");
            EXPECT_LE(seen, kN);
        }
    });
    EXPECT_EQ(r.snapshot().counter("live.count"), kN);
    util::ThreadPool::resetGlobal();
}

// ---------------------------------------------------------------------
// Handles and owned counters: one series per name, one cell per count.
// ---------------------------------------------------------------------

TEST_F(ObsHandles, HandleAndRegistryLookupShareOneSeries)
{
    auto &global = obs::MetricsRegistry::global();
    const obs::Counter counter("handle.count");
    const obs::Histogram hist("handle.hist");
    global.reset();
    counter.add(2);
    global.add(global.counter("handle.count"), 3);
    obs::Counter("handle.count").add(4);
    hist.observe(10);
    global.observe(global.histogram("handle.hist"), 30);
    const auto snap = global.snapshot();
    EXPECT_EQ(snap.counter("handle.count"), 9u);
    const auto *hs = snap.histogram("handle.hist");
    ASSERT_NE(hs, nullptr);
    EXPECT_EQ(hs->count, 2u);
    EXPECT_EQ(hs->sum, 40u);
    EXPECT_THROW(obs::Counter("Handle.count"), std::invalid_argument);
    EXPECT_THROW(obs::Histogram("handle.count"), std::invalid_argument);
}

TEST_F(ObsHandles, OwnedCounterCountsWhileMetricsAreOff)
{
    auto &global = obs::MetricsRegistry::global();
    obs::OwnedCounter owned{obs::Counter("owned.off")};
    global.reset();
    obs::setMetricsEnabled(false);
    owned.add(3);
    EXPECT_EQ(owned.value(), 3u);
    EXPECT_EQ(global.snapshot().counter("owned.off"), 0u);
    obs::setMetricsEnabled(true);
    owned.add(4);
    EXPECT_EQ(owned.value(), 7u);
    EXPECT_EQ(global.snapshot().counter("owned.off"), 4u);
}

TEST_F(ObsHandles, OwnedCounterTotalsAreExactAcrossThreads)
{
    constexpr size_t kThreads = 8;
    constexpr uint64_t kPerThread = 20000;
    auto &global = obs::MetricsRegistry::global();
    obs::OwnedCounter owned{obs::Counter("owned.threads")};
    global.reset();
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            while (!go.load())
                std::this_thread::yield();
            for (uint64_t i = 0; i < kPerThread; ++i)
                owned.add();
        });
    }
    go.store(true);
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(owned.value(), kThreads * kPerThread);
    EXPECT_EQ(global.snapshot().counter("owned.threads"),
              kThreads * kPerThread);
}

// ---------------------------------------------------------------------
// Determinism: instrumentation must not perturb study results.
// ---------------------------------------------------------------------

TEST_F(ObsDeterminism, MetricsAndTracingLeaveResultsBitIdentical)
{
    // 12 distinct indices (>= the default fold count so the ensemble
    // trains) plus 2 repeats to exercise the memo-hit accounting.
    const std::vector<uint64_t> points = {0,    100,  512,  1024, 2048,
                                          3000, 4096, 5000, 6000, 7777,
                                          9000, 12000, 100,  1024};
    constexpr uint64_t kDistinct = 12;

    // Baseline: instrumentation compiled in but disarmed.
    obs::setMetricsEnabled(false);
    std::vector<double> base_ipc;
    ml::ErrorEstimate base_estimate;
    std::vector<double> base_pred;
    {
        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                8192);
        base_ipc = ctx.simulateBatch(points);
        ml::DataSet data;
        for (size_t i = 0; i < points.size(); ++i) {
            data.add(ctx.space().encodeIndex(points[i]), base_ipc[i]);
        }
        ml::TrainOptions train;
        train.maxEpochs = 200;
        const auto model = ml::trainEnsemble(data, train);
        base_estimate = model.estimate();
        base_pred = model.predictIndices(ctx.space(), points);
    }

    // Same run with metrics armed, tracing armed, and a journal
    // attached (covering the journal-append spans).
    obs::setMetricsEnabled(true);
    obs::MetricsRegistry::global().reset();
    const std::string trace_path = tmpPath("determinism_trace.json");
    obs::TraceCollector::global().start(trace_path);
    {
        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                8192, tmpPath("determinism.journal"));
        const auto ipc = ctx.simulateBatch(points);
        EXPECT_EQ(ipc, base_ipc);  // bit-identical, no tolerance

        // Golden pin (tests/test_golden.cc): instrumentation must not
        // drift the simulator's arithmetic.
        EXPECT_NEAR(ctx.simulateIpc(100), 0.29359902515948677, 1e-9);

        ml::DataSet data;
        for (size_t i = 0; i < points.size(); ++i)
            data.add(ctx.space().encodeIndex(points[i]), ipc[i]);
        ml::TrainOptions train;
        train.maxEpochs = 200;
        const auto model = ml::trainEnsemble(data, train);
        EXPECT_EQ(model.estimate().meanPct, base_estimate.meanPct);
        EXPECT_EQ(model.estimate().sdPct, base_estimate.sdPct);
        EXPECT_EQ(model.predictIndices(ctx.space(), points), base_pred);

        // The snapshot must agree with the engine's own accounting.
        const auto snap = obs::MetricsRegistry::global().snapshot();
        EXPECT_EQ(snap.counter("sim.executed"),
                  ctx.simulationsExecuted());
        EXPECT_EQ(snap.counter("sim.memo_hits") +
                      snap.counter("sim.executed"),
                  snap.counter("sim.requests"));
        // The batch executes each distinct index once, reads every
        // entry back from the memo, and the golden pin re-reads index
        // 100 — so each counter is fully determined.
        EXPECT_EQ(snap.counter("sim.executed"), kDistinct);
        EXPECT_EQ(snap.counter("sim.requests"),
                  kDistinct + points.size() + 1);
        EXPECT_EQ(snap.counter("sim.memo_hits"), points.size() + 1);
        EXPECT_EQ(snap.counter("journal.appends"), kDistinct);
        EXPECT_EQ(snap.counter("journal.fsyncs"), kDistinct);
        EXPECT_GT(snap.counter("train.epochs"), 0u);
        const auto *wall = snap.histogram("sim.wall_ns");
        ASSERT_NE(wall, nullptr);
        EXPECT_EQ(wall->count, kDistinct);
        EXPECT_GT(wall->sum, 0u);
    }
    obs::TraceCollector::global().stop();
    EXPECT_GT(obs::TraceCollector::global().eventCount(), 0u);
    EXPECT_TRUE(obs::TraceCollector::global().writeTo(trace_path));
    EXPECT_FALSE(readFile(trace_path).empty());
}

TEST_F(ObsDeterminism, JournalReplayCountsSurviveRestart)
{
    const std::string path = tmpPath("replay_metrics.journal");
    obs::MetricsRegistry::global().reset();
    const std::vector<uint64_t> points = {1, 2, 3};
    {
        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                4096, path);
        ctx.simulateBatch(points);
    }
    {
        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                4096, path);
        EXPECT_EQ(ctx.journalStats().replayed, points.size());
        EXPECT_EQ(ctx.simulationsExecuted(), 0u);
    }
    const auto snap = obs::MetricsRegistry::global().snapshot();
    EXPECT_EQ(snap.counter("journal.replayed"), points.size());
    EXPECT_EQ(snap.counter("journal.rejected"), 0u);
    EXPECT_EQ(snap.counter("journal.torn_tails"), 0u);
}

TEST_F(ObsDeterminism, WarmStartMemoCountsBuildsAndHitsPerStructure)
{
    // Every warm run looks up each structure once; a structure builds
    // once per distinct configuration of it, even when the first
    // requests race on the pool.
    obs::MetricsRegistry::global().reset();
    study::StudyContext ctx(study::StudyKind::Processor, "gzip", 4096);
    std::vector<uint64_t> points;
    for (uint64_t k = 1; k <= 12; ++k)
        points.push_back((k * 0x9e3779b97f4a7c15ull >> 17) %
                         (ctx.space().size() / 2));
    std::set<int> predictors, btbs, l1is;
    for (uint64_t idx : points) {
        const auto cfg = ctx.config(idx);
        predictors.insert(cfg.bpEntries);
        btbs.insert(cfg.btbSets);
        l1is.insert(cfg.l1i.sizeKB);
    }
    const std::set<uint64_t> distinct(points.begin(), points.end());
    ctx.simulateBatch(points);
    // One estimate, after the calibration's detailed run and estimate
    // of the space's middle point (not among the points above).
    const uint64_t middle = ctx.space().size() / 2;
    ctx.simulateSimPointIpc(points.front());
    const auto mid = ctx.config(middle);
    predictors.insert(mid.bpEntries);
    btbs.insert(mid.btbSets);
    l1is.insert(mid.l1i.sizeKB);
    const uint64_t warm_runs = distinct.size() + 3;
    ASSERT_GT(predictors.size(), 1u);  // the keys must tell them apart

    const auto snap = obs::MetricsRegistry::global().snapshot();
    const auto expect = [&](const std::string &structure, size_t keys) {
        const uint64_t builds =
            snap.counter("sim.warm_builds." + structure);
        EXPECT_EQ(builds, keys) << structure;
        EXPECT_EQ(builds + snap.counter("sim.warm_hits." + structure),
                  warm_runs)
            << structure;
    };
    expect("predictor", predictors.size());
    expect("btb", btbs.size());
    expect("l1i", l1is.size());
}

// ---------------------------------------------------------------------
// Trace emission.
// ---------------------------------------------------------------------

/** Minimal structural check of the chrome://tracing JSON: find every
 *  "name" and "ph" field of the traceEvents array without a JSON
 *  library (the values this writer emits never contain escapes). */
std::vector<std::string>
fieldValues(const std::string &json, const std::string &key)
{
    std::vector<std::string> out;
    const std::string needle = "\"" + key + "\":\"";
    for (size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1)) {
        const size_t start = at + needle.size();
        const size_t end = json.find('"', start);
        if (end == std::string::npos)
            break;
        out.push_back(json.substr(start, end - start));
    }
    return out;
}

TEST_F(ObsTrace, EmitsParseableChromeTracingJson)
{
    obs::MetricsRegistry::global().reset();
    const std::string path = tmpPath("trace.json");
    obs::TraceCollector::global().start(path);
    {
        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                4096);
        ctx.simulateBatch({0, 1, 2});
    }
    obs::TraceCollector::global().stop();
    ASSERT_TRUE(obs::TraceCollector::global().writeTo(path));

    const std::string json = readFile(path);
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.substr(json.find_last_not_of(" \n"), 1), "}");
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);

    const auto names = fieldValues(json, "name");
    ASSERT_EQ(names.size(), 3u);
    for (const auto &n : names)
        EXPECT_EQ(n, "sim");
    for (const auto &ph : fieldValues(json, "ph"))
        EXPECT_EQ(ph, "X");
    EXPECT_NE(json.find("\"ts\":"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST_F(ObsTrace, DisarmedScopesRecordNothing)
{
    obs::TraceCollector::global().clear();
    {
        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                4096);
        ctx.simulateIpc(0);
    }
    EXPECT_EQ(obs::TraceCollector::global().eventCount(), 0u);
}

// ---------------------------------------------------------------------
// Naming discipline over everything the engine registers.
// ---------------------------------------------------------------------

TEST_F(ObsNames, EveryRegisteredNameIsValidAndUnique)
{
    // Touch every instrumented subsystem so all built-in metrics are
    // registered: sim + journal (StudyContext), train + explore
    // (Explorer over a synthetic simulator), faults, and the pool.
    {
        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                4096, tmpPath("names.journal"));
        ctx.simulateBatch({0, 1});
        ctx.simulateSimPointIpc(0);

        ml::ExplorerOptions eopts;
        eopts.batchSize = 12;  // >= the default fold count
        eopts.maxSimulations = 24;
        eopts.activeLearning = true;
        eopts.candidatePool = 32;
        eopts.train.maxEpochs = 50;
        ml::Explorer explorer(
            ctx.space(),
            [](uint64_t i) { return 0.5 + 1e-6 * double(i); }, eopts);
        explorer.run();
        explorer.predictIndices({0, 1, 2});
    }
    util::FaultInjector::global().configure("sim:0:1");
    util::FaultInjector::global().reset();
    util::ThreadPool::global();

    const auto snap = obs::MetricsRegistry::global().snapshot();
    EXPECT_GE(snap.counters.size(), 18u);
    EXPECT_GE(snap.histograms.size(), 7u);

    std::set<std::string> seen;
    const auto check = [&](const std::string &name) {
        EXPECT_TRUE(obs::MetricsRegistry::validName(name))
            << "invalid metric name: " << name;
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate metric name: " << name;
    };
    for (const auto &[name, value] : snap.counters)
        check(name);
    for (const auto &[name, value] : snap.gauges)
        check(name);
    for (const auto &h : snap.histograms)
        check(h.name);
    EXPECT_TRUE(seen.count("sim.executed"));
    EXPECT_TRUE(seen.count("train.epochs"));
    EXPECT_TRUE(seen.count("explore.rounds"));
    EXPECT_TRUE(seen.count("journal.appends"));
    EXPECT_TRUE(seen.count("faults.injected.sim"));
    EXPECT_TRUE(seen.count("pool.threads"));
}

} // namespace
} // namespace dse
