/**
 * @file
 * Fault-injection and recovery tests: every failure-containment path
 * in the study pipeline is exercised deterministically — journal
 * kill-and-resume replay, torn tails and corrupt records, fold
 * retry and graceful ensemble degradation, torn/corrupt model files,
 * and exception propagation out of the thread pool. The journal and
 * model-file byte pins (DESIGN.md "Byte formats") live here too.
 *
 * Suites are named Faults* (the tsan preset filter matches them) and
 * the binary carries the `faults` ctest label, so `ctest -L faults`
 * (or `ctest --preset tsan -L faults`) runs exactly this file.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "fnv.hh"
#include "ml/cross_validation.hh"
#include "ml/io.hh"
#include "ml/multitask.hh"
#include "reference_ann.hh"
#include "study/harness.hh"
#include "study/journal.hh"
#include "util/bytes.hh"
#include "util/fault.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

namespace dse {
namespace {

/** Fresh scratch path under /tmp, clobbering any previous run. */
std::string
tmpPath(const std::string &name)
{
    std::string path = "/tmp/dse_faults_" + name;
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

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Base fixture: every test starts and ends with no faults armed. */
class FaultsBase : public ::testing::Test
{
  protected:
    void SetUp() override { util::FaultInjector::global().reset(); }
    void TearDown() override { util::FaultInjector::global().reset(); }
};

using FaultsInjector = FaultsBase;
using FaultsJournal = FaultsBase;
using FaultsTraining = FaultsBase;
using FaultsIo = FaultsBase;
using FaultsPool = FaultsBase;

// ---------------------------------------------------------------------
// FaultInjector semantics.
// ---------------------------------------------------------------------

TEST_F(FaultsInjector, RejectsMalformedSpecs)
{
    util::FaultInjector fi;
    EXPECT_THROW(fi.configure("nonsense"), std::invalid_argument);
    EXPECT_THROW(fi.configure("sim:notanumber:1"),
                 std::invalid_argument);
    EXPECT_THROW(fi.configure("sim:2:1"), std::invalid_argument);
    EXPECT_THROW(fi.configure("sim:-0.5:1"), std::invalid_argument);
    EXPECT_THROW(fi.configure("sim:0.5:xyz"), std::invalid_argument);
    EXPECT_THROW(fi.configure(":0.5:1"), std::invalid_argument);
    EXPECT_THROW(fi.configure("Sim:1:1"), std::invalid_argument);
    // A site no probe names would never fire: refused, not ignored.
    EXPECT_THROW(fi.configure("simm:1:1"), std::invalid_argument);
    EXPECT_NO_THROW(fi.configure(""));
    EXPECT_NO_THROW(fi.configure("sim:0.5:1,fold:1:2"));
}

TEST_F(FaultsInjector, DecisionsAreDeterministicPerKey)
{
    util::FaultInjector a, b;
    a.configure("fold:0.3:42");
    b.configure("fold:0.3:42");
    size_t fired = 0;
    for (uint64_t key = 0; key < 1000; ++key) {
        const bool fa = a.shouldFail("fold", key);
        EXPECT_EQ(fa, b.shouldFail("fold", key)) << key;
        fired += fa;
    }
    // ~30% of keys fire; well away from 0% and 100%.
    EXPECT_GT(fired, 200u);
    EXPECT_LT(fired, 400u);
    EXPECT_EQ(a.injected("fold"), fired);
    EXPECT_EQ(a.injected("unknown-site"), 0u);
}

TEST_F(FaultsInjector, RateZeroNeverFiresRateOneAlwaysFires)
{
    util::FaultInjector fi;
    fi.configure("sim:0:1,save:1:1");
    for (uint64_t key = 0; key < 200; ++key) {
        EXPECT_FALSE(fi.shouldFail("sim", key));
        EXPECT_TRUE(fi.shouldFail("save", key));
        EXPECT_FALSE(fi.shouldFail("journal", key));  // unconfigured
    }
    fi.reset();
    EXPECT_FALSE(fi.shouldFail("save", 0));
    EXPECT_FALSE(fi.active());
}

// ---------------------------------------------------------------------
// Crash-safe simulation journal.
// ---------------------------------------------------------------------

constexpr size_t kTraceLen = 4096;

std::vector<uint64_t>
sampleIndices()
{
    return {0, 7, 42, 123, 999, 4242, 5000, 8008, 12345, 15000, 23039};
}

TEST_F(FaultsJournal, KillAndResumeReplaysBitIdentical)
{
    const std::string path = tmpPath("resume.journal");
    const auto indices = sampleIndices();

    // "Campaign" one: simulate N points, then die (scope exit).
    std::vector<sim::SimResult> first;
    {
        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                kTraceLen, path);
        ASSERT_TRUE(ctx.journalActive());
        EXPECT_EQ(ctx.journalStats().replayed, 0u);
        for (uint64_t idx : indices)
            first.push_back(ctx.simulateFull(idx));
        EXPECT_EQ(ctx.simulationsExecuted(), indices.size());
    }

    // Resumed campaign: every record replays, zero re-simulations,
    // and every field of every result is bit-identical.
    study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                            kTraceLen, path);
    EXPECT_EQ(ctx.journalStats().replayed, indices.size());
    EXPECT_EQ(ctx.journalStats().rejected, 0u);
    EXPECT_FALSE(ctx.journalStats().tornTail);

    const auto ipc = ctx.simulateBatch(indices);
    EXPECT_EQ(ctx.simulationsExecuted(), 0u);
    for (size_t i = 0; i < indices.size(); ++i) {
        const auto &r = ctx.simulateFull(indices[i]);
        const auto &f = first[i];
        EXPECT_EQ(ipc[i], f.ipc);
        EXPECT_EQ(r.cycles, f.cycles);
        EXPECT_EQ(r.instructions, f.instructions);
        EXPECT_EQ(r.ipc, f.ipc);
        EXPECT_EQ(r.l1dMissRate, f.l1dMissRate);
        EXPECT_EQ(r.l2MissRate, f.l2MissRate);
        EXPECT_EQ(r.l1iMissRate, f.l1iMissRate);
        EXPECT_EQ(r.branchMispredictRate, f.branchMispredictRate);
        EXPECT_EQ(r.l1dAccesses, f.l1dAccesses);
        EXPECT_EQ(r.l1dMisses, f.l1dMisses);
        EXPECT_EQ(r.l2Accesses, f.l2Accesses);
        EXPECT_EQ(r.l2Misses, f.l2Misses);
        EXPECT_EQ(r.branches, f.branches);
        EXPECT_EQ(r.branchMispredicts, f.branchMispredicts);
    }
    EXPECT_EQ(ctx.simulationsExecuted(), 0u);
    EXPECT_EQ(ctx.simulationsRun(), indices.size());
}

TEST_F(FaultsJournal, ToleratesTornTailAndRepairsIt)
{
    const std::string path = tmpPath("torn.journal");
    const std::vector<uint64_t> indices = {1, 2, 3, 4, 5};
    double last_ipc = 0.0;
    {
        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                kTraceLen, path);
        for (uint64_t idx : indices)
            last_ipc = ctx.simulateFull(idx).ipc;
    }

    // Tear the tail: drop the last 10 bytes, as a crash mid-append
    // would.
    const std::string bytes = readFile(path);
    ASSERT_GT(bytes.size(), 10u);
    writeFile(path, bytes.substr(0, bytes.size() - 10));

    {
        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                kTraceLen, path);
        EXPECT_EQ(ctx.journalStats().replayed, indices.size() - 1);
        EXPECT_TRUE(ctx.journalStats().tornTail);
        // The torn point re-simulates (once) and re-journals.
        EXPECT_EQ(ctx.simulateFull(5).ipc, last_ipc);
        EXPECT_EQ(ctx.simulationsExecuted(), 1u);
    }

    // The repaired journal is whole again.
    study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                            kTraceLen, path);
    EXPECT_EQ(ctx.journalStats().replayed, indices.size());
    EXPECT_FALSE(ctx.journalStats().tornTail);
}

TEST_F(FaultsJournal, RejectsChecksumCorruptRecordButKeepsTheRest)
{
    const std::string path = tmpPath("corrupt.journal");
    const std::vector<uint64_t> indices = {10, 20, 30, 40};
    std::vector<double> ipc;
    {
        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                kTraceLen, path);
        for (uint64_t idx : indices)
            ipc.push_back(ctx.simulateFull(idx).ipc);
    }

    // Flip one byte inside the second record's payload.
    std::string bytes = readFile(path);
    const size_t header =
        bytes.size() - indices.size() * study::SimJournal::kRecordSize;
    bytes[header + study::SimJournal::kRecordSize + 20] ^= 0x01;
    writeFile(path, bytes);

    study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                            kTraceLen, path);
    EXPECT_EQ(ctx.journalStats().replayed, indices.size() - 1);
    EXPECT_EQ(ctx.journalStats().rejected, 1u);
    // Records after the corrupt one still replayed (fixed-size
    // resync), and the rejected point re-simulates to the same value.
    EXPECT_EQ(ctx.simulateFull(30).ipc, ipc[2]);
    EXPECT_EQ(ctx.simulationsExecuted(), 0u);
    EXPECT_EQ(ctx.simulateFull(20).ipc, ipc[1]);
    EXPECT_EQ(ctx.simulationsExecuted(), 1u);
}

TEST_F(FaultsJournal, RefusesForeignAndMismatchedFiles)
{
    const std::string garbage = tmpPath("garbage.journal");
    writeFile(garbage, "this is not a journal, not even close");
    EXPECT_THROW(study::StudyContext(study::StudyKind::MemorySystem,
                                     "gzip", kTraceLen, garbage),
                 std::runtime_error);

    const std::string path = tmpPath("identity.journal");
    {
        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                kTraceLen, path);
    }
    // Different app, study, or trace length must refuse to replay.
    EXPECT_THROW(study::StudyContext(study::StudyKind::MemorySystem,
                                     "mcf", kTraceLen, path),
                 std::runtime_error);
    EXPECT_THROW(study::StudyContext(study::StudyKind::Processor, "gzip",
                                     kTraceLen, path),
                 std::runtime_error);
    EXPECT_THROW(study::StudyContext(study::StudyKind::MemorySystem,
                                     "gzip", kTraceLen * 2, path),
                 std::runtime_error);
}

TEST_F(FaultsJournal, SecondWriterIsRefused)
{
    // Two journals on one path would append over each other's
    // records, so a second one is refused while the first is open.
    const std::string path = tmpPath("one_writer.journal");
    const auto indices = sampleIndices();
    {
        study::StudyContext a(study::StudyKind::MemorySystem, "gzip",
                              kTraceLen, path);
        a.simulateBatch(indices);
        try {
            study::StudyContext b(study::StudyKind::MemorySystem, "gzip",
                                  kTraceLen, path);
            FAIL() << "a second journal on one path must not open";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("in use"),
                      std::string::npos)
                << e.what();
        }
    }

    // The lock went with A's descriptor: C opens the file and replays
    // every record A wrote, so A's points simulate nothing.
    study::StudyContext c(study::StudyKind::MemorySystem, "gzip",
                          kTraceLen, path);
    EXPECT_EQ(c.journalStats().replayed, indices.size());
    c.simulateBatch(indices);
    EXPECT_EQ(c.simulationsExecuted(), 0u);
}

/** Open descriptors of this process. */
size_t
openDescriptors()
{
    size_t n = 0;
    for ([[maybe_unused]] const auto &entry :
         std::filesystem::directory_iterator("/proc/self/fd"))
        ++n;
    return n;
}

TEST_F(FaultsJournal, FailedHeaderWriteClosesItsDescriptor)
{
    // /dev/full opens, reads as empty (so it looks like a fresh
    // journal) and fails every write with ENOSPC.
    if (::access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "no writable /dev/full";
    const size_t before = openDescriptors();
    for (int attempt = 0; attempt < 3; ++attempt) {
        try {
            study::SimJournal journal("/dev/full",
                                      study::StudyKind::MemorySystem,
                                      "gzip", kTraceLen);
            FAIL() << "a journal on /dev/full must not open";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("/dev/full"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(openDescriptors(), before);
}

TEST_F(FaultsJournal, InjectedTornAppendIsRecoveredOnResume)
{
    const std::string path = tmpPath("injected_torn.journal");
    util::FaultInjector::global().configure("journal:1:1");
    {
        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                kTraceLen, path);
        EXPECT_THROW(ctx.simulateFull(9), std::runtime_error);
    }
    util::FaultInjector::global().reset();

    // The half-written record reads as a torn tail; the resumed
    // campaign truncates it and re-simulates cleanly.
    study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                            kTraceLen, path);
    EXPECT_EQ(ctx.journalStats().replayed, 0u);
    EXPECT_TRUE(ctx.journalStats().tornTail);
    EXPECT_GT(ctx.simulateFull(9).ipc, 0.0);
    EXPECT_EQ(ctx.simulationsExecuted(), 1u);
}

TEST_F(FaultsJournal, ByteFormatIsPinned)
{
    // A header and three fixed records. The pin covers every byte on
    // disk, so a journal written by this build replays in any build
    // that keeps the pin, and the reverse.
    const std::string path = tmpPath("pinned.journal");
    const auto results = testfnv::pinnedResults();
    const std::vector<uint64_t> indices = {
        7, std::numeric_limits<uint64_t>::max(), 0};
    {
        study::SimJournal journal(path, study::StudyKind::Processor, "mcf",
                                  65536);
        for (size_t i = 0; i < results.size(); ++i)
            journal.append(indices[i], results[i]);
    }
    const std::string bytes = readFile(path);
    const size_t header = 8 + 4 + 4 + 8 + 4 + 3 + 8;
    EXPECT_EQ(bytes.size(),
              header + results.size() * study::SimJournal::kRecordSize);
    EXPECT_EQ(testfnv::bytesDigest(bytes.substr(0, header)),
              "0x8605bd9f9b8c947d");
    EXPECT_EQ(testfnv::bytesDigest(bytes), "0x518282d55e28bf02");

    // Replay hands back every field bit for bit, NaN payload included.
    study::SimJournal journal(path, study::StudyKind::Processor, "mcf",
                              65536);
    std::vector<uint64_t> got_indices;
    std::vector<sim::SimResult> got;
    const auto stats =
        journal.replay([&](uint64_t index, const sim::SimResult &r) {
            got_indices.push_back(index);
            got.push_back(r);
        });
    EXPECT_EQ(stats.replayed, results.size());
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_FALSE(stats.tornTail);
    ASSERT_EQ(got.size(), results.size());
    EXPECT_EQ(got_indices, indices);
    for (size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(testfnv::resultDigest(got[i]),
                  testfnv::resultDigest(results[i]))
            << "record " << i;
}

TEST_F(FaultsJournal, InjectedSimFailurePropagatesAndRecovers)
{
    util::FaultInjector::global().configure("sim:1:1");
    study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                            kTraceLen);
    // Both the direct path and the thread-pool batch path surface the
    // failure as an exception (no std::terminate, no hang).
    EXPECT_THROW(ctx.simulateFull(5), std::runtime_error);
    EXPECT_THROW(ctx.simulateBatch({1, 2, 3, 4, 5, 6, 7, 8}),
                 std::runtime_error);
    EXPECT_EQ(ctx.simulationsExecuted(), 0u);

    util::FaultInjector::global().reset();
    EXPECT_GT(ctx.simulateFull(5).ipc, 0.0);
    EXPECT_EQ(ctx.simulationsExecuted(), 1u);
}

// ---------------------------------------------------------------------
// Training divergence, retry, and graceful degradation.
// ---------------------------------------------------------------------

ml::DataSet
smallDataSet()
{
    Rng rng(3);
    ml::DataSet data;
    for (int i = 0; i < 80; ++i) {
        const double a = rng.uniform(), b = rng.uniform();
        data.add({a, b}, 0.5 + 0.3 * a - 0.2 * b);
    }
    return data;
}

ml::TrainOptions
fastTrainOptions()
{
    ml::TrainOptions opts;
    opts.folds = 4;
    opts.maxEpochs = 200;
    opts.esInterval = 50;
    opts.patience = 3;
    return opts;
}

TEST_F(FaultsTraining, AnnFlagsNonFiniteTraining)
{
    ml::AnnParams params;
    Rng rng(1);
    ml::Ann net(2, 1, params, rng);
    EXPECT_FALSE(net.diverged());
    EXPECT_TRUE(net.finiteWeights());

    const double nan = std::numeric_limits<double>::quiet_NaN();
    ml::testref::trainStep(net, {nan, 0.5}, {0.5});
    EXPECT_TRUE(net.diverged());
}

TEST_F(FaultsTraining, InjectedDivergenceRetriesDeterministically)
{
    const auto data = smallDataSet();
    const auto opts = fastTrainOptions();

    // Find a fault seed where some but not all folds exhaust their
    // retries — the interesting degraded-but-usable regime. The
    // search is deterministic: same seeds, same outcome, every run.
    int found_seed = -1;
    for (int seed = 1; seed <= 32 && found_seed < 0; ++seed) {
        util::FaultInjector::global().configure(
            "fold:0.6:" + std::to_string(seed));
        try {
            const auto model = ml::trainEnsemble(data, opts);
            if (model.degraded())
                found_seed = seed;
        } catch (const std::runtime_error &) {
            // every fold diverged for this seed; keep looking
        }
    }
    ASSERT_GT(found_seed, 0);

    const std::string spec = "fold:0.6:" + std::to_string(found_seed);
    util::FaultInjector::global().configure(spec);
    const auto model = ml::trainEnsemble(data, opts);
    ASSERT_TRUE(model.degraded());
    ASSERT_GT(model.members(), 0u);
    ASSERT_LT(model.members(),
              static_cast<size_t>(opts.folds));
    EXPECT_EQ(model.warnings().size(),
              static_cast<size_t>(opts.folds) - model.members());
    for (const auto &w : model.warnings()) {
        EXPECT_GE(w.fold, 0);
        EXPECT_LT(w.fold, opts.folds);
        EXPECT_EQ(w.attempts, 1 + ml::kFoldRetries);
        EXPECT_FALSE(w.message.empty());
    }
    // The survivors predict finite, sane values.
    EXPECT_TRUE(std::isfinite(model.predict({0.3, 0.7})));
    EXPECT_TRUE(std::isfinite(model.estimate().meanPct));

    // Deterministic under DSE_FAULTS at any thread count: retrain at
    // 1 and 4 threads and compare everything, member weights
    // included, bit for bit.
    util::ThreadPool::resetGlobal(1);
    util::FaultInjector::global().configure(spec);
    const auto serial = ml::trainEnsemble(data, opts);
    util::ThreadPool::resetGlobal(4);
    util::FaultInjector::global().configure(spec);
    const auto parallel = ml::trainEnsemble(data, opts);
    util::ThreadPool::resetGlobal();

    ASSERT_EQ(serial.members(), model.members());
    ASSERT_EQ(parallel.members(), model.members());
    EXPECT_EQ(serial.estimate().meanPct, parallel.estimate().meanPct);
    EXPECT_EQ(serial.estimate().sdPct, parallel.estimate().sdPct);
    ASSERT_EQ(serial.warnings().size(), parallel.warnings().size());
    for (size_t i = 0; i < serial.warnings().size(); ++i)
        EXPECT_EQ(serial.warnings()[i].fold, parallel.warnings()[i].fold);
    for (size_t m = 0; m < serial.members(); ++m)
        EXPECT_EQ(serial.memberWeights(m), parallel.memberWeights(m));
}

TEST_F(FaultsTraining, DegradedEstimateIsWidened)
{
    const auto data = smallDataSet();
    const auto opts = fastTrainOptions();

    util::FaultInjector::global().reset();
    const auto healthy = ml::trainEnsemble(data, opts);
    ASSERT_FALSE(healthy.degraded());

    // Force exactly the first attempt of fold 0 to fail (keys are
    // fold*64 + attempt, so key 0 is fold 0, attempt 0): the fold
    // recovers on retry, the ensemble stays whole.
    int retry_seed = -1;
    for (int seed = 1; seed <= 64; ++seed) {
        util::FaultInjector fi;
        fi.configure("fold:0.2:" + std::to_string(seed));
        if (fi.shouldFail("fold", 0) && !fi.shouldFail("fold", 1) &&
            !fi.shouldFail("fold", 64) && !fi.shouldFail("fold", 128) &&
            !fi.shouldFail("fold", 192)) {
            retry_seed = seed;
            break;
        }
    }
    ASSERT_GT(retry_seed, 0);
    util::FaultInjector::global().configure(
        "fold:0.2:" + std::to_string(retry_seed));
    const auto retried = ml::trainEnsemble(data, opts);
    EXPECT_FALSE(retried.degraded());
    EXPECT_EQ(retried.members(), static_cast<size_t>(opts.folds));
    // Folds 1..3 never saw a fault, so their members are identical
    // to the healthy run's; fold 0 retrained from a reseeded stream.
    for (int m = 1; m < opts.folds; ++m) {
        EXPECT_EQ(retried.memberWeights(static_cast<size_t>(m)),
                  healthy.memberWeights(static_cast<size_t>(m)));
    }
    EXPECT_NE(retried.memberWeights(0), healthy.memberWeights(0));

    // All folds failing is a hard error, not a silent empty model.
    util::FaultInjector::global().configure("fold:1:7");
    EXPECT_THROW(ml::trainEnsemble(data, opts), std::runtime_error);
}

TEST_F(FaultsTraining, FaultsOnOtherSitesLeaveTrainingBitIdentical)
{
    const auto data = smallDataSet();
    const auto opts = fastTrainOptions();
    util::FaultInjector::global().reset();
    const auto base = ml::trainEnsemble(data, opts);
    util::FaultInjector::global().configure("sim:1:1,save:1:1");
    const auto probed = ml::trainEnsemble(data, opts);
    for (size_t m = 0; m < base.members(); ++m)
        EXPECT_EQ(base.memberWeights(m), probed.memberWeights(m));
}

TEST_F(FaultsTraining, RetriedFoldDigestIsPinned)
{
    // Keys are fold*64 + attempt: this spec fails fold 0's first
    // attempt only, so fold 0 retrains from its reseeded stream and
    // the ensemble stays whole.
    const std::string spec = "fold:0.2:7";
    util::FaultInjector probe;
    probe.configure(spec);
    ASSERT_TRUE(probe.shouldFail("fold", 0));
    ASSERT_FALSE(probe.shouldFail("fold", 1));

    util::FaultInjector::global().configure(spec);
    const auto model = ml::trainEnsemble(smallDataSet(), fastTrainOptions());
    EXPECT_FALSE(model.degraded());
    EXPECT_EQ(testfnv::ensembleDigest(model), "0x84780be5b01ea36e");
}

TEST_F(FaultsTraining, DroppedFoldDigestIsPinned)
{
    // This spec exhausts all four attempts of fold 2 and forces
    // retries on folds 1 and 3: three survivors, a widened estimate.
    util::FaultInjector::global().configure("fold:0.6:1");
    const auto model = ml::trainEnsemble(smallDataSet(), fastTrainOptions());
    ASSERT_EQ(model.warnings().size(), 1u);
    EXPECT_EQ(model.warnings()[0].fold, 2);
    EXPECT_EQ(testfnv::ensembleDigest(model), "0x011a8c4ce2fc5806");
}

TEST_F(FaultsTraining, MultiTaskDropsAFoldAndWidensItsEstimate)
{
    // Multi-task training runs the same fold driver, so a fold fault
    // drops a member there too. This spec exhausts all four attempts
    // of fold 0 and fires on no first attempt of folds 1..3.
    const std::string spec = "fold:0.6:60";
    const auto single = smallDataSet();
    const auto opts = fastTrainOptions();
    const size_t k = static_cast<size_t>(opts.folds);
    ml::MultiTaskDataSet two;
    two.targetNames = {"y", "z"};
    ml::MultiTaskDataSet one;
    one.targetNames = {"y"};
    for (size_t i = 0; i < single.size(); ++i) {
        two.add(single.x[i], {single.y[i], 0.2 + 0.5 * single.x[i][1]});
        one.add(single.x[i], {single.y[i]});
    }

    util::FaultInjector::global().configure(spec);
    const auto model = ml::trainMultiTaskEnsemble(two, opts);
    ASSERT_EQ(model.warnings().size(), 1u);
    EXPECT_EQ(model.warnings()[0].fold, 0);
    EXPECT_EQ(model.warnings()[0].attempts, 1 + ml::kFoldRetries);
    EXPECT_EQ(model.members(), k - 1);
    EXPECT_TRUE(std::isfinite(model.estimate().meanPct));

    // With one target the degraded multi-task ensemble is the
    // degraded trainEnsemble result, widened estimate included.
    util::FaultInjector::global().configure(spec);
    const auto multi = ml::trainMultiTaskEnsemble(one, opts);
    util::FaultInjector::global().configure(spec);
    const auto ref = ml::trainEnsemble(single, opts);
    ASSERT_EQ(multi.members(), k - 1);
    ASSERT_EQ(ref.members(), k - 1);
    EXPECT_EQ(multi.warnings()[0].fold, ref.warnings()[0].fold);
    EXPECT_EQ(multi.estimate().meanPct, ref.estimate().meanPct);
    EXPECT_EQ(multi.estimate().sdPct, ref.estimate().sdPct);

    // And that estimate is the survivors' pooled test-fold error
    // scaled by sqrt(k / survivors). Folds deal a seeded shuffle of
    // the rows round-robin; survivor m - 1 was tested on fold m.
    std::vector<size_t> order(single.size());
    std::iota(order.begin(), order.end(), 0);
    Rng rng(opts.seed);
    rng.shuffle(order);
    std::vector<double> pooled;
    for (size_t m = 1; m < k; ++m) {
        for (size_t i = m; i < order.size(); i += k) {
            const size_t row = order[i];
            pooled.push_back(percentageError(
                ref.predictMember(m - 1, single.x[row]), single.y[row]));
        }
    }
    const double widen = std::sqrt(static_cast<double>(k) /
                                   static_cast<double>(k - 1));
    EXPECT_EQ(ref.estimate().meanPct, mean(pooled) * widen);
    EXPECT_EQ(ref.estimate().sdPct, stddev(pooled) * widen);
}

// ---------------------------------------------------------------------
// Durable model I/O.
// ---------------------------------------------------------------------

ml::Ensemble
smallTrainedEnsemble()
{
    return ml::trainEnsemble(smallDataSet(), fastTrainOptions());
}

/** A two-member ensemble with fixed weights, built without training
 *  so the model-file pin depends on the file format alone. */
ml::Ensemble
fixedEnsemble()
{
    ml::AnnParams params;
    params.hiddenUnits = 3;
    Rng rng(0);
    std::vector<ml::Ann> nets;
    for (int m = 0; m < 2; ++m) {
        ml::Ann net(2, 1, params, rng);
        std::vector<double> w(net.weightCount());
        for (size_t i = 0; i < w.size(); ++i)
            w[i] = (static_cast<double>(i) - 3.5) / (m + 7.0);
        w[1] = -0.0;
        net.setWeights(w);
        nets.push_back(std::move(net));
    }
    return ml::Ensemble(std::move(nets),
                        ml::TargetScaler::fromRange(0.25, 2.5, 0.1, 0.9),
                        {3.25, 1.0 / 3.0});
}

TEST_F(FaultsIo, ModelFileBytesArePinned)
{
    const auto model = fixedEnsemble();
    const std::string path = tmpPath("pinned_model.txt");
    ml::saveEnsemble(path, model);
    const std::string bytes = readFile(path);
    EXPECT_EQ(testfnv::bytesDigest(bytes), "0xf7c7baf8e5ad169e");

    const auto restored = ml::loadEnsemble(path);
    EXPECT_EQ(testfnv::ensembleDigest(restored),
              testfnv::ensembleDigest(model));
}

TEST_F(FaultsIo, AtomicSaveRoundTripsAndLeavesNoTemp)
{
    const auto model = smallTrainedEnsemble();
    const std::string path = tmpPath("model.txt");
    ml::saveEnsemble(path, model);
    EXPECT_NE(::access(path.c_str(), F_OK), -1);
    EXPECT_EQ(::access((path + ".tmp").c_str(), F_OK), -1);

    const auto restored = ml::loadEnsemble(path);
    EXPECT_EQ(restored.members(), model.members());
    Rng rng(9);
    for (int i = 0; i < 20; ++i) {
        const std::vector<double> x{rng.uniform(), rng.uniform()};
        EXPECT_EQ(restored.predict(x), model.predict(x));
    }

    // Overwriting an existing model is just as safe.
    ml::saveEnsemble(path, model);
    EXPECT_NO_THROW(ml::loadEnsemble(path));
}

TEST_F(FaultsIo, TornWriteIsDetectedAsTruncated)
{
    const auto model = smallTrainedEnsemble();
    const std::string path = tmpPath("torn_model.txt");
    util::FaultInjector::global().configure("save:1:1");
    EXPECT_THROW(ml::saveEnsemble(path, model), std::runtime_error);
    util::FaultInjector::global().reset();

    // The injected fault left a half-written file at the final path.
    ASSERT_NE(::access(path.c_str(), F_OK), -1);
    try {
        ml::loadEnsemble(path);
        FAIL() << "torn model file must not load";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos)
            << e.what();
    }

    // A clean save over the wreckage heals it.
    ml::saveEnsemble(path, model);
    EXPECT_NO_THROW(ml::loadEnsemble(path));
}

TEST_F(FaultsIo, DistinctErrorsForTruncatedCorruptAndVersion)
{
    const auto model = smallTrainedEnsemble();
    const std::string path = tmpPath("adversarial_model.txt");
    ml::saveEnsemble(path, model);
    const std::string good = readFile(path);

    const auto load_error = [&](const std::string &bytes) {
        writeFile(path, bytes);
        try {
            ml::loadEnsemble(path);
            return std::string("(loaded)");
        } catch (const std::runtime_error &e) {
            return std::string(e.what());
        }
    };

    // Empty file.
    EXPECT_NE(load_error("").find("empty"), std::string::npos);
    // Truncated mid-weights: the checksum trailer is gone.
    EXPECT_NE(load_error(good.substr(0, good.size() / 2))
                  .find("truncated"),
              std::string::npos);
    // A single flipped byte: checksum mismatch.
    {
        std::string bad = good;
        bad[bad.size() / 2] ^= 0x04;
        EXPECT_NE(load_error(bad).find("corrupt"), std::string::npos);
    }
    // Version mismatch reads as such (stream-level: the trailer-less
    // format the stream overloads keep).
    {
        std::string bad = good.substr(0, good.find('\n'));
        bad.replace(bad.find(" 1"), 2, " 9");
        std::istringstream is(bad + "\n" +
                              good.substr(good.find('\n') + 1));
        try {
            ml::loadEnsemble(is);
            FAIL() << "wrong version must not load";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("version"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST_F(FaultsIo, AdversarialHeadersFailCleanly)
{
    const auto model = smallTrainedEnsemble();
    std::stringstream buffer;
    ml::saveEnsemble(buffer, model);
    const std::string good = buffer.str();

    const auto expect_reject = [](const std::string &bytes) {
        std::istringstream is(bytes);
        EXPECT_THROW(ml::loadEnsemble(is), std::runtime_error) << bytes;
    };

    // Huge claimed member count: rejected before any allocation.
    expect_reject("dse-ensemble 1\nmembers 4000000000\n");
    expect_reject("dse-ensemble 1\nmembers 18446744073709551615\n");
    // Implausible topology in net-meta.
    {
        std::string bad = good;
        const size_t at = bad.find("net-meta ");
        bad.replace(at, bad.find('\n', at) - at,
                    "net-meta 1000000000 1 16 1 0.4 0.5 0.01 2500");
        expect_reject(bad);
    }
    // Huge claimed weight count: rejected by the count check, not by
    // attempting an 18-exabyte read.
    {
        std::string bad = good;
        const size_t at = bad.find("\nnet 0 ");
        const size_t end = bad.find('\n', at + 1);
        bad.replace(at, end - at, "\nnet 0 18446744073709551615");
        expect_reject(bad);
    }
    // Truncated mid-weights at the stream level: clear error.
    expect_reject(good.substr(0, good.size() * 3 / 4));
}

TEST_F(FaultsIo, NegativePathsRaiseTheirOwnDocumentedErrors)
{
    const auto model = smallTrainedEnsemble();
    const std::string path = tmpPath("negative_model.txt");
    ml::saveEnsemble(path, model);
    const std::string good = readFile(path);

    const auto load_error = [&](const std::string &bytes) {
        writeFile(path, bytes);
        try {
            ml::loadEnsemble(path);
            return std::string("(loaded)");
        } catch (const std::runtime_error &e) {
            return std::string(e.what());
        }
    };

    // 1. Zero-byte file: its own error, not a parse failure.
    EXPECT_NE(load_error("").find("ensemble file is empty"),
              std::string::npos);

    // 2. A flipped digit inside the checksum trailer itself: the body
    //    is intact, but the stored hash no longer matches — reported
    //    as corruption, distinct from truncation.
    {
        const size_t tag_at = good.rfind("checksum ");
        ASSERT_NE(tag_at, std::string::npos);
        std::string bad = good;
        char &digit = bad[tag_at + 9];
        digit = digit == '0' ? '1' : '0';
        EXPECT_NE(load_error(bad).find("corrupt (checksum mismatch)"),
                  std::string::npos);
    }

    // 3. Oversized member count with a *recomputed, valid* trailer:
    //    the checksum passes, so the member-count bound itself must
    //    reject the file.
    {
        const size_t tag_at = good.rfind("checksum ");
        std::string body = good.substr(0, tag_at);
        const size_t at = body.find("members ");
        ASSERT_NE(at, std::string::npos);
        body.replace(at, body.find('\n', at) - at, "members 5000");
        char trailer[32];
        std::snprintf(trailer, sizeof(trailer), "checksum %016llx\n",
                      static_cast<unsigned long long>(
                          util::fnv1a64(body.data(), body.size())));
        EXPECT_NE(load_error(body + trailer).find("bad member count"),
                  std::string::npos);
    }

    // A clean save still loads after all that tampering.
    ml::saveEnsemble(path, model);
    EXPECT_NO_THROW(ml::loadEnsemble(path));
}

// ---------------------------------------------------------------------
// Thread-pool exception containment.
// ---------------------------------------------------------------------

TEST_F(FaultsPool, ParallelForRethrowsFirstExceptionAndStaysUsable)
{
    util::ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(0, 1000,
                         [](size_t i) {
                             if (i == 537)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);

    // The pool survives: a follow-up loop runs every iteration.
    std::atomic<size_t> count{0};
    pool.parallelFor(0, 1000, [&](size_t) { ++count; });
    EXPECT_EQ(count.load(), 1000u);

    // Inline fallback path (single-threaded pool) propagates too.
    util::ThreadPool serial(1);
    EXPECT_THROW(
        serial.parallelFor(0, 10,
                           [](size_t i) {
                               if (i == 3)
                                   throw std::runtime_error("boom");
                           }),
        std::runtime_error);
}

} // namespace
} // namespace dse
