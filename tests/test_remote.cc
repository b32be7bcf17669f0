/**
 * @file
 * dse::remote chaos suite: the dispatcher/worker pair under injected
 * crashes, hangs, and dropped connections. The headline invariants:
 *
 *  - worker failure costs latency, never correctness — every chaos
 *    scenario must produce results bit-identical to an all-local run,
 *    including the scenario where every worker is dead;
 *  - no client call blocks past its deadline (structured Timeout /
 *    Disconnected errors, wall-clock asserted);
 *  - the retry/backoff schedule and the injected-fault set are pure
 *    functions of configuration, so dispatch counters reconcile
 *    exactly with the faults injected, at any thread count.
 *
 * Suites are named Remote* and live in the dse_remote_tests binary
 * (label `remote`), so the tsan preset's filter selects them and
 * `ctest -L remote` runs exactly this subsystem.
 */

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ml/explorer.hh"
#include "remote/dispatcher.hh"
#include "remote/worker.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "study/harness.hh"
#include "util/fault.hh"
#include "util/thread_pool.hh"

namespace dse {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kTraceLen = 4096;

/** Design points spread across the memory-system space. */
std::vector<uint64_t>
sampleIndices()
{
    return {0, 7, 42, 123, 999, 4242, 5000, 8008, 12345, 15000, 23039};
}

int64_t
elapsedMs(Clock::time_point since)
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               Clock::now() - since)
        .count();
}

/** Restores the default global pool when a test scope ends. */
struct PoolGuard
{
    explicit PoolGuard(size_t threads)
    {
        util::ThreadPool::resetGlobal(threads);
    }
    ~PoolGuard() { util::ThreadPool::resetGlobal(); }
};

/** Clears global fault configuration around every test. */
class RemoteTest : public ::testing::Test
{
  protected:
    void SetUp() override { util::FaultInjector::global().reset(); }
    void TearDown() override { util::FaultInjector::global().reset(); }
};

remote::SimWorkerOptions
workerOptions(uint64_t fault_salt = 0)
{
    remote::SimWorkerOptions opts;
    opts.server.addr = "127.0.0.1";
    opts.server.port = 0;
    opts.server.workers = 2;
    opts.faultSalt = fault_salt;
    return opts;
}

remote::DispatcherOptions
dispatcherOptions(std::initializer_list<uint16_t> ports)
{
    remote::DispatcherOptions opts;
    for (uint16_t port : ports)
        opts.endpoints.push_back(remote::Endpoint{"127.0.0.1", port});
    opts.batchPoints = 4;
    opts.requestTimeoutMs = 10000;
    opts.backoffBaseMs = 2;
    opts.backoffCapMs = 20;
    return opts;
}

void
expectResultsIdentical(const sim::SimResult &r, const sim::SimResult &f,
                       uint64_t idx)
{
    EXPECT_EQ(r.cycles, f.cycles) << idx;
    EXPECT_EQ(r.instructions, f.instructions) << idx;
    EXPECT_EQ(r.ipc, f.ipc) << idx;
    EXPECT_EQ(r.l1dMissRate, f.l1dMissRate) << idx;
    EXPECT_EQ(r.l2MissRate, f.l2MissRate) << idx;
    EXPECT_EQ(r.l1iMissRate, f.l1iMissRate) << idx;
    EXPECT_EQ(r.branchMispredictRate, f.branchMispredictRate) << idx;
    EXPECT_EQ(r.l1dAccesses, f.l1dAccesses) << idx;
    EXPECT_EQ(r.l1dMisses, f.l1dMisses) << idx;
    EXPECT_EQ(r.l2Accesses, f.l2Accesses) << idx;
    EXPECT_EQ(r.l2Misses, f.l2Misses) << idx;
    EXPECT_EQ(r.l1iAccesses, f.l1iAccesses) << idx;
    EXPECT_EQ(r.l1iMisses, f.l1iMisses) << idx;
    EXPECT_EQ(r.branches, f.branches) << idx;
    EXPECT_EQ(r.branchMispredicts, f.branchMispredicts) << idx;
}

// ---------------------------------------------------------------------
// Wire protocol.
// ---------------------------------------------------------------------

TEST(RemoteProtocol, SimulateBatchRequestRoundTrip)
{
    serve::SimulateBatchRequest req;
    req.study = 1;
    req.app = "gzip";
    req.traceLength = kTraceLen;
    req.simpoint = true;
    req.indices = sampleIndices();

    serve::SimulateBatchRequest out;
    ASSERT_TRUE(serve::SimulateBatchRequest::decode(req.encode(), out));
    EXPECT_EQ(out.study, req.study);
    EXPECT_EQ(out.app, req.app);
    EXPECT_EQ(out.traceLength, req.traceLength);
    EXPECT_EQ(out.simpoint, req.simpoint);
    EXPECT_EQ(out.indices, req.indices);
}

TEST(RemoteProtocol, SimulateBatchRequestRejectsHostilePayloads)
{
    serve::SimulateBatchRequest req;
    req.app = "mcf";
    req.indices = {1, 2, 3};
    const std::string good = req.encode();

    serve::SimulateBatchRequest out;
    EXPECT_FALSE(serve::SimulateBatchRequest::decode("", out));
    EXPECT_FALSE(serve::SimulateBatchRequest::decode("x", out));
    // Any truncation of a valid payload must be rejected, at every
    // byte offset — a short frame must never decode to a smaller
    // batch.
    for (size_t cut = 0; cut < good.size(); ++cut) {
        EXPECT_FALSE(serve::SimulateBatchRequest::decode(
            std::string_view(good.data(), cut), out))
            << "prefix of " << cut << " bytes decoded";
    }
    // An empty batch is meaningless and must not round-trip.
    serve::SimulateBatchRequest empty;
    empty.app = "mcf";
    EXPECT_FALSE(serve::SimulateBatchRequest::decode(empty.encode(), out));
}

TEST(RemoteProtocol, SimulateBatchReplyRoundTripsBitPatterns)
{
    serve::SimulateBatchReply full;
    full.simpoint = false;
    for (uint64_t i = 0; i < 3; ++i) {
        sim::SimResult r;
        r.cycles = 1000 + i;
        r.instructions = 900 + i;
        r.ipc = 0.1 * static_cast<double>(i + 1);  // inexact in binary
        r.l1dMissRate = 1.0 / 3.0;
        r.branchMispredictRate = 0.017;
        r.l1dAccesses = 12345 * (i + 1);
        r.branchMispredicts = 17 * i;
        full.results.push_back(r);
    }
    serve::SimulateBatchReply out;
    ASSERT_TRUE(serve::SimulateBatchReply::decode(full.encode(), out));
    ASSERT_EQ(out.points(), full.points());
    EXPECT_FALSE(out.simpoint);
    for (size_t i = 0; i < full.results.size(); ++i)
        expectResultsIdentical(out.results[i], full.results[i], i);

    serve::SimulateBatchReply sp;
    sp.simpoint = true;
    sp.ipc = {0.25, 1.0 / 7.0, 3.14159265358979};
    serve::SimulateBatchReply spOut;
    ASSERT_TRUE(serve::SimulateBatchReply::decode(sp.encode(), spOut));
    EXPECT_TRUE(spOut.simpoint);
    EXPECT_EQ(spOut.ipc, sp.ipc);

    for (size_t cut = 0; cut + 1 < full.encode().size(); cut += 7) {
        EXPECT_FALSE(serve::SimulateBatchReply::decode(
            full.encode().substr(0, cut), out));
    }
}

TEST(RemoteProtocol, ParseEndpoints)
{
    const auto eps = remote::parseEndpoints("10.0.0.1:7080,host:1");
    ASSERT_EQ(eps.size(), 2u);
    EXPECT_EQ(eps[0].host, "10.0.0.1");
    EXPECT_EQ(eps[0].port, 7080);
    EXPECT_EQ(eps[1].host, "host");
    EXPECT_EQ(eps[1].port, 1);

    EXPECT_THROW(remote::parseEndpoints("nohost"),
                 std::invalid_argument);
    EXPECT_THROW(remote::parseEndpoints(":7080"), std::invalid_argument);
    EXPECT_THROW(remote::parseEndpoints("h:0"), std::invalid_argument);
    EXPECT_THROW(remote::parseEndpoints("h:99999"),
                 std::invalid_argument);
    // The port is the whole text after the last ':', nothing less.
    for (const char *spec : {"127.0.0.1:7081x", "127.0.0.1: 7081",
                             "127.0.0.1:+7081", "127.0.0.1:7081.9"})
        EXPECT_THROW(remote::parseEndpoints(spec), std::invalid_argument)
            << spec;
}

// ---------------------------------------------------------------------
// Backoff schedule: a pure function, identical at any thread count.
// ---------------------------------------------------------------------

TEST(RemoteBackoff, PureFunctionOfArgumentsAtAnyThreadCount)
{
    // Reference schedule computed single-threaded...
    std::vector<int> want;
    for (uint64_t key = 0; key < 64; ++key) {
        for (uint32_t attempt = 0; attempt < 6; ++attempt) {
            want.push_back(remote::RemoteDispatcher::backoffDelayMs(
                42, key, attempt, 5, 1000));
        }
    }
    // ...must be what every racing thread computes too.
    for (size_t threads : {1u, 2u, 8u}) {
        std::vector<std::thread> pool;
        std::vector<std::vector<int>> got(threads);
        for (size_t t = 0; t < threads; ++t) {
            pool.emplace_back([&, t] {
                for (uint64_t key = 0; key < 64; ++key) {
                    for (uint32_t attempt = 0; attempt < 6; ++attempt) {
                        got[t].push_back(
                            remote::RemoteDispatcher::backoffDelayMs(
                                42, key, attempt, 5, 1000));
                    }
                }
            });
        }
        for (auto &th : pool)
            th.join();
        for (size_t t = 0; t < threads; ++t)
            EXPECT_EQ(got[t], want) << threads << " threads";
    }
}

TEST(RemoteBackoff, DelaysStayInsideTheJitterWindow)
{
    for (uint64_t key = 0; key < 256; ++key) {
        // Attempt 0 has a degenerate window: exactly the base delay.
        EXPECT_EQ(remote::RemoteDispatcher::backoffDelayMs(
                      7, key, 0, 5, 1000),
                  5);
        for (uint32_t attempt = 1; attempt < 12; ++attempt) {
            const int d = remote::RemoteDispatcher::backoffDelayMs(
                7, key, attempt, 5, 1000);
            const uint64_t window =
                std::min<uint64_t>(1000, 5ull << attempt);
            EXPECT_GE(d, 5) << key << "/" << attempt;
            EXPECT_LE(static_cast<uint64_t>(d), window)
                << key << "/" << attempt;
        }
        // Degenerate configuration never divides by zero or inverts.
        EXPECT_EQ(remote::RemoteDispatcher::backoffDelayMs(
                      7, key, 3, 10, 1),
                  10);
    }
}

// ---------------------------------------------------------------------
// Client deadlines: structured errors, wall clock bounded.
// ---------------------------------------------------------------------

TEST_F(RemoteTest, ClientTimeoutIsStructuredAndBounded)
{
    // A listener that accepts nothing: connects succeed via the SYN
    // backlog, replies never come, so the deadline is what returns.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(fd, 8), 0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                            &len),
              0);
    const uint16_t port = ntohs(addr.sin_port);

    serve::Client client;
    client.setTimeout(200);
    client.connect("127.0.0.1", port);
    const auto t0 = Clock::now();
    try {
        client.ping();
        FAIL() << "ping to a mute server returned";
    } catch (const serve::ServeError &e) {
        EXPECT_EQ(e.code(), serve::ErrCode::Timeout) << e.what();
    }
    // The watchdog assertion: the call came back at the deadline, not
    // at some transitive OS default minutes later.
    const int64_t waited = elapsedMs(t0);
    EXPECT_GE(waited, 190);
    EXPECT_LT(waited, 5000);
    ::close(fd);
}

TEST_F(RemoteTest, ClientRefusedConnectionIsDisconnected)
{
    // Grab a port the kernel just released: connecting to it refuses.
    uint16_t port = 0;
    {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        socklen_t len = sizeof(addr);
        ASSERT_EQ(::getsockname(
                      fd, reinterpret_cast<sockaddr *>(&addr), &len),
                  0);
        port = ntohs(addr.sin_port);
        ::close(fd);
    }
    serve::Client client;
    client.setTimeout(2000);
    const auto t0 = Clock::now();
    try {
        client.connect("127.0.0.1", port);
        FAIL() << "connect to a closed port succeeded";
    } catch (const serve::ServeError &e) {
        EXPECT_EQ(e.code(), serve::ErrCode::Disconnected) << e.what();
    }
    EXPECT_LT(elapsedMs(t0), 5000);
}

TEST_F(RemoteTest, DefaultsIgnoreTheEnvironment)
{
    // Settings come from option fields and tool flags only, so these
    // variables change nothing.
    ::setenv("DSE_SERVE_TIMEOUT_MS", "1234", 1);
    ::setenv("DSE_SERVE_QUEUE", "1", 1);
    EXPECT_EQ(serve::Client().timeout(), 30000);
    EXPECT_EQ(remote::SimWorkerOptions().server.queueCapacity, 256u);
    ::unsetenv("DSE_SERVE_TIMEOUT_MS");
    ::unsetenv("DSE_SERVE_QUEUE");
}

// ---------------------------------------------------------------------
// Dispatch round trips: remote results are bit-identical memo hits.
// ---------------------------------------------------------------------

TEST_F(RemoteTest, DispatchedBatchBitIdenticalToLocal)
{
    const auto indices = sampleIndices();
    study::StudyContext local(study::StudyKind::MemorySystem, "gzip",
                              kTraceLen);
    const auto want = local.simulateBatch(indices);

    remote::SimWorker worker(workerOptions());
    worker.start();
    study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                            kTraceLen);
    remote::RemoteDispatcher dispatcher(
        ctx, dispatcherOptions({worker.port()}));
    const auto got = dispatcher.simulateBatch(indices);
    EXPECT_EQ(got, want);

    // Everything came over the wire: the dispatcher's context executed
    // nothing itself, yet holds full bit-identical SimResult records.
    EXPECT_EQ(ctx.simulationsExecuted(), 0u);
    for (uint64_t idx : indices) {
        ASSERT_TRUE(ctx.hasResult(idx));
        expectResultsIdentical(ctx.simulateFull(idx),
                               local.simulateFull(idx), idx);
    }
    const auto st = dispatcher.stats();
    EXPECT_EQ(st.completed, 3u);  // 11 points / 4 per batch
    EXPECT_EQ(st.fallbacks, 0u);
    EXPECT_EQ(st.retries, 0u);
    worker.stop();
}

TEST_F(RemoteTest, SimPointBatchBitIdenticalToLocal)
{
    const auto indices = sampleIndices();
    study::StudyContext local(study::StudyKind::MemorySystem, "gzip",
                              kTraceLen);
    const auto want = local.simulateSimPointBatch(indices);

    remote::SimWorker worker(workerOptions());
    worker.start();
    study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                            kTraceLen);
    auto dopts = dispatcherOptions({worker.port()});
    dopts.simpoint = true;
    remote::RemoteDispatcher dispatcher(ctx, dopts);
    EXPECT_EQ(dispatcher.simulateBatch(indices), want);
    // The one detailed simulation is the context's own one-time
    // SimPoint scale calibration (space midpoint); every requested
    // estimate itself came over the wire.
    EXPECT_EQ(ctx.simulationsExecuted(), 1u);
    worker.stop();
}

// ---------------------------------------------------------------------
// Chaos: crashes, hangs, dead fleets — latency, never correctness.
// ---------------------------------------------------------------------

TEST_F(RemoteTest, WorkerCrashMidRunStaysBitIdentical)
{
    const auto indices = sampleIndices();
    study::StudyContext local(study::StudyKind::MemorySystem, "gzip",
                              kTraceLen);
    const auto want = local.simulateBatch(indices);

    // Two workers sharing the process-global injector: distinct salts
    // make the crash site fire for different batches on each, so a
    // batch that kills worker A re-dispatches to a live worker B.
    util::FaultInjector::global().configure("remote.worker.crash:0.4:11");
    remote::SimWorker workerA(workerOptions(1));
    remote::SimWorker workerB(workerOptions(2));
    workerA.start();
    workerB.start();

    study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                            kTraceLen);
    auto dopts = dispatcherOptions({workerA.port(), workerB.port()});
    dopts.requestTimeoutMs = 500;  // crashed conns go silent
    remote::RemoteDispatcher dispatcher(ctx, dopts);

    const auto t0 = Clock::now();
    const auto got = dispatcher.simulateBatch(indices);
    EXPECT_EQ(got, want);
    for (uint64_t idx : indices)
        expectResultsIdentical(ctx.simulateFull(idx),
                               local.simulateFull(idx), idx);

    // One attempt is in flight per batch, so every batch settled
    // exactly once — answered or handed to the local path — and faults
    // were actually injected.
    const auto st = dispatcher.stats();
    EXPECT_EQ(st.completed + st.fallbacks, 3u);
    EXPECT_GT(util::FaultInjector::global().injected(
                  "remote.worker.crash"),
              0u);
    // Deadlines bounded the whole episode (3 batches, <=3 attempts of
    // <=500ms each, small backoff) — nothing hung on a dead socket.
    EXPECT_LT(elapsedMs(t0), 30000);

    workerA.stop();
    workerB.stop();
}

TEST_F(RemoteTest, EveryWorkerDeadFallsBackToLocalBitIdentical)
{
    const auto indices = sampleIndices();
    study::StudyContext local(study::StudyKind::MemorySystem, "gzip",
                              kTraceLen);
    const auto want = local.simulateBatch(indices);

    // Two endpoints nobody listens on: every connect refuses.
    study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                            kTraceLen);
    auto dopts = dispatcherOptions({1, 1});
    dopts.requestTimeoutMs = 300;
    dopts.maxAttempts = 2;
    remote::RemoteDispatcher dispatcher(ctx, dopts);

    const auto t0 = Clock::now();
    const auto got = dispatcher.simulateBatch(indices);
    EXPECT_EQ(got, want);
    EXPECT_LT(elapsedMs(t0), 30000);

    const auto st = dispatcher.stats();
    EXPECT_EQ(st.completed, 0u);
    EXPECT_EQ(st.fallbacks, 3u);  // every batch exhausted to local
    EXPECT_EQ(st.redispatches, 0u);  // no batch ever left
    // This context did the work itself.
    EXPECT_EQ(ctx.simulationsExecuted(), indices.size());
}

TEST_F(RemoteTest, HungWorkerTimesOutToLocalBitIdentical)
{
    const auto indices = sampleIndices();
    study::StudyContext local(study::StudyKind::MemorySystem, "gzip",
                              kTraceLen);
    const auto want = local.simulateBatch(indices);

    // Every batch stalls 150 ms at the worker, past a 50 ms deadline.
    // A timeout is a retry but not a redispatch: the worker never
    // dropped the connection.
    util::FaultInjector::global().configure("remote.conn.delay:1:17");
    auto wopts = workerOptions();
    wopts.delayMs = 150;
    remote::SimWorker worker(wopts);
    worker.start();

    study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                            kTraceLen);
    auto dopts = dispatcherOptions({worker.port()});
    dopts.requestTimeoutMs = 50;
    dopts.maxAttempts = 2;
    dopts.breakerThreshold = 1000000;  // never opens
    remote::RemoteDispatcher dispatcher(ctx, dopts);
    EXPECT_EQ(dispatcher.simulateBatch(indices), want);

    const auto st = dispatcher.stats();
    EXPECT_EQ(st.dispatched, 6u);  // 3 batches x 2 attempts
    EXPECT_EQ(st.retries, 3u);
    EXPECT_EQ(st.redispatches, 0u);
    EXPECT_EQ(st.fallbacks, 3u);
    EXPECT_EQ(st.completed, 0u);
    EXPECT_EQ(ctx.simulationsExecuted(), indices.size());
    worker.stop();
}

TEST_F(RemoteTest, DropFaultCountersReconcileAtAnyThreadCount)
{
    const auto indices = sampleIndices();
    // Drop every attempt before it touches the network. With the
    // breaker disabled the outcome is a pure function of the
    // configuration: every batch burns exactly maxAttempts attempts
    // and falls back, independent of scheduling.
    for (size_t threads : {1u, 2u, 8u}) {
        PoolGuard pool(threads);
        util::FaultInjector::global().configure(
            "remote.conn.drop:1:13");

        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                kTraceLen);
        auto dopts = dispatcherOptions({1});
        dopts.maxAttempts = 3;
        dopts.breakerThreshold = 1000000;  // never opens
        remote::RemoteDispatcher dispatcher(ctx, dopts);
        dispatcher.prefetch(indices);

        const auto st = dispatcher.stats();
        EXPECT_EQ(st.dispatched, 9u) << threads;   // 3 batches x 3
        EXPECT_EQ(st.retries, 6u) << threads;      // 3 x (3 - 1)
        EXPECT_EQ(st.redispatches, 6u) << threads; // drops disconnect
        EXPECT_EQ(st.fallbacks, 3u) << threads;
        EXPECT_EQ(st.completed, 0u) << threads;
        EXPECT_EQ(st.hedges, 0u) << threads;
        EXPECT_EQ(util::FaultInjector::global().injected(
                      "remote.conn.drop"),
                  st.dispatched)
            << threads;
        util::FaultInjector::global().reset();
    }
}

TEST_F(RemoteTest, CrashChaosResultsIdenticalAcrossPoolSizes)
{
    const auto indices = sampleIndices();
    std::vector<double> want;
    {
        study::StudyContext local(study::StudyKind::MemorySystem,
                                  "gzip", kTraceLen);
        want = local.simulateBatch(indices);
    }
    for (size_t threads : {1u, 2u, 8u}) {
        PoolGuard pool(threads);
        util::FaultInjector::global().configure(
            "remote.worker.crash:0.4:11");
        remote::SimWorker workerA(workerOptions(1));
        remote::SimWorker workerB(workerOptions(2));
        workerA.start();
        workerB.start();

        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                kTraceLen);
        auto dopts =
            dispatcherOptions({workerA.port(), workerB.port()});
        dopts.requestTimeoutMs = 500;
        remote::RemoteDispatcher dispatcher(ctx, dopts);
        EXPECT_EQ(dispatcher.simulateBatch(indices), want)
            << threads << " threads";
        workerA.stop();
        workerB.stop();
        util::FaultInjector::global().reset();
    }
}

// ---------------------------------------------------------------------
// Explorer integration: a full campaign under chaos matches all-local.
// ---------------------------------------------------------------------

TEST_F(RemoteTest, ExplorerRunUnderCrashChaosBitIdenticalToLocal)
{
    ml::ExplorerOptions eopts;
    eopts.batchSize = 16;
    eopts.maxSimulations = 32;
    eopts.targetMeanPct = 0.0;  // run to the simulation cap
    eopts.train.maxEpochs = 60;

    // Reference: all-local exploration.
    std::vector<ml::ExplorationStep> localSteps;
    ml::ErrorEstimate localEstimate;
    std::vector<uint64_t> localSampled;
    {
        study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                                kTraceLen);
        auto simulate = [&](uint64_t i) { return ctx.simulateIpc(i); };
        ml::Explorer explorer(ctx.space(), simulate, eopts);
        localSteps = explorer.run();
        localEstimate = explorer.ensemble().estimate();
        localSampled = explorer.sampledIndices();
    }

    // Same campaign, remote dispatch with a crashing worker in the
    // fleet. The prefetch hook is an acceleration hint only: sampling,
    // training, and the error estimate must not notice it exists.
    util::FaultInjector::global().configure("remote.worker.crash:0.4:11");
    remote::SimWorker workerA(workerOptions(1));
    remote::SimWorker workerB(workerOptions(2));
    workerA.start();
    workerB.start();

    study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                            kTraceLen);
    auto dopts = dispatcherOptions({workerA.port(), workerB.port()});
    dopts.requestTimeoutMs = 500;
    remote::RemoteDispatcher dispatcher(ctx, dopts);
    eopts.prefetch = [&](const std::vector<uint64_t> &batch) {
        dispatcher.prefetch(batch);
    };
    auto simulate = [&](uint64_t i) { return ctx.simulateIpc(i); };
    ml::Explorer explorer(ctx.space(), simulate, eopts);
    const auto steps = explorer.run();

    EXPECT_EQ(explorer.sampledIndices(), localSampled);
    ASSERT_EQ(steps.size(), localSteps.size());
    for (size_t i = 0; i < steps.size(); ++i) {
        EXPECT_EQ(steps[i].totalSamples, localSteps[i].totalSamples);
        EXPECT_EQ(steps[i].estimate.meanPct,
                  localSteps[i].estimate.meanPct)
            << i;
        EXPECT_EQ(steps[i].estimate.sdPct, localSteps[i].estimate.sdPct)
            << i;
    }
    EXPECT_EQ(explorer.ensemble().estimate().meanPct,
              localEstimate.meanPct);
    EXPECT_EQ(explorer.ensemble().estimate().sdPct,
              localEstimate.sdPct);

    workerA.stop();
    workerB.stop();
}

} // namespace
} // namespace dse
