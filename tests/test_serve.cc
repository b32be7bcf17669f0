/**
 * @file
 * dse::serve integration tests: loopback round trips that must be
 * bit-identical to local Ensemble::predictBatch, concurrent clients,
 * deterministic queue-full backpressure, graceful-shutdown drain, and
 * counter reconciliation against client-observed traffic.
 *
 * Suites are named Serve* and live in the dse_serve_tests binary
 * (label `serve`), so the tsan preset's filter selects them and
 * `ctest -L serve` runs exactly this subsystem.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <latch>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ml/cross_validation.hh"
#include "ml/encoding.hh"
#include "ml/explorer.hh"
#include "ml/io.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "study/harness.hh"
#include "util/metrics.hh"

namespace dse {
namespace {

/** y = f(x) on [0,1]^3 — cheap to learn, deterministic. */
ml::DataSet
syntheticData(size_t n, uint64_t seed)
{
    ml::DataSet data;
    uint64_t s = seed * 6364136223846793005ull + 1442695040888963407ull;
    auto next = [&s] {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<double>((s >> 33) & 0xffffff) /
            static_cast<double>(0xffffff);
    };
    for (size_t i = 0; i < n; ++i) {
        const double a = next(), b = next(), c = next();
        data.add({a, b, c}, 0.4 + 0.8 * a + 0.5 * b * c - 0.3 * a * b);
    }
    return data;
}

/** One shared tiny ensemble (3 inputs) for every test. */
const ml::Ensemble &
tinyEnsemble()
{
    static const ml::Ensemble model = [] {
        ml::TrainOptions opts;
        opts.folds = 3;
        opts.maxEpochs = 120;
        opts.esInterval = 20;
        opts.patience = 4;
        return ml::trainEnsemble(syntheticData(60, 7), opts);
    }();
    return model;
}

/** A 4x4x4 design space whose encoded width matches the ensemble. */
ml::DesignSpace
tinySpace()
{
    ml::DesignSpace space;
    space.addCardinal("a", {1, 2, 4, 8});
    space.addCardinal("b", {1, 2, 4, 8});
    space.addCardinal("c", {1, 2, 4, 8});
    return space;
}

serve::ModelState
tinyModel()
{
    serve::ModelState state;
    state.ensemble =
        std::make_shared<const ml::Ensemble>(tinyEnsemble());
    state.space = std::make_shared<const ml::DesignSpace>(tinySpace());
    state.study = "synthetic";
    state.app = "unit-test";
    return state;
}

serve::ServerOptions
testOptions()
{
    serve::ServerOptions opts;
    opts.addr = "127.0.0.1";
    opts.port = 0;
    opts.workers = 2;
    return opts;
}

serve::Client
connectTo(const serve::Server &server)
{
    serve::Client client;
    client.connect("127.0.0.1", server.port());
    client.setTimeout(20000);
    return client;
}

TEST(ServeRoundTrip, PredictPointsBitIdenticalToLocalBatch)
{
    serve::Server server(testOptions());
    server.setModel(tinyModel());
    server.start();
    auto client = connectTo(server);

    const auto space = tinySpace();
    const size_t n = 17;
    const size_t width = static_cast<size_t>(space.encodedWidth());
    std::vector<double> x(n * width);
    for (size_t i = 0; i < n; ++i)
        space.encodeIndexInto(i * 3, &x[i * width]);

    std::vector<double> local(n);
    tinyEnsemble().predictBatch(x.data(), n, local.data());

    const auto remote = client.predictPoints(x.data(), n, width);
    ASSERT_EQ(remote.size(), n);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(remote[i], local[i]) << "point " << i;
    server.stop();
}

TEST(ServeRoundTrip, PredictRangeMatchesPredictIndices)
{
    serve::Server server(testOptions());
    server.setModel(tinyModel());
    server.start();
    auto client = connectTo(server);

    const auto space = tinySpace();
    std::vector<uint64_t> indices;
    for (uint64_t i = 5; i < 25; ++i)
        indices.push_back(i);
    const auto local = tinyEnsemble().predictIndices(space, indices);

    const auto remote = client.predictRange(5, 20);
    ASSERT_EQ(remote.size(), local.size());
    for (size_t i = 0; i < local.size(); ++i)
        EXPECT_EQ(remote[i], local[i]) << "index " << indices[i];
    server.stop();
}

TEST(ServeRoundTrip, PingAndModelInfo)
{
    serve::Server server(testOptions());
    server.setModel(tinyModel());
    server.start();
    auto client = connectTo(server);

    client.ping();
    const auto info = client.modelInfo();
    EXPECT_EQ(info.members, tinyEnsemble().members());
    EXPECT_EQ(info.inputs, 3u);
    EXPECT_EQ(info.spaceSize, tinySpace().size());
    EXPECT_EQ(info.study, "synthetic");
    EXPECT_EQ(info.app, "unit-test");
    server.stop();
}

TEST(ServeConcurrent, ManyClientsGetTheirOwnAnswers)
{
    serve::Server server(testOptions());
    server.setModel(tinyModel());
    server.start();

    const auto space = tinySpace();
    const size_t width = static_cast<size_t>(space.encodedWidth());
    // Precompute the expected answer for every space index once.
    std::vector<uint64_t> all(space.size());
    for (uint64_t i = 0; i < space.size(); ++i)
        all[i] = i;
    const auto expected = tinyEnsemble().predictIndices(space, all);

    constexpr size_t kClients = 8;
    constexpr size_t kRequests = 40;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            serve::Client client;
            client.connect("127.0.0.1", server.port());
            client.setTimeout(20000);
            std::vector<double> x(width);
            for (size_t r = 0; r < kRequests; ++r) {
                // Each client walks its own index sequence, so a
                // cross-wired reply would be caught immediately.
                const uint64_t idx = (c * 13 + r * 5) % space.size();
                space.encodeIndexInto(idx, x.data());
                const auto y = client.predictPoints(x.data(), 1, width);
                if (y.size() != 1 || y[0] != expected[idx])
                    failures.fetch_add(1);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);

    const auto stats = server.statsSnapshot();
    EXPECT_GE(stats.requests, kClients * kRequests);
    EXPECT_GE(stats.predictions, kClients * kRequests);
    server.stop();
}

TEST(ServeBackpressure, QueueFullYieldsOverloaded)
{
    auto opts = testOptions();
    opts.queueCapacity = 2;
    serve::Server server(opts);
    server.setModel(tinyModel());
    server.start();
    server.pauseWorkersForTest(true);

    auto client = connectTo(server);
    const auto space = tinySpace();
    const size_t width = static_cast<size_t>(space.encodedWidth());
    std::vector<double> x(width);
    space.encodeIndexInto(0, x.data());

    serve::PredictPointsRequest req;
    req.width = static_cast<uint32_t>(width);
    req.x = x;
    const std::string payload = req.encode();

    // With workers frozen the first two requests occupy the queue;
    // the next three must be refused immediately.
    std::vector<uint64_t> ids;
    for (int i = 0; i < 5; ++i)
        ids.push_back(
            client.sendFrame(serve::MsgType::PredictPoints, payload));

    for (int i = 0; i < 3; ++i) {
        auto frame = client.recvFrame();
        ASSERT_TRUE(frame.has_value());
        ASSERT_EQ(frame->type, serve::MsgType::Error);
        serve::ErrorReply err;
        ASSERT_TRUE(serve::ErrorReply::decode(frame->payload, err));
        EXPECT_EQ(err.code, serve::ErrCode::Overloaded);
        EXPECT_EQ(frame->id, ids[2 + i]);
    }

    // Unfreezing answers the two queued requests.
    server.pauseWorkersForTest(false);
    for (int i = 0; i < 2; ++i) {
        auto frame = client.recvFrame();
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(frame->type, serve::MsgType::Predictions);
    }
    EXPECT_EQ(server.statsSnapshot().overloaded, 3u);
    server.stop();
}

TEST(ServeShutdown, StopDrainsQueuedRequests)
{
    auto opts = testOptions();
    serve::Server server(opts);
    server.setModel(tinyModel());
    server.start();
    server.pauseWorkersForTest(true);

    auto client = connectTo(server);
    const auto space = tinySpace();
    const size_t width = static_cast<size_t>(space.encodedWidth());
    serve::PredictPointsRequest req;
    req.width = static_cast<uint32_t>(width);
    req.x.resize(width);
    space.encodeIndexInto(1, req.x.data());
    const std::string payload = req.encode();

    constexpr int kQueued = 3;
    for (int i = 0; i < kQueued; ++i)
        client.sendFrame(serve::MsgType::PredictPoints, payload);
    // Sent is not queued: stop() stops reading sockets, so wait until
    // the I/O thread has queued every request before asking for it.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.statsSnapshot().queueDepth < kQueued &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(server.statsSnapshot().queueDepth,
              static_cast<uint64_t>(kQueued));

    // stop() unfreezes the workers, answers everything queued,
    // flushes, then closes: the client must see every reply and only
    // then EOF.
    std::thread stopper([&] { server.stop(); });
    int predictions = 0;
    for (;;) {
        auto frame = client.recvFrame();
        if (!frame.has_value())
            break;  // orderly close after the drain
        EXPECT_EQ(frame->type, serve::MsgType::Predictions);
        ++predictions;
    }
    stopper.join();
    EXPECT_EQ(predictions, kQueued);
}

TEST(ServeShutdown, SimulateBatchOfAGoneClientIsSkipped)
{
    // One worker thread: the first SimulateBatch holds it on a latch
    // while the second waits in the queue. The client then resets the
    // connection, as a dispatcher does with an attempt it gave up on.
    // The queued request must not reach the handler.
    auto opts = testOptions();
    opts.workers = 1;
    serve::Server server(opts);
    std::atomic<int> calls{0};
    std::latch entered(1), release(1);
    server.setSimulateHandler(
        [&](const serve::SimulateBatchRequest &,
            serve::SimulateBatchReply &, std::string &) {
            if (calls.fetch_add(1) == 0) {
                entered.count_down();
                release.wait();
            }
            return serve::SimulateVerdict::Reply;
        });
    server.start();

    auto client = connectTo(server);
    serve::SimulateBatchRequest req;
    req.app = "gzip";
    req.indices = {1};
    const std::string payload = req.encode();
    client.sendFrame(serve::MsgType::SimulateBatch, payload);
    client.sendFrame(serve::MsgType::SimulateBatch, payload);
    entered.wait();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.statsSnapshot().queueDepth < 1 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(server.statsSnapshot().queueDepth, 1u);

    client.abort();
    while (server.statsSnapshot().activeConnections > 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(server.statsSnapshot().activeConnections, 0u);

    release.count_down();
    server.stop();
    EXPECT_EQ(calls.load(), 1);
}

TEST(ServeStats, CountersReconcileWithClientTraffic)
{
    serve::Server server(testOptions());
    server.setModel(tinyModel());
    server.start();
    auto client = connectTo(server);

    const auto space = tinySpace();
    const size_t width = static_cast<size_t>(space.encodedWidth());
    std::vector<double> x(width);
    constexpr uint64_t kPredicts = 12;
    for (uint64_t i = 0; i < kPredicts; ++i) {
        space.encodeIndexInto(i, x.data());
        client.predictPoints(x.data(), 1, width);
    }
    const auto stats = client.stats();
    // One connection, every reply received before Stats was sent, so
    // the counters are exact: kPredicts + the Stats request itself.
    EXPECT_EQ(stats.requests, kPredicts + 1);
    EXPECT_EQ(stats.predictions, kPredicts);
    EXPECT_EQ(stats.overloaded, 0u);
    EXPECT_EQ(stats.protocolErrors, 0u);
    EXPECT_EQ(stats.connectionsAccepted, 1u);
    EXPECT_EQ(stats.activeConnections, 1u);
    EXPECT_GT(stats.bytesRx, 0u);
    EXPECT_GT(stats.bytesTx, 0u);
    server.stop();
}

TEST(ServeStats, ObsMetricsMirrorServerCounters)
{
    obs::MetricsRegistry::global().reset();
    obs::setMetricsEnabled(true);

    serve::Server server(testOptions());
    server.setModel(tinyModel());
    server.start();
    {
        auto client = connectTo(server);
        const auto space = tinySpace();
        const size_t width = static_cast<size_t>(space.encodedWidth());
        std::vector<double> x(width);
        for (uint64_t i = 0; i < 5; ++i) {
            space.encodeIndexInto(i, x.data());
            client.predictPoints(x.data(), 1, width);
        }
    }
    server.stop();
    obs::setMetricsEnabled(false);

    const auto snap = obs::MetricsRegistry::global().snapshot();
    EXPECT_EQ(snap.counter("serve.requests"), 5u);
    EXPECT_EQ(snap.counter("serve.predictions"), 5u);
    EXPECT_EQ(snap.counter("serve.connections"), 1u);
    EXPECT_GT(snap.counter("serve.bytes_rx"), 0u);
    EXPECT_GT(snap.counter("serve.bytes_tx"), 0u);
    const auto *hist = snap.histogram("serve.batch_points");
    ASSERT_NE(hist, nullptr);
    EXPECT_GT(hist->count, 0u);
    obs::MetricsRegistry::global().reset();
}

TEST(ServeStats, ConnectionLimitRefusalsCountAsOverloaded)
{
    obs::MetricsRegistry::global().reset();
    obs::setMetricsEnabled(true);

    auto opts = testOptions();
    opts.maxConnections = 1;
    serve::Server server(opts);
    server.setModel(tinyModel());
    server.start();
    auto first = connectTo(server);
    first.modelInfo();  // the one allowed connection is accepted

    auto second = connectTo(server);
    auto frame = second.recvFrame();
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->type, serve::MsgType::Error);
    serve::ErrorReply err;
    ASSERT_TRUE(serve::ErrorReply::decode(frame->payload, err));
    EXPECT_EQ(err.code, serve::ErrCode::Overloaded);
    server.stop();
    obs::setMetricsEnabled(false);

    EXPECT_EQ(server.statsSnapshot().overloaded, 1u);
    EXPECT_EQ(obs::MetricsRegistry::global().snapshot().counter(
                  "serve.overloaded"),
              1u);
    obs::MetricsRegistry::global().reset();
}

TEST(ServeErrors, StructuredErrorsKeepTheConnectionAlive)
{
    serve::Server server(testOptions());
    server.start();  // no model installed
    auto client = connectTo(server);

    double x[3] = {0.1, 0.2, 0.3};
    try {
        client.predictPoints(x, 1, 3);
        FAIL() << "expected NoModel";
    } catch (const serve::ServeError &e) {
        EXPECT_EQ(e.code(), serve::ErrCode::NoModel);
    }

    server.setModel(tinyModel());
    try {
        client.predictPoints(x, 1, 2);  // wrong feature width
        FAIL() << "expected BadIndex";
    } catch (const serve::ServeError &e) {
        EXPECT_EQ(e.code(), serve::ErrCode::BadIndex);
    }
    try {
        client.predictRange(60, 100);  // past the 64-point space
        FAIL() << "expected BadIndex";
    } catch (const serve::ServeError &e) {
        EXPECT_EQ(e.code(), serve::ErrCode::BadIndex);
    }

    // Malformed payload under a valid frame: BadRequest, not a drop.
    const uint64_t id =
        client.sendFrame(serve::MsgType::PredictPoints, "garbage");
    auto frame = client.recvFrame();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, serve::MsgType::Error);
    EXPECT_EQ(frame->id, id);

    // The same connection still serves valid requests afterwards.
    const auto y = client.predictPoints(x, 1, 3);
    EXPECT_EQ(y.size(), 1u);
    server.stop();
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

TEST(ServeErrors, FailedStartClosesItsDescriptors)
{
    serve::Server holder(testOptions());
    holder.start();
    const size_t before = openDescriptors();

    serve::ServerOptions badAddress = testOptions();
    badAddress.addr = "not-an-address";
    serve::ServerOptions portTaken = testOptions();
    portTaken.port = holder.port();
    for (const auto &opts : {badAddress, badAddress, badAddress, portTaken}) {
        serve::Server server(opts);
        EXPECT_THROW(server.start(), std::runtime_error) << opts.addr;
    }
    EXPECT_EQ(openDescriptors(), before);
    holder.stop();
}

TEST(ServeErrors, PredictRangeRejectsAReplyOfTheWrongLength)
{
    // A peer no real server imitates: it answers the first request
    // with a one-element Predictions frame, whatever was asked.
    const int listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listenFd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::bind(listenFd, reinterpret_cast<sockaddr *>(&addr), len),
              0);
    ASSERT_EQ(::listen(listenFd, 1), 0);
    ASSERT_EQ(::getsockname(listenFd, reinterpret_cast<sockaddr *>(&addr),
                            &len),
              0);
    std::thread peer([listenFd] {
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            return;
        std::string in;
        char buf[4096];
        serve::Frame request;
        size_t consumed = 0;
        ssize_t n = 1;
        while (n > 0 &&
               serve::decodeFrame(in.data(), in.size(),
                                  serve::kDefaultMaxPayload, request,
                                  consumed) != serve::DecodeStatus::Frame) {
            n = ::read(fd, buf, sizeof(buf));
            if (n > 0)
                in.append(buf, static_cast<size_t>(n));
        }
        const std::string reply = serve::encodeFrame(
            serve::MsgType::Predictions, request.id,
            serve::PredictionsReply{{0.5}}.encode());
        if (n > 0 &&
            ::write(fd, reply.data(), reply.size()) ==
                static_cast<ssize_t>(reply.size())) {
            while (::read(fd, buf, sizeof(buf)) > 0) {
            }  // hold the connection until the client closes it
        }
        ::close(fd);
    });

    try {
        serve::Client client;
        client.setTimeout(20000);
        client.connect("127.0.0.1", ntohs(addr.sin_port));
        EXPECT_THROW(client.predictRange(0, 4), serve::ServeError);
    } catch (const std::exception &e) {
        ADD_FAILURE() << e.what();  // still join the peer below
    }
    ::shutdown(listenFd, SHUT_RDWR);  // unblocks accept() if never hit
    peer.join();
    ::close(listenFd);
}

TEST(ServeModel, LoadModelByPathThenPredict)
{
    const std::string path = "/tmp/dse_serve_test_model.bin";
    std::remove(path.c_str());
    ml::saveEnsemble(path, tinyEnsemble());

    serve::Server server(testOptions());
    server.start();  // empty; the wire loads the model
    auto client = connectTo(server);

    serve::LoadModelRequest req;
    req.path = path;
    const auto info = client.loadModel(req);
    EXPECT_EQ(info.members, tinyEnsemble().members());
    EXPECT_EQ(info.inputs, 3u);

    const auto space = tinySpace();
    const size_t width = static_cast<size_t>(space.encodedWidth());
    std::vector<double> x(width);
    space.encodeIndexInto(9, x.data());
    std::vector<double> local(1);
    tinyEnsemble().predictBatch(x.data(), 1, local.data());
    const auto y = client.predictPoints(x.data(), 1, width);
    ASSERT_EQ(y.size(), 1u);
    EXPECT_EQ(y[0], local[0]);

    server.stop();
    std::remove(path.c_str());
}

TEST(ServeModel, LoadModelTrainsOnTheWireLikeALocalExplorer)
{
    constexpr uint32_t kSims = 16;
    constexpr uint32_t kEpochs = 200;

    serve::Server server(testOptions());
    server.start();  // empty; the wire trains the model
    auto client = connectTo(server);

    serve::LoadModelRequest req;
    req.hasStudy = true;
    req.study = static_cast<uint8_t>(study::StudyKind::MemorySystem);
    req.app = "gzip";
    req.train = true;
    req.maxSims = kSims;
    req.maxEpochs = kEpochs;
    const auto info = client.loadModel(req);  // throws unless ModelLoaded

    // The same round trained here, without prefetch: every point is
    // simulated by the explorer's own per-index calls.
    study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip");
    ml::ExplorerOptions eopts;
    eopts.batchSize = kSims;
    eopts.maxSimulations = kSims;
    eopts.targetMeanPct = 0.0;
    eopts.train.maxEpochs = kEpochs;
    ml::Explorer explorer(
        ctx.space(), [&](uint64_t i) { return ctx.simulateIpc(i); }, eopts);
    ASSERT_TRUE(explorer.step().has_value());
    const ml::Ensemble &local = explorer.ensemble();

    EXPECT_EQ(info.members, local.members());
    EXPECT_EQ(info.estMeanPct, local.estimate().meanPct);
    EXPECT_EQ(info.estSdPct, local.estimate().sdPct);
    EXPECT_EQ(info.spaceSize, ctx.space().size());

    const uint64_t first = 1000, count = 257;
    const auto remote = client.predictRange(first, count);
    const auto expected = local.predictRange(ctx.space(), first, count);
    ASSERT_EQ(remote.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(remote[i], expected[i]) << "index " << first + i;
    server.stop();
}

} // namespace
} // namespace dse
