/**
 * @file
 * Wire-protocol fuzz: hostile byte streams against a live server —
 * truncation at every byte offset, a bit flip at every header and
 * payload offset, an oversized declared length, and garbage spliced
 * mid-stream. Every case must end in a structured Error reply or a
 * clean disconnect, never a crash, a hang, or a reply surfacing on a
 * different client's connection (a control connection stays open
 * throughout and must keep round-tripping).
 *
 * ServeFuzzFormat pins the bytes encodeFrame writes for every message
 * type, so a peer built from an older or newer tree keeps talking.
 *
 * Suites are named ServeFuzz* and live in the dse_serve_tests binary
 * (label `serve`), so the serve-tsan / serve-asan presets cover this
 * file too (mirroring test_journal_fuzz.cc for the journal).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "fnv.hh"
#include "ml/cross_validation.hh"
#include "ml/encoding.hh"
#include "serve/client.hh"
#include "serve/server.hh"

namespace dse {
namespace {

/** Tiny shared model so prediction requests are answerable. */
const ml::Ensemble &
fuzzEnsemble()
{
    static const ml::Ensemble model = [] {
        ml::DataSet data;
        uint64_t s = 42;
        auto next = [&s] {
            s = s * 6364136223846793005ull + 1442695040888963407ull;
            return static_cast<double>((s >> 33) & 0xffffff) /
                static_cast<double>(0xffffff);
        };
        for (size_t i = 0; i < 40; ++i) {
            const double a = next(), b = next(), c = next();
            data.add({a, b, c}, 0.5 + a + 0.5 * b - 0.2 * c);
        }
        ml::TrainOptions opts;
        opts.folds = 3;
        opts.maxEpochs = 60;
        opts.esInterval = 20;
        opts.patience = 3;
        return ml::trainEnsemble(data, opts);
    }();
    return model;
}

class ServeFuzz : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        serve::ServerOptions opts;
        opts.addr = "127.0.0.1";
        opts.port = 0;
        opts.workers = 2;
        server_ = std::make_unique<serve::Server>(opts);
        serve::ModelState state;
        state.ensemble =
            std::make_shared<const ml::Ensemble>(fuzzEnsemble());
        server_->setModel(std::move(state));
        server_->start();
        control_.connect("127.0.0.1", server_->port());
        control_.setTimeout(20000);
    }

    void
    TearDown() override
    {
        control_.close();
        server_->stop();
    }

    serve::Client
    attacker()
    {
        serve::Client c;
        c.connect("127.0.0.1", server_->port());
        c.setTimeout(20000);
        return c;
    }

    /** The control connection must still round-trip: no crash, and no
     *  reply leaked to it from any attacker connection. */
    void
    assertControlAlive()
    {
        ASSERT_NO_THROW(control_.ping());
    }

    /** A well-formed one-point PredictPoints frame. */
    static std::string
    validFrame(uint64_t id = 7)
    {
        serve::PredictPointsRequest req;
        req.width = 3;
        req.x = {0.25, 0.5, 0.75};
        return serve::encodeFrame(serve::MsgType::PredictPoints, id,
                                  req.encode());
    }

    std::unique_ptr<serve::Server> server_;
    serve::Client control_;
};

TEST_F(ServeFuzz, TruncationAtEveryByteOffset)
{
    const std::string frame = validFrame();
    for (size_t cut = 0; cut < frame.size(); ++cut) {
        auto client = attacker();
        client.sendRaw(frame.data(), cut);
        client.close();  // EOF mid-frame
    }
    assertControlAlive();
    // A truncated frame is not a protocol violation (the bytes that
    // arrived were valid) — it must simply never produce a reply or
    // wedge the server.
    const auto stats = server_->statsSnapshot();
    EXPECT_EQ(stats.overloaded, 0u);
}

TEST_F(ServeFuzz, HeaderBitFlipAtEveryOffsetDisconnectsCleanly)
{
    const std::string frame = validFrame();
    for (size_t i = 0; i < serve::kHeaderSize; ++i) {
        std::string bad = frame;
        bad[i] = static_cast<char>(bad[i] ^ 0x20);
        auto client = attacker();
        client.sendRaw(bad.data(), bad.size());
        // Every header byte is covered by the header checksum, so any
        // flip means an untrustworthy stream: one structured error,
        // then EOF — and never a crash or a stall.
        auto reply = client.recvFrame();
        ASSERT_TRUE(reply.has_value()) << "offset " << i;
        ASSERT_EQ(reply->type, serve::MsgType::Error) << "offset " << i;
        serve::ErrorReply err;
        ASSERT_TRUE(serve::ErrorReply::decode(reply->payload, err));
        EXPECT_EQ(err.code, serve::ErrCode::BadFrame) << "offset " << i;
        EXPECT_FALSE(client.recvFrame().has_value()) << "offset " << i;
    }
    assertControlAlive();
}

TEST_F(ServeFuzz, PayloadBitFlipRejectsOneFrameAndSurvives)
{
    const std::string frame = validFrame(11);
    for (size_t i = serve::kHeaderSize; i < frame.size(); ++i) {
        std::string bad = frame;
        bad[i] = static_cast<char>(bad[i] ^ 0x01);
        auto client = attacker();
        client.sendRaw(bad.data(), bad.size());
        auto reply = client.recvFrame();
        ASSERT_TRUE(reply.has_value()) << "offset " << i;
        ASSERT_EQ(reply->type, serve::MsgType::Error) << "offset " << i;
        serve::ErrorReply err;
        ASSERT_TRUE(serve::ErrorReply::decode(reply->payload, err));
        EXPECT_EQ(err.code, serve::ErrCode::BadChecksum)
            << "offset " << i;

        // The header was authentic, so the stream stayed in sync: the
        // SAME connection must keep serving valid frames.
        const uint64_t id = client.sendFrame(
            serve::MsgType::Ping, "still-here");
        auto pong = client.recvFrame();
        ASSERT_TRUE(pong.has_value()) << "offset " << i;
        EXPECT_EQ(pong->type, serve::MsgType::Pong) << "offset " << i;
        EXPECT_EQ(pong->id, id) << "offset " << i;
    }
    assertControlAlive();
}

TEST_F(ServeFuzz, OversizedDeclaredLengthIsRefusedBeforeBuffering)
{
    // Hand-build a header whose authentic checksum declares a payload
    // far over the cap: it must be refused from the header alone.
    util::WireWriter w;
    w.u32(serve::kMagic);
    w.u16(serve::kProtocolVersion);
    w.u16(static_cast<uint16_t>(serve::MsgType::PredictPoints));
    w.u64(99);                              // id
    w.u32(serve::kDefaultMaxPayload + 1);   // over the cap
    w.u32(0);                               // reserved
    w.u64(util::fnv1a64("", 0));            // payload checksum
    w.u64(util::fnv1a64(w.bytes().data(), 32));
    const std::string header = w.take();
    ASSERT_EQ(header.size(), serve::kHeaderSize);

    auto client = attacker();
    client.sendRaw(header.data(), header.size());
    auto reply = client.recvFrame();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, serve::MsgType::Error);
    serve::ErrorReply err;
    ASSERT_TRUE(serve::ErrorReply::decode(reply->payload, err));
    EXPECT_EQ(err.code, serve::ErrCode::FrameTooLarge);
    EXPECT_EQ(reply->id, 99u);  // the id survives header validation
    EXPECT_FALSE(client.recvFrame().has_value());
    assertControlAlive();
}

TEST_F(ServeFuzz, PointCountOverflowIsRejected)
{
    // n * width = 2^61, so the naive size check `elems * 8` wraps to
    // 0 mod 2^64 and matches an empty remainder — the decode must
    // reject it outright instead of attempting a 2^61-element resize
    // (which would throw on a worker thread and kill the server).
    util::WireWriter w;
    w.u32(0x80000000u);  // n     = 2^31
    w.u32(0x40000000u);  // width = 2^30
    const std::string payload = w.take();

    serve::PredictPointsRequest decoded;
    EXPECT_FALSE(serve::PredictPointsRequest::decode(payload, decoded));

    const std::string frame = serve::encodeFrame(
        serve::MsgType::PredictPoints, 31, payload);
    auto client = attacker();
    client.sendRaw(frame.data(), frame.size());
    auto reply = client.recvFrame();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, serve::MsgType::Error);
    serve::ErrorReply err;
    ASSERT_TRUE(serve::ErrorReply::decode(reply->payload, err));
    EXPECT_EQ(err.code, serve::ErrCode::BadRequest);
    EXPECT_EQ(reply->id, 31u);
    assertControlAlive();
}

TEST_F(ServeFuzz, GarbageSplicedMidStream)
{
    // valid frame | garbage | valid frame, one write: the first frame
    // must be answered normally, the garbage must produce a BadFrame
    // error and a disconnect, and the second frame must never execute.
    std::string stream = validFrame(21);
    for (int i = 0; i < 64; ++i)
        stream.push_back(static_cast<char>((i * 37 + 11) & 0xff));
    stream += validFrame(22);

    auto client = attacker();
    client.sendRaw(stream.data(), stream.size());

    // The BadFrame error is sent by the I/O thread while the first
    // request is still with a worker, so the two replies can arrive
    // in either order; what is fixed is the set — one prediction for
    // id 21, one BadFrame error, nothing for id 22 — then EOF.
    int predictions = 0, bad_frames = 0;
    for (;;) {
        auto frame = client.recvFrame();
        if (!frame.has_value())
            break;
        if (frame->type == serve::MsgType::Predictions) {
            EXPECT_EQ(frame->id, 21u);
            ++predictions;
        } else {
            ASSERT_EQ(frame->type, serve::MsgType::Error);
            serve::ErrorReply err;
            ASSERT_TRUE(serve::ErrorReply::decode(frame->payload, err));
            EXPECT_EQ(err.code, serve::ErrCode::BadFrame);
            ++bad_frames;
        }
    }
    EXPECT_EQ(predictions, 1);
    EXPECT_EQ(bad_frames, 1);
    assertControlAlive();
}

TEST_F(ServeFuzz, ReplyNeverCrossesConnections)
{
    // Two clients with colliding correlation ids: each must get its
    // own prediction back (conn identity, not id, routes replies).
    auto a = attacker();
    auto b = attacker();

    serve::PredictPointsRequest ra, rb;
    ra.width = rb.width = 3;
    ra.x = {0.1, 0.1, 0.1};
    rb.x = {0.9, 0.9, 0.9};
    std::vector<double> ya(1), yb(1);
    fuzzEnsemble().predictBatch(ra.x.data(), 1, ya.data());
    fuzzEnsemble().predictBatch(rb.x.data(), 1, yb.data());
    ASSERT_NE(ya[0], yb[0]);

    // Both clients use their first correlation id, so the ids collide
    // across connections by construction.
    ASSERT_EQ(a.sendFrame(serve::MsgType::PredictPoints, ra.encode()),
              b.sendFrame(serve::MsgType::PredictPoints, rb.encode()));

    auto fa = a.recvFrame();
    auto fb = b.recvFrame();
    ASSERT_TRUE(fa.has_value());
    ASSERT_TRUE(fb.has_value());
    serve::PredictionsReply pa, pb;
    ASSERT_TRUE(serve::PredictionsReply::decode(fa->payload, pa));
    ASSERT_TRUE(serve::PredictionsReply::decode(fb->payload, pb));
    ASSERT_EQ(pa.y.size(), 1u);
    ASSERT_EQ(pb.y.size(), 1u);
    EXPECT_EQ(pa.y[0], ya[0]);
    EXPECT_EQ(pb.y[0], yb[0]);
    assertControlAlive();
}

TEST(ServeFuzzFormat, FrameBytesArePinned)
{
    using serve::MsgType;
    const double nan = testfnv::nanWithPayload();
    const double tiny = std::numeric_limits<double>::denorm_min();

    serve::LoadModelRequest load;
    load.path = "/models/mcf.model";
    load.hasStudy = true;
    load.study = 1;
    load.app = "mcf";
    load.train = true;
    load.maxSims = 120;
    load.maxEpochs = 800;

    serve::PredictPointsRequest points;
    points.width = 3;
    points.x = {0.25, -0.0, tiny, nan, 1e300, -1.5};

    serve::PredictRangeRequest range;
    range.first = 1ull << 40;
    range.count = 7;

    serve::SimulateBatchRequest simulate;
    simulate.study = 0;
    simulate.app = "gzip";
    simulate.traceLength = 1 << 20;
    simulate.simpoint = true;
    simulate.indices = {0, 977, std::numeric_limits<uint64_t>::max()};

    serve::ModelInfoReply loaded;
    loaded.members = 10;
    loaded.inputs = 24;
    loaded.outputs = 1;
    loaded.estMeanPct = 2.5;
    loaded.estSdPct = 1.0 / 3.0;
    loaded.degraded = true;
    loaded.spaceSize = 23040;
    loaded.study = "memory-system";
    loaded.app = "mcf";

    serve::ModelInfoReply info;
    info.members = 3;
    info.inputs = 3;
    info.outputs = 1;
    info.estMeanPct = -0.0;
    info.estSdPct = nan;

    serve::PredictionsReply predictions;
    predictions.y = {1.0, -0.0, nan, tiny};

    serve::StatsReply stats;
    stats.requests = 1;
    stats.predictions = 2;
    stats.batchedRequests = 3;
    stats.overloaded = 4;
    stats.protocolErrors = 5;
    stats.bytesRx = 1ull << 33;
    stats.bytesTx = std::numeric_limits<uint64_t>::max();
    stats.connectionsAccepted = 8;
    stats.activeConnections = 9;
    stats.queueDepth = 10;

    serve::SimulateBatchReply full;
    full.results = testfnv::pinnedResults();

    serve::SimulateBatchReply estimates;
    estimates.simpoint = true;
    estimates.ipc = {0.5, -0.0, tiny, nan};

    serve::ErrorReply error;
    error.code = serve::ErrCode::BadIndex;
    error.message = "index range outside the design space";

    struct Case
    {
        const char *name;
        MsgType type;
        std::string payload;
        const char *digest;
    };
    const Case cases[] = {
        {"Ping", MsgType::Ping, "dse", "0xff5e14882726caad"},
        {"LoadModel", MsgType::LoadModel, load.encode(),
         "0x01030daeed14e19d"},
        {"PredictPoints", MsgType::PredictPoints, points.encode(),
         "0x7c79cea2dbdeb11e"},
        {"PredictRange", MsgType::PredictRange, range.encode(),
         "0xf7d771d016db4791"},
        {"ModelInfo", MsgType::ModelInfo, "", "0xc6016be37b683fef"},
        {"Stats", MsgType::Stats, "", "0x59ec4b68891b5167"},
        {"SimulateBatch", MsgType::SimulateBatch, simulate.encode(),
         "0x35f5078fe74b34bb"},
        {"Pong", MsgType::Pong, "dse", "0x6978db186138ef13"},
        {"ModelLoaded", MsgType::ModelLoaded, loaded.encode(),
         "0x493a07b249aecc10"},
        {"Predictions", MsgType::Predictions, predictions.encode(),
         "0xa1703fc74cb090ce"},
        {"ModelInfoReply", MsgType::ModelInfoReply, info.encode(),
         "0xaee60d0d62775e62"},
        {"StatsReply", MsgType::StatsReply, stats.encode(),
         "0xbeb1f3fec404f75d"},
        {"SimulateBatchReply/full", MsgType::SimulateBatchReply,
         full.encode(), "0x8cfa1082b36a9e0b"},
        {"SimulateBatchReply/simpoint", MsgType::SimulateBatchReply,
         estimates.encode(), "0x250aa121af12bb46"},
        {"Error", MsgType::Error, error.encode(), "0xbc5584fe34430c0c"},
    };
    uint64_t id = 0x0102030405060708ull;
    for (const auto &c : cases) {
        const std::string frame = serve::encodeFrame(c.type, id, c.payload);
        EXPECT_EQ(testfnv::bytesDigest(frame), c.digest) << c.name;

        serve::Frame decoded;
        size_t consumed = 0;
        ASSERT_EQ(serve::decodeFrame(frame.data(), frame.size(),
                                     serve::kDefaultMaxPayload, decoded,
                                     consumed),
                  serve::DecodeStatus::Frame)
            << c.name;
        EXPECT_EQ(consumed, frame.size()) << c.name;
        EXPECT_EQ(decoded.type, c.type) << c.name;
        EXPECT_EQ(decoded.id, id) << c.name;
        EXPECT_EQ(decoded.payload, c.payload) << c.name;
        id += 0x1111;
    }

    // The full-mode reply decodes to the same results, bit for bit.
    serve::SimulateBatchReply back;
    ASSERT_TRUE(serve::SimulateBatchReply::decode(full.encode(), back));
    ASSERT_EQ(back.results.size(), full.results.size());
    for (size_t i = 0; i < full.results.size(); ++i)
        EXPECT_EQ(testfnv::resultDigest(back.results[i]),
                  testfnv::resultDigest(full.results[i]))
            << "result " << i;
}

} // namespace
} // namespace dse
