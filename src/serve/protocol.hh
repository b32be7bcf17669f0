/**
 * @file
 * dse::serve wire protocol — length-prefixed, versioned, checksummed
 * binary frames for the prediction service.
 *
 * Every message is one frame: a fixed 40-byte header followed by a
 * variable payload, both written through the shared byte layer
 * (util/bytes.hh), so a prediction served over the wire is the exact
 * double the server computed — bit-identical to a local
 * Ensemble::predictBatch call.
 *
 * Header layout (kHeaderSize = 40 bytes):
 *
 *     off  size  field
 *       0     4  magic            "DSRV"
 *       4     2  version          kProtocolVersion
 *       6     2  type             MsgType
 *       8     8  id               request correlation id (echoed in
 *                                 the reply, so pipelined clients can
 *                                 match replies to requests)
 *      16     4  payloadLen       bytes following the header
 *      20     4  reserved         must be 0
 *      24     8  payloadChecksum  FNV-1a 64 over the payload bytes
 *      32     8  headerChecksum   FNV-1a 64 over bytes [0, 32)
 *
 * The two checksums split the failure modes: a bad *header* checksum
 * (or magic/version mismatch) means the stream itself cannot be
 * trusted — the peer gets one structured Error frame and a clean
 * disconnect; a bad *payload* checksum under an intact header means
 * exactly one frame is corrupt — it is rejected with an Error reply
 * and the connection keeps serving, because the validated payloadLen
 * keeps the stream in sync. A declared length above the negotiated
 * cap is rejected before any payload is buffered, so an adversarial
 * header can never balloon server memory.
 */

#ifndef DSE_SERVE_PROTOCOL_HH
#define DSE_SERVE_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/config.hh"
#include "util/bytes.hh"

namespace dse {
namespace serve {

/** Protocol version carried in every frame header. */
constexpr uint16_t kProtocolVersion = 1;

/** Frame magic, "DSRV" as bytes on the wire. */
constexpr uint32_t kMagic = 0x56525344u;

/** Fixed header size in bytes. */
constexpr size_t kHeaderSize = 40;

/** Cap on payload bytes per frame (16 MiB), at both client and server. */
constexpr uint32_t kDefaultMaxPayload = 16u << 20;

/** Message types. Requests are < 16, replies >= 16. */
enum class MsgType : uint16_t {
    // requests
    Ping = 1,
    LoadModel = 2,
    PredictPoints = 3,
    PredictRange = 4,
    ModelInfo = 5,
    Stats = 6,
    SimulateBatch = 7,
    // replies
    Pong = 16,
    ModelLoaded = 17,
    Predictions = 18,
    ModelInfoReply = 19,
    StatsReply = 20,
    SimulateBatchReply = 21,
    Error = 31,
};

/** True for request-kind message types (client -> server). */
inline bool
isRequest(MsgType t)
{
    return static_cast<uint16_t>(t) < 16;
}

/** Structured error codes carried by Error replies. */
enum class ErrCode : uint16_t {
    None = 0,
    BadFrame = 1,       ///< header corrupt/unrecognized; conn closes
    BadChecksum = 2,    ///< payload checksum mismatch; conn survives
    FrameTooLarge = 3,  ///< declared length over the cap; conn closes
    BadRequest = 4,     ///< malformed/unknown request payload
    NoModel = 5,        ///< no model loaded yet
    BadIndex = 6,       ///< point index/width outside the model/space
    Overloaded = 7,     ///< request queue full — back off and retry
    ShuttingDown = 8,   ///< server is draining
    Internal = 9,       ///< server-side failure (message has details)
    // Client-side transport outcomes (never sent on the wire; raised
    // by serve::Client so callers can tell a deadline expiry from a
    // dead peer and react differently — retry elsewhere vs. reconnect).
    Timeout = 10,       ///< operation deadline expired
    Disconnected = 11,  ///< peer closed/reset the connection
};

/** Human-readable name of an error code (stable, for logs/tests). */
const char *errCodeName(ErrCode code);

/** A fully decoded frame. */
struct Frame
{
    MsgType type = MsgType::Ping;
    uint64_t id = 0;
    std::string payload;
};

/** Outcome of an incremental decode attempt. */
enum class DecodeStatus {
    NeedMore,    ///< not enough bytes buffered yet; consumed == 0
    Frame,       ///< one intact frame decoded; consumed advances
    BadHeader,   ///< magic/version/reserved/header-checksum violation
    TooLarge,    ///< declared payload length over the cap
    BadPayload,  ///< header intact, payload checksum mismatch;
                 ///< consumed skips exactly this frame
};

/**
 * Try to decode one frame from the front of a byte buffer.
 *
 * @param data   buffered bytes from the peer
 * @param len    bytes available
 * @param max_payload cap on the declared payload length
 * @param out    receives the frame on Frame (and the header fields,
 *               for error replies, on BadPayload)
 * @param consumed bytes to drop from the front of the buffer
 *               (0 on NeedMore/BadHeader/TooLarge)
 * @return decode status; BadHeader/TooLarge poison the stream — the
 *         caller should error out and close
 */
DecodeStatus decodeFrame(const char *data, size_t len, size_t max_payload,
                         Frame &out, size_t &consumed);

/** Serialize a complete frame (header + payload). */
std::string encodeFrame(MsgType type, uint64_t id,
                        std::string_view payload);

/// @name Typed payloads.
/// @{

/**
 * LoadModel request: point the server at a new model. Either a file
 * path produced by saveEnsemble, or a (study, app) pair the server
 * trains on the spot (bounded by maxSims/maxEpochs). Naming a study
 * also attaches that study's DesignSpace, which is what PredictRange
 * serves from.
 */
struct LoadModelRequest
{
    std::string path;     ///< ensemble file ("" = none)
    bool hasStudy = false;
    uint8_t study = 0;    ///< study::StudyKind as an integer
    std::string app;      ///< benchmark name ("" = none)
    bool train = false;   ///< train via the explorer (needs study+app)
    uint32_t maxSims = 200;
    uint32_t maxEpochs = 2000;

    std::string encode() const;
    static bool decode(std::string_view payload, LoadModelRequest &out);
};

/** PredictPoints request: n encoded design points, row-major. */
struct PredictPointsRequest
{
    uint32_t width = 0;
    std::vector<double> x;  ///< [n x width]

    size_t points() const { return width ? x.size() / width : 0; }
    std::string encode() const;
    static bool decode(std::string_view payload, PredictPointsRequest &out);
};

/** PredictRange request: [first, first + count) flat space indices. */
struct PredictRangeRequest
{
    uint64_t first = 0;
    uint64_t count = 0;

    std::string encode() const;
    static bool decode(std::string_view payload, PredictRangeRequest &out);
};

/** Predictions reply: one decoded double per requested point. */
struct PredictionsReply
{
    std::vector<double> y;

    std::string encode() const;
    static bool decode(std::string_view payload, PredictionsReply &out);
};

/** ModelInfo / ModelLoaded reply. */
struct ModelInfoReply
{
    uint32_t members = 0;
    uint32_t inputs = 0;
    uint32_t outputs = 0;
    double estMeanPct = 0.0;
    double estSdPct = 0.0;
    bool degraded = false;
    uint64_t spaceSize = 0;  ///< 0 = no design space attached
    std::string study;       ///< "" = none
    std::string app;

    std::string encode() const;
    static bool decode(std::string_view payload, ModelInfoReply &out);
};

/** Stats reply: server counters at snapshot time. */
struct StatsReply
{
    uint64_t requests = 0;       ///< frames accepted for processing
    uint64_t predictions = 0;    ///< points predicted
    uint64_t batchedRequests = 0;  ///< requests coalesced into a
                                   ///< shared predictBatch beyond the
                                   ///< first of each group
    uint64_t overloaded = 0;     ///< requests refused queue-full,
                                 ///< plus connections refused at
                                 ///< maxConnections
    uint64_t protocolErrors = 0; ///< corrupt/oversized/bad frames
    uint64_t bytesRx = 0;
    uint64_t bytesTx = 0;
    uint64_t connectionsAccepted = 0;
    uint64_t activeConnections = 0;
    uint64_t queueDepth = 0;

    std::string encode() const;
    static bool decode(std::string_view payload, StatsReply &out);
};

/**
 * SimulateBatch request: farm a batch of design-point simulations out
 * to a remote worker (dse::remote). The worker reconstructs the same
 * StudyContext identity — (study, app, trace length) — so simulation
 * is the same pure function on both sides, and results travel as raw
 * IEEE-754 bit patterns: a remotely simulated point is bit-identical
 * to a locally simulated one.
 */
struct SimulateBatchRequest
{
    uint8_t study = 0;      ///< study::StudyKind as an integer
    std::string app;        ///< benchmark name
    uint64_t traceLength = 0;  ///< 0 = library default
    bool simpoint = false;  ///< SimPoint estimates instead of full sims
    std::vector<uint64_t> indices;  ///< design-point indices

    std::string encode() const;
    static bool decode(std::string_view payload, SimulateBatchRequest &out);
};

/**
 * SimulateBatchReply: one result per requested index, in request
 * order. Full mode carries complete SimResult records
 * (sim::putSimResult) so the dispatcher can merge them into the study
 * memo cache exactly as if simulated locally; SimPoint mode carries
 * only the calibrated IPC estimate.
 */
struct SimulateBatchReply
{
    bool simpoint = false;
    std::vector<sim::SimResult> results;  ///< full mode (simpoint false)
    std::vector<double> ipc;              ///< simpoint mode

    size_t points() const
    {
        return simpoint ? ipc.size() : results.size();
    }
    std::string encode() const;
    static bool decode(std::string_view payload, SimulateBatchReply &out);
};

/** Error reply: structured code + human-readable detail. */
struct ErrorReply
{
    ErrCode code = ErrCode::None;
    std::string message;

    std::string encode() const;
    static bool decode(std::string_view payload, ErrorReply &out);
};

/// @}

} // namespace serve
} // namespace dse

#endif // DSE_SERVE_PROTOCOL_HH
