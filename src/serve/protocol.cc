#include "serve/protocol.hh"

namespace dse {
namespace serve {

using util::WireReader;
using util::WireWriter;

const char *
errCodeName(ErrCode code)
{
    switch (code) {
      case ErrCode::None: return "none";
      case ErrCode::BadFrame: return "bad_frame";
      case ErrCode::BadChecksum: return "bad_checksum";
      case ErrCode::FrameTooLarge: return "frame_too_large";
      case ErrCode::BadRequest: return "bad_request";
      case ErrCode::NoModel: return "no_model";
      case ErrCode::BadIndex: return "bad_index";
      case ErrCode::Overloaded: return "overloaded";
      case ErrCode::ShuttingDown: return "shutting_down";
      case ErrCode::Internal: return "internal";
      case ErrCode::Timeout: return "timeout";
      case ErrCode::Disconnected: return "disconnected";
    }
    return "unknown";
}

// ---------------------------------------------------------------- framing

std::string
encodeFrame(MsgType type, uint64_t id, std::string_view payload)
{
    WireWriter w;
    w.reserve(kHeaderSize + payload.size());
    w.u32(kMagic);
    w.u16(kProtocolVersion);
    w.u16(static_cast<uint16_t>(type));
    w.u64(id);
    w.u32(static_cast<uint32_t>(payload.size()));
    w.u32(0);  // reserved
    w.u64(util::fnv1a64(payload.data(), payload.size()));
    w.u64(util::fnv1a64(w.bytes().data(), 32));
    w.raw(payload.data(), payload.size());
    return w.take();
}

DecodeStatus
decodeFrame(const char *data, size_t len, size_t max_payload, Frame &out,
            size_t &consumed)
{
    consumed = 0;
    if (len < kHeaderSize)
        return DecodeStatus::NeedMore;

    WireReader h(data, kHeaderSize);
    const uint32_t magic = h.u32();
    const uint16_t version = h.u16();
    const uint16_t type = h.u16();
    const uint64_t id = h.u64();
    const uint64_t payload_len = h.u32();
    const uint32_t reserved = h.u32();
    const uint64_t payload_sum = h.u64();
    // Authenticate the header before trusting any field in it.
    if (util::fnv1a64(data, 32) != h.u64() || magic != kMagic ||
        version != kProtocolVersion || reserved != 0)
        return DecodeStatus::BadHeader;

    out.type = static_cast<MsgType>(type);
    out.id = id;
    if (payload_len > max_payload)
        return DecodeStatus::TooLarge;
    if (len < kHeaderSize + payload_len)
        return DecodeStatus::NeedMore;

    const char *payload = data + kHeaderSize;
    consumed = kHeaderSize + payload_len;
    if (util::fnv1a64(payload, payload_len) != payload_sum) {
        // The header (and therefore payload_len) is authentic, so the
        // stream stays in sync: drop exactly this frame.
        out.payload.clear();
        return DecodeStatus::BadPayload;
    }
    out.payload.assign(payload, payload_len);
    return DecodeStatus::Frame;
}

// ---------------------------------------------------------------- payloads

std::string
LoadModelRequest::encode() const
{
    WireWriter w;
    w.str(path);
    w.u8(hasStudy ? 1 : 0);
    w.u8(study);
    w.str(app);
    w.u8(train ? 1 : 0);
    w.u32(maxSims);
    w.u32(maxEpochs);
    return w.take();
}

bool
LoadModelRequest::decode(std::string_view payload, LoadModelRequest &out)
{
    WireReader r(payload);
    out.path = r.str();
    out.hasStudy = r.u8() != 0;
    out.study = r.u8();
    out.app = r.str();
    out.train = r.u8() != 0;
    out.maxSims = r.u32();
    out.maxEpochs = r.u32();
    return r.atEnd();
}

std::string
PredictPointsRequest::encode() const
{
    WireWriter w;
    w.u32(static_cast<uint32_t>(points()));
    w.u32(width);
    for (double v : x)
        w.f64(v);
    return w.take();
}

bool
PredictPointsRequest::decode(std::string_view payload,
                             PredictPointsRequest &out)
{
    WireReader r(payload);
    const uint32_t n = r.u32();
    out.width = r.u32();
    if (!r.ok() || out.width == 0 || n == 0)
        return false;
    // Validate the element count against the remaining bytes without
    // multiplying by 8: n*width can reach 2^64/8, so `elems * 8` could
    // wrap and let a tiny hostile frame pass as a huge allocation.
    const uint64_t elems = static_cast<uint64_t>(n) * out.width;
    if (r.remaining() % 8 != 0 || elems != r.remaining() / 8)
        return false;
    out.x.resize(elems);
    for (auto &v : out.x)
        v = r.f64();
    return r.atEnd();
}

std::string
PredictRangeRequest::encode() const
{
    WireWriter w;
    w.u64(first);
    w.u64(count);
    return w.take();
}

bool
PredictRangeRequest::decode(std::string_view payload,
                            PredictRangeRequest &out)
{
    WireReader r(payload);
    out.first = r.u64();
    out.count = r.u64();
    return r.atEnd();
}

std::string
PredictionsReply::encode() const
{
    WireWriter w;
    w.u32(static_cast<uint32_t>(y.size()));
    for (double v : y)
        w.f64(v);
    return w.take();
}

bool
PredictionsReply::decode(std::string_view payload, PredictionsReply &out)
{
    WireReader r(payload);
    const uint32_t n = r.u32();
    if (!r.ok() || static_cast<uint64_t>(n) * 8 != r.remaining())
        return false;
    out.y.resize(n);
    for (auto &v : out.y)
        v = r.f64();
    return r.atEnd();
}

std::string
ModelInfoReply::encode() const
{
    WireWriter w;
    w.u32(members);
    w.u32(inputs);
    w.u32(outputs);
    w.f64(estMeanPct);
    w.f64(estSdPct);
    w.u8(degraded ? 1 : 0);
    w.u64(spaceSize);
    w.str(study);
    w.str(app);
    return w.take();
}

bool
ModelInfoReply::decode(std::string_view payload, ModelInfoReply &out)
{
    WireReader r(payload);
    out.members = r.u32();
    out.inputs = r.u32();
    out.outputs = r.u32();
    out.estMeanPct = r.f64();
    out.estSdPct = r.f64();
    out.degraded = r.u8() != 0;
    out.spaceSize = r.u64();
    out.study = r.str();
    out.app = r.str();
    return r.atEnd();
}

std::string
StatsReply::encode() const
{
    WireWriter w;
    w.u64(requests);
    w.u64(predictions);
    w.u64(batchedRequests);
    w.u64(overloaded);
    w.u64(protocolErrors);
    w.u64(bytesRx);
    w.u64(bytesTx);
    w.u64(connectionsAccepted);
    w.u64(activeConnections);
    w.u64(queueDepth);
    return w.take();
}

bool
StatsReply::decode(std::string_view payload, StatsReply &out)
{
    WireReader r(payload);
    out.requests = r.u64();
    out.predictions = r.u64();
    out.batchedRequests = r.u64();
    out.overloaded = r.u64();
    out.protocolErrors = r.u64();
    out.bytesRx = r.u64();
    out.bytesTx = r.u64();
    out.connectionsAccepted = r.u64();
    out.activeConnections = r.u64();
    out.queueDepth = r.u64();
    return r.atEnd();
}

std::string
SimulateBatchRequest::encode() const
{
    WireWriter w;
    w.u8(study);
    w.str(app);
    w.u64(traceLength);
    w.u8(simpoint ? 1 : 0);
    w.u32(static_cast<uint32_t>(indices.size()));
    for (uint64_t idx : indices)
        w.u64(idx);
    return w.take();
}

bool
SimulateBatchRequest::decode(std::string_view payload,
                             SimulateBatchRequest &out)
{
    WireReader r(payload);
    out.study = r.u8();
    out.app = r.str();
    out.traceLength = r.u64();
    out.simpoint = r.u8() != 0;
    const uint32_t n = r.u32();
    // Divide-side validation (as in PredictPointsRequest): the index
    // count must exactly account for the remaining bytes, checked
    // without a multiply that could wrap on a hostile count.
    if (!r.ok() || n == 0 || r.remaining() % 8 != 0 ||
        n != r.remaining() / 8)
        return false;
    out.indices.resize(n);
    for (auto &idx : out.indices)
        idx = r.u64();
    return r.atEnd();
}

std::string
SimulateBatchReply::encode() const
{
    WireWriter w;
    w.u8(simpoint ? 1 : 0);
    w.u32(static_cast<uint32_t>(points()));
    if (simpoint) {
        for (double v : ipc)
            w.f64(v);
    } else {
        for (const auto &r : results)
            sim::putSimResult(w, r);
    }
    return w.take();
}

bool
SimulateBatchReply::decode(std::string_view payload,
                           SimulateBatchReply &out)
{
    WireReader r(payload);
    out.simpoint = r.u8() != 0;
    const uint32_t n = r.u32();
    const size_t per = out.simpoint ? 8 : sim::kSimResultBytes;
    if (!r.ok() || r.remaining() % per != 0 || n != r.remaining() / per)
        return false;
    out.results.clear();
    out.ipc.clear();
    if (out.simpoint) {
        out.ipc.resize(n);
        for (auto &v : out.ipc)
            v = r.f64();
    } else {
        out.results.reserve(n);
        for (uint32_t i = 0; i < n; ++i)
            out.results.push_back(sim::getSimResult(r));
    }
    return r.atEnd();
}

std::string
ErrorReply::encode() const
{
    WireWriter w;
    w.u16(static_cast<uint16_t>(code));
    w.str(message);
    return w.take();
}

bool
ErrorReply::decode(std::string_view payload, ErrorReply &out)
{
    WireReader r(payload);
    out.code = static_cast<ErrCode>(r.u16());
    out.message = r.str();
    return r.atEnd();
}

} // namespace serve
} // namespace dse
