#include "serve/client.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "util/env.hh"

namespace dse {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void
transportError(const std::string &what)
{
    throw ServeError(ErrCode::Internal, what);
}

[[noreturn]] void
timeoutError(const std::string &what)
{
    throw ServeError(ErrCode::Timeout, what);
}

[[noreturn]] void
disconnectedError(const std::string &what)
{
    throw ServeError(ErrCode::Disconnected, what);
}

/** Milliseconds left before @p deadline, clamped to >= 0. A poll()
 *  with the result can therefore never block unboundedly. */
int
remainingMs(Clock::time_point deadline)
{
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0)
        return 0;
    if (left.count() > 3600000)
        return 3600000;
    return static_cast<int>(left.count());
}

} // namespace

int
Client::defaultTimeoutMs()
{
    const long long ms = envInt("DSE_SERVE_TIMEOUT_MS", 30000);
    return ms > 0 ? static_cast<int>(ms) : 30000;
}

Client::Client() : timeoutMs_(defaultTimeoutMs())
{}

Client::~Client()
{
    close();
}

Client::Client(Client &&other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      timeoutMs_(other.timeoutMs_),
      nextId_(other.nextId_),
      rx_(std::move(other.rx_))
{}

Client &
Client::operator=(Client &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = std::exchange(other.fd_, -1);
        timeoutMs_ = other.timeoutMs_;
        nextId_ = other.nextId_;
        rx_ = std::move(other.rx_);
    }
    return *this;
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    rx_.clear();
}

void
Client::connect(const std::string &host, uint16_t port, int timeout_ms)
{
    close();
    if (timeout_ms <= 0)
        timeout_ms = timeoutMs_;

    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_port = htons(port);
    std::string addr = host;
    if (addr == "localhost")
        addr = "127.0.0.1";
    if (inet_pton(AF_INET, addr.c_str(), &sin.sin_addr) != 1)
        transportError("bad address '" + host + "'");

    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        transportError("socket() failed");

    // Nonblocking connect with a poll deadline so an unreachable
    // server fails fast.
    const int flags = fcntl(fd_, F_GETFL, 0);
    fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd_, reinterpret_cast<sockaddr *>(&sin),
                       sizeof(sin));
    if (rc != 0 && errno == EINPROGRESS) {
        pollfd pfd{fd_, POLLOUT, 0};
        rc = poll(&pfd, 1, timeout_ms);
        if (rc <= 0) {
            close();
            timeoutError("connect timeout to " + host + ":" +
                         std::to_string(port));
        }
        int err = 0;
        socklen_t len = sizeof(err);
        getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
            close();
            if (err == ECONNREFUSED || err == ECONNRESET ||
                err == EPIPE || err == EHOSTUNREACH ||
                err == ENETUNREACH) {
                disconnectedError(std::string("connect failed: ") +
                                  std::strerror(err));
            }
            transportError(std::string("connect failed: ") +
                           std::strerror(err));
        }
    } else if (rc != 0) {
        const int err = errno;
        close();
        if (err == ECONNREFUSED || err == ECONNRESET ||
            err == EHOSTUNREACH || err == ENETUNREACH) {
            disconnectedError(std::string("connect failed: ") +
                              std::strerror(err));
        }
        transportError(std::string("connect failed: ") +
                       std::strerror(err));
    }
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void
Client::sendRaw(const void *data, size_t n)
{
    if (fd_ < 0)
        disconnectedError("not connected");
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeoutMs_);
    const char *p = static_cast<const char *>(data);
    size_t off = 0;
    while (off < n) {
        // MSG_NOSIGNAL: a dropped peer must raise EPIPE through a
        // structured error, not SIGPIPE the host process.
        const ssize_t w = send(fd_, p + off, n - off, MSG_NOSIGNAL);
        if (w > 0) {
            off += static_cast<size_t>(w);
            continue;
        }
        if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            // Hard deadline across the whole send, not per poll: a
            // peer that drains one byte per timeout window cannot
            // stretch the operation unboundedly.
            const int left = remainingMs(deadline);
            pollfd pfd{fd_, POLLOUT, 0};
            if (left == 0 || poll(&pfd, 1, left) == 0)
                timeoutError("send timeout");
            continue;
        }
        if (w < 0 && errno == EINTR)
            continue;
        if (w < 0 && (errno == EPIPE || errno == ECONNRESET))
            disconnectedError(std::string("send failed: ") +
                              std::strerror(errno));
        transportError(std::string("send failed: ") +
                       std::strerror(errno));
    }
}

uint64_t
Client::sendFrame(MsgType type, std::string_view payload)
{
    const uint64_t id = nextId_++;
    const std::string frame = encodeFrame(type, id, payload);
    sendRaw(frame.data(), frame.size());
    return id;
}

std::optional<Frame>
Client::recvFrame()
{
    if (fd_ < 0)
        disconnectedError("not connected");
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeoutMs_);
    char buf[65536];
    for (;;) {
        Frame frame;
        size_t consumed = 0;
        const DecodeStatus st = decodeFrame(
            rx_.data(), rx_.size(), kDefaultMaxPayload, frame, consumed);
        if (st == DecodeStatus::Frame) {
            rx_.erase(0, consumed);
            return frame;
        }
        if (st != DecodeStatus::NeedMore)
            transportError("corrupt frame from server");

        // One deadline across the whole frame: a server trickling a
        // byte per poll window cannot hold the client past timeoutMs_.
        const int left = remainingMs(deadline);
        pollfd pfd{fd_, POLLIN, 0};
        const int rc = left == 0 ? 0 : poll(&pfd, 1, left);
        if (rc == 0)
            timeoutError("receive timeout");
        if (rc < 0 && errno != EINTR)
            transportError("poll failed");
        const ssize_t n = read(fd_, buf, sizeof(buf));
        if (n == 0)
            return std::nullopt;  // orderly EOF
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK ||
                errno == EINTR)
                continue;
            if (errno == ECONNRESET || errno == EPIPE)
                disconnectedError(std::string("recv failed: ") +
                                  std::strerror(errno));
            transportError(std::string("recv failed: ") +
                           std::strerror(errno));
        }
        rx_.append(buf, static_cast<size_t>(n));
    }
}

Frame
Client::expectReply(uint64_t id, MsgType want)
{
    for (;;) {
        auto frame = recvFrame();
        if (!frame)
            disconnectedError("server closed the connection");
        if (frame->id != id && frame->id != 0)
            continue;  // stale reply from an abandoned request
        if (frame->type == MsgType::Error) {
            ErrorReply err;
            if (!ErrorReply::decode(frame->payload, err))
                transportError("undecodable error reply");
            throw ServeError(err.code, err.message);
        }
        if (frame->type != want)
            transportError("unexpected reply type");
        return *std::move(frame);
    }
}

void
Client::ping()
{
    const uint64_t id = sendFrame(MsgType::Ping, "dse");
    const Frame reply = expectReply(id, MsgType::Pong);
    if (reply.payload != "dse")
        transportError("ping payload not echoed");
}

ModelInfoReply
Client::loadModel(const LoadModelRequest &req)
{
    const uint64_t id = sendFrame(MsgType::LoadModel, req.encode());
    const Frame reply = expectReply(id, MsgType::ModelLoaded);
    ModelInfoReply info;
    if (!ModelInfoReply::decode(reply.payload, info))
        transportError("undecodable ModelLoaded reply");
    return info;
}

std::vector<double>
Client::predictPoints(const double *x, size_t n, size_t width)
{
    PredictPointsRequest req;
    req.width = static_cast<uint32_t>(width);
    req.x.assign(x, x + n * width);
    const uint64_t id =
        sendFrame(MsgType::PredictPoints, req.encode());
    const Frame reply = expectReply(id, MsgType::Predictions);
    PredictionsReply pred;
    if (!PredictionsReply::decode(reply.payload, pred) ||
        pred.y.size() != n)
        transportError("undecodable Predictions reply");
    return std::move(pred.y);
}

std::vector<double>
Client::predictRange(uint64_t first, uint64_t count)
{
    const uint64_t id = sendFrame(
        MsgType::PredictRange, PredictRangeRequest{first, count}.encode());
    const Frame reply = expectReply(id, MsgType::Predictions);
    PredictionsReply pred;
    if (!PredictionsReply::decode(reply.payload, pred) ||
        pred.y.size() != count)
        transportError("undecodable Predictions reply");
    return std::move(pred.y);
}

ModelInfoReply
Client::modelInfo()
{
    const uint64_t id = sendFrame(MsgType::ModelInfo, "");
    const Frame reply = expectReply(id, MsgType::ModelInfoReply);
    ModelInfoReply info;
    if (!ModelInfoReply::decode(reply.payload, info))
        transportError("undecodable ModelInfo reply");
    return info;
}

SimulateBatchReply
Client::simulateBatch(const SimulateBatchRequest &req)
{
    const uint64_t id = sendFrame(MsgType::SimulateBatch, req.encode());
    const Frame reply = expectReply(id, MsgType::SimulateBatchReply);
    SimulateBatchReply out;
    if (!SimulateBatchReply::decode(reply.payload, out) ||
        out.points() != req.indices.size())
        transportError("undecodable SimulateBatchReply");
    return out;
}

StatsReply
Client::stats()
{
    const uint64_t id = sendFrame(MsgType::Stats, "");
    const Frame reply = expectReply(id, MsgType::StatsReply);
    StatsReply s;
    if (!StatsReply::decode(reply.payload, s))
        transportError("undecodable Stats reply");
    return s;
}

} // namespace serve
} // namespace dse
