#include "serve/server.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "ml/explorer.hh"
#include "ml/io.hh"
#include "study/harness.hh"
#include "util/fault.hh"
#include "util/metrics.hh"
#include "util/thread_pool.hh"
#include "util/trace.hh"

namespace dse {
namespace serve {

namespace {

/** serve.* instrumentation (DESIGN.md "Observability"). */
const obs::Counter kRequests("serve.requests");
const obs::Counter kPredictions("serve.predictions");
const obs::Counter kBatched("serve.batched");
const obs::Counter kOverloaded("serve.overloaded");
const obs::Counter kProtocolErrors("serve.protocol_errors");
const obs::Counter kBytesRx("serve.bytes_rx");
const obs::Counter kBytesTx("serve.bytes_tx");
const obs::Counter kConnections("serve.connections");
const obs::Histogram kRequestWallNs("serve.request_wall_ns");
const obs::Histogram kBatchWallNs("serve.batch_wall_ns");
const obs::Histogram kBatchPoints("serve.batch_points");

/** Close a connection idle (no frame, nothing pending) this long. */
constexpr uint64_t kIdleTimeoutNs = 30000ull * 1000000ull;

/** Close a connection whose outbox makes no progress this long; also
 *  the drain deadline of stop(). */
constexpr uint64_t kWriteTimeoutNs = 10000ull * 1000000ull;

void
setNonBlocking(int fd)
{
    const int flags = fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/** Quick peek at a PredictPoints payload's point count (for batch
 *  sizing before the full decode; the decode still validates). */
size_t
peekPointCount(const std::string &payload)
{
    util::WireReader r(payload);
    const uint32_t n = r.u32();
    return (r.ok() && n) ? n : 1;
}

} // namespace

Server::Counts::Counts()
    : requests(kRequests), predictions(kPredictions),
      batchedRequests(kBatched), overloaded(kOverloaded),
      protocolErrors(kProtocolErrors), bytesRx(kBytesRx),
      bytesTx(kBytesTx), connectionsAccepted(kConnections)
{
}

Server::Server(ServerOptions opts) : opts_(std::move(opts))
{
    if (opts_.queueCapacity == 0)
        opts_.queueCapacity = 1;
    if (opts_.maxBatchPoints == 0)
        opts_.maxBatchPoints = 1;
}

Server::~Server()
{
    stop();
}

uint64_t
Server::nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
Server::setModel(ModelState state)
{
    auto shared = std::make_shared<const ModelState>(std::move(state));
    std::lock_guard<std::mutex> lock(modelMu_);
    model_ = std::move(shared);
}

std::shared_ptr<const ModelState>
Server::model() const
{
    std::lock_guard<std::mutex> lock(modelMu_);
    return model_;
}

void
Server::setSimulateHandler(SimulateHandler handler)
{
    auto shared =
        std::make_shared<const SimulateHandler>(std::move(handler));
    std::lock_guard<std::mutex> lock(modelMu_);
    simulateHandler_ = std::move(shared);
}

void
Server::start()
{
    if (running_.load())
        throw std::runtime_error("serve: server already started");
    stopping_.store(false);
    workersExit_.store(false);

    // Wake pipe: workers (and signal handlers via requestStop) nudge
    // the poll loop with one byte.
    int pipefd[2];
    if (pipe(pipefd) != 0)
        throw std::runtime_error("serve: pipe() failed");
    wakeRead_ = pipefd[0];
    wakeWrite_ = pipefd[1];
    setNonBlocking(wakeRead_);
    setNonBlocking(wakeWrite_);

    // stop() returns early for a server that never ran, so a failed
    // start closes everything it opened before it throws.
    auto fail = [this](const std::string &what) {
        closeDescriptors();
        throw std::runtime_error(what);
    };

    listenFd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fail("serve: socket() failed");
    const int one = 1;
    setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_port = htons(opts_.port);
    std::string addr = opts_.addr;
    if (addr == "localhost")
        addr = "127.0.0.1";
    if (inet_pton(AF_INET, addr.c_str(), &sin.sin_addr) != 1)
        fail("serve: bad bind address '" + opts_.addr + "'");
    if (bind(listenFd_, reinterpret_cast<sockaddr *>(&sin),
             sizeof(sin)) != 0 ||
        listen(listenFd_, 128) != 0) {
        const std::string err = std::strerror(errno);
        fail("serve: cannot listen on " + opts_.addr + ":" +
             std::to_string(opts_.port) + ": " + err);
    }
    setNonBlocking(listenFd_);

    socklen_t len = sizeof(sin);
    getsockname(listenFd_, reinterpret_cast<sockaddr *>(&sin), &len);
    boundPort_ = ntohs(sin.sin_port);

    const size_t workers = opts_.workers
        ? opts_.workers : util::ThreadPool::configuredThreads();
    for (size_t i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });

    running_.store(true, std::memory_order_release);
    ioThread_ = std::thread([this] { ioLoop(); });
}

void
Server::requestStop()
{
    stopping_.store(true, std::memory_order_release);
    if (wakeWrite_ >= 0) {
        const char b = 1;
        [[maybe_unused]] ssize_t r = write(wakeWrite_, &b, 1);
    }
}

void
Server::stop()
{
    if (!running_.load(std::memory_order_acquire))
        return;

    // Phase 1: stop accepting and reading; the I/O thread sees
    // stopping_ and closes the listener.
    requestStop();
    pauseWorkersForTest(false);

    // Phase 2: let the workers drain everything already queued.
    {
        std::lock_guard<std::mutex> lock(queueMu_);
        workersExit_.store(true, std::memory_order_release);
    }
    queueCv_.notify_all();
    for (auto &w : workers_)
        w.join();
    workers_.clear();

    // Phase 3: the I/O thread flushes the outboxes and exits (it
    // watches workersExit_ + empty queue + joined-worker state via
    // workersDrained_ implied by this ordering).
    workersDrained_.store(true, std::memory_order_release);
    wakeIo();
    if (ioThread_.joinable())
        ioThread_.join();

    closeDescriptors();
    workersDrained_.store(false);
    running_.store(false, std::memory_order_release);
}

void
Server::closeDescriptors()
{
    for (int *fd : {&listenFd_, &wakeRead_, &wakeWrite_}) {
        if (*fd >= 0)
            close(*fd);
        *fd = -1;
    }
}

void
Server::waitForStopRequest() const
{
    while (!stopRequested())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

void
Server::pauseWorkersForTest(bool paused)
{
    {
        std::lock_guard<std::mutex> lock(queueMu_);
        workersPaused_.store(paused, std::memory_order_release);
    }
    queueCv_.notify_all();
}

StatsReply
Server::statsSnapshot() const
{
    StatsReply s;
    s.requests = counts_.requests.value();
    s.predictions = counts_.predictions.value();
    s.batchedRequests = counts_.batchedRequests.value();
    s.overloaded = counts_.overloaded.value();
    s.protocolErrors = counts_.protocolErrors.value();
    s.bytesRx = counts_.bytesRx.value();
    s.bytesTx = counts_.bytesTx.value();
    s.connectionsAccepted = counts_.connectionsAccepted.value();
    s.activeConnections = counts_.activeConnections.load();
    {
        std::lock_guard<std::mutex> lock(queueMu_);
        s.queueDepth = queue_.size();
    }
    return s;
}

// ------------------------------------------------------------- I/O thread

void
Server::wakeIo()
{
    if (wakeWrite_ >= 0) {
        const char b = 1;
        // A full pipe already guarantees a pending wake-up.
        [[maybe_unused]] ssize_t r = write(wakeWrite_, &b, 1);
    }
}

void
Server::ioLoop()
{
    std::vector<pollfd> pfds;
    std::vector<std::shared_ptr<Conn>> polled;
    bool listener_open = true;
    uint64_t drain_start_ns = 0;

    for (;;) {
        const bool stopping = stopping_.load(std::memory_order_acquire);
        if (stopping && listener_open) {
            close(listenFd_);
            listenFd_ = -1;
            listener_open = false;
        }

        // Exit once workers are done and every outbox has flushed (or
        // the drain deadline passes — a wedged client cannot hold
        // shutdown hostage).
        if (stopping && workersDrained_.load(std::memory_order_acquire)) {
            if (drain_start_ns == 0)
                drain_start_ns = nowNs();
            bool pending = false;
            for (auto &[fd, conn] : conns_) {
                std::lock_guard<std::mutex> lock(conn->txMu);
                if (!conn->tx.empty() && !conn->closed.load())
                    pending = true;
            }
            if (!pending || nowNs() - drain_start_ns > kWriteTimeoutNs)
                break;
        }

        pfds.clear();
        polled.clear();
        pfds.push_back({wakeRead_, POLLIN, 0});
        if (listener_open)
            pfds.push_back({listenFd_, POLLIN, 0});
        for (auto &[fd, conn] : conns_) {
            short events = 0;
            if (!stopping && !conn->draining)
                events |= POLLIN;
            {
                std::lock_guard<std::mutex> lock(conn->txMu);
                if (!conn->tx.empty())
                    events |= POLLOUT;
            }
            pfds.push_back({fd, events, 0});
            polled.push_back(conn);
        }

        poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 50);

        size_t at = 0;
        if (pfds[at].revents & POLLIN) {
            char buf[256];
            while (read(wakeRead_, buf, sizeof(buf)) > 0) {}
        }
        ++at;
        if (listener_open) {
            if (pfds[at].revents & POLLIN)
                acceptPending();
            ++at;
        }
        for (size_t i = 0; i < polled.size(); ++i, ++at) {
            const auto &conn = polled[i];
            if (conn->fd < 0)
                continue;  // closed earlier this iteration
            const short re = pfds[at].revents;
            if (re & (POLLERR | POLLNVAL)) {
                closeConn(conn);
                continue;
            }
            if (re & POLLOUT)
                flushWritable(conn);
            if (conn->fd >= 0 && (re & (POLLIN | POLLHUP)))
                handleReadable(conn);
        }

        reapTimeouts(nowNs());
    }

    // Shutdown: close whatever is left.
    std::vector<std::shared_ptr<Conn>> rest;
    rest.reserve(conns_.size());
    for (auto &[fd, conn] : conns_)
        rest.push_back(conn);
    for (auto &conn : rest)
        closeConn(conn);
    if (listener_open && listenFd_ >= 0) {
        close(listenFd_);
        listenFd_ = -1;
    }
}

void
Server::acceptPending()
{
    for (;;) {
        const int fd = accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            return;  // EAGAIN or transient error: poll again later
        const uint64_t key = counts_.connectionsAccepted.value();
        if (util::FaultInjector::global().shouldFail("serve.accept",
                                                     key)) {
            // Simulated accept failure: the client sees a clean
            // disconnect, nobody else is affected.
            close(fd);
            continue;
        }
        if (conns_.size() >= opts_.maxConnections) {
            counts_.overloaded.add();
            // Best-effort structured refusal, then close: the frame
            // is small enough to fit any socket buffer.
            const std::string frame = encodeFrame(
                MsgType::Error, 0,
                ErrorReply{ErrCode::Overloaded,
                           "connection limit reached"}
                    .encode());
            [[maybe_unused]] ssize_t r =
                send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
            close(fd);
            continue;
        }
        setNonBlocking(fd);
        const int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        conn->id = nextConnId_++;
        conn->lastActivityNs = nowNs();
        conns_.emplace(fd, std::move(conn));
        counts_.connectionsAccepted.add();
        counts_.activeConnections.fetch_add(1);
    }
}

void
Server::handleReadable(const std::shared_ptr<Conn> &conn)
{
    char buf[65536];
    for (;;) {
        const ssize_t n = read(conn->fd, buf, sizeof(buf));
        if (n > 0) {
            if (util::FaultInjector::global().shouldFail("serve.read",
                                                         conn->id)) {
                // Simulated read failure: drop the connection; its
                // queued requests still answer into a closed conn and
                // are discarded there.
                closeConn(conn);
                return;
            }
            counts_.bytesRx.add(static_cast<uint64_t>(n));
            conn->rx.append(buf, static_cast<size_t>(n));
            conn->lastActivityNs = nowNs();
            parseFrames(conn);
            if (conn->fd < 0)
                return;
            if (static_cast<ssize_t>(sizeof(buf)) != n)
                return;  // drained the socket
            continue;
        }
        if (n == 0) {
            // Orderly EOF. Keep the connection only to flush replies
            // still owed for queued requests.
            if (conn->owesReplies())
                conn->draining = true;
            else
                closeConn(conn);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
            return;
        closeConn(conn);
        return;
    }
}

void
Server::parseFrames(const std::shared_ptr<Conn> &conn)
{
    while (conn->fd >= 0 && !conn->draining) {
        Frame frame;
        size_t consumed = 0;
        const DecodeStatus st =
            decodeFrame(conn->rx.data(), conn->rx.size(),
                        kDefaultMaxPayload, frame, consumed);
        switch (st) {
          case DecodeStatus::NeedMore:
            return;
          case DecodeStatus::Frame:
            conn->rx.erase(0, consumed);
            dispatchFrame(conn, std::move(frame));
            break;
          case DecodeStatus::BadPayload:
            // Header was authentic: reject exactly this frame and
            // keep serving the connection.
            conn->rx.erase(0, consumed);
            counts_.protocolErrors.add();
            sendError(conn, frame.id, ErrCode::BadChecksum,
                      "payload checksum mismatch");
            break;
          case DecodeStatus::BadHeader:
          case DecodeStatus::TooLarge: {
            // The stream itself is untrustworthy: one structured
            // error, then flush-and-close.
            counts_.protocolErrors.add();
            const bool too_large = st == DecodeStatus::TooLarge;
            sendError(conn, too_large ? frame.id : 0,
                      too_large ? ErrCode::FrameTooLarge
                                : ErrCode::BadFrame,
                      too_large ? "declared payload exceeds cap"
                                : "corrupt or unrecognized frame header");
            conn->rx.clear();
            conn->draining = true;
            return;
          }
        }
    }
}

void
Server::dispatchFrame(const std::shared_ptr<Conn> &conn, Frame frame)
{
    if (!isRequest(frame.type)) {
        sendError(conn, frame.id, ErrCode::BadRequest,
                  "not a request type");
        return;
    }
    counts_.requests.add();

    switch (frame.type) {
      case MsgType::Ping:
        // Answered inline: a liveness probe must not queue behind
        // heavy prediction work.
        sendReply(conn, MsgType::Pong, frame.id, frame.payload);
        return;
      case MsgType::Stats:
        sendReply(conn, MsgType::StatsReply, frame.id,
                  statsSnapshot().encode());
        return;
      default:
        break;
    }

    {
        std::lock_guard<std::mutex> lock(queueMu_);
        if (queue_.size() >= opts_.queueCapacity) {
            counts_.overloaded.add();
            sendError(conn, frame.id, ErrCode::Overloaded,
                      "request queue full");
            return;
        }
        conn->inflight.fetch_add(1);
        queue_.push_back(Request{conn, std::move(frame)});
    }
    queueCv_.notify_one();
}

void
Server::flushWritable(const std::shared_ptr<Conn> &conn)
{
    std::unique_lock<std::mutex> lock(conn->txMu);
    if (conn->tx.empty())
        return;
    if (util::FaultInjector::global().shouldFail("serve.write",
                                                 conn->id)) {
        lock.unlock();
        closeConn(conn);
        return;
    }
    // MSG_NOSIGNAL: a peer reset between poll() and the send must
    // surface as EPIPE, not kill embedders that never ignore SIGPIPE.
    const ssize_t n = send(conn->fd, conn->tx.data(), conn->tx.size(),
                           MSG_NOSIGNAL);
    if (n > 0) {
        conn->tx.erase(0, static_cast<size_t>(n));
        conn->writeBlockedSinceNs = 0;
        conn->lastActivityNs = nowNs();
        counts_.bytesTx.add(static_cast<uint64_t>(n));
    } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
               errno != EINTR) {
        lock.unlock();
        closeConn(conn);
        return;
    } else if (conn->writeBlockedSinceNs == 0) {
        conn->writeBlockedSinceNs = nowNs();
    }
    lock.unlock();
    if (conn->draining && !conn->owesReplies())
        closeConn(conn);
}

void
Server::reapTimeouts(uint64_t now_ns)
{
    std::vector<std::shared_ptr<Conn>> victims;
    for (auto &[fd, conn] : conns_) {
        if (conn->closed.load()) {
            victims.push_back(conn);
            continue;
        }
        bool tx_empty;
        uint64_t blocked_since;
        {
            std::lock_guard<std::mutex> lock(conn->txMu);
            tx_empty = conn->tx.empty();
            blocked_since = conn->writeBlockedSinceNs;
        }
        if (!tx_empty && blocked_since != 0 &&
            now_ns - blocked_since > kWriteTimeoutNs) {
            victims.push_back(conn);  // write timeout: wedged reader
            continue;
        }
        const bool owes = conn->owesReplies();
        if (conn->draining && !owes) {
            victims.push_back(conn);
            continue;
        }
        if (!owes && !conn->draining &&
            now_ns - conn->lastActivityNs > kIdleTimeoutNs) {
            victims.push_back(conn);  // idle reap
        }
    }
    for (auto &conn : victims)
        closeConn(conn);
}

void
Server::closeConn(const std::shared_ptr<Conn> &conn)
{
    if (conn->fd < 0)
        return;
    conn->closed.store(true, std::memory_order_release);
    conns_.erase(conn->fd);
    shutdown(conn->fd, SHUT_RDWR);
    close(conn->fd);
    conn->fd = -1;
    counts_.activeConnections.fetch_sub(1);
}

// ---------------------------------------------------------------- replies

void
Server::sendReply(const std::shared_ptr<Conn> &conn, MsgType type,
                  uint64_t id, std::string_view payload)
{
    if (conn->closed.load(std::memory_order_acquire))
        return;
    std::string frame = encodeFrame(type, id, payload);
    {
        std::lock_guard<std::mutex> lock(conn->txMu);
        if (conn->closed.load(std::memory_order_acquire))
            return;
        // A reader that never drains its socket cannot buffer the
        // server into the ground: cap the outbox and cut the
        // connection past it (the write timeout would get it anyway;
        // this bounds memory in the meantime).
        if (conn->tx.size() >
            static_cast<size_t>(kDefaultMaxPayload) * 2 + (64u << 10)) {
            conn->closed.store(true, std::memory_order_release);
            return;
        }
        conn->tx.append(frame);
    }
    wakeIo();
}

void
Server::sendError(const std::shared_ptr<Conn> &conn, uint64_t id,
                  ErrCode code, const std::string &message)
{
    sendReply(conn, MsgType::Error, id,
              ErrorReply{code, message}.encode());
}

// ---------------------------------------------------------------- workers

bool
Server::popBatch(std::vector<Request> &batch)
{
    batch.clear();
    std::unique_lock<std::mutex> lock(queueMu_);
    queueCv_.wait(lock, [&] {
        return workersExit_.load(std::memory_order_acquire) ||
            (!workersPaused_.load(std::memory_order_acquire) &&
             !queue_.empty());
    });
    if (queue_.empty())
        return !workersExit_.load(std::memory_order_acquire);

    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
    if (batch[0].frame.type != MsgType::PredictPoints)
        return true;

    // Micro-batching: coalesce the PredictPoints requests already
    // queued behind this one, up to maxBatchPoints.
    size_t points = peekPointCount(batch[0].frame.payload);
    while (!queue_.empty() &&
           queue_.front().frame.type == MsgType::PredictPoints &&
           points < opts_.maxBatchPoints) {
        points += peekPointCount(queue_.front().frame.payload);
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
    }
    return true;
}

void
Server::workerLoop()
{
    std::vector<Request> batch;
    while (popBatch(batch)) {
        if (batch.empty())
            continue;
        // No handler exception may escape the worker thread: an
        // escaped throw would std::terminate the whole server off one
        // hostile frame. Decoders are designed not to throw, but a
        // resize/alloc failure still must die as a structured error.
        try {
            if (batch[0].frame.type == MsgType::PredictPoints)
                handlePredictPoints(batch);
            else
                handleOne(batch[0]);
        } catch (const std::exception &e) {
            for (auto &req : batch)
                sendError(req.conn, req.frame.id, ErrCode::Internal,
                          std::string("request failed: ") + e.what());
        }
        for (auto &req : batch)
            req.conn->inflight.fetch_sub(1);
        wakeIo();
        batch.clear();
    }
}

void
Server::handlePredictPoints(std::vector<Request> &group)
{
    obs::TraceScope scope("serve-predict-batch", kBatchWallNs);
    const auto state = model();

    // Decode every rider; a malformed member only fails itself.
    struct Decoded
    {
        const Request *req;
        PredictPointsRequest points;
    };
    std::vector<Decoded> valid;
    valid.reserve(group.size());
    for (const auto &req : group) {
        PredictPointsRequest p;
        if (!PredictPointsRequest::decode(req.frame.payload, p)) {
            sendError(req.conn, req.frame.id, ErrCode::BadRequest,
                      "malformed PredictPoints payload");
            continue;
        }
        if (!state || !state->ensemble) {
            sendError(req.conn, req.frame.id, ErrCode::NoModel,
                      "no model loaded");
            continue;
        }
        if (p.width !=
            static_cast<uint32_t>(state->ensemble->netMeta().inputs)) {
            sendError(req.conn, req.frame.id, ErrCode::BadIndex,
                      "feature width does not match the model");
            continue;
        }
        valid.push_back(Decoded{&req, std::move(p)});
    }
    if (valid.empty())
        return;

    // One contiguous predictBatch over every rider's points: the
    // coalesced call is bit-identical per point to individual calls
    // (blocked kernels, ann.hh), so batching never changes answers.
    size_t total = 0;
    for (const auto &d : valid)
        total += d.points.points();
    const size_t width = valid[0].points.width;
    std::vector<double> x;
    x.reserve(total * width);
    for (const auto &d : valid)
        x.insert(x.end(), d.points.x.begin(), d.points.x.end());
    std::vector<double> y(total);
    state->ensemble->predictBatch(x.data(), total, y.data());

    // Count before replying: a client that has its reply in hand may
    // immediately ask for Stats, and the counters must already cover
    // every answered prediction (the reconciliation tests rely on it).
    counts_.predictions.add(total);
    kBatchPoints.observe(total);
    if (valid.size() > 1)
        counts_.batchedRequests.add(valid.size() - 1);

    size_t off = 0;
    for (const auto &d : valid) {
        PredictionsReply reply;
        reply.y.assign(y.begin() + static_cast<ptrdiff_t>(off),
                       y.begin() +
                           static_cast<ptrdiff_t>(off + d.points.points()));
        off += d.points.points();
        sendReply(d.req->conn, MsgType::Predictions, d.req->frame.id,
                  reply.encode());
    }
}

void
Server::handleOne(const Request &req)
{
    obs::TraceScope scope("serve-request", kRequestWallNs);
    switch (req.frame.type) {
      case MsgType::PredictRange: {
        PredictRangeRequest range;
        if (!PredictRangeRequest::decode(req.frame.payload, range)) {
            sendError(req.conn, req.frame.id, ErrCode::BadRequest,
                      "malformed PredictRange payload");
            return;
        }
        const auto state = model();
        if (!state || !state->ensemble) {
            sendError(req.conn, req.frame.id, ErrCode::NoModel,
                      "no model loaded");
            return;
        }
        if (!state->space) {
            sendError(req.conn, req.frame.id, ErrCode::BadRequest,
                      "no design space attached (load with a study)");
            return;
        }
        const uint64_t size = state->space->size();
        if (range.first > size || range.count > size - range.first) {
            sendError(req.conn, req.frame.id, ErrCode::BadIndex,
                      "index range outside the design space");
            return;
        }
        if (range.count > (kDefaultMaxPayload - 8) / 8) {
            sendError(req.conn, req.frame.id, ErrCode::BadIndex,
                      "range reply would exceed the frame cap");
            return;
        }
        PredictionsReply reply;
        reply.y = state->ensemble->predictRange(*state->space, range.first,
                                                range.count);
        counts_.predictions.add(reply.y.size());
        sendReply(req.conn, MsgType::Predictions, req.frame.id,
                  reply.encode());
        return;
      }
      case MsgType::ModelInfo:
        sendReply(req.conn, MsgType::ModelInfoReply, req.frame.id,
                  buildModelInfo());
        return;
      case MsgType::LoadModel:
        handleLoadModel(req);
        return;
      case MsgType::SimulateBatch:
        handleSimulateBatch(req);
        return;
      default:
        sendError(req.conn, req.frame.id, ErrCode::BadRequest,
                  "unknown request type");
        return;
    }
}

void
Server::handleSimulateBatch(const Request &req)
{
    // The client has gone (a dispatcher resets the connection of an
    // attempt it gave up on): nobody would read the reply, so do not
    // simulate.
    if (req.conn->closed.load(std::memory_order_acquire))
        return;
    SimulateBatchRequest sim;
    if (!SimulateBatchRequest::decode(req.frame.payload, sim)) {
        sendError(req.conn, req.frame.id, ErrCode::BadRequest,
                  "malformed SimulateBatch payload");
        return;
    }
    std::shared_ptr<const SimulateHandler> handler;
    {
        std::lock_guard<std::mutex> lock(modelMu_);
        handler = simulateHandler_;
    }
    if (!handler || !*handler) {
        sendError(req.conn, req.frame.id, ErrCode::BadRequest,
                  "this server does not simulate (no handler)");
        return;
    }
    SimulateBatchReply reply;
    std::string error;
    switch ((*handler)(sim, reply, error)) {
      case SimulateVerdict::Reply:
        sendReply(req.conn, MsgType::SimulateBatchReply, req.frame.id,
                  reply.encode());
        return;
      case SimulateVerdict::BadRequest:
        sendError(req.conn, req.frame.id, ErrCode::BadRequest, error);
        return;
      case SimulateVerdict::Crash:
        // In-process crash emulation: mute the connection (the client
        // sees a timeout, then EOF at close) and take the whole server
        // down so reconnects are refused — indistinguishable from a
        // SIGKILLed worker daemon to the dispatcher.
        req.conn->closed.store(true, std::memory_order_release);
        requestStop();
        return;
    }
}

std::string
Server::buildModelInfo() const
{
    ModelInfoReply info;
    const auto state = model();
    if (state && state->ensemble) {
        const auto meta = state->ensemble->netMeta();
        info.members = static_cast<uint32_t>(state->ensemble->members());
        info.inputs = static_cast<uint32_t>(meta.inputs);
        info.outputs = static_cast<uint32_t>(meta.outputs);
        info.estMeanPct = state->ensemble->estimate().meanPct;
        info.estSdPct = state->ensemble->estimate().sdPct;
        info.degraded = state->ensemble->degraded();
        info.spaceSize = state->space ? state->space->size() : 0;
        info.study = state->study;
        info.app = state->app;
    }
    return info.encode();
}

ml::Ensemble
trainOneRound(study::StudyKind kind, const std::string &app, size_t maxSims,
              int maxEpochs)
{
    study::StudyContext ctx(kind, app);
    ml::ExplorerOptions eopts;
    eopts.batchSize = std::max<size_t>(1, maxSims);
    eopts.maxSimulations = maxSims;
    eopts.targetMeanPct = 0.0;  // one full batch, then stop
    eopts.train.maxEpochs = maxEpochs;
    // Simulate the round as one parallel batch; the explorer's
    // per-index calls then hit the memo cache. Simulation is pure, so
    // the model is bit-identical to simulating point by point.
    eopts.prefetch = [&](const std::vector<uint64_t> &batch) {
        ctx.simulateBatch(batch);
    };
    ml::Explorer explorer(
        ctx.space(), [&](uint64_t i) { return ctx.simulateIpc(i); }, eopts);
    explorer.step();
    return explorer.ensemble();
}

void
Server::handleLoadModel(const Request &req)
{
    LoadModelRequest load;
    if (!LoadModelRequest::decode(req.frame.payload, load)) {
        sendError(req.conn, req.frame.id, ErrCode::BadRequest,
                  "malformed LoadModel payload");
        return;
    }
    if (load.path.empty() && !load.train) {
        sendError(req.conn, req.frame.id, ErrCode::BadRequest,
                  "LoadModel needs a path or train=1");
        return;
    }
    if (load.hasStudy && load.study > 1) {
        sendError(req.conn, req.frame.id, ErrCode::BadRequest,
                  "unknown study kind");
        return;
    }
    if (load.train && (!load.hasStudy || load.app.empty())) {
        sendError(req.conn, req.frame.id, ErrCode::BadRequest,
                  "training needs a study and an app");
        return;
    }

    try {
        ModelState state;
        if (load.hasStudy) {
            const auto kind = static_cast<study::StudyKind>(load.study);
            state.space = std::make_shared<const ml::DesignSpace>(
                study::spaceFor(kind));
            state.study = study::studyName(kind);
            state.app = load.app;
        }
        if (!load.path.empty()) {
            state.ensemble = std::make_shared<const ml::Ensemble>(
                ml::loadEnsemble(load.path));
        } else {
            // Train on the spot, fanning out on the global pool. This
            // blocks one server worker for the whole run, so keep
            // wire-triggered budgets small; heavy training belongs in
            // dse_serve's startup path or dse_explore --save-model.
            state.ensemble = std::make_shared<const ml::Ensemble>(
                trainOneRound(static_cast<study::StudyKind>(load.study),
                              load.app, load.maxSims,
                              static_cast<int>(load.maxEpochs)));
        }
        setModel(std::move(state));
        sendReply(req.conn, MsgType::ModelLoaded, req.frame.id,
                  buildModelInfo());
    } catch (const std::exception &e) {
        sendError(req.conn, req.frame.id, ErrCode::Internal,
                  std::string("load failed: ") + e.what());
    }
}

} // namespace serve
} // namespace dse
