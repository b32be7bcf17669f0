/**
 * @file
 * dse::serve::Server — the concurrent prediction service.
 *
 * One poll-based I/O thread owns every socket: it accepts loopback
 * TCP connections, incrementally frames their byte streams
 * (protocol.hh), and pushes decoded requests onto a *bounded* queue.
 * A fixed set of worker threads drains the queue; adjacent small
 * PredictPoints requests of the same feature width are coalesced into
 * a single Ensemble::predictBatch call (micro-batching), so many
 * clients asking for one point each ride the blocked SIMD kernels
 * instead of paying a full per-point pass. Replies are appended to a
 * per-connection outbox and flushed by the I/O thread, which is the
 * only thread that ever touches a socket — a slow or wedged client
 * can therefore stall only its own outbox, never another client's
 * replies or a worker.
 *
 * Backpressure is explicit: when the queue is full the I/O thread
 * sends an immediate Overloaded error reply instead of buffering —
 * memory per client is bounded by one frame plus one outbox, and the
 * server never falls behind silently. Idle connections are reaped
 * after 30 s, writes that make no progress for 10 s are cut, and stop()
 * drains: accepted requests are answered, outboxes are flushed, then
 * sockets close.
 *
 * Predictions served over the wire are bit-identical to local
 * Ensemble::predictBatch output — doubles travel as raw IEEE-754 bit
 * patterns and batching is blocked per point (ann.hh), so coalescing
 * never changes a client's answer.
 *
 * Instrumentation: serve.* counters/histograms through dse::obs, a
 * TraceScope per worker batch, and FaultInjector sites serve.accept /
 * serve.read / serve.write for the fault suite.
 */

#ifndef DSE_SERVE_SERVER_HH
#define DSE_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ml/cross_validation.hh"
#include "ml/encoding.hh"
#include "serve/protocol.hh"
#include "study/spaces.hh"
#include "util/metrics.hh"

namespace dse {
namespace serve {

/** Server configuration: set by the caller, or by the dse_serve and
 *  dse_simworker flags. */
struct ServerOptions
{
    /** Bind address (loopback unless deliberately exposed). */
    std::string addr = "127.0.0.1";
    /** TCP port; 0 = ephemeral (read the bound port via port()). */
    uint16_t port = 0;
    /** Worker threads draining the queue (0 = DSE_THREADS/hardware). */
    size_t workers = 0;
    /** Bounded request-queue capacity; full => Overloaded replies. */
    size_t queueCapacity = 256;
    /** Max design points coalesced into one predictBatch call. */
    size_t maxBatchPoints = 1024;
    /** Cap on simultaneously open client connections. */
    size_t maxConnections = 256;
};

/** Verdict returned by a simulate handler (dse::remote workers). */
enum class SimulateVerdict : uint8_t {
    Reply,       ///< send the filled SimulateBatchReply
    BadRequest,  ///< send ErrCode::BadRequest carrying the message
    Crash,       ///< emulate a worker crash: drop the connection
                 ///< without a reply and stop the server, so the
                 ///< client sees silence then refused reconnects —
                 ///< exactly what a SIGKILLed daemon looks like
};

/** Handler a simulation worker installs for SimulateBatch requests.
 *  Runs on a server worker thread; must be thread-safe. */
using SimulateHandler = std::function<SimulateVerdict(
    const SimulateBatchRequest &req, SimulateBatchReply &reply,
    std::string &error)>;

/** The model a server instance serves (swapped atomically as a unit
 *  so in-flight requests keep a consistent view). */
struct ModelState
{
    std::shared_ptr<const ml::Ensemble> ensemble;
    std::shared_ptr<const ml::DesignSpace> space;  ///< for PredictRange
    std::string study;  ///< "" when no study attached
    std::string app;
};

/**
 * Train a model on the spot: one explorer round over @p maxSims random
 * points of (kind, app), simulated as one batch on the global pool,
 * then one ensemble capped at @p maxEpochs per network. dse_serve
 * --train and LoadModel with train=1 both serve what this returns.
 */
ml::Ensemble trainOneRound(study::StudyKind kind, const std::string &app,
                           size_t maxSims, int maxEpochs);

class Server
{
  public:
    explicit Server(ServerOptions opts = ServerOptions());
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Install the model served to clients (may be called before
     *  start() or at any time after; also reachable over the wire via
     *  LoadModel). */
    void setModel(ModelState state);

    /** Current model (nullptr ensemble when none loaded). */
    std::shared_ptr<const ModelState> model() const;

    /** Install the SimulateBatch handler (dse::remote::SimWorker).
     *  Without one, SimulateBatch requests get BadRequest. */
    void setSimulateHandler(SimulateHandler handler);

    /** Bind, listen, and spawn the I/O and worker threads.
     *  @throws std::runtime_error when the address cannot be bound */
    void start();

    /** The port actually bound (after start(); resolves port 0). */
    uint16_t port() const { return boundPort_; }

    /** Graceful drain-then-stop: stop accepting, answer everything
     *  already queued, flush outboxes, close, join. Idempotent. */
    void stop();

    /**
     * Request an asynchronous stop from a signal handler: sets a flag
     * and writes one byte to the wake pipe (both async-signal-safe).
     * The owner must still call stop() afterwards to join.
     */
    void requestStop();

    bool running() const { return running_.load(std::memory_order_acquire); }

    /** True once requestStop()/stop() has been asked for. */
    bool stopRequested() const
    {
        return stopping_.load(std::memory_order_acquire);
    }

    /** Block (sleep-polling, so safe around signal handlers) until
     *  requestStop() fires; the daemon main loop parks here. */
    void waitForStopRequest() const;

    /** Server-side counters (same values Stats serves). */
    StatsReply statsSnapshot() const;

    /**
     * Test hook: freeze/unfreeze the workers. With workers held,
     * requests pile into the bounded queue, which is how the test
     * suite forces the Overloaded path deterministically.
     */
    void pauseWorkersForTest(bool paused);

  private:
    struct Conn
    {
        int fd = -1;
        uint64_t id = 0;       ///< unique per accepted connection
        std::string rx;        ///< I/O-thread-only read buffer
        std::mutex txMu;       ///< guards tx (workers append)
        std::string tx;        ///< pending reply bytes
        std::atomic<bool> closed{false};  ///< no further replies wanted
        std::atomic<uint32_t> inflight{0};  ///< queued, not yet replied
        uint64_t lastActivityNs = 0;
        uint64_t writeBlockedSinceNs = 0;  ///< 0 = outbox empty/progressing
        bool draining = false;  ///< close once tx flushes

        /** True while a request is in flight or the outbox holds
         *  bytes. inflight is read first: a worker appends its reply
         *  before it drops inflight, so reading 0 and then an empty
         *  outbox cannot miss a reply still on its way. */
        bool
        owesReplies()
        {
            if (inflight.load() > 0)
                return true;
            std::lock_guard<std::mutex> lock(txMu);
            return !tx.empty();
        }
    };

    struct Request
    {
        std::shared_ptr<Conn> conn;
        Frame frame;
    };

    // I/O thread.
    void ioLoop();
    void acceptPending();
    void handleReadable(const std::shared_ptr<Conn> &conn);
    void parseFrames(const std::shared_ptr<Conn> &conn);
    void dispatchFrame(const std::shared_ptr<Conn> &conn, Frame frame);
    void flushWritable(const std::shared_ptr<Conn> &conn);
    void reapTimeouts(uint64_t now_ns);
    void closeConn(const std::shared_ptr<Conn> &conn);

    // Worker side.
    void workerLoop();
    /** Pop one request (plus coalescable followers) from the queue. */
    bool popBatch(std::vector<Request> &batch);
    void handleOne(const Request &req);
    void handlePredictPoints(std::vector<Request> &group);
    void handleLoadModel(const Request &req);
    void handleSimulateBatch(const Request &req);
    std::string buildModelInfo() const;

    /** Append an encoded frame to a connection's outbox and wake the
     *  I/O thread (thread-safe; drops the reply if conn closed). */
    void sendReply(const std::shared_ptr<Conn> &conn, MsgType type,
                   uint64_t id, std::string_view payload);
    void sendError(const std::shared_ptr<Conn> &conn, uint64_t id,
                   ErrCode code, const std::string &message);
    void wakeIo();
    /** Close the listener and both wake-pipe ends (those still open). */
    void closeDescriptors();

    static uint64_t nowNs();

    ServerOptions opts_;
    uint16_t boundPort_ = 0;
    int listenFd_ = -1;
    int wakeRead_ = -1;
    int wakeWrite_ = -1;

    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};   ///< stop accepting/reading
    std::atomic<bool> workersExit_{false};  ///< workers drain then exit
    std::atomic<bool> workersDrained_{false};  ///< workers joined; flush & exit
    std::atomic<bool> workersPaused_{false};

    mutable std::mutex modelMu_;
    std::shared_ptr<const ModelState> model_;
    std::shared_ptr<const SimulateHandler> simulateHandler_;

    // Bounded request queue.
    mutable std::mutex queueMu_;
    std::condition_variable queueCv_;
    std::deque<Request> queue_;

    // I/O-thread-private connection table (shared_ptrs so workers can
    // hold a connection across its close).
    std::unordered_map<int, std::shared_ptr<Conn>> conns_;
    uint64_t nextConnId_ = 1;

    std::thread ioThread_;
    std::vector<std::thread> workers_;  ///< each runs workerLoop()

    /** The counts behind Stats; each feeds its serve.* metric. */
    struct Counts
    {
        Counts();
        obs::OwnedCounter requests, predictions, batchedRequests,
            overloaded, protocolErrors, bytesRx, bytesTx,
            connectionsAccepted;
        /** A level, not a count, so it feeds no metric. */
        std::atomic<uint64_t> activeConnections{0};
    };
    Counts counts_;
};

} // namespace serve
} // namespace dse

#endif // DSE_SERVE_SERVER_HH
