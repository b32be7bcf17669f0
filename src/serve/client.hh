/**
 * @file
 * dse::serve::Client — a small blocking client for the prediction
 * service: one TCP connection, typed request/reply helpers over the
 * frame protocol, and poll-based timeouts so a dead server turns into
 * an error instead of a hang.
 *
 * The client is deliberately synchronous (tests, tools, and the load
 * generator each own as many Client instances as they want
 * concurrency); it is not thread-safe per instance.
 */

#ifndef DSE_SERVE_CLIENT_HH
#define DSE_SERVE_CLIENT_HH

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/protocol.hh"

namespace dse {
namespace serve {

/** A structured Error reply (or transport failure) raised by the
 *  typed helpers. Transport failures carry a structured code too:
 *  ErrCode::Timeout when an operation deadline expired,
 *  ErrCode::Disconnected when the peer closed or reset the
 *  connection, ErrCode::Internal for anything else. */
class ServeError : public std::runtime_error
{
  public:
    ServeError(ErrCode code, const std::string &message)
        : std::runtime_error(std::string(errCodeName(code)) + ": " +
                             message),
          code_(code)
    {}

    ErrCode code() const { return code_; }

  private:
    ErrCode code_;
};

class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;
    Client(Client &&other) noexcept;
    Client &operator=(Client &&other) noexcept;

    /**
     * Connect to host:port under a hard poll-based deadline.
     * @param timeout_ms connect deadline; <= 0 = the per-operation
     *        timeout (setTimeout)
     * @throws ServeError (Timeout/Disconnected/Internal) on failure
     */
    void connect(const std::string &host, uint16_t port,
                 int timeout_ms = 0);

    bool connected() const { return fd_ >= 0; }
    void close();

    /**
     * Close with a reset instead of an orderly shutdown. The server
     * sees the connection fail at once and drops what it still holds
     * for it: a queued SimulateBatch is not run. After close() it
     * would read EOF, keep the connection to answer what it owes, and
     * run the request for nobody.
     */
    void abort();

    /**
     * Per-operation deadline. Every typed helper — and every low-level
     * send/recv — completes or raises ServeError(Timeout) within this
     * budget; there is no code path that blocks indefinitely on a dead
     * peer. Defaults to 30 s; values <= 0 clamp to 1 ms so a deadline
     * always exists.
     */
    void setTimeout(int ms) { timeoutMs_ = ms > 0 ? ms : 1; }
    int timeout() const { return timeoutMs_; }

    /// @name Typed helpers. Each sends one request and blocks for its
    /// reply; an Error reply becomes a ServeError.
    /// @{

    /** Round-trip a Ping (payload echoed by the server). */
    void ping();

    /** Load/serve a model; returns the resulting model info. */
    ModelInfoReply loadModel(const LoadModelRequest &req);

    /** Predict encoded points; y is bit-identical to a local
     *  Ensemble::predictBatch over the same rows. */
    std::vector<double> predictPoints(const double *x, size_t n,
                                      size_t width);

    /** Predict [first, first+count) flat design-space indices. */
    std::vector<double> predictRange(uint64_t first, uint64_t count);

    ModelInfoReply modelInfo();
    StatsReply stats();

    /** Remotely simulate a batch of design points (dse::remote
     *  workers); results are bit-identical to local simulation. */
    SimulateBatchReply simulateBatch(const SimulateBatchRequest &req);

    /// @}

    /// @name Low-level access (fuzz tests, pipelining experiments).
    /// @{

    /** Send raw bytes as-is — deliberately allows invalid frames. */
    void sendRaw(const void *data, size_t n);

    /** Send one well-formed frame with the next correlation id. */
    uint64_t sendFrame(MsgType type, std::string_view payload);

    /**
     * Receive one frame under the operation deadline.
     * nullopt = orderly EOF (server closed).
     * @throws ServeError (Timeout) when the deadline expires,
     *         (Disconnected) on reset, (Internal) otherwise
     */
    std::optional<Frame> recvFrame();

    /// @}

  private:
    /** Wait for the reply to @p id, raising Error replies. */
    Frame expectReply(uint64_t id, MsgType want);

    int fd_ = -1;
    int timeoutMs_ = 30000;
    uint64_t nextId_ = 1;
    std::string rx_;
};

} // namespace serve
} // namespace dse

#endif // DSE_SERVE_CLIENT_HH
