/**
 * @file
 * dse::remote::SimWorker — a simulation worker: a serve::Server with a
 * SimulateBatch handler that reconstructs the requested study context
 * and runs detailed (or SimPoint) simulations on behalf of a
 * RemoteDispatcher.
 *
 * Simulation is a pure function of (trace, config), and the worker
 * rebuilds its StudyContext from the same (study, app, trace length)
 * identity the dispatcher's context was built from, so every result it
 * returns is bit-identical to what the dispatcher would have computed
 * locally. Results travel as raw IEEE-754 bit patterns (protocol.hh),
 * preserving that identity over the wire.
 *
 * Fault sites (chaos suite):
 *  - `remote.worker.crash`: the handler emulates a crash — in-process
 *    (crashExits=false) the connection goes silent and the server
 *    stops accepting, exactly what a SIGKILLed daemon looks like to
 *    the dispatcher; in the daemon (crashExits=true) the process
 *    _exit()s.
 *  - `remote.conn.delay`: the handler sleeps delayMs before replying,
 *    emulating a hung/overloaded worker (drives client timeouts).
 *
 * Both sites key on the batch's first design-point index XOR-mixed
 * with faultSalt, so the decision is deterministic per batch at any
 * thread count, and distinct salts let a test kill a batch on one
 * worker but not on the worker it is redispatched to.
 */

#ifndef DSE_REMOTE_WORKER_HH
#define DSE_REMOTE_WORKER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "serve/server.hh"
#include "study/harness.hh"
#include "util/metrics.hh"

namespace dse {
namespace remote {

struct SimWorkerOptions
{
    /** Underlying server options (addr/port/queue/workers). */
    serve::ServerOptions server;
    /** Cap on design points accepted per SimulateBatch request. */
    size_t maxBatchPoints = 4096;
    /** remote.worker.crash behavior: true = _exit the process (the
     *  daemon); false = go silent and stop the server (in-process
     *  tests). */
    bool crashExits = false;
    /** Sleep injected by remote.conn.delay, in milliseconds. */
    int delayMs = 250;
    /** XOR-mixed into crash/delay probe keys so co-located test
     *  workers can fail independently for the same batch. */
    uint64_t faultSalt = 0;
};

class SimWorker
{
  public:
    explicit SimWorker(SimWorkerOptions opts = SimWorkerOptions());
    ~SimWorker();

    SimWorker(const SimWorker &) = delete;
    SimWorker &operator=(const SimWorker &) = delete;

    /** Start serving (binds; port() reports the bound port). */
    void start();

    /** Graceful stop (idempotent). */
    void stop();

    uint16_t port() const { return server_.port(); }

    /** The underlying server (signal wiring in the daemon). */
    serve::Server &server() { return server_; }

    /** Batches handled to completion so far (diagnostics). */
    uint64_t batchesServed() const;

  private:
    serve::SimulateVerdict handle(const serve::SimulateBatchRequest &req,
                                  serve::SimulateBatchReply &reply,
                                  std::string &error);

    std::shared_ptr<study::StudyContext>
    contextFor(const serve::SimulateBatchRequest &req);

    SimWorkerOptions opts_;
    serve::Server server_;

    std::mutex mu_;  ///< guards contexts_
    /** (study, app, traceLength) -> shared context. Simulations
     *  memoize per context, so repeat batches against the same study
     *  reuse everything. */
    std::map<std::string, std::shared_ptr<study::StudyContext>> contexts_;

    obs::OwnedCounter batches_;  ///< feeds remote.worker_batches
};

} // namespace remote
} // namespace dse

#endif // DSE_REMOTE_WORKER_HH
