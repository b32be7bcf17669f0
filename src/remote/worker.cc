#include "remote/worker.hh"

#include <unistd.h>

#include <chrono>
#include <exception>
#include <thread>

#include "util/fault.hh"
#include "util/metrics.hh"

namespace dse {
namespace remote {

namespace {

/** Simulation-worker metrics (DESIGN.md "Observability"). */
const obs::Counter kBatches("remote.worker_batches");
const obs::Counter kPoints("remote.worker_points");

} // namespace

SimWorker::SimWorker(SimWorkerOptions opts)
    : opts_(std::move(opts)), server_(opts_.server), batches_(kBatches)
{
    server_.setSimulateHandler(
        [this](const serve::SimulateBatchRequest &req,
               serve::SimulateBatchReply &reply, std::string &error) {
            return handle(req, reply, error);
        });
}

SimWorker::~SimWorker()
{
    stop();
}

void
SimWorker::start()
{
    server_.start();
}

void
SimWorker::stop()
{
    server_.stop();
}

uint64_t
SimWorker::batchesServed() const
{
    return batches_.value();
}

std::shared_ptr<study::StudyContext>
SimWorker::contextFor(const serve::SimulateBatchRequest &req)
{
    const std::string key = std::to_string(req.study) + "|" + req.app +
        "|" + std::to_string(req.traceLength);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = contexts_.find(key);
    if (it != contexts_.end())
        return it->second;
    auto ctx = std::make_shared<study::StudyContext>(
        static_cast<study::StudyKind>(req.study), req.app,
        static_cast<size_t>(req.traceLength));
    contexts_.emplace(key, ctx);
    return ctx;
}

serve::SimulateVerdict
SimWorker::handle(const serve::SimulateBatchRequest &req,
                  serve::SimulateBatchReply &reply, std::string &error)
{
    if (req.study > 1) {
        error = "unknown study kind";
        return serve::SimulateVerdict::BadRequest;
    }
    if (req.indices.empty() ||
        req.indices.size() > opts_.maxBatchPoints) {
        error = "batch size outside [1, " +
            std::to_string(opts_.maxBatchPoints) + "]";
        return serve::SimulateVerdict::BadRequest;
    }

    // Chaos sites, keyed by the batch's first index so the decision is
    // a pure per-batch function (fault.hh determinism contract).
    const uint64_t key = req.indices[0] ^ opts_.faultSalt;
    auto &faults = util::FaultInjector::global();
    if (faults.shouldFail("remote.worker.crash", key)) {
        if (opts_.crashExits)
            _exit(3);  // emulate SIGKILL: no reply, no cleanup
        return serve::SimulateVerdict::Crash;
    }
    if (faults.shouldFail("remote.conn.delay", key)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opts_.delayMs));
    }

    try {
        auto ctx = contextFor(req);
        const uint64_t space = ctx->space().size();
        for (uint64_t idx : req.indices) {
            if (idx >= space) {
                error = "design-point index outside the space";
                return serve::SimulateVerdict::BadRequest;
            }
        }
        reply.simpoint = req.simpoint;
        if (req.simpoint) {
            reply.ipc = ctx->simulateSimPointBatch(req.indices);
        } else {
            reply.results.reserve(req.indices.size());
            // Warm the memo cache in parallel, then gather in request
            // order (simulateFull returns memoized references).
            ctx->simulateBatch(req.indices);
            for (uint64_t idx : req.indices)
                reply.results.push_back(ctx->simulateFull(idx));
        }
    } catch (const std::exception &e) {
        error = std::string("simulation failed: ") + e.what();
        return serve::SimulateVerdict::BadRequest;
    }

    batches_.add();
    kPoints.add(req.indices.size());
    return serve::SimulateVerdict::Reply;
}

} // namespace remote
} // namespace dse
