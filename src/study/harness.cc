#include "study/harness.hh"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "util/fault.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"
#include "util/trace.hh"
#include "workload/generator.hh"

namespace dse {
namespace study {

namespace {

/** Simulation-stage metrics (DESIGN.md "Observability"): every
 *  simulateFull call is a request that resolves as either a memo hit
 *  or an executed simulation, so sim.memo_hits + sim.executed ==
 *  sim.requests whenever no fault injection interferes. */
const obs::Counter kRequests("sim.requests");
const obs::Counter kMemoHits("sim.memo_hits");
const obs::Counter kExecuted("sim.executed");
const obs::Counter kSpRequests("sim.simpoint_requests");
const obs::Counter kSpMemoHits("sim.simpoint_memo_hits");
const obs::Counter kSpEstimates("sim.simpoint_estimates");
const obs::Histogram kWallNs("sim.wall_ns");
const obs::Histogram kSpWallNs("sim.simpoint_wall_ns");

} // namespace

StudyContext::StudyContext(StudyKind kind, const std::string &app,
                           size_t trace_length,
                           const std::string &journal_path)
    : kind_(kind), app_(app), space_(spaceFor(kind)),
      trace_(workload::generateBenchmarkTrace(app, trace_length)),
      executed_(kExecuted)
{
    if (journal_path.empty())
        return;
    journal_ = std::make_unique<SimJournal>(journal_path, kind_, app_,
                                            trace_.size());
    journalStats_ =
        journal_->replay([this](uint64_t index,
                                const sim::SimResult &result) {
            std::lock_guard<std::mutex> lock(memoMu_);
            results_.emplace(index, result);
        });
}

const sim::SimResult &
StudyContext::simulateFull(uint64_t index)
{
    kRequests.add();
    {
        std::lock_guard<std::mutex> lock(memoMu_);
        auto it = results_.find(index);
        if (it != results_.end()) {
            kMemoHits.add();
            return it->second;
        }
    }

    if (util::FaultInjector::global().shouldFail("sim", index)) {
        throw std::runtime_error(
            "injected fault: simulateFull(" + std::to_string(index) +
            ")");
    }

    // Simulate outside the lock: concurrent callers may duplicate the
    // work of a point briefly in flight, but the result is a pure
    // function of the index, so whichever insert wins is identical.
    sim::SimOptions opts;
    opts.warmCaches = true;
    std::optional<sim::SimResult> result;
    {
        obs::TraceScope span("sim", kWallNs);
        result = sim::simulate(trace_, config(index), opts, &warmStart());
    }
    executed_.add();

    std::lock_guard<std::mutex> lock(memoMu_);
    auto [it, inserted] = results_.emplace(index, std::move(*result));
    // Journal only the winning insert (a lost duplicate is identical
    // anyway), under the memo lock so no thread reads the result
    // before it is durable.
    if (inserted && journal_)
        journal_->append(index, it->second);
    return it->second;
}

double
StudyContext::simulateIpc(uint64_t index)
{
    return simulateFull(index).ipc;
}

size_t
StudyContext::simulationsRun() const
{
    std::lock_guard<std::mutex> lock(memoMu_);
    return results_.size();
}

std::vector<double>
StudyContext::simulateBatch(const std::vector<uint64_t> &indices)
{
    return batch(indices, false);
}

std::vector<double>
StudyContext::simulateSimPointBatch(const std::vector<uint64_t> &indices)
{
    return batch(indices, true);
}

std::vector<double>
StudyContext::batch(const std::vector<uint64_t> &indices, bool simpoint)
{
    const auto value = [&](uint64_t idx) {
        return simpoint ? simulateSimPointIpc(idx) : simulateIpc(idx);
    };
    // Calibrate (which also selects the SimPoints) up front so the
    // parallel region only reads the calibration.
    if (simpoint)
        simPointScale();
    // Pool workers run only the distinct missing simulations; the
    // loop below then reads every index from the memo.
    const auto todo = missing(indices, simpoint);
    util::ThreadPool::global().parallelFor(
        0, todo.size(), [&](size_t i) { value(todo[i]); });

    std::vector<double> out;
    out.reserve(indices.size());
    for (uint64_t idx : indices)
        out.push_back(value(idx));
    return out;
}

sim::MachineConfig
StudyContext::config(uint64_t index) const
{
    return configFor(kind_, space_, space_.levels(index));
}

sim::WarmStart &
StudyContext::warmStart()
{
    std::call_once(warmOnce_, [this] {
        warmStart_ = std::make_unique<sim::WarmStart>(trace_);
    });
    return *warmStart_;
}

void
StudyContext::injectResult(uint64_t index, const sim::SimResult &result)
{
    std::lock_guard<std::mutex> lock(memoMu_);
    auto [it, inserted] = results_.emplace(index, result);
    // Journal the winning insert exactly like a local simulation —
    // the journal records results, not where they were computed.
    if (inserted && journal_)
        journal_->append(index, it->second);
}

void
StudyContext::injectSimPointEstimate(uint64_t index, double ipc)
{
    std::lock_guard<std::mutex> lock(memoMu_);
    estimates_.emplace(index, ipc);
}

bool
StudyContext::hasResult(uint64_t index) const
{
    std::lock_guard<std::mutex> lock(memoMu_);
    return results_.count(index) != 0;
}

bool
StudyContext::hasSimPointEstimate(uint64_t index) const
{
    std::lock_guard<std::mutex> lock(memoMu_);
    return estimates_.count(index) != 0;
}

std::vector<uint64_t>
StudyContext::missing(const std::vector<uint64_t> &indices,
                      bool simpoint) const
{
    std::unordered_set<uint64_t> seen;
    std::vector<uint64_t> out;
    std::lock_guard<std::mutex> lock(memoMu_);
    for (uint64_t idx : indices) {
        const bool have = simpoint ? estimates_.count(idx) != 0
                                   : results_.count(idx) != 0;
        if (!have && seen.insert(idx).second)
            out.push_back(idx);
    }
    return out;
}

const simpoint::SimPoints &
StudyContext::simPoints()
{
    std::lock_guard<std::mutex> lock(simPointMu_);
    if (!simPoints_) {
        simpoint::SimPointOptions opts;
        // Scale the interval to the trace (the paper scales 100M ->
        // 10M for MinneSPEC): 16 intervals per trace. Shorter
        // intervals are cheaper but their content stops being
        // representative at this trace scale (EXPERIMENTS.md,
        // "SimPoint scale").
        opts.intervalLength = std::max<size_t>(2048, trace_.size() / 16);
        opts.maxK = 6;
        simPoints_ = std::make_unique<simpoint::SimPoints>(
            simpoint::pickSimPoints(trace_, opts));
    }
    return *simPoints_;
}

double
StudyContext::simPointScale()
{
    {
        std::lock_guard<std::mutex> lock(simPointMu_);
        if (simPointScale_ != 0.0)
            return simPointScale_;
    }
    // One-time calibration against the space's middle point, computed
    // outside the lock (both inputs are deterministic, so concurrent
    // calibrations agree and the first store wins harmlessly).
    const uint64_t ref = space_.size() / 2;
    const double full = simulateFull(ref).ipc;
    const double raw = simpoint::estimateIpc(trace_, config(ref),
                                             simPoints(), &warmStart())
                           .ipc;
    const double scale = raw > 0.0 ? full / raw : 1.0;

    std::lock_guard<std::mutex> lock(simPointMu_);
    if (simPointScale_ == 0.0)
        simPointScale_ = scale;
    return simPointScale_;
}

double
StudyContext::simulateSimPointIpc(uint64_t index)
{
    kSpRequests.add();
    const double scale = simPointScale();
    {
        std::lock_guard<std::mutex> lock(memoMu_);
        auto it = estimates_.find(index);
        if (it != estimates_.end()) {
            kSpMemoHits.add();
            return it->second;
        }
    }
    std::optional<simpoint::SimPointEstimate> est;
    {
        obs::TraceScope span("simpoint", kSpWallNs);
        est = simpoint::estimateIpc(trace_, config(index), simPoints(),
                                    &warmStart());
    }
    kSpEstimates.add();
    const double calibrated = est->ipc * scale;
    std::lock_guard<std::mutex> lock(memoMu_);
    return estimates_.emplace(index, calibrated).first->second;
}

std::vector<uint64_t>
holdoutIndices(const ml::DesignSpace &space,
               const std::vector<uint64_t> &excluded, size_t n,
               uint64_t seed)
{
    const uint64_t space_size = space.size();
    std::unordered_set<uint64_t> banned(excluded.begin(), excluded.end());

    if (n == 0 || n + banned.size() >= space_size) {
        // Full-space evaluation: everything not excluded.
        std::vector<uint64_t> all;
        all.reserve(space_size - banned.size());
        for (uint64_t i = 0; i < space_size; ++i) {
            if (!banned.count(i))
                all.push_back(i);
        }
        return all;
    }

    Rng rng(seed);
    std::unordered_set<uint64_t> chosen;
    std::vector<uint64_t> out;
    out.reserve(n);
    while (out.size() < n) {
        const uint64_t idx = rng.below(space_size);
        if (banned.count(idx) || chosen.count(idx))
            continue;
        chosen.insert(idx);
        out.push_back(idx);
    }
    return out;
}

TrueError
measureTrueError(StudyContext &ctx, const ml::Ensemble &model,
                 const std::vector<uint64_t> &eval_points)
{
    // Simulate the holdout concurrently, predict it through the
    // batched ensemble path (itself parallel and thread-count
    // invariant), then score over a fixed order.
    const auto actual = ctx.simulateBatch(eval_points);
    const auto predicted = model.predictIndices(ctx.space(), eval_points);
    std::vector<double> errors(eval_points.size());
    for (size_t i = 0; i < eval_points.size(); ++i)
        errors[i] = percentageError(predicted[i], actual[i]);
    TrueError out;
    out.meanPct = mean(errors);
    out.sdPct = stddev(errors);
    return out;
}

} // namespace study
} // namespace dse
