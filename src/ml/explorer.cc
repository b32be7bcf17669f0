#include "ml/explorer.hh"

#include <algorithm>
#include <stdexcept>

#include "util/metrics.hh"
#include "util/thread_pool.hh"
#include "util/trace.hh"

namespace dse {
namespace ml {

namespace {

/** Exploration-stage metrics (DESIGN.md "Observability"). */
const obs::Counter kRounds("explore.rounds");
const obs::Counter kPointsSimulated("explore.points_simulated");
const obs::Counter kPointsPredicted("explore.points_predicted");
const obs::Counter kPointsScored("explore.points_scored");
const obs::Counter kScoreChunks("explore.score_chunks");
const obs::Histogram kEncodeWallNs("explore.encode_wall_ns");
const obs::Histogram kPredictWallNs("explore.predict_wall_ns");
const obs::Histogram kScoreWallNs("explore.score_wall_ns");

} // namespace

Explorer::Explorer(const DesignSpace &space, SimulatorFn simulator,
                   ExplorerOptions opts)
    : space_(space), simulator_(std::move(simulator)),
      opts_(std::move(opts)), rng_(opts_.seed)
{
    if (!simulator_)
        throw std::invalid_argument("explorer needs a simulator function");
    if (opts_.batchSize == 0)
        throw std::invalid_argument("batch size must be positive");
    seen_.assign(space_.size(), false);
    if (opts_.maxSimulations == 0)
        opts_.maxSimulations = space_.size();
}

std::vector<uint64_t>
Explorer::pickBatch(size_t n)
{
    const uint64_t space_size = space_.size();
    std::vector<uint64_t> batch;

    auto draw_unseen = [&](size_t want) {
        std::vector<uint64_t> out;
        // Rejection sampling is fine while the sampled fraction is
        // small (the regime this technique lives in); fall back to a
        // scan of the remainder otherwise.
        size_t attempts = 0;
        while (out.size() < want && attempts < want * 20) {
            const uint64_t idx = rng_.below(space_size);
            if (!seen_[idx]) {
                seen_[idx] = true;
                out.push_back(idx);
            }
            ++attempts;
        }
        if (out.size() < want) {
            for (uint64_t idx = 0; idx < space_size && out.size() < want;
                 ++idx) {
                if (!seen_[idx]) {
                    seen_[idx] = true;
                    out.push_back(idx);
                }
            }
        }
        return out;
    };

    if (!opts_.activeLearning || !ensemble_) {
        batch = draw_unseen(n);
    } else {
        // Query-by-committee: draw a candidate pool, rank by ensemble
        // member disagreement, keep the most uncertain points.
        std::vector<uint64_t> pool =
            draw_unseen(std::max(n, opts_.candidatePool));
        std::vector<double> spread;
        {
            obs::TraceScope span("score", kScoreWallNs);
            kPointsScored.add(pool.size());
            kScoreChunks.add((pool.size() + Ensemble::kScoreChunk - 1) /
                             Ensemble::kScoreChunk);
            // Blocked committee scoring: bit-identical per point to
            // memberSpread(space_.encodeIndex(i)) at any thread count.
            spread = ensemble_->memberSpreadIndices(space_, pool);
        }
        std::vector<std::pair<double, uint64_t>> scored(pool.size());
        for (size_t i = 0; i < pool.size(); ++i)
            scored[i] = {spread[i], pool[i]};
        // Deterministic top-n: spread descending with the candidate
        // index as tie-break, a strict total order (pool indices are
        // unique) — equal-spread candidates no longer land in
        // implementation-defined order. nth_element + a sort of the
        // kept prefix beats full-sorting the pool.
        const auto rank = [](const std::pair<double, uint64_t> &a,
                             const std::pair<double, uint64_t> &b) {
            if (a.first != b.first)
                return a.first > b.first;
            return a.second < b.second;
        };
        const size_t keep = std::min(n, scored.size());
        if (keep < scored.size())
            std::nth_element(scored.begin(),
                             scored.begin() + static_cast<ptrdiff_t>(keep),
                             scored.end(), rank);
        std::sort(scored.begin(),
                  scored.begin() + static_cast<ptrdiff_t>(keep), rank);
        for (size_t i = 0; i < scored.size(); ++i) {
            if (i < keep) {
                batch.push_back(scored[i].second);
            } else {
                seen_[scored[i].second] = false;  // return to the pool
            }
        }
    }
    return batch;
}

std::optional<ExplorationStep>
Explorer::step()
{
    const size_t budget_left = opts_.maxSimulations > indices_.size()
        ? opts_.maxSimulations - indices_.size() : 0;
    const size_t want = std::min(opts_.batchSize, budget_left);
    if (want == 0)
        return std::nullopt;

    const auto batch = pickBatch(want);
    if (batch.empty())
        return std::nullopt;

    // Simulate the whole round before committing any of it: on a
    // throw the round's points return to the unseen pool, and
    // sampledIndices() and data() keep their lengths. A dispatcher (or
    // any batch-aware simulator) starts on the whole batch first.
    std::vector<double> values;
    values.reserve(batch.size());
    try {
        if (opts_.prefetch)
            opts_.prefetch(batch);
        for (uint64_t idx : batch)
            values.push_back(simulator_(idx));
    } catch (...) {
        for (uint64_t idx : batch)
            seen_[idx] = false;
        throw;
    }

    kRounds.add();
    kPointsSimulated.add(batch.size());

    // Encode the whole batch into one contiguous [batch x
    // encodedWidth] buffer filled by encodeIndexInto — no per-point
    // heap allocation in the encode span — then commit the round.
    const size_t width = static_cast<size_t>(space_.encodedWidth());
    std::vector<double> features(batch.size() * width);
    {
        obs::TraceScope span("encode", kEncodeWallNs);
        for (size_t i = 0; i < batch.size(); ++i)
            space_.encodeIndexInto(batch[i], features.data() + i * width);
    }
    for (size_t i = 0; i < batch.size(); ++i) {
        indices_.push_back(batch[i]);
        const double *row = features.data() + i * width;
        data_.add(std::vector<double>(row, row + width), values[i]);
    }

    TrainOptions train = opts_.train;
    // Vary the training seed with the data so successive rounds do
    // not reuse identical fold assignments on a prefix of the data.
    train.seed = opts_.train.seed + indices_.size();
    ensemble_ = std::make_unique<Ensemble>(trainEnsemble(data_, train));

    ExplorationStep out;
    out.totalSamples = indices_.size();
    out.estimate = ensemble_->estimate();
    return out;
}

std::vector<ExplorationStep>
Explorer::run()
{
    std::vector<ExplorationStep> history;
    for (;;) {
        auto step_result = step();
        if (!step_result)
            break;
        history.push_back(*step_result);
        if (step_result->estimate.meanPct <= opts_.targetMeanPct)
            break;
    }
    return history;
}

const Ensemble &
Explorer::ensemble() const
{
    if (!ensemble_)
        throw std::logic_error("no ensemble trained yet; call step()");
    return *ensemble_;
}

void
Explorer::seedEnsemble(Ensemble model)
{
    ensemble_ = std::make_unique<Ensemble>(std::move(model));
}

double
Explorer::predictIndex(uint64_t index) const
{
    return ensemble().predict(space_.encodeIndex(index));
}

std::vector<double>
Explorer::predictIndices(const std::vector<uint64_t> &indices) const
{
    obs::TraceScope span("predict", kPredictWallNs);
    kPointsPredicted.add(indices.size());
    // Batched, parallel, and bit-identical to a predictIndex loop.
    return ensemble().predictIndices(space_, indices);
}

std::vector<double>
Explorer::predictRange(uint64_t first, size_t count) const
{
    obs::TraceScope span("predict", kPredictWallNs);
    kPointsPredicted.add(count);
    return ensemble().predictRange(space_, first, count);
}

std::vector<double>
Explorer::predictSpace() const
{
    // Streamed: no iota index vector — for the 2^31-point spaces this
    // library targets that materialization is pure page traffic.
    return predictRange(0, space_.size());
}

} // namespace ml
} // namespace dse
