#include "ml/cross_validation.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "util/fault.hh"
#include "util/metrics.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"
#include "util/trace.hh"

namespace dse {
namespace ml {

namespace {

/** Training-stage metrics (DESIGN.md "Observability"). */
const obs::Counter kEnsembles("train.ensembles");
const obs::Counter kEpochs("train.epochs");
const obs::Counter kFoldsTrained("train.folds_trained");
const obs::Counter kFoldRetryCount("train.fold_retries");
const obs::Counter kDivergences("train.divergences");
const obs::Counter kFoldsDropped("train.folds_dropped");
const obs::Histogram kFoldWallNs("train.fold_wall_ns");

/**
 * Mean model error on a set of rows, as defined by the options, of
 * the primary output (output 0, decoded by @p scaler) against @p y.
 */
double
evalError(const Ann &net, const std::vector<std::vector<double>> &x,
          const std::vector<double> &y, const TargetScaler &scaler,
          const std::vector<size_t> &rows, bool percentage)
{
    if (rows.empty())
        return 0.0;
    // Evaluate through the batched path (bit-identical to per-row
    // predictScalar, but streams each layer's weights once per
    // block); the error sum stays in row order.
    const size_t n = rows.size();
    const size_t in = static_cast<size_t>(net.inputs());
    const size_t outs = static_cast<size_t>(net.outputs());
    thread_local std::vector<double> xbuf;
    thread_local std::vector<double> ybuf;
    if (xbuf.size() < n * in)
        xbuf.resize(n * in);
    if (ybuf.size() < n * outs)
        ybuf.resize(n * outs);
    for (size_t r = 0; r < n; ++r)
        std::copy(x[rows[r]].begin(), x[rows[r]].end(),
                  xbuf.begin() + static_cast<ptrdiff_t>(r * in));
    net.predictBatch(xbuf.data(), n, ybuf.data());
    double sum = 0.0;
    for (size_t r = 0; r < n; ++r) {
        const double pred = scaler.decode(ybuf[r * outs]);
        if (percentage) {
            sum += percentageError(pred, y[rows[r]]);
        } else {
            const double d = pred - y[rows[r]];
            sum += d * d;
        }
    }
    return sum / static_cast<double>(n);
}

/**
 * Encode rows [0, m) of an index list into @p out (row-major
 * [m x encodedWidth()]). Full-space sweeps hand us consecutive
 * indices; encode those odometer-style (bit-identical to
 * encodeIndexInto, no per-point divisions).
 */
void
encodeChunk(const DesignSpace &space, const uint64_t *indices, size_t m,
            double *out)
{
    const size_t width = static_cast<size_t>(space.encodedWidth());
    bool consecutive = true;
    for (size_t r = 1; r < m && consecutive; ++r)
        consecutive = indices[r] == indices[0] + r;
    if (consecutive) {
        space.encodeRangeInto(indices[0], m, out);
    } else {
        for (size_t r = 0; r < m; ++r)
            space.encodeIndexInto(indices[r], out + r * width);
    }
}

/** A batched evaluator: Ensemble::predictBatch or memberSpreadBatch. */
using BatchEval = void (Ensemble::*)(const double *x, size_t n,
                                     double *out) const;

/**
 * The fixed-chunk parallel loop behind Ensemble::predictIndices,
 * predictRange and memberSpreadIndices: n points in chunks of
 * Ensemble::kScoreChunk on the global ThreadPool. @p encode fills a
 * per-thread [m x encodedWidth()] buffer with the chunk of m points
 * starting at lo; @p eval of @p ensemble turns it into the chunk's m
 * outputs. The partition does not depend on the thread count, so
 * neither does any floating-point operation or result.
 */
std::vector<double>
scoreChunks(const Ensemble &ensemble, BatchEval eval,
            const DesignSpace &space, size_t n,
            const std::function<void(size_t lo, size_t m, double *x)> &encode)
{
    constexpr size_t chunk = Ensemble::kScoreChunk;
    const size_t width = static_cast<size_t>(space.encodedWidth());
    std::vector<double> out(n);
    util::ThreadPool::global().parallelFor(
        0, (n + chunk - 1) / chunk, [&](size_t c) {
            const size_t lo = c * chunk;
            const size_t m = std::min(chunk, n - lo);
            thread_local std::vector<double> xbuf;
            if (xbuf.size() < chunk * width)
                xbuf.resize(chunk * width);
            encode(lo, m, xbuf.data());
            (ensemble.*eval)(xbuf.data(), m, out.data() + lo);
        });
    return out;
}

} // namespace

PresentationDraw::PresentationDraw(const std::vector<double> &y,
                                   const std::vector<size_t> &rows,
                                   bool weighted)
    : cdf_(rows.size()), guide_(rows.size())
{
    double acc = 0.0;
    for (size_t i = 0; i < rows.size(); ++i) {
        const double t = std::abs(y[rows[i]]);
        acc += weighted ? 1.0 / std::max(t, 1e-6) : 1.0;
        cdf_[i] = acc;
    }
    if (rows.empty())
        return;
    scale_ = static_cast<double>(rows.size()) / acc;
    for (size_t b = 0; b < guide_.size(); ++b)
        guide_[b] = static_cast<uint32_t>(
            std::upper_bound(cdf_.begin(), cdf_.end(),
                             static_cast<double>(b) / scale_) -
            cdf_.begin());
}

uint32_t
PresentationDraw::draw(Rng &rng) const
{
    const size_t m = cdf_.size();
    const double r = rng.uniform() * cdf_.back();
    // Bucket floor(r * scale_), clamped to the last one (a NaN total
    // lands there too). Its guide entry is upper_bound of the
    // bucket's lower edge, so the scan below usually steps up a row
    // or two; stepping down covers rounding at the bucket edge.
    const double bucket = r * scale_;
    size_t i = guide_[bucket < static_cast<double>(m - 1)
                          ? static_cast<size_t>(bucket)
                          : m - 1];
    while (i > 0 && cdf_[i - 1] > r)
        --i;
    // Now i <= upper_bound's row u. A step is taken only while
    // cdf_[i] <= r, which stops at u, so the first two steps go
    // without a branch on the data and the loop finishes exactly
    // (a NaN r compares false everywhere and steps nowhere).
    i += i < m && cdf_[i] <= r;
    i += i < m && cdf_[i] <= r;
    while (i < m && cdf_[i] <= r)
        ++i;
    return static_cast<uint32_t>(std::min(i, m - 1));
}

Ensemble::Ensemble(std::vector<Ann> nets, TargetScaler scaler,
                   ErrorEstimate estimate,
                   std::vector<TrainWarning> warnings)
    : nets_(std::move(nets)), scaler_(scaler), estimate_(estimate),
      warnings_(std::move(warnings))
{
    if (nets_.empty())
        throw std::invalid_argument("ensemble needs at least one member");
}

double
Ensemble::predict(const std::vector<double> &features) const
{
    double sum = 0.0;
    for (const auto &net : nets_)
        sum += net.predictScalar(features);
    return scaler_.decode(sum / static_cast<double>(nets_.size()));
}

void
Ensemble::predictBatch(const double *x, size_t n, double *out) const
{
    const size_t in = static_cast<size_t>(nets_.front().inputs());
    const size_t outs = static_cast<size_t>(nets_.front().outputs());
    constexpr size_t B = Ann::kBlock;
    // xT + member-output block + ensemble accumulator, per thread.
    thread_local std::vector<double> scratch;
    const size_t need = (in + outs + 1) * B;
    if (scratch.size() < need)
        scratch.resize(need);
    double *xT = scratch.data();
    double *tmp = xT + in * B;
    double *acc = tmp + outs * B;
    for (size_t at = 0; at < n; at += B) {
        const size_t nb = std::min(B, n - at);
        const double *xb = x + at * in;
        for (size_t i = 0; i < in; ++i)
            for (size_t b = 0; b < nb; ++b)
                xT[i * nb + b] = xb[b * in + i];
        std::fill(acc, acc + nb, 0.0);
        // Member order matches predict()'s summation order, so the
        // accumulated sum is bit-identical.
        for (const auto &net : nets_) {
            net.predictBlockT(xT, nb, tmp);
            for (size_t b = 0; b < nb; ++b)
                acc[b] += tmp[b];
        }
        for (size_t b = 0; b < nb; ++b)
            out[at + b] =
                scaler_.decode(acc[b] / static_cast<double>(nets_.size()));
    }
}

std::vector<double>
Ensemble::predictIndices(const DesignSpace &space,
                         const std::vector<uint64_t> &indices) const
{
    return scoreChunks(*this, &Ensemble::predictBatch, space,
                       indices.size(), [&](size_t lo, size_t m, double *x) {
                           encodeChunk(space, indices.data() + lo, m, x);
                       });
}

std::vector<double>
Ensemble::predictRange(const DesignSpace &space, uint64_t first,
                       size_t count) const
{
    if (first > space.size() || count > space.size() - first)
        throw std::out_of_range("predictRange outside the design space");
    // Each chunk's first index is computed instead of loaded, so a
    // sweep over [first, first + count) is bit-identical to
    // predictIndices on the equivalent iota vector, without ever
    // building that vector.
    return scoreChunks(*this, &Ensemble::predictBatch, space, count,
                       [&](size_t lo, size_t m, double *x) {
                           space.encodeRangeInto(first + lo, m, x);
                       });
}

double
Ensemble::predictMember(size_t i, const std::vector<double> &features) const
{
    return scaler_.decode(nets_.at(i).predictScalar(features));
}

Ensemble::NetMeta
Ensemble::netMeta() const
{
    NetMeta meta;
    meta.inputs = nets_.front().inputs();
    meta.outputs = nets_.front().outputs();
    meta.params = nets_.front().params();
    return meta;
}

std::vector<double>
Ensemble::memberWeights(size_t i) const
{
    return nets_.at(i).weights();
}

double
Ensemble::memberSpread(const std::vector<double> &features) const
{
    OnlineStats acc;
    for (const auto &net : nets_)
        acc.add(scaler_.decode(net.predictScalar(features)));
    return acc.stddev();
}

void
Ensemble::memberSpreadBatch(const double *x, size_t n, double *out) const
{
    const size_t in = static_cast<size_t>(nets_.front().inputs());
    const size_t outs = static_cast<size_t>(nets_.front().outputs());
    const size_t k = nets_.size();
    constexpr size_t B = Ann::kBlock;
    // xT panel + member-output block, per thread (the ensemble
    // accumulator predictBatch carries is replaced by the per-point
    // Welford state below).
    thread_local std::vector<double> scratch;
    const size_t need = (in + outs) * B;
    if (scratch.size() < need)
        scratch.resize(need);
    double *xT = scratch.data();
    double *tmp = xT + in * B;
    // Scaler parameters hoisted into locals so the per-member decode
    // below is TargetScaler::decode's exact expression — same
    // subtractions, same division, same fused-nothing policy — but
    // inlined into the point-parallel loop.
    const double lo = scaler_.lo();
    const double denom = scaler_.hi() - scaler_.lo();
    const double raw_min = scaler_.rawMin();
    const double raw_span = scaler_.rawMax() - scaler_.rawMin();
    for (size_t at = 0; at < n; at += B) {
        const size_t nb = std::min(B, n - at);
        const double *xb = x + at * in;
        for (size_t i = 0; i < in; ++i)
            for (size_t b = 0; b < nb; ++b)
                xT[i * nb + b] = xb[b * in + i];
        // Structure-of-arrays Welford state, one lane per point in
        // the block. Per point this performs OnlineStats::add's
        // arithmetic (delta, mean += delta/count, m2 update — the
        // min/max bookkeeping stddev never reads is dropped) on the
        // members in nets_ order, so every point sees the exact
        // decode/add sequence memberSpread() performs; laying the
        // state out across points just lets the member fold
        // vectorize instead of calling two out-of-line functions per
        // member prediction.
        double mean[B];
        double m2[B];
        for (size_t b = 0; b < nb; ++b) {
            mean[b] = 0.0;
            m2[b] = 0.0;
        }
        for (size_t m = 0; m < k; ++m) {
            nets_[m].predictBlockT(xT, nb, tmp);
            const double count = static_cast<double>(m + 1);
            for (size_t b = 0; b < nb; ++b) {
                const double v =
                    raw_min + (tmp[b] - lo) / denom * raw_span;
                const double delta = v - mean[b];
                mean[b] += delta / count;
                m2[b] += delta * (v - mean[b]);
            }
        }
        // OnlineStats::stddev(): sqrt of the unbiased sample
        // variance, 0 with fewer than two members.
        for (size_t b = 0; b < nb; ++b)
            out[at + b] = k < 2
                ? 0.0
                : std::sqrt(m2[b] / static_cast<double>(k - 1));
    }
}

std::vector<double>
Ensemble::memberSpreadIndices(const DesignSpace &space,
                              const std::vector<uint64_t> &indices) const
{
    return scoreChunks(*this, &Ensemble::memberSpreadBatch, space,
                       indices.size(), [&](size_t lo, size_t m, double *x) {
                           encodeChunk(space, indices.data() + lo, m, x);
                       });
}

FoldTraining
trainFolds(const std::vector<std::vector<double>> &x,
           const std::vector<std::vector<double>> &targets,
           const TrainOptions &opts)
{
    if (x.size() < static_cast<size_t>(opts.folds) || opts.folds < 2) {
        throw std::invalid_argument(
            "need at least `folds` >= 2 training points");
    }
    if (targets.empty())
        throw std::invalid_argument("need at least one target column");
    // Rows are packed into buffers sized from the first one, so a
    // ragged row would overrun them or leave stale values behind.
    const size_t in_w = x.front().size();
    for (const auto &row : x) {
        if (row.size() != in_w)
            throw std::invalid_argument("feature rows differ in width");
    }
    for (const auto &column : targets) {
        if (column.size() != x.size())
            throw std::invalid_argument("target column and rows differ");
    }
    // Column 0 is the primary target: it alone drives presentation
    // weights, early stopping and the pooled error estimate.
    const std::vector<double> &y = targets.front();

    Rng rng(opts.seed);

    const size_t outs = targets.size();
    std::vector<TargetScaler> scalers(outs);
    for (size_t c = 0; c < outs; ++c)
        scalers[c].fit(targets[c]);
    const TargetScaler &scaler = scalers.front();

    // Shuffle row indices, then deal them into k folds.
    std::vector<size_t> order(x.size());
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
    const int k = opts.folds;
    std::vector<std::vector<size_t>> folds(static_cast<size_t>(k));
    for (size_t i = 0; i < order.size(); ++i)
        folds[i % static_cast<size_t>(k)].push_back(order[i]);

    // Each fold network owns an independent RNG stream seeded from a
    // SplitMix64 sequence over the training seed, so folds can train
    // concurrently and still produce results bit-identical to serial
    // execution at any thread count.
    SplitMix64 seeder(opts.seed ^ 0xd1b54a32d192ed03ull);
    std::vector<uint64_t> fold_seeds(static_cast<size_t>(k));
    for (auto &s : fold_seeds)
        s = seeder.next();

    std::vector<std::optional<Ann>> slots(static_cast<size_t>(k));
    std::vector<std::vector<double>> fold_pct_errors(
        static_cast<size_t>(k));
    std::vector<std::optional<TrainWarning>> warn_slots(
        static_cast<size_t>(k));

    // One initialization of fold mi from the given seed; returns the
    // trained network, or nothing if it diverged (non-finite epoch
    // loss or weights). The happy path consumes the RNG stream
    // exactly as it always has, so healthy training is bit-identical
    // to the pre-retry implementation.
    auto attempt_fold = [&](size_t mi, uint64_t seed, bool scan_weights) {
        const int m = static_cast<int>(mi);
        // Model m: ES fold = (m + k - 1) % k, test fold = m, train on
        // the rest (Figure 3.3's rotation).
        const int test_fold = m;
        const int es_fold = (m + k - 1) % k;

        std::vector<size_t> train_rows;
        for (int f = 0; f < k; ++f) {
            if (f == test_fold || f == es_fold)
                continue;
            train_rows.insert(train_rows.end(), folds[f].begin(),
                              folds[f].end());
        }
        const std::vector<size_t> &es_rows =
            folds[static_cast<size_t>(es_fold)];

        Rng fold_rng(seed);
        Ann net(static_cast<int>(in_w), static_cast<int>(outs), opts.ann,
                fold_rng);
        const PresentationDraw draws(y, train_rows,
                                     opts.weightedPresentation);

        // Pack the fold's training rows once: epochs sweep two flat
        // row-major buffers ([rows x inputs] and [rows x outputs])
        // instead of chasing x[row] vectors, and targets are encoded
        // here rather than on every presentation of every epoch
        // (encode() is a pure function of the fitted scaler, so
        // hoisting it is bit-invisible).
        const size_t n_rows = train_rows.size();
        std::vector<double> fold_x(n_rows * in_w);
        std::vector<double> fold_t(n_rows * outs);
        for (size_t r = 0; r < n_rows; ++r) {
            const size_t row = train_rows[r];
            std::copy(x[row].begin(), x[row].end(),
                      fold_x.begin() + static_cast<ptrdiff_t>(r * in_w));
            for (size_t c = 0; c < outs; ++c)
                fold_t[r * outs + c] = scalers[c].encode(targets[c][row]);
        }
        std::vector<uint32_t> order(n_rows);

        double best_es = std::numeric_limits<double>::infinity();
        std::vector<double> best_weights = net.weights();
        int stale = 0;

        // An epoch's summed squared error on sigmoid outputs is
        // bounded by the row count times the output count; anything
        // past this factor means the arithmetic blew up, not that the
        // fit is merely bad.
        const double explosion_bound =
            100.0 * static_cast<double>(n_rows * outs);

        const double base_lr = opts.ann.learningRate;
        for (int epoch = 0; epoch < opts.maxEpochs; ++epoch) {
            if (opts.ann.decayEpochs > 0.0) {
                net.setLearningRate(
                    base_lr / (1.0 + epoch / opts.ann.decayEpochs));
            }
            // One epoch = n_rows weighted presentations: draw the
            // whole presentation order first (consuming the fold's
            // RNG stream exactly as the historical per-presentation
            // loop did), then hand the packed fold to the fused epoch
            // kernel — bit-identical to presenting the rows one by one.
            for (size_t p = 0; p < n_rows; ++p)
                order[p] = draws.draw(fold_rng);
            const double epoch_sq = net.trainEpoch(
                fold_x.data(), fold_t.data(), order.data(), n_rows);
            kEpochs.add();
            if (net.diverged() || !std::isfinite(epoch_sq) ||
                epoch_sq > explosion_bound) {
                return std::optional<Ann>();
            }
            if (!opts.earlyStopping ||
                (epoch + 1) % std::max(1, opts.esInterval) != 0) {
                continue;
            }
            const double es_err = evalError(net, x, y, scaler, es_rows,
                                            opts.percentageEarlyStop);
            if (es_err < best_es - 1e-12) {
                best_es = es_err;
                best_weights = net.weights();
                stale = 0;
            } else if (++stale >= opts.patience) {
                break;
            }
        }
        if (opts.earlyStopping)
            net.setWeights(best_weights);
        // Reaching here means every epoch's loss was finite and under
        // the explosion bound (the loop rejects the attempt
        // otherwise), which latches off the O(W) finiteWeights()
        // sweep on the healthy path. Retries keep the full scan: a
        // previous initialization of this fold has already blown up,
        // so the reseeded recovery path pays the sweep to certify its
        // accept decision.
        if (scan_weights && !net.finiteWeights())
            return std::optional<Ann>();
        return std::optional<Ann>(std::move(net));
    };

    auto train_fold = [&](size_t mi) {
        obs::TraceScope span("train-fold", kFoldWallNs);
        constexpr int attempts_allowed = 1 + kFoldRetries;
        // Retry seeds derive from the fold seed, not a shared
        // counter, so recovery is deterministic at any thread count.
        SplitMix64 reseeder(fold_seeds[mi] ^ 0x6a09e667f3bcc909ull);
        auto &injector = util::FaultInjector::global();

        for (int attempt = 0; attempt < attempts_allowed; ++attempt) {
            if (attempt > 0)
                kFoldRetryCount.add();
            const uint64_t seed =
                attempt == 0 ? fold_seeds[mi] : reseeder.next();
            // Injection site "fold": a fired probe stands in for a
            // diverged attempt, keyed by (fold, attempt) so the
            // outcome is independent of scheduling.
            std::optional<Ann> net;
            if (!injector.shouldFail(
                    "fold",
                    mi * 64 + static_cast<uint64_t>(attempt))) {
                net = attempt_fold(mi, seed, attempt > 0);
            }
            if (!net) {
                kDivergences.add();
                continue;
            }

            // Test-fold percentage errors feed the pooled estimate.
            for (size_t row : folds[mi]) {
                const double pred =
                    scaler.decode(net->predictScalar(x[row]));
                fold_pct_errors[mi].push_back(percentageError(pred, y[row]));
            }
            slots[mi].emplace(std::move(*net));
            kFoldsTrained.add();
            return;
        }
        kFoldsDropped.add();
        warn_slots[mi] = TrainWarning{
            static_cast<int>(mi), attempts_allowed,
            "fold " + std::to_string(mi) + " diverged on all " +
                std::to_string(attempts_allowed) +
                " initializations; dropped from the ensemble"};
    };

    kEnsembles.add();
    util::ThreadPool::global().parallelFor(0, static_cast<size_t>(k),
                                           train_fold);

    // Reassemble in fold order: nets, pooled errors, and warnings are
    // identical regardless of which thread trained which fold.
    std::vector<Ann> nets;
    nets.reserve(static_cast<size_t>(k));
    std::vector<double> pooled_pct_errors;
    std::vector<TrainWarning> warnings;
    for (int m = 0; m < k; ++m) {
        if (warn_slots[static_cast<size_t>(m)]) {
            warnings.push_back(*warn_slots[static_cast<size_t>(m)]);
            continue;
        }
        nets.push_back(std::move(*slots[static_cast<size_t>(m)]));
        const auto &errs = fold_pct_errors[static_cast<size_t>(m)];
        pooled_pct_errors.insert(pooled_pct_errors.end(), errs.begin(),
                                 errs.end());
    }
    if (nets.empty()) {
        throw std::runtime_error(
            "trainFolds: every fold diverged after retries; "
            "no usable ensemble");
    }

    ErrorEstimate est;
    est.meanPct = mean(pooled_pct_errors);
    est.sdPct = stddev(pooled_pct_errors);
    if (!warnings.empty()) {
        // Fewer members and fewer pooled test folds mean a less
        // trustworthy estimate; widen it so a degraded ensemble
        // never looks *more* converged than a healthy one.
        const double widen = std::sqrt(
            static_cast<double>(k) / static_cast<double>(nets.size()));
        est.meanPct *= widen;
        est.sdPct *= widen;
    }
    return {std::move(nets), std::move(scalers), est, std::move(warnings)};
}

Ensemble
trainEnsemble(const DataSet &data, const TrainOptions &opts)
{
    FoldTraining fit = trainFolds(data.x, {data.y}, opts);
    return Ensemble(std::move(fit.nets), fit.scalers.front(), fit.estimate,
                    std::move(fit.warnings));
}

} // namespace ml
} // namespace dse
