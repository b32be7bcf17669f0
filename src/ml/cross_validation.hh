/**
 * @file
 * k-fold cross-validation ensemble training (Section 3.2).
 *
 * The training sample is split into k folds. Network i trains on
 * folds {1..k} \ {es_i, test_i}, early-stops on fold es_i, and its
 * accuracy is estimated on fold test_i; the es/test folds rotate so
 * every fold serves each role once. The resulting k networks form an
 * ensemble whose prediction is the average of the member predictions.
 * The pooled percentage errors on the k test folds give the
 * cross-validation estimate of the ensemble's mean error and its
 * standard deviation over the whole design space — the signal the
 * architect uses to decide when to stop simulating.
 *
 * Architecture-specific training details from Section 3.3:
 *  - examples are presented at a frequency proportional to the
 *    inverse of their target value, optimizing percentage (not
 *    absolute) error;
 *  - early stopping monitors percentage error on the ES fold and
 *    rolls back to the best-seen weights.
 *
 * One driver, trainFolds, implements all of this for networks with
 * one output per target column; trainEnsemble (one target) and
 * trainMultiTaskEnsemble (ml/multitask.hh, several) are thin callers.
 * Fold networks are independent: each owns an RNG stream derived from
 * the training seed via SplitMix64, so the driver trains the k folds
 * concurrently on the global ThreadPool, with results bit-identical
 * to serial execution at any DSE_THREADS setting (see DESIGN.md,
 * "Parallel execution & determinism").
 *
 * Per fold, training rows are packed once into contiguous matrices
 * with pre-encoded targets, and each epoch runs as a single
 * Ann::trainEpoch call over a pre-drawn presentation order (see
 * DESIGN.md, "Training pipeline") — bit-identical to the historical
 * per-example loop, without its per-presentation encode and vector
 * traffic.
 */

#ifndef DSE_ML_CROSS_VALIDATION_HH
#define DSE_ML_CROSS_VALIDATION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ml/ann.hh"
#include "ml/encoding.hh"

namespace dse {
namespace ml {

/** A supervised regression data set (encoded features, raw targets). */
struct DataSet
{
    std::vector<std::vector<double>> x;
    std::vector<double> y;

    size_t size() const { return x.size(); }

    void
    add(std::vector<double> features, double target)
    {
        x.push_back(std::move(features));
        y.push_back(target);
    }
};

/** Cross-validation estimate of model error over the design space. */
struct ErrorEstimate
{
    double meanPct = 0.0;  ///< estimated mean percentage error
    double sdPct = 0.0;    ///< estimated SD of percentage error
};

/** Training configuration. */
struct TrainOptions
{
    int folds = 10;
    AnnParams ann;
    int maxEpochs = 8000;
    /** Evaluate the early-stopping fold every this many epochs. */
    int esInterval = 10;
    /** Early stopping: ES evaluations without improvement to stop. */
    int patience = 40;
    /** Present examples at frequency proportional to 1/target. */
    bool weightedPresentation = true;
    /** Early-stop on percentage (vs. squared) error. */
    bool percentageEarlyStop = true;
    /** Disable early stopping entirely (ablation). */
    bool earlyStopping = true;
    uint64_t seed = 12345;
};

/**
 * Retraining attempts granted to a fold whose network diverges
 * (NaN/Inf weights or an exploding epoch loss). Each retry
 * reinitializes from a deterministically reseeded SplitMix64 stream,
 * so recovery is bit-identical at any thread count. A fold that
 * exhausts 1 + kFoldRetries attempts is dropped and the ensemble
 * degrades gracefully (see trainFolds).
 */
constexpr int kFoldRetries = 3;

/** One fold's failure report when training degraded (see Ensemble). */
struct TrainWarning
{
    int fold = 0;      ///< which fold was dropped
    int attempts = 0;  ///< initializations tried before giving up
    std::string message;
};

/**
 * The trained cross-validation ensemble: k networks plus the target
 * scaler and the error estimate derived from the test folds.
 */
class Ensemble
{
  public:
    Ensemble(std::vector<Ann> nets, TargetScaler scaler,
             ErrorEstimate estimate,
             std::vector<TrainWarning> warnings = {});

    /** Ensemble prediction: average of member predictions, decoded. */
    double predict(const std::vector<double> &features) const;

    /**
     * Batched ensemble prediction: @p x is row-major [n x inputs],
     * @p out receives the n decoded predictions. Each block of
     * Ann::kBlock points is transposed once and reused across all
     * members; per point, bit-for-bit identical to predict().
     * Thread-safe on a const ensemble.
     */
    void predictBatch(const double *x, size_t n, double *out) const;

    /**
     * Points per parallel chunk of the index-addressed batch paths
     * (predictIndices / predictRange / memberSpreadIndices): a few
     * Ann::kBlock panels per pool task. The chunk partition is a pure
     * function of the input length — never of DSE_THREADS — which is
     * what makes every chunked result bit-identical at any thread
     * count.
     */
    static constexpr size_t kScoreChunk = 4 * Ann::kBlock;

    /**
     * Predict a set of design points addressed by flat index,
     * encoding and evaluating block-wise in parallel on the global
     * ThreadPool. The block partition is fixed (independent of
     * DSE_THREADS), so results are bit-identical at any thread count
     * and to a predict() loop over the same indices.
     */
    std::vector<double> predictIndices(
        const DesignSpace &space,
        const std::vector<uint64_t> &indices) const;

    /**
     * Streaming prediction of the consecutive index range
     * [first, first + count): same fixed-chunk parallel evaluation as
     * predictIndices on an iota vector — bit-identical to it — but
     * the indices are implicit, so a full-space sweep never
     * materializes an 8-byte-per-point index vector. Every chunk
     * encodes through the odometer DesignSpace::encodeRangeInto.
     */
    std::vector<double> predictRange(const DesignSpace &space,
                                     uint64_t first, size_t count) const;

    /** Prediction of a single member (ablation/diagnostics). */
    double predictMember(size_t i,
                         const std::vector<double> &features) const;

    /**
     * Spread of member predictions on a point (sample SD, raw units).
     * High disagreement flags uncertainty — the active-learning
     * extension samples where this is largest.
     */
    double memberSpread(const std::vector<double> &features) const;

    /**
     * Batched member spread: @p x is row-major [n x inputs], @p out
     * receives the n sample SDs. Each block of Ann::kBlock points is
     * transposed once into a coordinate-major panel and reused across
     * all members (the predictBatch treatment applied to scoring);
     * per point the member predictions fold through OnlineStats in
     * member order, so every value is bit-for-bit the memberSpread()
     * result. Thread-safe on a const ensemble.
     */
    void memberSpreadBatch(const double *x, size_t n, double *out) const;

    /**
     * Member spread of a set of design points addressed by flat
     * index: encodes candidates in fixed kScoreChunk panels
     * (odometer encodeRangeInto for consecutive runs, encodeIndexInto
     * otherwise) and scores them via memberSpreadBatch in parallel on
     * the global ThreadPool. Results are in input order and
     * bit-identical to a memberSpread(space.encodeIndex(i)) loop at
     * any thread count — the query-by-committee hot path.
     */
    std::vector<double> memberSpreadIndices(
        const DesignSpace &space,
        const std::vector<uint64_t> &indices) const;

    size_t members() const { return nets_.size(); }

    /** Cross-validation error estimate (mean and SD, percent). When
     *  training degraded, the estimate is widened (see warnings()). */
    const ErrorEstimate &estimate() const { return estimate_; }

    /**
     * Structured reports for folds dropped during training. Empty
     * for a healthy ensemble; non-empty means fewer than the
     * requested k members survived and estimate() was widened by
     * sqrt(k / survivors) to stay conservative.
     */
    const std::vector<TrainWarning> &warnings() const
    {
        return warnings_;
    }

    /** True if any fold was dropped during training. */
    bool degraded() const { return !warnings_.empty(); }

    const TargetScaler &scaler() const { return scaler_; }

    /** Shared member-network topology (serialization). */
    struct NetMeta
    {
        int inputs = 0;
        int outputs = 0;
        AnnParams params;
    };

    /** Topology and hyper-parameters of the member networks. */
    NetMeta netMeta() const;

    /** Flat weight vector of one member (serialization). */
    std::vector<double> memberWeights(size_t i) const;

  private:
    std::vector<Ann> nets_;
    TargetScaler scaler_;
    ErrorEstimate estimate_;
    std::vector<TrainWarning> warnings_;
};

/**
 * Weighted presentation draws over one fold's training rows (Section
 * 3.3): row i is drawn with probability proportional to
 * 1 / max(|y[rows[i]]|, 1e-6) when weighted, uniformly otherwise.
 * A draw takes one rng.uniform() and returns the index (into @p rows)
 * that std::upper_bound over the cumulative weights gives, clamped to
 * the last row. A guide table of one entry per row lets a draw start
 * next to that index and scan to it in O(1) expected steps instead of
 * a binary search; the guide only shortens the scan, so the result
 * is upper_bound's whatever the guide holds.
 */
class PresentationDraw
{
  public:
    PresentationDraw(const std::vector<double> &y,
                     const std::vector<size_t> &rows, bool weighted);

    /** Draw one row index in [0, rows.size()); rows must be nonempty. */
    uint32_t draw(Rng &rng) const;

  private:
    std::vector<double> cdf_;      ///< cumulative weights, row order
    std::vector<uint32_t> guide_;  ///< [b] = upper_bound(cdf_, b / scale_)
    double scale_ = 0.0;           ///< rows / total weight
};

/** What trainFolds returns: the surviving fold networks and more. */
struct FoldTraining
{
    std::vector<Ann> nets;               ///< surviving folds, in fold order
    std::vector<TargetScaler> scalers;   ///< one per target column
    ErrorEstimate estimate;              ///< of target column 0
    std::vector<TrainWarning> warnings;  ///< one per dropped fold
};

/**
 * The k-fold training driver behind trainEnsemble and
 * trainMultiTaskEnsemble. Fits one TargetScaler per target column and
 * trains each fold's network with one output per column. Column 0 is
 * the primary target: it alone sets the presentation weights, the
 * early-stopping error and the pooled error estimate.
 *
 * Failure containment: a fold whose network diverges is retried up
 * to kFoldRetries times from deterministically reseeded
 * initializations; a fold that still fails is dropped rather than
 * aborting the campaign. The result then carries the surviving
 * members, a warning per dropped fold, and an error estimate widened
 * by sqrt(k / survivors). Only if *every* fold exhausts its retries
 * does this throw.
 *
 * @param x encoded feature rows, all of one width
 * @param targets raw (unscaled) target columns, each x.size() long
 * @param opts training configuration
 * @throws std::invalid_argument on fewer than max(2, folds) rows,
 *         no target column, or rows and columns of mismatched size
 * @throws std::runtime_error if all folds diverge
 */
FoldTraining trainFolds(const std::vector<std::vector<double>> &x,
                        const std::vector<std::vector<double>> &targets,
                        const TrainOptions &opts);

/**
 * Train a k-fold cross-validation ensemble on a data set: trainFolds
 * on the one target column (see there for failure containment).
 *
 * @param data encoded features and raw (unscaled) targets
 * @param opts training configuration
 * @return the ensemble with its error estimate
 * @throws std::invalid_argument on malformed or too few rows
 * @throws std::runtime_error if all folds diverge
 */
Ensemble trainEnsemble(const DataSet &data, const TrainOptions &opts);

} // namespace ml
} // namespace dse

#endif // DSE_ML_CROSS_VALIDATION_HH
