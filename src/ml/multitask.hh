/**
 * @file
 * Multi-task learning extension (Chapter 7, "Conclusions and Future
 * Work").
 *
 * Simulators report several statistics besides the main metric (cache
 * miss rates, branch misprediction rates, ...). These correlate with
 * IPC but cannot be model *inputs* — they are unknown for unsimulated
 * points. Multi-task learning exploits the correlations anyway: one
 * network with several outputs is trained to predict all metrics at
 * once, sharing its hidden layer. The shared representation acts as
 * an inductive bias that can improve the main metric's accuracy in
 * the sparse-sampling regime.
 *
 * Training is trainEnsemble's k-fold driver (trainFolds in
 * ml/cross_validation.hh) with one output unit per target: parallel
 * folds on per-fold RNG streams, packed epochs, fold retries and
 * TrainWarnings, with the primary target alone driving presentation
 * weights, early stopping and the error estimate.
 */

#ifndef DSE_ML_MULTITASK_HH
#define DSE_ML_MULTITASK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ml/ann.hh"
#include "ml/cross_validation.hh"
#include "ml/encoding.hh"

namespace dse {
namespace ml {

/** A data set with several targets per row; target 0 is primary. */
struct MultiTaskDataSet
{
    std::vector<std::string> targetNames;
    std::vector<std::vector<double>> x;
    std::vector<std::vector<double>> y;  ///< one value per target

    size_t size() const { return x.size(); }
    size_t targets() const { return targetNames.size(); }

    void
    add(std::vector<double> features, std::vector<double> target_values)
    {
        x.push_back(std::move(features));
        y.push_back(std::move(target_values));
    }
};

/**
 * A k-fold cross-validation ensemble of multi-output networks.
 */
class MultiTaskEnsemble
{
  public:
    MultiTaskEnsemble(std::vector<Ann> nets,
                      std::vector<TargetScaler> scalers,
                      ErrorEstimate primary_estimate,
                      std::vector<TrainWarning> warnings = {});

    /** Predict all targets (raw units, ensemble average). */
    std::vector<double> predictAll(const std::vector<double> &x) const;

    /** Predict only the primary target. */
    double predictPrimary(const std::vector<double> &x) const;

    /** Cross-validation estimate for the primary target, widened as
     *  Ensemble::estimate() is when folds were dropped. */
    const ErrorEstimate &estimate() const { return estimate_; }

    /** One report per fold dropped during training (see
     *  Ensemble::warnings()). */
    const std::vector<TrainWarning> &warnings() const
    {
        return warnings_;
    }

    size_t members() const { return nets_.size(); }

  private:
    std::vector<Ann> nets_;
    std::vector<TargetScaler> scalers_;
    ErrorEstimate estimate_;
    std::vector<TrainWarning> warnings_;
};

/**
 * Train a multi-task ensemble: trainFolds with data.y transposed into
 * one column per target, so one target gives exactly trainEnsemble's
 * members and estimate.
 *
 * @throws std::invalid_argument on a row whose target count differs
 *         from targets(), and wherever trainFolds throws it
 * @throws std::runtime_error if all folds diverge
 */
MultiTaskEnsemble trainMultiTaskEnsemble(const MultiTaskDataSet &data,
                                         const TrainOptions &opts);

} // namespace ml
} // namespace dse

#endif // DSE_ML_MULTITASK_HH
