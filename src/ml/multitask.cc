#include "ml/multitask.hh"

#include <stdexcept>

namespace dse {
namespace ml {

MultiTaskEnsemble::MultiTaskEnsemble(std::vector<Ann> nets,
                                     std::vector<TargetScaler> scalers,
                                     ErrorEstimate primary_estimate,
                                     std::vector<TrainWarning> warnings)
    : nets_(std::move(nets)), scalers_(std::move(scalers)),
      estimate_(primary_estimate), warnings_(std::move(warnings))
{
    if (nets_.empty())
        throw std::invalid_argument("ensemble needs at least one member");
}

std::vector<double>
MultiTaskEnsemble::predictAll(const std::vector<double> &x) const
{
    // Per-member outputs land in per-thread scratch; the only
    // allocation is the returned vector.
    const size_t outs = scalers_.size();
    thread_local std::vector<double> tmp;
    if (tmp.size() < outs)
        tmp.resize(outs);
    std::vector<double> sum(outs, 0.0);
    for (const auto &net : nets_) {
        net.predictBlockT(x.data(), 1, tmp.data());
        for (size_t t = 0; t < outs; ++t)
            sum[t] += tmp[t];
    }
    std::vector<double> decoded(outs);
    for (size_t t = 0; t < outs; ++t) {
        decoded[t] = scalers_[t].decode(
            sum[t] / static_cast<double>(nets_.size()));
    }
    return decoded;
}

double
MultiTaskEnsemble::predictPrimary(const std::vector<double> &x) const
{
    return predictAll(x)[0];
}

MultiTaskEnsemble
trainMultiTaskEnsemble(const MultiTaskDataSet &data,
                       const TrainOptions &opts)
{
    std::vector<std::vector<double>> columns(data.targets());
    for (size_t i = 0; i < data.y.size(); ++i) {
        if (data.y[i].size() != data.targets())
            throw std::invalid_argument("target row of the wrong width");
        for (size_t t = 0; t < data.targets(); ++t)
            columns[t].push_back(data.y[i][t]);
    }
    FoldTraining fit = trainFolds(data.x, columns, opts);
    return MultiTaskEnsemble(std::move(fit.nets), std::move(fit.scalers),
                             fit.estimate, std::move(fit.warnings));
}

} // namespace ml
} // namespace dse
