/**
 * @file
 * Reference ANN kernels: the straightforward nested-vector
 * implementation this library used before the flat-arena numeric core
 * (see DESIGN.md, "Numeric kernels"). Kept verbatim in spirit — libm
 * sigmoid, bias-first single-chain dot products, column-strided delta
 * backprop, per-unit weight rows — as the independent oracle for
 * tests/test_ann_parity.cc. A ReferenceAnn is constructed from an
 * Ann's flat weights() so both start from identical parameters.
 *
 * The production kernels reorder floating-point accumulation (fixed
 * four-lane dots, bias added last) and use a polynomial sigmoid, so
 * agreement is asserted to a small relative tolerance, not bitwise.
 */

#ifndef DSE_TESTS_REFERENCE_ANN_HH
#define DSE_TESTS_REFERENCE_ANN_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "ml/ann.hh"

namespace dse {
namespace ml {
namespace testref {

/**
 * One stochastic gradient-descent step of @p net on a single example:
 * a one-row Ann::trainEpoch, for tests that step a network by hand.
 * @return the example's squared error before the update
 */
inline double
trainStep(Ann &net, const std::vector<double> &input,
          const std::vector<double> &target)
{
    if (input.size() != static_cast<size_t>(net.inputs()) ||
        target.size() != static_cast<size_t>(net.outputs()))
        throw std::invalid_argument("trainStep: example width mismatch");
    return net.trainEpoch(input.data(), target.data(), nullptr, 1);
}

/**
 * Test-only access to Ann's two epoch paths: the layered per-example
 * kernels that every shape but one hidden layer of 16 units with one
 * output trains through, and that shape's vector-typed epoch body at
 * each lane width this CPU runs. The layered kernels are the body's
 * exact oracle.
 */
struct AnnAccess
{
    static double
    trainEpochLayered(Ann &net, const double *x, const double *t,
                      const uint32_t *order, size_t rows)
    {
        return net.trainEpochLayered(x, t, order, rows);
    }

    /** The default shape's epoch body at @p lanes (4, or 8 when
     *  widestLanes() is 8). */
    static double
    trainEpochLanes(Ann &net, int lanes, const double *x, const double *t,
                    const uint32_t *order, size_t rows)
    {
        return net.trainEpochLanes(lanes, x, t, order, rows);
    }

    static int widestLanes() { return Ann::widestLanes(); }
};

class ReferenceAnn
{
  public:
    ReferenceAnn(int inputs, int outputs, const AnnParams &params,
                 const std::vector<double> &flat)
        : inputs_(inputs), outputs_(outputs), params_(params)
    {
        int prev = inputs;
        for (int l = 0; l < params.hiddenLayers; ++l) {
            addLayer(prev, params.hiddenUnits);
            prev = params.hiddenUnits;
        }
        addLayer(prev, outputs);
        setWeights(flat);

        act_.resize(layers_.size() + 1);
        act_[0].resize(static_cast<size_t>(inputs));
        delta_.resize(layers_.size());
        for (size_t l = 0; l < layers_.size(); ++l) {
            act_[l + 1].resize(static_cast<size_t>(layers_[l].out));
            delta_[l].resize(static_cast<size_t>(layers_[l].out));
        }
    }

    std::vector<double>
    predict(const std::vector<double> &input)
    {
        forward(input);
        return act_.back();
    }

    double
    train(const std::vector<double> &input,
          const std::vector<double> &target)
    {
        forward(input);

        double sq_error = 0.0;
        {
            const std::vector<double> &o = act_.back();
            std::vector<double> &d = delta_.back();
            for (int j = 0; j < outputs_; ++j) {
                const double oj = o[static_cast<size_t>(j)];
                const double err = target[static_cast<size_t>(j)] - oj;
                sq_error += err * err;
                d[static_cast<size_t>(j)] = err * oj * (1.0 - oj);
            }
        }

        for (size_t l = layers_.size() - 1; l-- > 0;) {
            const Layer &next = layers_[l + 1];
            const std::vector<double> &o = act_[l + 1];
            const std::vector<double> &dn = delta_[l + 1];
            std::vector<double> &d = delta_[l];
            for (int i = 0; i < next.in; ++i) {
                double sum = 0.0;
                for (int j = 0; j < next.out; ++j)
                    sum += next.w[static_cast<size_t>(j) *
                                  (next.in + 1) + i] *
                        dn[static_cast<size_t>(j)];
                const double oi = o[static_cast<size_t>(i)];
                d[static_cast<size_t>(i)] = sum * oi * (1.0 - oi);
            }
        }

        const double eta = params_.learningRate;
        const double alpha = params_.momentum;
        for (size_t l = 0; l < layers_.size(); ++l) {
            Layer &layer = layers_[l];
            const std::vector<double> &in = act_[l];
            const std::vector<double> &d = delta_[l];
            for (int j = 0; j < layer.out; ++j) {
                double *w =
                    &layer.w[static_cast<size_t>(j) * (layer.in + 1)];
                double *dw = &layer.dwPrev[static_cast<size_t>(j) *
                                           (layer.in + 1)];
                const double dj = d[static_cast<size_t>(j)];
                for (int i = 0; i < layer.in; ++i) {
                    const double update =
                        eta * dj * in[i] + alpha * dw[i];
                    w[i] += update;
                    dw[i] = update;
                }
                const double update = eta * dj + alpha * dw[layer.in];
                w[layer.in] += update;
                dw[layer.in] = update;
            }
        }
        return sq_error;
    }

    /**
     * Epoch oracle mirroring Ann::trainEpoch's presentation
     * semantics: sequential per-example train() calls over packed
     * row-major example matrices, presentation p training on row
     * order[p] (row p when @p order is null). Returns the summed
     * squared error in presentation order.
     */
    double
    trainEpoch(const double *x, const double *t, const uint32_t *order,
               size_t rows)
    {
        const size_t in = static_cast<size_t>(inputs_);
        const size_t out = static_cast<size_t>(outputs_);
        double sum = 0.0;
        for (size_t r = 0; r < rows; ++r) {
            const size_t row = order ? order[r] : r;
            sum += train(
                std::vector<double>(x + row * in, x + (row + 1) * in),
                std::vector<double>(t + row * out,
                                    t + (row + 1) * out));
        }
        return sum;
    }

    void setLearningRate(double eta) { params_.learningRate = eta; }

    std::vector<double>
    weights() const
    {
        std::vector<double> all;
        for (const auto &layer : layers_)
            all.insert(all.end(), layer.w.begin(), layer.w.end());
        return all;
    }

  private:
    struct Layer
    {
        int in = 0;
        int out = 0;
        std::vector<double> w;       ///< [out x (in + 1)], bias last
        std::vector<double> dwPrev;
    };

    void
    addLayer(int in, int out)
    {
        Layer layer;
        layer.in = in;
        layer.out = out;
        layer.w.resize(static_cast<size_t>(in + 1) * out);
        layer.dwPrev.assign(layer.w.size(), 0.0);
        layers_.push_back(std::move(layer));
    }

    void
    setWeights(const std::vector<double> &flat)
    {
        size_t at = 0;
        for (auto &layer : layers_) {
            if (at + layer.w.size() > flat.size())
                throw std::invalid_argument("weight vector too short");
            std::copy(flat.begin() + static_cast<ptrdiff_t>(at),
                      flat.begin() +
                          static_cast<ptrdiff_t>(at + layer.w.size()),
                      layer.w.begin());
            at += layer.w.size();
        }
        if (at != flat.size())
            throw std::invalid_argument("weight vector too long");
    }

    void
    forward(const std::vector<double> &input)
    {
        act_[0] = input;
        for (size_t l = 0; l < layers_.size(); ++l) {
            const Layer &layer = layers_[l];
            const std::vector<double> &in = act_[l];
            std::vector<double> &out = act_[l + 1];
            for (int j = 0; j < layer.out; ++j) {
                const double *w = &layer.w[static_cast<size_t>(j) *
                                           (layer.in + 1)];
                double net = w[layer.in];  // bias first
                for (int i = 0; i < layer.in; ++i)
                    net += w[i] * in[i];
                out[static_cast<size_t>(j)] =
                    1.0 / (1.0 + std::exp(-net));
            }
        }
    }

    int inputs_;
    int outputs_;
    AnnParams params_;
    std::vector<Layer> layers_;
    std::vector<std::vector<double>> act_;
    std::vector<std::vector<double>> delta_;
};

} // namespace testref
} // namespace ml
} // namespace dse

#endif // DSE_TESTS_REFERENCE_ANN_HH
