/**
 * @file
 * Tests for the feed-forward network and backpropagation: gradient
 * correctness, learnability of canonical functions, and API behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "ml/ann.hh"
#include "reference_ann.hh"

namespace dse {
namespace ml {
namespace {

TEST(Ann, OutputInSigmoidRange)
{
    Rng rng(1);
    AnnParams p;
    Ann net(3, 1, p, rng);
    const double o = net.predictScalar({0.1, 0.5, 0.9});
    EXPECT_GT(o, 0.0);
    EXPECT_LT(o, 1.0);
}

TEST(Ann, NearZeroInitPredictsNearHalf)
{
    Rng rng(2);
    AnnParams p;
    p.initWeightRange = 0.01;
    Ann net(4, 1, p, rng);
    EXPECT_NEAR(net.predictScalar({0.2, 0.4, 0.6, 0.8}), 0.5, 0.05);
}

TEST(Ann, WeightCountMatchesTopology)
{
    Rng rng(3);
    AnnParams p;
    p.hiddenUnits = 16;
    p.hiddenLayers = 1;
    Ann net(10, 2, p, rng);
    // (10+1)*16 + (16+1)*2
    EXPECT_EQ(net.weightCount(), (10u + 1) * 16 + (16u + 1) * 2);
}

TEST(Ann, TwoHiddenLayers)
{
    Rng rng(3);
    AnnParams p;
    p.hiddenUnits = 4;
    p.hiddenLayers = 2;
    Ann net(3, 1, p, rng);
    EXPECT_EQ(net.weightCount(), (3u + 1) * 4 + (4u + 1) * 4 + (4u + 1) * 1);
    EXPECT_GT(net.predictScalar({0.1, 0.2, 0.3}), 0.0);
}

TEST(Ann, SetWeightsRoundTrip)
{
    Rng rng(5);
    AnnParams p;
    Ann a(4, 1, p, rng);
    Ann b(4, 1, p, rng);  // different init
    const std::vector<double> x{0.3, 0.6, 0.1, 0.8};
    b.setWeights(a.weights());
    EXPECT_DOUBLE_EQ(a.predictScalar(x), b.predictScalar(x));
}

TEST(Ann, SetWeightsRejectsWrongSize)
{
    Rng rng(5);
    Ann net(4, 1, AnnParams{}, rng);
    EXPECT_THROW(net.setWeights({1.0, 2.0}), std::invalid_argument);
}

TEST(Ann, RejectsBadTopology)
{
    Rng rng(5);
    AnnParams p;
    EXPECT_THROW(Ann(0, 1, p, rng), std::invalid_argument);
    EXPECT_THROW(Ann(1, 0, p, rng), std::invalid_argument);
    p.hiddenUnits = 0;
    EXPECT_THROW(Ann(1, 1, p, rng), std::invalid_argument);
}

TEST(Ann, GradientMatchesNumericalDerivative)
{
    Rng rng(7);
    AnnParams p;
    p.hiddenUnits = 5;
    p.learningRate = 1e-3;
    p.momentum = 0.0;
    p.decayEpochs = 0.0;
    p.initWeightRange = 0.5;
    Ann net(3, 1, p, rng);
    const std::vector<double> x{0.2, 0.7, 0.4};
    const std::vector<double> t{0.8};

    const auto w0 = net.weights();
    auto loss = [&](const std::vector<double> &w) {
        Ann tmp = net;
        tmp.setWeights(w);
        const double o = tmp.predictScalar(x);
        return (t[0] - o) * (t[0] - o);
    };
    testref::trainStep(net, x, t);
    const auto w1 = net.weights();

    for (size_t i = 0; i < w0.size(); i += 3) {
        auto wp = w0, wm = w0;
        wp[i] += 1e-6;
        wm[i] -= 1e-6;
        const double num_grad = (loss(wp) - loss(wm)) / 2e-6;
        // The update step is -eta * dE/dw with E = (t-o)^2 / 2 under
        // the delta convention used (delta = (t-o) o (1-o)).
        const double expected = -p.learningRate * 0.5 * num_grad;
        EXPECT_NEAR(w1[i] - w0[i], expected,
                    1e-7 + 1e-4 * std::abs(expected));
    }
}

TEST(Ann, TrainReturnsSquaredError)
{
    Rng rng(9);
    Ann net(2, 1, AnnParams{}, rng);
    const double before = net.predictScalar({0.5, 0.5});
    const double err = testref::trainStep(net, {0.5, 0.5}, {0.9});
    EXPECT_NEAR(err, (0.9 - before) * (0.9 - before), 1e-9);
}

TEST(Ann, LearnsXor)
{
    Rng rng(11);
    AnnParams p;
    p.hiddenUnits = 8;
    p.learningRate = 0.5;
    p.momentum = 0.5;
    p.decayEpochs = 0.0;
    p.initWeightRange = 0.5;
    Ann net(2, 1, p, rng);
    const std::vector<std::vector<double>> xs{
        {0, 0}, {0, 1}, {1, 0}, {1, 1}};
    const std::vector<double> ys{0.1, 0.9, 0.9, 0.1};
    for (int epoch = 0; epoch < 5000; ++epoch)
        for (size_t i = 0; i < 4; ++i)
            testref::trainStep(net, xs[i], {ys[i]});
    for (size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(net.predictScalar(xs[i]), ys[i], 0.15) << i;
}

TEST(Ann, LearnsLinearFunction)
{
    Rng rng(13);
    AnnParams p;
    p.learningRate = 0.2;
    p.decayEpochs = 0.0;
    Ann net(2, 1, p, rng);
    Rng data(17);
    for (int epoch = 0; epoch < 30000; ++epoch) {
        const double a = data.uniform(), b = data.uniform();
        testref::trainStep(net, {a, b}, {0.2 + 0.3 * a + 0.3 * b});
    }
    double max_err = 0.0;
    for (double a : {0.1, 0.5, 0.9})
        for (double b : {0.1, 0.5, 0.9})
            max_err = std::max(max_err,
                std::abs(net.predictScalar({a, b}) -
                         (0.2 + 0.3 * a + 0.3 * b)));
    EXPECT_LT(max_err, 0.05);
}

TEST(Ann, LearnsProductInteraction)
{
    // A pure interaction term needs hidden units (not learnable by a
    // linear model).
    Rng rng(19);
    AnnParams p;
    p.hiddenUnits = 16;
    p.learningRate = 0.3;
    p.decayEpochs = 0.0;
    Ann net(2, 1, p, rng);
    Rng data(23);
    for (int epoch = 0; epoch < 120000; ++epoch) {
        const double a = data.uniform(), b = data.uniform();
        testref::trainStep(net, {a, b}, {0.1 + 0.8 * a * b});
    }
    double sum_err = 0.0;
    int n = 0;
    for (double a = 0.05; a < 1.0; a += 0.1)
        for (double b = 0.05; b < 1.0; b += 0.1) {
            sum_err += std::abs(net.predictScalar({a, b}) -
                                (0.1 + 0.8 * a * b));
            ++n;
        }
    EXPECT_LT(sum_err / n, 0.05);
}

TEST(Ann, MultiOutputTrainsBothHeads)
{
    Rng rng(29);
    AnnParams p;
    p.learningRate = 0.3;
    p.decayEpochs = 0.0;
    Ann net(1, 2, p, rng);
    Rng data(31);
    for (int epoch = 0; epoch < 20000; ++epoch) {
        const double a = data.uniform();
        testref::trainStep(net, {a}, {0.2 + 0.6 * a, 0.8 - 0.6 * a});
    }
    const auto out = net.predict({0.5});
    EXPECT_NEAR(out[0], 0.5, 0.05);
    EXPECT_NEAR(out[1], 0.5, 0.05);
}

TEST(Ann, DeterministicGivenSeed)
{
    auto build = [] {
        Rng rng(37);
        AnnParams p;
        p.learningRate = 0.1;
        Ann net(2, 1, p, rng);
        for (int i = 0; i < 100; ++i)
            testref::trainStep(net, {0.3, 0.6}, {0.7});
        return net.predictScalar({0.3, 0.6});
    };
    EXPECT_DOUBLE_EQ(build(), build());
}

TEST(StableSigmoid, MatchesLibmAcrossClampedRange)
{
    // The polynomial sigmoid is the single activation definition for
    // every kernel; it must track the libm form to ~1 ulp wherever
    // the libm form is representable.
    double worst = 0.0;
    for (int i = 0; i <= 200000; ++i) {
        const double x = -708.0 + i * (1416.0 / 200000.0);
        const double ref = 1.0 / (1.0 + std::exp(-x));
        const double got = stableSigmoid(x);
        worst = std::max(worst, std::abs(got - ref) / ref);
    }
    EXPECT_LE(worst, 1e-13);
}

TEST(StableSigmoid, ExtremeInputsSaturateWithoutOverflow)
{
    EXPECT_DOUBLE_EQ(stableSigmoid(0.0), 0.5);
    // Already saturated to the last ulp well inside the clamp.
    EXPECT_DOUBLE_EQ(stableSigmoid(40.0),
                     1.0 / (1.0 + std::exp(-40.0)));
    EXPECT_NEAR(stableSigmoid(-40.0), std::exp(-40.0), 1e-30);
    for (double x : {708.0, 1e9, 1e308,
                     std::numeric_limits<double>::max()}) {
        EXPECT_EQ(stableSigmoid(x), 1.0) << "x=" << x;
        const double lo = stableSigmoid(-x);
        EXPECT_TRUE(std::isfinite(lo)) << "x=" << -x;
        EXPECT_GT(lo, 0.0) << "x=" << -x;
        EXPECT_LT(lo, 1e-300) << "x=" << -x;
    }
}

TEST(StableSigmoid, MonotoneThroughTheClamp)
{
    // No spurious step where the |x| <= 708 clamp engages.
    double prev = 0.0;
    for (int i = 0; i <= 4000; ++i) {
        const double x = -720.0 + i * (1440.0 / 4000.0);
        const double s = stableSigmoid(x);
        EXPECT_GE(s, prev) << "x=" << x;
        prev = s;
    }
}

TEST(Ann, MomentumAcceleratesConvergence)
{
    auto train_error = [](double momentum) {
        Rng rng(41);
        AnnParams p;
        p.learningRate = 0.05;
        p.momentum = momentum;
        p.decayEpochs = 0.0;
        Ann net(1, 1, p, rng);
        double err = 0.0;
        for (int i = 0; i < 2000; ++i)
            err = testref::trainStep(net, {0.4}, {0.9});
        return err;
    };
    EXPECT_LT(train_error(0.5), train_error(0.0));
}

} // namespace
} // namespace ml
} // namespace dse
