/**
 * @file
 * Parity tests for the flat-arena ANN numeric core (DESIGN.md,
 * "Numeric kernels"), along two axes:
 *
 *  - against the pre-rewrite reference implementation
 *    (tests/reference_ann.hh): the production kernels fix a different
 *    (four-lane) accumulation order and use a polynomial sigmoid, so
 *    forward passes and training steps must agree to a tight relative
 *    tolerance, not bitwise;
 *  - between the production paths themselves: batched prediction is
 *    specified to be bit-for-bit identical to single-point
 *    prediction, at the network, ensemble, and design-space level —
 *    EXPECT_EQ, no tolerance.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "ml/ann.hh"
#include "ml/cross_validation.hh"
#include "ml/encoding.hh"
#include "reference_ann.hh"

namespace dse {
namespace ml {
namespace {

struct Topology
{
    int inputs;
    int outputs;
    int hiddenUnits;
    int hiddenLayers;
};

// Covers every kernel dispatch: out == 1 (contiguous column), the
// fixed-width 16 and 32 clones, the runtime-width path (2, 5), narrow
// inputs (in < 4, partial first strip), strip remainders, multiple
// hidden layers, and multi-output layers.
const Topology kTopologies[] = {
    {16, 1, 16, 1}, {3, 1, 16, 1}, {10, 2, 8, 1}, {7, 1, 5, 2},
    {5, 3, 32, 1},  {2, 1, 2, 1},  {13, 1, 16, 2}, {6, 4, 16, 1},
};

std::vector<double>
randomInput(Rng &rng, int n)
{
    std::vector<double> x(static_cast<size_t>(n));
    for (auto &v : x)
        v = rng.uniform();
    return x;
}

double
maxRelDiff(const std::vector<double> &a, const std::vector<double> &b)
{
    EXPECT_EQ(a.size(), b.size());
    double worst = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
        const double scale =
            std::max({std::abs(a[i]), std::abs(b[i]), 1e-300});
        worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
    }
    return worst;
}

TEST(AnnParity, ForwardMatchesReference)
{
    Rng rng(101);
    for (const Topology &t : kTopologies) {
        AnnParams p;
        p.hiddenUnits = t.hiddenUnits;
        p.hiddenLayers = t.hiddenLayers;
        Ann net(t.inputs, t.outputs, p, rng);
        testref::ReferenceAnn ref(t.inputs, t.outputs, p, net.weights());
        for (int trial = 0; trial < 20; ++trial) {
            const auto x = randomInput(rng, t.inputs);
            EXPECT_LE(maxRelDiff(net.predict(x), ref.predict(x)), 1e-12)
                << "topology " << t.inputs << "->" << t.hiddenUnits
                << "x" << t.hiddenLayers << "->" << t.outputs;
        }
    }
}

TEST(AnnParity, TrainStepMatchesReference)
{
    Rng rng(202);
    for (const Topology &t : kTopologies) {
        AnnParams p;
        p.hiddenUnits = t.hiddenUnits;
        p.hiddenLayers = t.hiddenLayers;
        p.learningRate = 0.4;
        p.momentum = 0.5;
        Ann net(t.inputs, t.outputs, p, rng);
        testref::ReferenceAnn ref(t.inputs, t.outputs, p, net.weights());
        const auto x = randomInput(rng, t.inputs);
        const auto target = randomInput(rng, t.outputs);
        const double e_net = testref::trainStep(net, x, target);
        const double e_ref = ref.train(x, target);
        EXPECT_NEAR(e_net, e_ref, 1e-12 * (1.0 + std::abs(e_ref)));
        EXPECT_LE(maxRelDiff(net.weights(), ref.weights()), 1e-12)
            << "topology " << t.inputs << "->" << t.hiddenUnits << "x"
            << t.hiddenLayers << "->" << t.outputs;
    }
}

TEST(AnnParity, TrainingTrajectoryTracksReference)
{
    // Many consecutive steps: per-step kernel differences are ~1e-15
    // relative, and SGD amplifies them, so the drift bound after 100
    // steps is looser than the single-step bound — but must stay tiny.
    Rng rng(303);
    AnnParams p;
    p.learningRate = 0.4;
    p.momentum = 0.5;
    Ann net(12, 1, p, rng);
    testref::ReferenceAnn ref(12, 1, p, net.weights());
    Rng data_rng(304);
    for (int step = 0; step < 100; ++step) {
        const auto x = randomInput(data_rng, 12);
        const std::vector<double> target{data_rng.uniform()};
        testref::trainStep(net, x, target);
        ref.train(x, target);
    }
    EXPECT_LE(maxRelDiff(net.weights(), ref.weights()), 1e-9);
}

TEST(AnnParity, TrainEpochBitIdenticalToPerExampleTrain)
{
    // trainEpoch's contract is exact: same forward, same fused
    // backward+update sweep, same error accumulation order as the
    // same presentations made as one-row epochs — EXPECT_EQ, no
    // tolerance. The presentation order draws rows with replacement
    // (repeats and gaps), as weighted presentation does.
    Rng data_rng(606);
    for (const Topology &t : kTopologies) {
        AnnParams p;
        p.hiddenUnits = t.hiddenUnits;
        p.hiddenLayers = t.hiddenLayers;
        Rng rng_a(707), rng_b(707);
        Ann a(t.inputs, t.outputs, p, rng_a);
        Ann b(t.inputs, t.outputs, p, rng_b);
        ASSERT_EQ(a.weights(), b.weights());

        const size_t rows = 19;
        const size_t in = static_cast<size_t>(t.inputs);
        const size_t out = static_cast<size_t>(t.outputs);
        std::vector<double> x(rows * in);
        std::vector<double> target(rows * out);
        for (auto &v : x)
            v = data_rng.uniform();
        for (auto &v : target)
            v = data_rng.uniform();
        std::vector<uint32_t> order(3 * rows);
        for (auto &o : order)
            o = static_cast<uint32_t>(data_rng.below(rows));

        double sum_b = 0.0;
        for (uint32_t row : order) {
            const std::vector<double> xi(
                x.begin() + static_cast<ptrdiff_t>(row * in),
                x.begin() + static_cast<ptrdiff_t>((row + 1) * in));
            const std::vector<double> ti(
                target.begin() + static_cast<ptrdiff_t>(row * out),
                target.begin() + static_cast<ptrdiff_t>((row + 1) * out));
            sum_b += testref::trainStep(b, xi, ti);
        }
        const double sum_a = a.trainEpoch(x.data(), target.data(),
                                          order.data(), order.size());
        EXPECT_EQ(sum_a, sum_b)
            << "topology " << t.inputs << "->" << t.hiddenUnits << "x"
            << t.hiddenLayers << "->" << t.outputs;
        EXPECT_EQ(a.weights(), b.weights())
            << "topology " << t.inputs << "->" << t.hiddenUnits << "x"
            << t.hiddenLayers << "->" << t.outputs;
    }
}

TEST(AnnParity, EpochBodyBitIdenticalToLayeredKernels)
{
    // One hidden layer of 16 units with one output trains through a
    // vector-typed epoch body; testref::AnnAccess reaches the layered
    // per-example kernels every other shape takes. They must agree
    // exactly at every input width: 1 to 3 take the hidden pass's
    // in < 4 branch, 4 to 17 every strip remainder. The order draws
    // rows with replacement, and three epochs at decaying rates carry
    // momentum from one epoch into the next. Besides the default
    // initialization, weights on [-1, 1] put the hidden sums near 1,
    // where a last-bit difference in a sum survives the sigmoid
    // instead of vanishing under its output's rounding.
    Rng data_rng(909);
    for (int cell = 0; cell < 2 * 17; ++cell) {
        const int inputs = 1 + cell % 17;
        AnnParams p;
        p.initWeightRange = cell < 17 ? AnnParams{}.initWeightRange : 1.0;
        Rng rng_a(910), rng_b(910);
        Ann a(inputs, 1, p, rng_a);
        Ann b(inputs, 1, p, rng_b);

        const size_t rows = 23;
        const size_t in = static_cast<size_t>(inputs);
        std::vector<double> x(rows * in);
        std::vector<double> target(rows);
        for (auto &v : x)
            v = data_rng.uniform();
        for (auto &v : target)
            v = 0.1 + 0.8 * data_rng.uniform();
        std::vector<uint32_t> order(3 * rows);
        for (auto &o : order)
            o = static_cast<uint32_t>(data_rng.below(rows));

        for (int epoch = 0; epoch < 3; ++epoch) {
            const double eta = p.learningRate / (1.0 + epoch);
            a.setLearningRate(eta);
            b.setLearningRate(eta);
            const double sum_a = a.trainEpoch(x.data(), target.data(),
                                              order.data(), order.size());
            const double sum_b = testref::AnnAccess::trainEpochLayered(
                b, x.data(), target.data(), order.data(), order.size());
            EXPECT_EQ(sum_a, sum_b) << inputs << " inputs, init range "
                                    << p.initWeightRange << ", epoch "
                                    << epoch;
        }
        EXPECT_EQ(a.weights(), b.weights())
            << inputs << " inputs, init range " << p.initWeightRange;
        EXPECT_FALSE(a.diverged());

        // A non-finite input latches diverged() on both paths.
        x[in * (rows / 2)] = std::nan("");
        a.trainEpoch(x.data(), target.data(), nullptr, rows);
        testref::AnnAccess::trainEpochLayered(b, x.data(), target.data(),
                                              nullptr, rows);
        EXPECT_TRUE(a.diverged()) << inputs << " inputs";
        EXPECT_TRUE(b.diverged()) << inputs << " inputs";
    }
}

TEST(AnnParity, TrainEpochTrajectoryTracksReference)
{
    // The fused epoch pipeline vs the pre-rewrite per-example oracle
    // over several epochs (null order = in-place presentation): the
    // fused backward+update sweep reorders no arithmetic, so drift
    // stays at the kernel-vs-libm level of the other trajectory test.
    Rng rng(808);
    for (const Topology &t : kTopologies) {
        AnnParams p;
        p.hiddenUnits = t.hiddenUnits;
        p.hiddenLayers = t.hiddenLayers;
        Ann net(t.inputs, t.outputs, p, rng);
        testref::ReferenceAnn ref(t.inputs, t.outputs, p, net.weights());

        const size_t rows = 25;
        const size_t in = static_cast<size_t>(t.inputs);
        const size_t out = static_cast<size_t>(t.outputs);
        std::vector<double> x(rows * in);
        std::vector<double> target(rows * out);
        Rng data_rng(809);
        for (auto &v : x)
            v = data_rng.uniform();
        for (auto &v : target)
            v = data_rng.uniform();

        for (int epoch = 0; epoch < 4; ++epoch) {
            const double e_net =
                net.trainEpoch(x.data(), target.data(), nullptr, rows);
            const double e_ref =
                ref.trainEpoch(x.data(), target.data(), nullptr, rows);
            EXPECT_NEAR(e_net, e_ref, 1e-10 * (1.0 + std::abs(e_ref)));
        }
        EXPECT_LE(maxRelDiff(net.weights(), ref.weights()), 1e-9)
            << "topology " << t.inputs << "->" << t.hiddenUnits << "x"
            << t.hiddenLayers << "->" << t.outputs;
    }
}

TEST(AnnParity, BatchedPredictionBitIdenticalToSingle)
{
    Rng rng(404);
    for (const Topology &t : kTopologies) {
        AnnParams p;
        p.hiddenUnits = t.hiddenUnits;
        p.hiddenLayers = t.hiddenLayers;
        Ann net(t.inputs, t.outputs, p, rng);
        // 257 points: full kBlock blocks, a register sub-block
        // remainder, and a final nb == 1 block.
        const size_t n = 4 * Ann::kBlock + 1;
        const size_t in = static_cast<size_t>(t.inputs);
        const size_t out = static_cast<size_t>(t.outputs);
        std::vector<double> x(n * in);
        for (auto &v : x)
            v = rng.uniform();
        std::vector<double> y(n * out, -1.0);
        net.predictBatch(x.data(), n, y.data());
        for (size_t r = 0; r < n; ++r) {
            const std::vector<double> xi(
                x.begin() + static_cast<ptrdiff_t>(r * in),
                x.begin() + static_cast<ptrdiff_t>((r + 1) * in));
            const auto yi = net.predict(xi);
            for (size_t o = 0; o < out; ++o)
                EXPECT_EQ(y[r * out + o], yi[o])
                    << "row " << r << " output " << o;
        }
    }
}

TEST(AnnParity, EnsembleBatchedPathsBitIdenticalToPredict)
{
    // A small real ensemble over a design space, then the three
    // prediction paths — per-point predict(), flat predictBatch(),
    // and index-driven predictIndices() (both the consecutive
    // odometer encode and the scattered per-index encode) — must
    // agree exactly.
    DesignSpace space;
    space.addCardinal("a", {1, 2, 3, 4});
    space.addNominal("b", {"x", "y", "z"});
    space.addBoolean("c");
    space.addCardinal("d", {1, 2, 3, 4, 5});

    DataSet data;
    Rng rng(505);
    const auto sample = rng.sampleWithoutReplacement(space.size(), 40);
    for (uint64_t idx : sample) {
        const auto x = space.encodeIndex(idx);
        data.add(x, 1.0 + x[0] + 0.5 * x[2] * x[3] + 0.1 * x[5]);
    }
    TrainOptions opts;
    opts.folds = 5;
    opts.maxEpochs = 80;
    opts.esInterval = 20;
    opts.patience = 3;
    const Ensemble model = trainEnsemble(data, opts);

    const size_t n = space.size();
    std::vector<uint64_t> all(n);
    std::iota(all.begin(), all.end(), 0);
    const auto consecutive = model.predictIndices(space, all);
    ASSERT_EQ(consecutive.size(), n);

    std::vector<uint64_t> shuffled = all;
    Rng(506).shuffle(shuffled);
    const auto scattered = model.predictIndices(space, shuffled);

    const size_t width = static_cast<size_t>(space.encodedWidth());
    std::vector<double> xflat(n * width);
    for (size_t i = 0; i < n; ++i)
        space.encodeIndexInto(all[i], xflat.data() + i * width);
    std::vector<double> batched(n);
    model.predictBatch(xflat.data(), n, batched.data());

    for (size_t i = 0; i < n; ++i) {
        const double single = model.predict(space.encodeIndex(all[i]));
        EXPECT_EQ(consecutive[i], single) << "index " << i;
        EXPECT_EQ(batched[i], single) << "index " << i;
    }
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(scattered[i], consecutive[shuffled[i]])
            << "shuffled slot " << i;
}

TEST(AnnParity, EncodeRangeMatchesEncodeIndex)
{
    DesignSpace space;
    space.addCardinal("a", {1, 2, 3});
    space.addNominal("b", {"p", "q"});
    space.addCardinal("c", {1, 2, 3, 4, 5, 6, 7});
    const size_t width = static_cast<size_t>(space.encodedWidth());
    const uint64_t first = 5;
    const size_t count = static_cast<size_t>(space.size()) - 7;
    std::vector<double> ranged(count * width);
    space.encodeRangeInto(first, count, ranged.data());
    std::vector<double> one(width);
    for (size_t r = 0; r < count; ++r) {
        space.encodeIndexInto(first + r, one.data());
        for (size_t c = 0; c < width; ++c)
            EXPECT_EQ(ranged[r * width + c], one[c])
                << "row " << r << " col " << c;
    }
    EXPECT_THROW(space.encodeRangeInto(first, space.size(), one.data()),
                 std::out_of_range);
}

} // namespace
} // namespace ml
} // namespace dse
