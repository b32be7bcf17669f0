/**
 * @file
 * Tests for the incremental explorer (sample -> simulate -> train ->
 * estimate loop of Section 3.3) and the active-learning extension.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>

#include "ml/explorer.hh"

namespace dse {
namespace ml {
namespace {

DesignSpace
toySpace()
{
    DesignSpace space;
    space.addCardinal("a", {1, 2, 3, 4, 5, 6, 7, 8});
    space.addCardinal("b", {1, 2, 3, 4, 5, 6, 7, 8});
    space.addCardinal("c", {1, 2, 3, 4});
    space.addNominal("m", {"x", "y"});
    return space;  // 512 points
}

/** Nonlinear synthetic response over the toy space; the interaction
 *  terms keep sparse samples from trivially nailing it. */
double
toyResponse(const DesignSpace &space, uint64_t idx)
{
    const auto x = space.encodeIndex(idx);
    const double nominal = x[3];  // one-hot "x"
    return 0.5 + 0.4 * x[0] - 0.25 * x[1] * x[2] + 0.1 * nominal +
        0.35 * x[0] * x[1] * (1.0 - x[2]);
}

ExplorerOptions
fastOptions()
{
    ExplorerOptions opts;
    opts.batchSize = 40;
    opts.targetMeanPct = 2.0;
    opts.train.maxEpochs = 800;
    opts.train.esInterval = 25;
    opts.train.patience = 8;
    opts.train.ann.decayEpochs = 300;
    return opts;
}

TEST(Explorer, StepAddsExactlyOneBatch)
{
    const auto space = toySpace();
    Explorer ex(space,
                [&](uint64_t i) { return toyResponse(space, i); },
                fastOptions());
    auto step = ex.step();
    ASSERT_TRUE(step.has_value());
    EXPECT_EQ(step->totalSamples, 40u);
    EXPECT_EQ(ex.sampledIndices().size(), 40u);
    step = ex.step();
    ASSERT_TRUE(step.has_value());
    EXPECT_EQ(step->totalSamples, 80u);
}

TEST(Explorer, NeverSamplesSamePointTwice)
{
    const auto space = toySpace();
    Explorer ex(space,
                [&](uint64_t i) { return toyResponse(space, i); },
                fastOptions());
    for (int i = 0; i < 5; ++i)
        ex.step();
    const auto &sampled = ex.sampledIndices();
    std::set<uint64_t> uniq(sampled.begin(), sampled.end());
    EXPECT_EQ(uniq.size(), sampled.size());
}

TEST(Explorer, RunStopsAtTargetError)
{
    const auto space = toySpace();
    auto opts = fastOptions();
    opts.targetMeanPct = 6.0;
    Explorer ex(space,
                [&](uint64_t i) { return toyResponse(space, i); },
                opts);
    const auto history = ex.run();
    ASSERT_FALSE(history.empty());
    EXPECT_LE(history.back().estimate.meanPct, 6.0);
}

TEST(Explorer, RunHonoursSimulationCap)
{
    const auto space = toySpace();
    auto opts = fastOptions();
    opts.targetMeanPct = 0.0;  // unreachable
    opts.maxSimulations = 120;
    Explorer ex(space,
                [&](uint64_t i) { return toyResponse(space, i); },
                opts);
    ex.run();
    EXPECT_EQ(ex.sampledIndices().size(), 120u);
}

TEST(Explorer, ExhaustsSpaceGracefully)
{
    DesignSpace small;
    small.addCardinal("a", {1, 2, 3, 4, 5, 6});
    small.addCardinal("b", {1, 2, 3, 4, 5, 6});  // 36 points
    auto opts = fastOptions();
    opts.batchSize = 30;
    opts.targetMeanPct = 0.0;
    opts.train.folds = 5;
    Explorer ex(small,
                [&](uint64_t i) { return 1.0 + 0.1 * (i % 7); },
                opts);
    auto first = ex.step();
    ASSERT_TRUE(first.has_value());
    auto second = ex.step();  // only 6 left
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->totalSamples, 36u);
    EXPECT_FALSE(ex.step().has_value());
}

TEST(Explorer, SimulatorThrowLeavesNoPartialRound)
{
    DesignSpace small;
    small.addCardinal("a", {1, 2, 3, 4, 5, 6, 7, 8});
    small.addCardinal("b", {1, 2, 3, 4});  // 32 points
    auto opts = fastOptions();
    opts.batchSize = 10;
    opts.targetMeanPct = 0.0;
    opts.train.folds = 5;
    size_t calls = 0;
    Explorer ex(small,
                [&](uint64_t i) {
                    // Fails in round two, after three of its points.
                    if (++calls == 14)
                        throw std::runtime_error("simulator failed");
                    return 1.0 + 0.1 * static_cast<double>(i % 7);
                },
                opts);
    ASSERT_TRUE(ex.step().has_value());
    const std::vector<uint64_t> first = ex.sampledIndices();
    EXPECT_THROW(ex.step(), std::runtime_error);
    EXPECT_EQ(ex.sampledIndices(), first);
    EXPECT_EQ(ex.data().size(), first.size());

    // The failed round's points went back to the pool: running on
    // samples the whole space, each point once, each with its value.
    while (ex.step())
        EXPECT_EQ(ex.data().size(), ex.sampledIndices().size());
    const auto &sampled = ex.sampledIndices();
    EXPECT_EQ(std::set<uint64_t>(sampled.begin(), sampled.end()).size(),
              small.size());
    EXPECT_EQ(sampled.size(), small.size());
    EXPECT_EQ(ex.data().size(), small.size());
}

TEST(Explorer, TrueErrorImprovesWithMoreRounds)
{
    const auto space = toySpace();
    auto opts = fastOptions();
    opts.targetMeanPct = 0.0;
    opts.maxSimulations = 200;
    Explorer ex(space,
                [&](uint64_t i) { return toyResponse(space, i); },
                opts);

    auto true_error = [&] {
        double err = 0.0;
        int n = 0;
        for (uint64_t i = 0; i < space.size(); i += 3) {
            const double truth = toyResponse(space, i);
            err += std::abs(ex.predictIndex(i) - truth) / truth;
            ++n;
        }
        return err / n;
    };

    ASSERT_TRUE(ex.step().has_value());
    const double sparse = true_error();
    while (ex.step().has_value()) {
    }
    EXPECT_LT(true_error(), sparse);
}

TEST(Explorer, PredictsUnsampledPointsAccurately)
{
    const auto space = toySpace();
    auto opts = fastOptions();
    opts.maxSimulations = 200;
    opts.targetMeanPct = 3.0;
    Explorer ex(space,
                [&](uint64_t i) { return toyResponse(space, i); },
                opts);
    ex.run();
    std::set<uint64_t> sampled(ex.sampledIndices().begin(),
                               ex.sampledIndices().end());
    double err = 0.0;
    int n = 0;
    for (uint64_t i = 0; i < space.size(); ++i) {
        if (sampled.count(i))
            continue;
        const double truth = toyResponse(space, i);
        err += std::abs(ex.predictIndex(i) - truth) / truth;
        ++n;
    }
    EXPECT_LT(100.0 * err / n, 8.0);
}

TEST(Explorer, EnsembleUnavailableBeforeFirstStep)
{
    const auto space = toySpace();
    Explorer ex(space, [](uint64_t) { return 1.0; }, fastOptions());
    EXPECT_THROW(ex.ensemble(), std::logic_error);
}

TEST(Explorer, RejectsBadArguments)
{
    const auto space = toySpace();
    EXPECT_THROW(Explorer(space, nullptr, fastOptions()),
                 std::invalid_argument);
    auto opts = fastOptions();
    opts.batchSize = 0;
    EXPECT_THROW(Explorer(space, [](uint64_t) { return 1.0; }, opts),
                 std::invalid_argument);
}

TEST(Explorer, ActiveLearningSamplesValidPoints)
{
    const auto space = toySpace();
    auto opts = fastOptions();
    opts.activeLearning = true;
    opts.candidatePool = 100;
    opts.maxSimulations = 160;
    opts.targetMeanPct = 0.0;
    Explorer ex(space,
                [&](uint64_t i) { return toyResponse(space, i); },
                opts);
    ex.run();
    const auto &sampled = ex.sampledIndices();
    std::set<uint64_t> uniq(sampled.begin(), sampled.end());
    EXPECT_EQ(uniq.size(), sampled.size());
    EXPECT_EQ(sampled.size(), 160u);
    for (uint64_t i : sampled)
        EXPECT_LT(i, space.size());
}

TEST(Explorer, DeterministicForSeeds)
{
    const auto space = toySpace();
    auto opts = fastOptions();
    opts.maxSimulations = 80;
    opts.targetMeanPct = 0.0;
    auto run_once = [&] {
        Explorer ex(space,
                    [&](uint64_t i) { return toyResponse(space, i); },
                    opts);
        ex.run();
        return ex.sampledIndices();
    };
    EXPECT_EQ(run_once(), run_once());
}

} // namespace
} // namespace ml
} // namespace dse
