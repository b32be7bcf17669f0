/**
 * @file
 * Tests for the multi-task learning extension (Chapter 7). The
 * multi-task trainer is the k-fold driver behind trainEnsemble with
 * one output per target, so one target must reproduce trainEnsemble
 * exactly.
 */

#include <gtest/gtest.h>

#include "ml/multitask.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace dse {
namespace ml {
namespace {

/** Two correlated targets over [0,1]^2. */
MultiTaskDataSet
correlatedData(size_t n, uint64_t seed)
{
    Rng rng(seed);
    MultiTaskDataSet data;
    data.targetNames = {"ipc", "missRate"};
    for (size_t i = 0; i < n; ++i) {
        const double a = rng.uniform(), b = rng.uniform();
        const double ipc = 0.4 + 0.5 * a - 0.2 * a * b;
        const double miss = 0.3 - 0.25 * a + 0.1 * b;  // anti-correlated
        data.add({a, b}, {ipc, miss});
    }
    return data;
}

TrainOptions
fastOptions()
{
    TrainOptions opts;
    opts.maxEpochs = 1200;
    opts.esInterval = 25;
    opts.patience = 8;
    opts.ann.decayEpochs = 400;
    return opts;
}

TEST(MultiTask, PredictsAllTargets)
{
    const auto data = correlatedData(200, 1);
    const auto model = trainMultiTaskEnsemble(data, fastOptions());
    const auto out = model.predictAll({0.5, 0.5});
    EXPECT_EQ(out.size(), 2u);
    EXPECT_DOUBLE_EQ(model.predictPrimary({0.5, 0.5}), out[0]);
}

TEST(MultiTask, LearnsBothTargets)
{
    const auto data = correlatedData(300, 2);
    const auto model = trainMultiTaskEnsemble(data, fastOptions());
    const auto holdout = correlatedData(100, 91);
    double err0 = 0.0, err1 = 0.0;
    for (size_t i = 0; i < holdout.size(); ++i) {
        const auto out = model.predictAll(holdout.x[i]);
        err0 += percentageError(out[0], holdout.y[i][0]);
        err1 += percentageError(out[1], holdout.y[i][1]);
    }
    EXPECT_LT(err0 / holdout.size(), 8.0);
    EXPECT_LT(err1 / holdout.size(), 15.0);
}

TEST(MultiTask, EstimateIsForPrimaryTarget)
{
    const auto data = correlatedData(200, 3);
    const auto model = trainMultiTaskEnsemble(data, fastOptions());
    EXPECT_GE(model.estimate().meanPct, 0.0);
    EXPECT_LT(model.estimate().meanPct, 50.0);
}

TEST(MultiTask, MemberCountMatchesFolds)
{
    const auto data = correlatedData(100, 4);
    auto opts = fastOptions();
    opts.folds = 5;
    opts.maxEpochs = 100;
    const auto model = trainMultiTaskEnsemble(data, opts);
    EXPECT_EQ(model.members(), 5u);
}

TEST(MultiTask, RejectsDegenerateInputs)
{
    MultiTaskDataSet empty;
    EXPECT_THROW(trainMultiTaskEnsemble(empty, fastOptions()),
                 std::invalid_argument);

    auto tiny = correlatedData(4, 5);
    EXPECT_THROW(trainMultiTaskEnsemble(tiny, fastOptions()),
                 std::invalid_argument);

    // A row with fewer target values than targetNames.
    auto short_y = correlatedData(40, 5);
    short_y.y[17].pop_back();
    EXPECT_THROW(trainMultiTaskEnsemble(short_y, fastOptions()),
                 std::invalid_argument);

    // Feature rows wider and narrower than the first.
    auto long_x = correlatedData(40, 5);
    long_x.x[23].push_back(0.5);
    EXPECT_THROW(trainMultiTaskEnsemble(long_x, fastOptions()),
                 std::invalid_argument);
    auto short_x = correlatedData(40, 5);
    short_x.x[31].pop_back();
    EXPECT_THROW(trainMultiTaskEnsemble(short_x, fastOptions()),
                 std::invalid_argument);
}

TEST(MultiTask, OneTargetMatchesTrainEnsemble)
{
    // The same rows as a one-target MultiTaskDataSet and as a
    // DataSet go through the same fold driver, so every member, the
    // estimate and every prediction agree bit for bit.
    const auto two = correlatedData(120, 7);
    MultiTaskDataSet one;
    one.targetNames = {"ipc"};
    DataSet single;
    for (size_t i = 0; i < two.size(); ++i) {
        one.add(two.x[i], {two.y[i][0]});
        single.add(two.x[i], two.y[i][0]);
    }
    auto opts = fastOptions();
    opts.maxEpochs = 300;
    const auto multi = trainMultiTaskEnsemble(one, opts);
    const auto ref = trainEnsemble(single, opts);
    ASSERT_EQ(multi.members(), ref.members());
    EXPECT_EQ(multi.estimate().meanPct, ref.estimate().meanPct);
    EXPECT_EQ(multi.estimate().sdPct, ref.estimate().sdPct);
    for (const auto &x : two.x)
        EXPECT_EQ(multi.predictPrimary(x), ref.predict(x));
}

TEST(MultiTask, DeterministicForSeed)
{
    const auto data = correlatedData(120, 6);
    auto opts = fastOptions();
    opts.maxEpochs = 200;
    const auto a = trainMultiTaskEnsemble(data, opts);
    const auto b = trainMultiTaskEnsemble(data, opts);
    EXPECT_DOUBLE_EQ(a.predictPrimary({0.4, 0.7}),
                     b.predictPrimary({0.4, 0.7}));
}

} // namespace
} // namespace ml
} // namespace dse
