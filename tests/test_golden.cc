/**
 * @file
 * Golden-value regression tests: a handful of (space, app, seed) →
 * result pins so refactors of the simulator, the training engine, or
 * the parallel scheduling cannot silently drift the reproduction.
 * Values were produced by this library at the revision that
 * introduced the parallel engine and have survived the flat-arena
 * kernel rewrite and the fused epoch-level training pipeline
 * unchanged — both were bit-exact refactors; a legitimate modelling
 * change that moves them must update the pins deliberately. The
 * TrainDigest pins were taken from the single-output trainer before
 * trainEnsemble and trainMultiTaskEnsemble shared one fold driver,
 * and the merge left them unchanged.
 */

#include <gtest/gtest.h>

#include "fnv.hh"
#include "ml/cross_validation.hh"
#include "ml/explorer.hh"
#include "ml/multitask.hh"
#include "study/harness.hh"
#include "util/rng.hh"

namespace dse {
namespace {

TEST(Golden, MemorySystemGzipIpc)
{
    study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                            8192);
    EXPECT_NEAR(ctx.simulateIpc(100), 0.29359902515948677, 1e-9);
}

TEST(Golden, MemorySystemMcfIpc)
{
    study::StudyContext ctx(study::StudyKind::MemorySystem, "mcf",
                            8192);
    EXPECT_NEAR(ctx.simulateIpc(12345), 0.10456315016912375, 1e-9);
}

TEST(Golden, ProcessorEquakeIpc)
{
    study::StudyContext ctx(study::StudyKind::Processor, "equake",
                            8192);
    EXPECT_NEAR(ctx.simulateIpc(777), 0.30537538209200032, 1e-9);
}

TEST(Golden, SmallEnsembleEstimate)
{
    // 60 random memory-system points for gzip, 5-fold ensemble with a
    // reduced budget; pins the cross-validation error estimate (and
    // with it the per-fold SplitMix64 seed derivation).
    study::StudyContext ctx(study::StudyKind::MemorySystem, "gzip",
                            8192);
    Rng rng(42);
    const auto indices =
        rng.sampleWithoutReplacement(ctx.space().size(), 60);
    const auto ipc = ctx.simulateBatch(indices);

    ml::DataSet data;
    for (size_t i = 0; i < indices.size(); ++i)
        data.add(ctx.space().encodeIndex(indices[i]), ipc[i]);

    ml::TrainOptions opts;
    opts.folds = 5;
    opts.maxEpochs = 300;
    opts.esInterval = 25;
    opts.patience = 5;
    const auto model = ml::trainEnsemble(data, opts);
    EXPECT_NEAR(model.estimate().meanPct, 25.809202971370066, 1e-6);
    EXPECT_NEAR(model.estimate().sdPct, 22.809921024581772, 1e-6);
}

/** The fixed synthetic set the training digests are pinned on. */
ml::DataSet
trainPinData()
{
    Rng rng(2024);
    ml::DataSet data;
    for (int i = 0; i < 60; ++i) {
        const double a = rng.uniform(), b = rng.uniform(),
                     c = rng.uniform();
        data.add({a, b, c}, 0.3 + 0.6 * a * b + 0.4 * c - 0.2 * a * c);
    }
    return data;
}

ml::TrainOptions
trainPinOptions()
{
    ml::TrainOptions opts;
    opts.folds = 5;
    opts.maxEpochs = 400;
    opts.esInterval = 10;
    opts.patience = 6;
    opts.ann.decayEpochs = 200;
    return opts;
}

// FNV-1a digests of every member weight and of the estimate, one per
// training-option shape: any change to fold rotation, presentation,
// early stopping or the per-fold RNG streams moves one of them.

TEST(Golden, TrainDigestDefaultOptions)
{
    EXPECT_EQ(testfnv::ensembleDigest(
                  ml::trainEnsemble(trainPinData(), trainPinOptions())),
              "0x50eb2dcf116688b4");
}

TEST(Golden, TrainDigestUniformPresentation)
{
    auto opts = trainPinOptions();
    opts.weightedPresentation = false;
    EXPECT_EQ(testfnv::ensembleDigest(
                  ml::trainEnsemble(trainPinData(), opts)),
              "0x8b45e54973321344");
}

TEST(Golden, TrainDigestSquaredErrorEarlyStop)
{
    auto opts = trainPinOptions();
    opts.percentageEarlyStop = false;
    EXPECT_EQ(testfnv::ensembleDigest(
                  ml::trainEnsemble(trainPinData(), opts)),
              "0x0f658e519146c3ec");
}

TEST(Golden, TrainDigestNoEarlyStopping)
{
    auto opts = trainPinOptions();
    opts.earlyStopping = false;
    EXPECT_EQ(testfnv::ensembleDigest(
                  ml::trainEnsemble(trainPinData(), opts)),
              "0xc4ac561b479eeedc");
}

/**
 * A synthetic set at one of the study encodings' widths (10 inputs
 * for the memory study, 13 for the processor study), so the pins
 * below reach the hidden layer's full four-input strips and their
 * remainders, which the 3-input set above never does.
 */
ml::DataSet
widePinData(int inputs)
{
    Rng rng(2025);
    ml::DataSet data;
    for (int i = 0; i < 80; ++i) {
        std::vector<double> x(static_cast<size_t>(inputs));
        for (auto &v : x)
            v = rng.uniform();
        double y = 0.25;
        for (int j = 0; j < inputs; ++j)
            y += 0.6 / inputs * x[static_cast<size_t>(j)] *
                (1.0 - 0.5 * x[static_cast<size_t>((j + 1) % inputs)]);
        data.add(x, y);
    }
    return data;
}

/** trainPinOptions' budget at default AnnParams. */
ml::TrainOptions
widePinOptions()
{
    ml::TrainOptions opts;
    opts.folds = 5;
    opts.maxEpochs = 400;
    opts.esInterval = 10;
    opts.patience = 6;
    return opts;
}

TEST(Golden, TrainDigestMemoryStudyWidth)
{
    EXPECT_EQ(testfnv::ensembleDigest(
                  ml::trainEnsemble(widePinData(10), widePinOptions())),
              "0x0d9ae6c4013b0cb4");
}

TEST(Golden, TrainDigestProcessorStudyWidth)
{
    EXPECT_EQ(testfnv::ensembleDigest(
                  ml::trainEnsemble(widePinData(13), widePinOptions())),
              "0x5133ac840cda577b");
}

TEST(Golden, TrainDigestMultiTask)
{
    // Two outputs take the layered per-example kernels, not the
    // single-output epoch body.
    const ml::DataSet base = widePinData(13);
    ml::MultiTaskDataSet data;
    data.targetNames = {"ipc", "energy"};
    for (size_t i = 0; i < base.size(); ++i)
        data.add(base.x[i],
                 {base.y[i], 1.2 - 0.8 * base.x[i][0] * base.y[i]});
    EXPECT_EQ(testfnv::ensembleDigest(
                  ml::trainMultiTaskEnsemble(data, widePinOptions()),
                  data.x),
              "0xf089d43cb3fe74a1");
}

TEST(Golden, ActiveLearningPickBatchSelection)
{
    // Pins which design points one committee-scored round chooses to
    // simulate: round one samples randomly, round two ranks a
    // candidate pool by member spread and keeps the top batch under
    // the (spread desc, index asc) tie-break. Future kernel work on
    // the scoring path cannot silently change which points get
    // simulated without moving this pin deliberately.
    ml::DesignSpace space;
    space.addCardinal("a", {1, 2, 3, 4, 5, 6, 7, 8});
    space.addCardinal("b", {1, 2, 3, 4, 5, 6, 7, 8});
    space.addCardinal("c", {1, 2, 3, 4});
    space.addNominal("m", {"x", "y"});  // 512 points
    auto simulator = [&](uint64_t i) {
        const auto x = space.encodeIndex(i);
        return 0.5 + 0.4 * x[0] - 0.25 * x[1] * x[2] + 0.1 * x[3] +
            0.35 * x[0] * x[1] * (1.0 - x[2]);
    };
    ml::ExplorerOptions opts;
    opts.batchSize = 20;
    opts.candidatePool = 120;
    opts.activeLearning = true;
    opts.targetMeanPct = 0.0;
    opts.train.folds = 5;
    opts.train.maxEpochs = 150;
    opts.train.esInterval = 25;
    opts.train.patience = 4;
    ml::Explorer ex(space, simulator, opts);
    ex.step();
    ex.step();
    const auto &sampled = ex.sampledIndices();
    ASSERT_EQ(sampled.size(), 40u);
    const std::vector<uint64_t> round_two(sampled.begin() + 20,
                                          sampled.end());
    const std::vector<uint64_t> expected = {
        450, 392, 322, 457, 385, 465, 393, 338, 401, 208,
        63,  346, 504, 274, 409, 288, 144, 0,   119, 406};
    EXPECT_EQ(round_two, expected);
}

} // namespace
} // namespace dse
