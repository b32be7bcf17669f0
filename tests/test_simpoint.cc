/**
 * @file
 * Tests for the SimPoint substrate: basic-block vectors, k-means and
 * BIC, simulation-point selection, and estimate quality.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/cacti.hh"
#include "sim/core.hh"
#include "simpoint/bbv.hh"
#include "simpoint/kmeans.hh"
#include "simpoint/simpoint.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "workload/generator.hh"

namespace dse {
namespace simpoint {
namespace {

TEST(Bbv, IntervalCountAndNormalization)
{
    const auto trace = workload::generateBenchmarkTrace("gzip", 8192);
    const auto bbvs = computeBbvs(trace, 1024);
    EXPECT_EQ(bbvs.size(), 8u);
    for (const auto &v : bbvs) {
        EXPECT_EQ(v.size(), static_cast<size_t>(trace.numBlocks));
        double sum = 0.0;
        for (double x : v) {
            EXPECT_GE(x, 0.0);
            sum += x;
        }
        EXPECT_NEAR(sum, 1.0, 1e-9);
    }
}

TEST(Bbv, DropsPartialTrailingInterval)
{
    const auto trace = workload::generateBenchmarkTrace("gzip", 2500);
    EXPECT_EQ(computeBbvs(trace, 1024).size(), 2u);
}

TEST(Bbv, RejectsZeroInterval)
{
    const auto trace = workload::generateBenchmarkTrace("gzip", 2048);
    EXPECT_THROW(computeBbvs(trace, 0), std::invalid_argument);
}

TEST(Bbv, ProjectionPreservesCountAndWidth)
{
    const auto trace = workload::generateBenchmarkTrace("mesa", 8192);
    const auto bbvs = computeBbvs(trace, 1024);
    const auto proj = randomProject(bbvs, 15, 7);
    EXPECT_EQ(proj.size(), bbvs.size());
    for (const auto &v : proj)
        EXPECT_EQ(v.size(), 15u);
}

TEST(Bbv, ProjectionIsDeterministic)
{
    const auto trace = workload::generateBenchmarkTrace("mesa", 4096);
    const auto bbvs = computeBbvs(trace, 1024);
    EXPECT_EQ(randomProject(bbvs, 8, 3), randomProject(bbvs, 8, 3));
}

TEST(Bbv, ProjectionIsLinear)
{
    // project(2x) == 2*project(x)
    std::vector<std::vector<double>> v{{1.0, 2.0, 3.0}};
    std::vector<std::vector<double>> v2{{2.0, 4.0, 6.0}};
    const auto p = randomProject(v, 4, 5);
    const auto p2 = randomProject(v2, 4, 5);
    for (size_t d = 0; d < 4; ++d)
        EXPECT_NEAR(p2[0][d], 2.0 * p[0][d], 1e-9);
}

std::vector<std::vector<double>>
threeClusters(uint64_t seed, int per_cluster = 30)
{
    Rng rng(seed);
    std::vector<std::vector<double>> pts;
    const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
    for (int c = 0; c < 3; ++c)
        for (int i = 0; i < per_cluster; ++i)
            pts.push_back({centers[c][0] + rng.gaussian() * 0.3,
                           centers[c][1] + rng.gaussian() * 0.3});
    return pts;
}

TEST(KMeans, RecoverWellSeparatedClusters)
{
    const auto pts = threeClusters(11);
    const auto result = kmeans(pts, 3, 5);
    // Every cluster of 30 consecutive points must share a label.
    for (int c = 0; c < 3; ++c) {
        const int label = result.assignment[static_cast<size_t>(c) * 30];
        for (int i = 0; i < 30; ++i)
            EXPECT_EQ(result.assignment[static_cast<size_t>(c) * 30 + i],
                      label);
    }
    EXPECT_LT(result.inertia, 60.0);
}

TEST(KMeans, KOneCentroidIsMean)
{
    std::vector<std::vector<double>> pts{{0, 0}, {2, 0}, {0, 2}, {2, 2}};
    const auto result = kmeans(pts, 1, 3);
    EXPECT_NEAR(result.centroids[0][0], 1.0, 1e-9);
    EXPECT_NEAR(result.centroids[0][1], 1.0, 1e-9);
}

TEST(KMeans, AssignmentsValid)
{
    const auto pts = threeClusters(13);
    const auto result = kmeans(pts, 5, 7);
    EXPECT_EQ(result.assignment.size(), pts.size());
    for (int a : result.assignment) {
        EXPECT_GE(a, 0);
        EXPECT_LT(a, 5);
    }
}

TEST(KMeans, InertiaDecreasesWithK)
{
    const auto pts = threeClusters(17);
    double prev = 1e18;
    for (int k = 1; k <= 4; ++k) {
        const auto result = kmeans(pts, k, 3);
        EXPECT_LE(result.inertia, prev + 1e-9);
        prev = result.inertia;
    }
}

TEST(KMeans, ClampsKToPointCount)
{
    std::vector<std::vector<double>> pts{{0.0}, {1.0}};
    const auto result = kmeans(pts, 10, 3);
    EXPECT_EQ(result.k, 2);
}

TEST(KMeans, RejectsEmpty)
{
    EXPECT_THROW(kmeans({}, 2, 3), std::invalid_argument);
}

TEST(Bic, PrefersTrueClusterCount)
{
    const auto pts = threeClusters(19);
    double best_score = -1e300;
    int best_k = 0;
    for (int k = 1; k <= 6; ++k) {
        const auto result = kmeans(pts, k, 23);
        const double score = bicScore(pts, result);
        if (score > best_score) {
            best_score = score;
            best_k = k;
        }
    }
    EXPECT_EQ(best_k, 3);
}

class SimPointTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SimPointTest, SelectionIsWellFormed)
{
    const auto trace = workload::generateBenchmarkTrace(GetParam());
    SimPointOptions opts;
    opts.intervalLength = std::max<size_t>(1024, trace.size() / 32);
    opts.maxK = 8;
    const auto points = pickSimPoints(trace, opts);

    EXPECT_GE(points.k, 1);
    EXPECT_LE(points.k, 8);
    EXPECT_EQ(points.intervals.size(), points.weights.size());
    EXPECT_FALSE(points.intervals.empty());

    double weight_sum = 0.0;
    const size_t n_intervals = trace.size() / opts.intervalLength;
    for (size_t i = 0; i < points.intervals.size(); ++i) {
        EXPECT_LT(points.intervals[i], n_intervals);
        EXPECT_GT(points.weights[i], 0.0);
        weight_sum += points.weights[i];
    }
    EXPECT_NEAR(weight_sum, 1.0, 1e-9);
    EXPECT_LT(points.detailedInstructions(), trace.size());
}

TEST_P(SimPointTest, EstimateTracksFullSimulation)
{
    const auto trace = workload::generateBenchmarkTrace(GetParam());
    SimPointOptions sp_opts;
    // Match the study harness policy: 16 intervals per trace (shorter
    // intervals stop being content-representative at this scale).
    sp_opts.intervalLength = std::max<size_t>(2048, trace.size() / 16);
    const auto points = pickSimPoints(trace, sp_opts);

    sim::MachineConfig cfg;
    sim::CactiModel::applyLatencies(cfg);
    sim::SimOptions opts;
    opts.warmCaches = true;
    const auto full = sim::simulate(trace, cfg, opts);
    const auto est = estimateIpc(trace, cfg, points);

    // Uncalibrated estimates are noisy but must land in the right
    // ballpark (the paper's point is that the ANN absorbs this).
    EXPECT_LT(percentageError(est.ipc, full.ipc), 45.0) << GetParam();
    // Cost includes the detailed warm-up prefix per interval.
    EXPECT_EQ(est.instructionsSimulated, points.detailedInstructions());
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, SimPointTest,
                         ::testing::Values("gzip", "mesa", "crafty"));

TEST(SimPoint, ThrowsOnTooShortTrace)
{
    const auto trace = workload::generateBenchmarkTrace("gzip", 2048);
    SimPointOptions opts;
    opts.intervalLength = 2048;
    EXPECT_THROW(pickSimPoints(trace, opts), std::invalid_argument);
}

TEST(SimPoint, EstimateRejectsEmptyPoints)
{
    const auto trace = workload::generateBenchmarkTrace("gzip", 4096);
    sim::MachineConfig cfg;
    SimPoints empty;
    EXPECT_THROW(estimateIpc(trace, cfg, empty), std::invalid_argument);
}

} // namespace
} // namespace simpoint
} // namespace dse
