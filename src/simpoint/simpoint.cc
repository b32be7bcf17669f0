#include "simpoint/simpoint.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/core.hh"
#include "simpoint/bbv.hh"
#include "simpoint/kmeans.hh"

namespace dse {
namespace simpoint {

namespace {

/**
 * Smallest cluster count considered. On short traces the BIC of a
 * 30-odd-interval clustering can collapse to one cluster whose single
 * representative carries a large, configuration-dependent bias; a
 * small floor keeps several program regions represented.
 */
constexpr int kMinK = 3;

/** Dimensions of the random projection the BBVs are clustered in. */
constexpr size_t kProjectedDims = 15;

/** Accept the smallest k scoring >= this fraction of the best BIC. */
constexpr double kBicThreshold = 0.9;

/** Seed of the projection matrix and of k-means seeding. */
constexpr uint64_t kSeed = 42;

} // namespace

SimPoints
pickSimPoints(const workload::Trace &trace, const SimPointOptions &opts)
{
    const auto bbvs = computeBbvs(trace, opts.intervalLength);
    if (bbvs.size() < 2)
        throw std::invalid_argument("trace too short for SimPoint");
    const auto projected =
        randomProject(bbvs, kProjectedDims, kSeed);

    // Cluster for k = 1..maxK and score with BIC; accept the smallest
    // k reaching kBicThreshold of the best score (the SimPoint rule).
    const int max_k = std::min<int>(opts.maxK,
                                    static_cast<int>(projected.size()));
    const int min_k = std::max(1, std::min(kMinK, max_k));
    std::vector<KMeansResult> runs;
    std::vector<double> scores;
    for (int k = min_k; k <= max_k; ++k) {
        runs.push_back(kmeans(projected, k, kSeed + k));
        scores.push_back(bicScore(projected, runs.back()));
    }
    // SimPoint's rule: normalize scores to their observed range and
    // accept the smallest k reaching kBicThreshold of that range.
    const double lo = *std::min_element(scores.begin(), scores.end());
    const double hi = *std::max_element(scores.begin(), scores.end());
    const double target = lo + kBicThreshold * (hi - lo);
    size_t chosen = runs.size() - 1;
    for (size_t i = 0; i < runs.size(); ++i) {
        if (scores[i] >= target) {
            chosen = i;
            break;
        }
    }
    const KMeansResult &clustering = runs[chosen];

    // Representative of each cluster: interval nearest the centroid.
    SimPoints out;
    out.intervalLength = opts.intervalLength;
    out.k = clustering.k;
    std::vector<size_t> counts(static_cast<size_t>(clustering.k), 0);
    std::vector<double> best_dist(
        static_cast<size_t>(clustering.k),
        std::numeric_limits<double>::infinity());
    std::vector<size_t> representative(
        static_cast<size_t>(clustering.k), 0);
    for (size_t i = 0; i < projected.size(); ++i) {
        const int c = clustering.assignment[i];
        ++counts[static_cast<size_t>(c)];
        double d = 0.0;
        for (size_t j = 0; j < projected[i].size(); ++j) {
            const double diff =
                projected[i][j] - clustering.centroids[c][j];
            d += diff * diff;
        }
        if (d < best_dist[static_cast<size_t>(c)]) {
            best_dist[static_cast<size_t>(c)] = d;
            representative[static_cast<size_t>(c)] = i;
        }
    }
    for (int c = 0; c < clustering.k; ++c) {
        if (counts[static_cast<size_t>(c)] == 0)
            continue;
        out.intervals.push_back(representative[static_cast<size_t>(c)]);
        out.weights.push_back(
            static_cast<double>(counts[static_cast<size_t>(c)]) /
            static_cast<double>(projected.size()));
    }
    return out;
}

SimPointEstimate
estimateIpc(const workload::Trace &trace, const sim::MachineConfig &cfg,
            const SimPoints &points, sim::WarmStart *warm)
{
    if (points.intervals.empty())
        throw std::invalid_argument("no simulation points");

    std::vector<sim::SimOptions> runs;
    for (size_t interval : points.intervals) {
        sim::SimOptions opts;
        opts.begin = interval * points.intervalLength;
        opts.end = opts.begin + points.intervalLength;
        opts.warmCaches = true;  // same steady state as full runs
        opts.detailedWarmup = points.detailedWarmup();
        runs.push_back(opts);
    }
    const auto results = sim::simulateIntervals(trace, cfg, runs, warm);

    // Weighted harmonic-style combination: weights apply to CPI
    // (cycles per instruction accumulate linearly over intervals).
    double weighted_cpi = 0.0;
    double total_weight = 0.0;
    SimPointEstimate est;
    for (size_t i = 0; i < runs.size(); ++i) {
        weighted_cpi += points.weights[i] / std::max(results[i].ipc, 1e-9);
        total_weight += points.weights[i];
    }
    est.ipc = total_weight / weighted_cpi;
    est.instructionsSimulated = points.detailedInstructions();
    return est;
}

} // namespace simpoint
} // namespace dse
