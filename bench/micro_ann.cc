/**
 * @file
 * Microbenchmarks of the core numeric kernels: ANN forward and
 * training passes (the O(H(I+O)) inner loop the Section 5.4 footnote
 * analyses), ensemble prediction, cache accesses, and trace
 * generation. Simulator throughput lives in micro_sim.
 */

#include <benchmark/benchmark.h>

#include <cmath>

#include "ml/ann.hh"
#include "ml/cross_validation.hh"
#include "ml/explorer.hh"
#include "sim/cache.hh"
#include "study/spaces.hh"
#include "util/rng.hh"
#include "workload/generator.hh"

using namespace dse;

namespace {

void
BM_AnnForward(benchmark::State &state)
{
    Rng rng(1);
    ml::AnnParams p;
    p.hiddenUnits = static_cast<int>(state.range(0));
    ml::Ann net(16, 1, p, rng);
    std::vector<double> x(16, 0.5);
    for (auto _ : state)
        benchmark::DoNotOptimize(net.predictScalar(x));
}

void
BM_AnnTrainStep(benchmark::State &state)
{
    Rng rng(2);
    ml::AnnParams p;
    p.hiddenUnits = static_cast<int>(state.range(0));
    p.learningRate = 0.1;
    ml::Ann net(16, 1, p, rng);
    std::vector<double> x(16, 0.5);
    std::vector<double> t{0.7};
    for (auto _ : state)
        benchmark::DoNotOptimize(
            net.trainEpoch(x.data(), t.data(), nullptr, 1));
}

void
BM_AnnTrainEpoch(benchmark::State &state)
{
    // The fused epoch pipeline as trainEnsemble drives it: packed
    // example matrices, a drawn presentation order, one trainEpoch
    // call per epoch. Compare items/s against BM_AnnTrainStep for the
    // win from the epoch loop itself (no per-row vector indirection).
    Rng rng(2);
    ml::AnnParams p;
    p.hiddenUnits = static_cast<int>(state.range(0));
    p.learningRate = 0.1;
    ml::Ann net(16, 1, p, rng);
    const size_t rows = 256;
    std::vector<double> x(rows * 16);
    std::vector<double> t(rows);
    for (auto &v : x)
        v = rng.uniform();
    for (auto &v : t)
        v = 0.2 + 0.6 * rng.uniform();
    std::vector<uint32_t> order(rows);
    for (auto &o : order)
        o = static_cast<uint32_t>(rng.below(rows));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            net.trainEpoch(x.data(), t.data(), order.data(), rows));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(rows));
}

void
BM_AnnPredictBatch(benchmark::State &state)
{
    // Blocked batched forward over a block's worth of points: the
    // kernel the full-space sweeps are built from. Compare against
    // BM_AnnForward x n for the win from streaming each layer's
    // weights once per block.
    Rng rng(3);
    ml::AnnParams p;
    ml::Ann net(16, 1, p, rng);
    const size_t n = static_cast<size_t>(state.range(0));
    std::vector<double> x(n * 16);
    for (auto &v : x)
        v = rng.uniform();
    std::vector<double> y(n);
    for (auto _ : state) {
        net.predictBatch(x.data(), n, y.data());
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(n));
}

void
BM_EnsemblePredictSpace(benchmark::State &state)
{
    // Full-space prediction through the real Explorer path over the
    // Table 4.1 memory-system space (23,040 points): the dominant
    // modeling cost after training itself (Section 5.4 / Fig 5.8).
    // The simulator is a cheap analytic stand-in so the bench times
    // prediction, not simulation; the ensemble is trained once.
    static const ml::DesignSpace space = study::memorySystemSpace();
    static ml::Explorer *explorer = [] {
        auto sim = [](uint64_t idx) {
            return 0.3 + 0.1 * std::sin(static_cast<double>(idx) * 1e-3) +
                1e-6 * static_cast<double>(idx % 97);
        };
        ml::ExplorerOptions opts;
        opts.batchSize = 50;
        opts.train.folds = 5;
        opts.train.maxEpochs = 60;
        opts.train.esInterval = 20;
        opts.train.patience = 3;
        auto *e = new ml::Explorer(space, sim, opts);
        e->step();
        return e;
    }();
    for (auto _ : state) {
        auto preds = explorer->predictSpace();
        benchmark::DoNotOptimize(preds.data());
    }
    state.counters["points_per_sec"] = benchmark::Counter(
        static_cast<double>(space.size()),
        benchmark::Counter::kIsIterationInvariantRate);
}

void
BM_CacheAccess(benchmark::State &state)
{
    sim::Cache cache({32, 32, static_cast<int>(state.range(0)), true});
    Rng rng(3);
    uint64_t addr = 0;
    for (auto _ : state) {
        addr = (addr * 2654435761u + 12345) % (256 * 1024);
        benchmark::DoNotOptimize(cache.access(addr, false).hit);
    }
}

void
BM_TraceGeneration(benchmark::State &state)
{
    for (auto _ : state) {
        auto trace = workload::generateBenchmarkTrace("gzip", 16384);
        benchmark::DoNotOptimize(trace.size());
    }
}

} // namespace

BENCHMARK(BM_AnnForward)->Arg(16)->Arg(32);
BENCHMARK(BM_AnnTrainStep)->Arg(16)->Arg(32);
BENCHMARK(BM_AnnTrainEpoch)->Arg(16)->Arg(32);
BENCHMARK(BM_AnnPredictBatch)->Arg(64)->Arg(1024);
BENCHMARK(BM_EnsemblePredictSpace)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CacheAccess)->Arg(1)->Arg(8);
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
