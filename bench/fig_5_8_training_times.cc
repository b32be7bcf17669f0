/**
 * @file
 * Regenerates **Figure 5.8**: ensemble training time as a function of
 * training-set size (1-9% of the memory-system space). The paper's
 * claims: training time scales linearly in the training-set size
 * (complexity O(H(I+O)PD), Section 5.4 footnote) and is negligible
 * next to simulation time.
 *
 * Implemented with google-benchmark so timing methodology (warmup,
 * repetition) is standard.
 */

#include <benchmark/benchmark.h>

#include "bench/common.hh"

using namespace dse;
using namespace dse::bench;

namespace {

/** Shared data: one memory-system context + simulated targets. */
study::StudyContext &
sharedContext()
{
    static study::StudyContext ctx(study::StudyKind::MemorySystem,
                                   "mesa", 16384);
    return ctx;
}

const ml::DataSet &
sharedData(size_t n)
{
    static ml::DataSet data;
    static std::vector<uint64_t> order;
    auto &ctx = sharedContext();
    if (order.empty()) {
        Rng rng(7);
        order = rng.sampleWithoutReplacement(
            ctx.space().size(),
            static_cast<size_t>(0.09 * static_cast<double>(
                ctx.space().size())) + 1);
    }
    while (data.size() < n && data.size() < order.size()) {
        const uint64_t idx = order[data.size()];
        data.add(ctx.space().encodeIndex(idx), ctx.simulateIpc(idx));
    }
    return data;
}

void
BM_EnsembleTraining(benchmark::State &state)
{
    // First, so that a bad DSE_MAX_EPOCHS exits before any trace.
    ml::TrainOptions opts = benchTrainOptions();
    auto &ctx = sharedContext();
    const double pct = static_cast<double>(state.range(0));
    const size_t n = static_cast<size_t>(
        pct / 100.0 * static_cast<double>(ctx.space().size()));
    const auto &all = sharedData(n);
    ml::DataSet data;
    for (size_t i = 0; i < n; ++i)
        data.add(all.x[i], all.y[i]);

    // Fixed epoch budget so the measurement isolates the per-pass
    // cost's linear scaling in D (the paper trains a fixed pipeline
    // per batch too).
    opts.maxEpochs = 400;
    opts.earlyStopping = false;

    for (auto _ : state) {
        auto model = ml::trainEnsemble(data, opts);
        benchmark::DoNotOptimize(model.estimate().meanPct);
    }
    state.counters["train_points"] = static_cast<double>(n);
    state.counters["points_per_sec"] = benchmark::Counter(
        static_cast<double>(n) * 400 * 10,
        benchmark::Counter::kIsIterationInvariantRate);
}

} // namespace

BENCHMARK(BM_EnsembleTraining)
    ->Arg(1)
    ->Arg(3)
    ->Arg(5)
    ->Arg(7)
    ->Arg(9)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

BENCHMARK_MAIN();
