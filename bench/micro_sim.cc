/**
 * @file
 * Microbenchmarks of the detailed simulator: one warm full-trace
 * simulation per iteration on each study's shape, and one SimPoint
 * estimate. Simulation is where an exploration spends its time
 * (bench/e2e), so these are the numbers a simulator change must move.
 *
 * Each case runs the middle design point of its study's space on the
 * application's generated trace, with warmed caches as StudyContext
 * simulates it: through one sim::WarmStart that lives across
 * iterations, so its memo is warm after the first. The `_no_memo`
 * case passes none, so every iteration pays the whole warm-up.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

#include "sim/core.hh"
#include "sim/warm_start.hh"
#include "simpoint/simpoint.hh"
#include "study/spaces.hh"
#include "workload/generator.hh"

using namespace dse;

namespace {

/** One (app, study, trace length) simulation shape. */
struct SimCase
{
    workload::Trace trace;
    sim::MachineConfig cfg;

    SimCase(const std::string &app, study::StudyKind kind, size_t length)
        : trace(workload::generateBenchmarkTrace(app, length))
    {
        const auto space = study::spaceFor(kind);
        cfg = study::configFor(kind, space, space.levels(space.size() / 2));
    }
};

void
BM_DetailedSimulation(benchmark::State &state, const char *app,
                      study::StudyKind kind, size_t length, bool memo)
{
    const SimCase c(app, kind, length);
    sim::SimOptions opts;
    opts.warmCaches = true;
    sim::WarmStart warm(c.trace);
    for (auto _ : state) {
        auto result =
            sim::simulate(c.trace, c.cfg, opts, memo ? &warm : nullptr);
        benchmark::DoNotOptimize(result.ipc);
    }
    state.counters["instr_per_sec"] = benchmark::Counter(
        static_cast<double>(length),
        benchmark::Counter::kIsIterationInvariantRate);
}

void
BM_SimPointEstimate(benchmark::State &state, const char *app,
                    study::StudyKind kind, size_t length)
{
    // The interval choice StudyContext::simPoints() makes.
    const SimCase c(app, kind, length);
    simpoint::SimPointOptions sp_opts;
    sp_opts.intervalLength = std::max<size_t>(2048, length / 16);
    sp_opts.maxK = 6;
    const auto points = simpoint::pickSimPoints(c.trace, sp_opts);
    sim::WarmStart warm(c.trace);
    size_t detailed = 0;
    for (auto _ : state) {
        const auto est =
            simpoint::estimateIpc(c.trace, c.cfg, points, &warm);
        benchmark::DoNotOptimize(est.ipc);
        detailed = est.instructionsSimulated;
    }
    state.counters["instr_per_sec"] = benchmark::Counter(
        static_cast<double>(detailed),
        benchmark::Counter::kIsIterationInvariantRate);
}

} // namespace

BENCHMARK_CAPTURE(BM_DetailedSimulation, mcf_memory_64k, "mcf",
                  study::StudyKind::MemorySystem, 65536, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DetailedSimulation, mcf_memory_64k_no_memo, "mcf",
                  study::StudyKind::MemorySystem, 65536, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DetailedSimulation, gzip_processor_16k, "gzip",
                  study::StudyKind::Processor, 16384, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SimPointEstimate, mcf_memory_64k, "mcf",
                  study::StudyKind::MemorySystem, 65536)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
