/**
 * @file
 * Trace-driven cycle-level out-of-order core model.
 *
 * Models the mechanisms the two design-space studies exercise:
 * fetch/issue/commit width, I-cache-limited fetch, tournament branch
 * prediction with BTB and a frequency-dependent misprediction
 * penalty, ROB/LSQ/physical-register/in-flight-branch occupancy
 * limits, per-class functional-unit issue limits, dependence-driven
 * out-of-order issue, and a fully timed memory hierarchy with bus
 * contention (MemorySystem).
 *
 * The simulator can run a sub-range of the trace (an interval) with
 * cold or functionally warmed structures — the substrate SimPoint
 * needs for partial simulation.
 */

#ifndef DSE_SIM_CORE_HH
#define DSE_SIM_CORE_HH

#include <cstddef>
#include <limits>
#include <vector>

#include "sim/config.hh"
#include "sim/warm_start.hh"
#include "workload/trace.hh"

namespace dse {
namespace sim {

/** What part of the trace to run and how to prepare state. */
struct SimOptions
{
    size_t begin = 0;  ///< first instruction to simulate
    size_t end = std::numeric_limits<size_t>::max();  ///< one past last
    /**
     * Instructions before `begin` replayed functionally (caches,
     * predictor — no timing) to warm state. 0 = cold start.
     */
    size_t warmupInstructions = 0;
    /**
     * Instructions before `begin` simulated *in detail* but excluded
     * from the measurement (SMARTS-style detailed warming): fills
     * the pipeline/ROB/MSHRs so a short measured interval reflects
     * steady state instead of ramp-up. Costs simulation time
     * proportional to the prefix.
     */
    size_t detailedWarmup = 0;
    /**
     * Replay the whole trace functionally before the timed run, so
     * measurements reflect steady state rather than compulsory
     * misses. The studies enable this for full runs *and* for
     * SimPoint interval runs (so both measure the same steady-state
     * machine): the paper's MinneSPEC runs are long enough that
     * cold-start effects are negligible, which a short synthetic
     * trace must emulate explicitly. The replay goes through a
     * WarmStart (sim/warm_start.hh).
     */
    bool warmCaches = false;
};

/**
 * Simulate (part of) a trace on a machine configuration.
 *
 * The configuration's derived cache latencies must already be filled
 * (CactiModel::applyLatencies); study code does this when mapping
 * design points to configurations.
 *
 * @param warm the trace's warm-up memo for warmCaches runs; null
 *        warms through a throwaway one. The result does not depend
 *        on it.
 * @return cycle and event counts plus IPC over the simulated range
 * @throws std::invalid_argument when `warm` was built for another
 *         trace object
 */
SimResult simulate(const workload::Trace &trace, const MachineConfig &cfg,
                   const SimOptions &opts = {}, WarmStart *warm = nullptr);

/**
 * Simulate several ranges of one trace on one configuration, as
 * SimPoint and SMARTS estimates do. Runs with warmCaches set warm
 * once through `warm` (a throwaway WarmStart when null) and each
 * starts from an exact copy of that state, so every result equals
 * simulate(trace, cfg, runs[i]).
 *
 * The runs execute concurrently on util::ThreadPool::global(), on
 * S = min(runs, pool.concurrency()) slots. Each slot that runs warmed
 * intervals owns one warmed state, copied on the calling thread before
 * the fan-out: k warmed runs on k or more slots keep k states alive
 * (the original is one of them); otherwise S copies sit beside the
 * pristine original, which resets a slot's state between its runs.
 * A call from inside one of the global pool's iterations (a batch of
 * estimates, say) sees S = 1 and runs inline, holding two states.
 *
 * @return one result per run, in order
 */
std::vector<SimResult>
simulateIntervals(const workload::Trace &trace, const MachineConfig &cfg,
                  const std::vector<SimOptions> &runs,
                  WarmStart *warm = nullptr);

} // namespace sim
} // namespace dse

#endif // DSE_SIM_CORE_HH
