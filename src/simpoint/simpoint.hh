/**
 * @file
 * SimPoint [23]: pick representative simulation intervals.
 *
 * Pipeline: per-interval BBVs -> random projection -> k-means for
 * k = 1..maxK -> choose the smallest k whose BIC reaches a fraction
 * of the best BIC -> the representative of each cluster is the
 * interval nearest its centroid, weighted by cluster population.
 *
 * A configuration's performance is then *estimated* by simulating
 * only the representative intervals in detail (with functional
 * warmup of prior history) and combining their IPCs by weight —
 * noisy but far cheaper, exactly the noise/speed trade the paper
 * studies in Section 5.3.
 */

#ifndef DSE_SIMPOINT_SIMPOINT_HH
#define DSE_SIMPOINT_SIMPOINT_HH

#include <cstdint>
#include <vector>

#include "sim/config.hh"
#include "sim/warm_start.hh"
#include "workload/trace.hh"

namespace dse {
namespace simpoint {

/** The chosen simulation points for one application. */
struct SimPoints
{
    size_t intervalLength = 0;
    int k = 0;                       ///< clusters chosen by BIC
    std::vector<size_t> intervals;   ///< representative interval index
    std::vector<double> weights;     ///< cluster population fractions

    /** Detailed pre-roll each representative runs before its
     *  interval is measured: half an interval drains the
     *  pipeline-fill transient out of the measurement. */
    size_t
    detailedWarmup() const
    {
        return intervalLength / 2;
    }

    /** Instructions simulated in detail per estimate (estimateIpc):
     *  each representative's interval plus its detailed warm-up. */
    size_t
    detailedInstructions() const
    {
        return intervals.size() * (intervalLength + detailedWarmup());
    }
};

/** Selection knobs. */
struct SimPointOptions
{
    size_t intervalLength = 2048;
    int maxK = 10;
};

/** Run the SimPoint selection pipeline on a trace. */
SimPoints pickSimPoints(const workload::Trace &trace,
                        const SimPointOptions &opts = {});

/** A SimPoint performance estimate and its cost. */
struct SimPointEstimate
{
    double ipc = 0.0;
    size_t instructionsSimulated = 0;  ///< detailed instructions only
};

/**
 * Estimate a configuration's IPC from its simulation points: each
 * representative interval is simulated in detail after functional
 * warmup of all prior history, and the per-interval IPCs combine by
 * cluster weight.
 *
 * @param warm the trace's warm-up memo (sim::simulateIntervals)
 */
SimPointEstimate estimateIpc(const workload::Trace &trace,
                             const sim::MachineConfig &cfg,
                             const SimPoints &points,
                             sim::WarmStart *warm = nullptr);

} // namespace simpoint
} // namespace dse

#endif // DSE_SIMPOINT_SIMPOINT_HH
