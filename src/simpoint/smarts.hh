/**
 * @file
 * SMARTS-style systematic sampling (Wunderlich et al. [27]) — the
 * other partial-simulation technique the paper names as a natural
 * companion ("combining our approach with the SMARTS framework is
 * another interesting future work", Chapter 2).
 *
 * Where SimPoint picks a few *representative* intervals by program
 * phase, SMARTS simulates many *tiny* units at a fixed systematic
 * cadence with functional warming in between, and aggregates them.
 * Both produce a cheap, noisy estimate of whole-run performance that
 * an ANN ensemble can train on.
 */

#ifndef DSE_SIMPOINT_SMARTS_HH
#define DSE_SIMPOINT_SMARTS_HH

#include <cstddef>

#include "sim/config.hh"
#include "sim/warm_start.hh"
#include "workload/trace.hh"

namespace dse {
namespace simpoint {

/** SMARTS sampling parameters. */
struct SmartsOptions
{
    /** Detailed-simulation unit size in instructions. */
    size_t unitInstructions = 512;
    /** Detail every k-th unit (sampling cadence). */
    size_t cadence = 8;
    /** First detailed unit (offset into the cadence). */
    size_t phase = 0;
};

/** A SMARTS estimate and its detailed-instruction cost. */
struct SmartsEstimate
{
    double ipc = 0.0;
    size_t instructionsSimulated = 0;  ///< detailed instructions only
    size_t unitsSampled = 0;
};

/**
 * Estimate a configuration's IPC by detailed simulation of every
 * k-th unit (with warmed caches/predictor, mirroring SMARTS'
 * continuous functional warming), aggregating per-unit CPI.
 *
 * @param warm the trace's warm-up memo (sim::simulateIntervals)
 */
SmartsEstimate smartsEstimateIpc(const workload::Trace &trace,
                                 const sim::MachineConfig &cfg,
                                 const SmartsOptions &opts = {},
                                 sim::WarmStart *warm = nullptr);

} // namespace simpoint
} // namespace dse

#endif // DSE_SIMPOINT_SMARTS_HH
