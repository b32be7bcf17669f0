#include "simpoint/smarts.hh"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "sim/core.hh"

namespace dse {
namespace simpoint {

SmartsEstimate
smartsEstimateIpc(const workload::Trace &trace,
                  const sim::MachineConfig &cfg,
                  const SmartsOptions &opts, sim::WarmStart *warm)
{
    if (opts.unitInstructions == 0 || opts.cadence == 0)
        throw std::invalid_argument("SMARTS needs positive unit/cadence");
    const size_t n_units = trace.size() / opts.unitInstructions;
    if (n_units == 0)
        throw std::invalid_argument("trace shorter than one unit");

    std::vector<sim::SimOptions> runs;
    for (size_t u = opts.phase % opts.cadence; u < n_units;
         u += opts.cadence) {
        sim::SimOptions sim_opts;
        sim_opts.begin = u * opts.unitInstructions;
        sim_opts.end = sim_opts.begin + opts.unitInstructions;
        sim_opts.warmCaches = true;  // continuous functional warming
        runs.push_back(sim_opts);
    }

    SmartsEstimate est;
    double cpi_sum = 0.0;
    for (const auto &result :
         sim::simulateIntervals(trace, cfg, runs, warm)) {
        cpi_sum += 1.0 / std::max(result.ipc, 1e-9);
        est.instructionsSimulated += opts.unitInstructions;
        ++est.unitsSampled;
    }
    if (est.unitsSampled == 0)
        throw std::invalid_argument("cadence sampled no units");
    est.ipc = static_cast<double>(est.unitsSampled) / cpi_sum;
    return est;
}

} // namespace simpoint
} // namespace dse
