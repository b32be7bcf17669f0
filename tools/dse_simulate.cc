/**
 * @file
 * Direct simulator front end: run one detailed simulation of a
 * bundled benchmark on a design point of either study (by flat index
 * or by `Param=value` overrides of the space's middle configuration)
 * and print every statistic — for inspecting the substrate the
 * predictive models learn.
 *
 * Examples:
 *   dse_simulate --study=memory --app=mcf --index=12345
 *   dse_simulate --study=processor --app=gzip Width=8 FreqGHz=2
 *   dse_simulate --study=memory --app=twolf --simpoint --index=7
 */

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cli.hh"
#include "study/harness.hh"

using namespace dse;

namespace {

struct Options
{
    study::StudyKind kind = study::StudyKind::MemorySystem;
    std::string app = "gzip";
    bool simpoint = false;
    std::optional<uint64_t> index;
    std::vector<std::string> overrides;  ///< Param=value
    cli::Metrics metrics;
};

const char *const kUsage =
    "usage: dse_simulate [--study=memory|processor] [--app=<name>]\n"
    "               [--index=<n> | Param=value ...] [--simpoint]\n"
    "               [--metrics[=path]]\n"
    "Runs one detailed simulation and prints its statistics.\n"
    "--metrics collects dse::obs metrics and prints them as a\n"
    "table (or writes JSON to <path>) before exiting.\n"
    "Param=value entries override the space's middle point; use\n"
    "dse_explore --describe-space for names and levels.";

int
levelOfValue(const ml::DesignSpace &space, size_t p,
             const std::string &value)
{
    const auto &desc = space.param(p);
    if (desc.kind == ml::ParamKind::Nominal) {
        for (int l = 0; l < desc.numLevels(); ++l) {
            if (desc.labels[static_cast<size_t>(l)] == value)
                return l;
        }
    } else {
        const double v = cli::parseNumber<double>(desc.name, value);
        for (int l = 0; l < desc.numLevels(); ++l) {
            if (desc.values[static_cast<size_t>(l)] == v)
                return l;
        }
    }
    return -1;
}

/** The design point: --index, or the middle point with overrides. */
uint64_t
designPoint(const ml::DesignSpace &space, const Options &opts)
{
    if (opts.index)
        return *opts.index;
    std::vector<int> lv(space.numParams());
    for (size_t p = 0; p < space.numParams(); ++p)
        lv[p] = space.param(p).numLevels() / 2;
    for (const auto &arg : opts.overrides) {
        const auto eq = arg.find('=');
        if (eq == std::string::npos)
            throw cli::UsageError("expected Param=value, got '" + arg +
                                  "'");
        const std::string name = arg.substr(0, eq);
        const std::string value = arg.substr(eq + 1);
        size_t p;
        try {
            p = space.paramIndex(name);
        } catch (const std::exception &) {
            throw cli::UsageError("unknown parameter '" + name + "'");
        }
        const int level = levelOfValue(space, p, value);
        if (level < 0)
            throw cli::UsageError("'" + value + "' is not a level of " +
                                  name);
        lv[p] = level;
    }
    return space.index(lv);
}

int
simulate(const Options &opts)
{
    study::StudyContext ctx(opts.kind, opts.app);
    const auto &space = ctx.space();
    const uint64_t index = designPoint(space, opts);

    const auto lv = space.levels(index);
    std::printf("%s / %s, design point %llu:\n",
                study::studyName(opts.kind), opts.app.c_str(),
                static_cast<unsigned long long>(index));
    for (size_t p = 0; p < space.numParams(); ++p) {
        if (space.param(p).kind == ml::ParamKind::Nominal) {
            std::printf("  %-16s %s\n", space.param(p).name.c_str(),
                        space.label(p, lv[p]).c_str());
        } else {
            std::printf("  %-16s %g\n", space.param(p).name.c_str(),
                        space.value(p, lv[p]));
        }
    }

    const auto &r = ctx.simulateFull(index);
    std::printf("\nconfig: %s\n", ctx.config(index).describe().c_str());
    std::printf("cycles            %llu\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("instructions      %llu\n",
                static_cast<unsigned long long>(r.instructions));
    std::printf("IPC               %.4f\n", r.ipc);
    std::printf("L1D miss rate     %.4f (%llu/%llu)\n", r.l1dMissRate,
                static_cast<unsigned long long>(r.l1dMisses),
                static_cast<unsigned long long>(r.l1dAccesses));
    std::printf("L2 miss rate      %.4f (%llu/%llu)\n", r.l2MissRate,
                static_cast<unsigned long long>(r.l2Misses),
                static_cast<unsigned long long>(r.l2Accesses));
    std::printf("L1I miss rate     %.4f\n", r.l1iMissRate);
    std::printf("BP mispredict     %.4f (%llu/%llu)\n",
                r.branchMispredictRate,
                static_cast<unsigned long long>(r.branchMispredicts),
                static_cast<unsigned long long>(r.branches));

    if (opts.simpoint) {
        const double est = ctx.simulateSimPointIpc(index);
        std::printf("\nSimPoint estimate %.4f (%.2f%% off, %zu of %zu "
                    "instructions detailed)\n",
                    est, 100.0 * std::abs(est - r.ipc) / r.ipc,
                    ctx.simPoints().detailedInstructions(),
                    ctx.trace().size());
    }

    if (opts.metrics.on) {
        std::printf("\n");
        opts.metrics.report();
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    cli::Command cmd("dse_simulate", kUsage);
    cmd.value("--study", opts.kind)
        .value("--app", opts.app)
        .value("--index", opts.index)
        .flag("--simpoint", opts.simpoint)
        .metrics(opts.metrics)
        .operands(opts.overrides);
    return cmd.run(argc, argv, [&] { return simulate(opts); });
}
