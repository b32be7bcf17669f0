/**
 * @file
 * Regenerates **Figure 5.1** (and its appendix sibling A.1): learning
 * curves of model percentage error versus the fraction of the design
 * space sampled, for the memory-system (left column) and processor
 * (right column) studies.
 *
 * The paper plots mean error with +-1 SD bars; this harness prints
 * the same series (mean and SD per training-set size).
 */

#include <cstdio>

#include "bench/common.hh"

using namespace dse;
using namespace dse::bench;

int
main()
{
    const auto scope = BenchScope::fromEnv({"mesa", "crafty"});
    std::printf("Figure 5.1: learning curves (error vs %% of space "
                "sampled)\n(apps: %s; paper plots mesa, equake, mcf, "
                "crafty — set DSE_APPS)\n",
                join(scope.apps, ",").c_str());

    for (const auto &app : scope.apps) {
        for (auto kind : {study::StudyKind::MemorySystem,
                          study::StudyKind::Processor}) {
            study::StudyContext ctx(kind, app, scope.traceLength);
            const auto sizes = curveSizes(ctx.space().size(),
                                          scope.maxSamplePct,
                                          scope.batch);
            const auto curve =
                learningCurve(ctx, sizes, scope.evalPoints);
            printCurve(app + " (" + study::studyName(kind) + ")",
                       curve);
        }
    }
    return 0;
}
