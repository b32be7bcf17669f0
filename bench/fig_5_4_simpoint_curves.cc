/**
 * @file
 * Regenerates **Figure 5.4**: learning curves when ANN modeling is
 * combined with SimPoint — the ensembles train on *SimPoint
 * estimates* (noisy, cheap) of the processor study, while error is
 * measured against full detailed simulation (Section 5.3).
 *
 * The claim under test: ANNs tolerate SimPoint's noise; the curves
 * are only slightly above the full-simulation ones.
 */

#include <cstdio>

#include "bench/common.hh"

using namespace dse;
using namespace dse::bench;

int
main()
{
    const auto scope = BenchScope::fromEnv({"mesa", "crafty"});
    std::printf("Figure 5.4: ANN+SimPoint learning curves, processor "
                "study\n(apps: %s; paper plots mesa, equake, mcf, "
                "crafty — set DSE_APPS)\n",
                join(scope.apps, ",").c_str());

    for (const auto &app : scope.apps) {
        study::StudyContext ctx(study::StudyKind::Processor, app,
                                scope.traceLength);
        std::printf("\n%s: SimPoint picked k=%d intervals "
                    "(%zu of %zu instructions detailed, %.1fx fewer)\n",
                    app.c_str(), ctx.simPoints().k,
                    ctx.simPoints().detailedInstructions(),
                    ctx.trace().size(),
                    static_cast<double>(ctx.trace().size()) /
                        static_cast<double>(
                            ctx.simPoints().detailedInstructions()));
        const auto sizes = curveSizes(ctx.space().size(),
                                      scope.maxSamplePct, scope.batch);
        const auto curve = learningCurve(ctx, sizes, scope.evalPoints,
                                         /*simpoint=*/true);
        printCurve(app + " (processor, ANN+SimPoint)", curve);
    }
    return 0;
}
