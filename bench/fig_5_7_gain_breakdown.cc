/**
 * @file
 * Regenerates **Figure 5.7**: the decomposition of the combined
 * gains into SimPoint's contribution (fewer instructions per
 * experiment) and the ANN's contribution (fewer experiments), shown
 * side by side with their product (the combined factor).
 */

#include <cstdio>

#include "bench/common.hh"

using namespace dse;
using namespace dse::bench;

int
main()
{
    const auto scope = study::BenchScope::fromEnv({"mesa", "crafty"});
    std::printf("Figure 5.7: SimPoint vs ANN contributions to the "
                "combined reduction, processor study\n(apps: %s)\n",
                join(scope.apps, ",").c_str());

    Table table({"app", "achieved_err%", "simpoint_x", "ann_x",
                 "combined_x"});
    for (const auto &app : scope.apps) {
        study::StudyContext ctx(study::StudyKind::Processor, app,
                                scope.traceLength);
        const auto sizes = curveSizes(ctx.space().size(),
                                      scope.maxSamplePct, scope.batch);
        const auto curve = learningCurve(ctx, sizes, scope.evalPoints,
                                         /*simpoint=*/true);

        // SimPoint factor: instructions per full simulation over
        // instructions per SimPoint estimate.
        const double simpoint_x =
            static_cast<double>(ctx.instructionsPerSimulation()) /
            static_cast<double>(ctx.simPoints().detailedInstructions());

        double best = 1e9;
        for (const auto &p : curve)
            best = std::min(best, p.truth.meanPct);
        const CurvePoint *last_point = nullptr;
        for (double scale : {2.5, 1.5, 1.0}) {
            const auto *point = firstReaching(curve, best * scale);
            if (!point || point == last_point)
                continue;
            last_point = point;
            // ANN factor: experiments avoided.
            const double ann_x =
                static_cast<double>(ctx.space().size()) /
                static_cast<double>(point->samples);
            table.newRow();
            table.add(app);
            table.add(point->truth.meanPct, 2);
            table.add(simpoint_x, 1);
            table.add(ann_x, 1);
            table.add(simpoint_x * ann_x, 0);
        }
    }
    table.print(std::cout);
    std::printf("\nThe paper attributes 41-208x to the ANN and 8-63x "
                "to SimPoint; the factors multiply because they attack "
                "orthogonal costs (experiments vs instructions per "
                "experiment).\n");
    return 0;
}
