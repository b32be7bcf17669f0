/**
 * @file
 * Regenerates **Figure 5.6**: factors of reduction in total simulated
 * instructions when ANN modeling and SimPoint are combined, at three
 * achieved mean-error levels per application.
 *
 * Accounting (as in the paper):
 *   full study        = |space| * instructions-per-full-simulation
 *   ANN+SimPoint at e = n(e) * instructions-per-SimPoint-estimate
 * where n(e) is the smallest training-set size whose model reaches
 * mean error e on the holdout. The reduction is their ratio.
 */

#include <cstdio>

#include "bench/common.hh"

using namespace dse;
using namespace dse::bench;

int
main()
{
    const auto scope = BenchScope::fromEnv({"mesa", "crafty"});
    std::printf("Figure 5.6: reductions in simulated instructions, "
                "ANN+SimPoint, processor study\n(apps: %s)\n",
                join(scope.apps, ",").c_str());

    Table table({"app", "achieved_err%", "trained_on", "reduction_x"});
    for (const auto &app : scope.apps) {
        study::StudyContext ctx(study::StudyKind::Processor, app,
                                scope.traceLength);
        const auto sizes = curveSizes(ctx.space().size(),
                                      scope.maxSamplePct, scope.batch);
        const auto curve = learningCurve(ctx, sizes, scope.evalPoints,
                                         /*simpoint=*/true);

        const double full_instructions =
            static_cast<double>(ctx.space().size()) *
            static_cast<double>(ctx.instructionsPerSimulation());
        const double per_estimate = static_cast<double>(
            ctx.simPoints().detailedInstructions());

        // Report three achieved error levels: the best point, and
        // ~1.5x / ~2.5x that error (mirroring the paper's three
        // columns per app).
        double best = 1e9;
        for (const auto &p : curve)
            best = std::min(best, p.truth.meanPct);
        const CurvePoint *last_point = nullptr;
        for (double scale : {2.5, 1.5, 1.0}) {
            const auto *point = firstReaching(curve, best * scale);
            if (!point || point == last_point)
                continue;
            last_point = point;
            const double cost =
                static_cast<double>(point->samples) * per_estimate;
            table.newRow();
            table.add(app);
            table.add(point->truth.meanPct, 2);
            table.add(static_cast<long long>(point->samples));
            table.add(full_instructions / cost, 0);
        }
    }
    table.print(std::cout);
    std::printf("\nThe paper reports 172-906x at ~1%% error up to "
                "1129-13018x at ~3.5%%; reductions here follow the "
                "same shape at this scaled-down space/holdout.\n");
    return 0;
}
