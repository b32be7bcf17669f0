/**
 * @file
 * Regenerates **Figure 5.5**: estimated versus true error when ANN
 * modeling is combined with SimPoint.
 *
 * The nuance reproduced here (Section 5.3): cross validation
 * computes its estimate against the *SimPoint* targets, unaware of
 * their noise, so outside the sparse regime the estimates can run
 * slightly *below* the true error (never by much).
 */

#include <cstdio>

#include "bench/common.hh"

using namespace dse;
using namespace dse::bench;

int
main()
{
    const auto scope = BenchScope::fromEnv({"mesa"});
    std::printf("Figure 5.5: estimated vs true error with "
                "ANN+SimPoint, processor study\n(apps: %s)\n",
                join(scope.apps, ",").c_str());

    for (const auto &app : scope.apps) {
        study::StudyContext ctx(study::StudyKind::Processor, app,
                                scope.traceLength);
        const auto sizes = curveSizes(ctx.space().size(),
                                      scope.maxSamplePct, scope.batch);
        const auto curve = learningCurve(ctx, sizes, scope.evalPoints,
                                         /*simpoint=*/true);
        printCurve(app + " (ANN+SimPoint): estimate vs truth", curve);

        Table dev({"sample%", "mean_delta%", "underestimates"});
        for (const auto &p : curve) {
            dev.newRow();
            dev.add(p.samplePct, 2);
            dev.add(p.estimated.meanPct - p.truth.meanPct, 2);
            dev.add(std::string(
                p.estimated.meanPct < p.truth.meanPct ? "yes" : "no"));
        }
        std::printf("\n-- estimate minus truth (%s) --\n", app.c_str());
        dev.print(std::cout);
    }
    return 0;
}
