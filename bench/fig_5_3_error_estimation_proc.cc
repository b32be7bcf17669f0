/**
 * @file
 * Regenerates **Figure 5.3** (and appendix A.3): estimated versus
 * true mean and standard deviation of percentage error for the
 * **processor** study (same analysis as Figure 5.2 on the other
 * design space).
 */

#include <cstdio>

#include "bench/common.hh"

using namespace dse;
using namespace dse::bench;

int
main()
{
    const auto scope = BenchScope::fromEnv({"gzip"});
    std::printf("Figure 5.3: estimated vs true error, processor "
                "study\n(apps: %s; paper plots mesa, equake, mcf, "
                "crafty — set DSE_APPS)\n",
                join(scope.apps, ",").c_str());

    for (const auto &app : scope.apps) {
        study::StudyContext ctx(study::StudyKind::Processor, app,
                                scope.traceLength);
        const auto sizes = curveSizes(ctx.space().size(),
                                      scope.maxSamplePct, scope.batch);
        const auto curve = learningCurve(ctx, sizes, scope.evalPoints);
        printCurve(app + " (processor): estimate vs truth", curve);

        Table dev({"sample%", "mean_delta%", "sd_delta%",
                   "conservative"});
        for (const auto &p : curve) {
            dev.newRow();
            dev.add(p.samplePct, 2);
            dev.add(p.estimated.meanPct - p.truth.meanPct, 2);
            dev.add(p.estimated.sdPct - p.truth.sdPct, 2);
            dev.add(std::string(
                p.estimated.meanPct >= p.truth.meanPct ? "yes" : "no"));
        }
        std::printf("\n-- estimate minus truth (%s) --\n", app.c_str());
        dev.print(std::cout);
    }
    return 0;
}
