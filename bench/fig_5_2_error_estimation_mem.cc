/**
 * @file
 * Regenerates **Figure 5.2** (and appendix A.2): estimated versus
 * true mean and standard deviation of percentage error as a function
 * of training-set size, for the **memory-system** study.
 *
 * The claim under test: cross-validation estimates track the true
 * error closely (within ~0.5% once >1% of the space is sampled) and
 * are conservative in the sparse regime (Section 5.2).
 */

#include <cstdio>

#include "bench/common.hh"

using namespace dse;
using namespace dse::bench;

int
main()
{
    const auto scope = BenchScope::fromEnv({"mesa"});
    std::printf("Figure 5.2: estimated vs true error, memory-system "
                "study\n(apps: %s; paper plots mesa, equake, mcf, "
                "crafty — set DSE_APPS)\n",
                join(scope.apps, ",").c_str());

    for (const auto &app : scope.apps) {
        study::StudyContext ctx(study::StudyKind::MemorySystem, app,
                                scope.traceLength);
        const auto sizes = curveSizes(ctx.space().size(),
                                      scope.maxSamplePct, scope.batch);
        const auto curve = learningCurve(ctx, sizes, scope.evalPoints);
        printCurve(app + " (memory system): estimate vs truth", curve);

        // The figure's takeaway: deviation of estimate from truth.
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
