/**
 * @file
 * Regenerates **Appendix A (Figures A.1-A.3)**: the learning curves
 * and error-estimation plots for the four applications not shown in
 * the paper's body (applu, mgrid, gzip, twolf), on both studies.
 *
 * Defaults run a single appendix application; the full appendix is
 * DSE_APPS=applu,mgrid,gzip,twolf.
 */

#include <cstdio>

#include "bench/common.hh"

using namespace dse;
using namespace dse::bench;

int
main()
{
    const auto scope = BenchScope::fromEnv({"applu"});
    std::printf("Appendix A (Figures A.1-A.3): remaining applications"
                "\n(apps: %s; full appendix: "
                "DSE_APPS=applu,mgrid,gzip,twolf)\n",
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
            printCurve(app + " (" + study::studyName(kind) +
                           "): curve + estimate-vs-truth",
                       curve);
        }
    }
    return 0;
}
