/**
 * @file
 * Regenerates **Table 5.1** ("Results for all studies"): for each
 * application and both studies, the true and cross-validation-
 * estimated mean and standard deviation of percentage error at
 * training sets of roughly 1%, 2%, and 4% of the full design space.
 *
 * Defaults run the four applications the paper's body focuses on;
 * set DSE_APPS=gzip,mcf,crafty,twolf,mgrid,applu,mesa,equake for the
 * full table (the appendix_a binary covers the other four too).
 */

#include <cstdio>

#include "bench/common.hh"

using namespace dse;
using namespace dse::bench;

namespace {

void
runStudy(study::StudyKind kind, const BenchScope &scope, Table &table)
{
    for (const auto &app : scope.apps) {
        study::StudyContext ctx(kind, app, scope.traceLength);
        const uint64_t space = ctx.space().size();
        // The paper's columns: ~1%, ~2%, ~4% of the space.
        const std::vector<size_t> sizes = {
            static_cast<size_t>(0.01 * static_cast<double>(space)),
            static_cast<size_t>(0.02 * static_cast<double>(space)),
            static_cast<size_t>(0.04 * static_cast<double>(space)),
        };
        const auto curve =
            learningCurve(ctx, sizes, scope.evalPoints);
        for (const auto &p : curve) {
            table.newRow();
            table.add(std::string(study::studyName(kind)));
            table.add(app);
            table.add(p.samplePct, 2);
            table.add(p.truth.meanPct, 2);
            table.add(p.estimated.meanPct, 2);
            table.add(p.truth.sdPct, 2);
            table.add(p.estimated.sdPct, 2);
        }
    }
}

} // namespace

int
main()
{
    const auto scope = BenchScope::fromEnv(
        {"mesa", "mcf", "crafty", "equake"});

    std::printf("Table 5.1: true vs. estimated mean/SD of percentage "
                "error at ~1/2/4%% samples\n");
    std::printf("(apps: %s; eval points: %zu; set DSE_APPS/"
                "DSE_EVAL_POINTS to widen)\n",
                join(scope.apps, ",").c_str(), scope.evalPoints);

    Table table({"study", "app", "sample%", "true_mean%", "est_mean%",
                 "true_sd%", "est_sd%"});
    runStudy(study::StudyKind::MemorySystem, scope, table);
    runStudy(study::StudyKind::Processor, scope, table);
    if (csvOutput())
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    return 0;
}
