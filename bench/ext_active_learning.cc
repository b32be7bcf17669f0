/**
 * @file
 * Future-work extension bench (Chapter 7): **active learning** —
 * instead of sampling the design space uniformly, let the ensemble
 * pick the points its members disagree on most (query by committee).
 * Compares error versus simulations spent against random sampling,
 * and also exercises the cross-application idea by reporting both an
 * easy and a hard application.
 */

#include <cstdio>

#include "bench/common.hh"
#include "ml/explorer.hh"

using namespace dse;
using namespace dse::bench;

namespace {

void
compareStrategies(const std::string &app, size_t trace_length,
                  size_t eval_points)
{
    std::printf("\n== %s (processor study) ==\n", app.c_str());
    Table t({"strategy", "samples", "est_mean%", "true_mean%"});

    for (bool active : {false, true}) {
        study::StudyContext ctx(study::StudyKind::Processor, app,
                                trace_length);
        ml::ExplorerOptions opts;
        opts.batchSize = 50;
        opts.maxSimulations = 250;
        opts.targetMeanPct = 0.0;  // run to the cap
        opts.activeLearning = active;
        opts.candidatePool = 400;
        opts.train = benchTrainOptions();

        ml::Explorer explorer(
            ctx.space(),
            [&](uint64_t i) { return ctx.simulateIpc(i); }, opts);
        const auto history = explorer.run();

        const auto eval = study::holdoutIndices(
            ctx.space(), explorer.sampledIndices(), eval_points, 17);
        const auto err = study::measureTrueError(
            ctx, explorer.ensemble(), eval);
        t.newRow();
        t.add(std::string(active ? "active (committee spread)"
                                 : "random sampling"));
        t.add(static_cast<long long>(explorer.sampledIndices().size()));
        t.add(history.back().estimate.meanPct, 2);
        t.add(err.meanPct, 2);
    }
    t.print(std::cout);
}

} // namespace

int
main()
{
    const auto scope = BenchScope::fromEnv({"mesa", "twolf"});
    std::printf("Extension: active learning vs random sampling "
                "(Chapter 7 future work)\n(apps: %s)\n",
                join(scope.apps, ",").c_str());
    for (const auto &app : scope.apps)
        compareStrategies(app, scope.traceLength,
                          std::min<size_t>(scope.evalPoints, 600));
    return 0;
}
