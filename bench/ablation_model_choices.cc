/**
 * @file
 * Ablation of the modeling design choices the paper motivates in
 * Sections 3.2-3.3 (DESIGN.md "ablation benches"):
 *
 *  - ensemble average vs a single network trained the same way;
 *  - weighted (1/IPC) presentation vs uniform presentation;
 *  - early stopping on vs off;
 *  - fold count (5 / 10 / 20);
 *  - hidden-layer width (8 / 16 / 32).
 *
 * Each variant trains on the same 2% sample of the memory-system
 * space and is measured on the same holdout.
 */

#include <cstdio>

#include "bench/common.hh"
#include "util/stats.hh"

using namespace dse;
using namespace dse::bench;

int
main()
{
    const auto scope = BenchScope::fromEnv({"mesa"});
    const std::string app = scope.apps.front();
    std::printf("Ablation: modeling design choices (%s, memory-system "
                "study, 2%% sample)\n", app.c_str());

    study::StudyContext ctx(study::StudyKind::MemorySystem, app,
                            scope.traceLength);
    Rng rng(31);
    const size_t n = static_cast<size_t>(
        0.02 * static_cast<double>(ctx.space().size()));
    const auto train_idx =
        rng.sampleWithoutReplacement(ctx.space().size(), n);
    ml::DataSet data;
    for (uint64_t idx : train_idx)
        data.add(ctx.space().encodeIndex(idx), ctx.simulateIpc(idx));
    const auto eval = study::holdoutIndices(ctx.space(), train_idx,
                                            scope.evalPoints, 33);

    Table t({"variant", "est_mean%", "true_mean%", "true_sd%"});
    auto report = [&](const std::string &name,
                      const ml::TrainOptions &opts) {
        const auto model = ml::trainEnsemble(data, opts);
        const auto err = study::measureTrueError(ctx, model, eval);
        t.newRow();
        t.add(name);
        t.add(model.estimate().meanPct, 2);
        t.add(err.meanPct, 2);
        t.add(err.sdPct, 2);
        std::fprintf(stderr, "  %-28s true=%.2f%%\n", name.c_str(),
                     err.meanPct);
    };

    const auto base = benchTrainOptions();
    report("baseline (paper setup)", base);

    {
        auto opts = base;
        opts.weightedPresentation = false;
        report("uniform presentation", opts);
    }
    {
        auto opts = base;
        opts.earlyStopping = false;
        report("no early stopping", opts);
    }
    {
        auto opts = base;
        opts.folds = 5;
        report("5 folds", opts);
    }
    {
        auto opts = base;
        opts.folds = 20;
        report("20 folds", opts);
    }
    {
        auto opts = base;
        opts.ann.hiddenUnits = 8;
        report("8 hidden units", opts);
    }
    {
        auto opts = base;
        opts.ann.hiddenUnits = 32;
        report("32 hidden units", opts);
    }

    // Single network vs the ensemble: train one member on all data
    // by collapsing to 2 folds and reading a single member.
    {
        auto opts = base;
        const auto model = ml::trainEnsemble(data, opts);
        std::vector<double> errors;
        for (uint64_t idx : eval) {
            const double pred = model.predictMember(
                0, ctx.space().encodeIndex(idx));
            errors.push_back(
                percentageError(pred, ctx.simulateIpc(idx)));
        }
        t.newRow();
        t.add(std::string("single member (no averaging)"));
        t.add(model.estimate().meanPct, 2);
        t.add(mean(errors), 2);
        t.add(stddev(errors), 2);
    }

    t.print(std::cout);
    std::printf("\nExpected shape: baseline <= each ablated variant; "
                "averaging beats any single member (Section 3.2).\n");
    return 0;
}
