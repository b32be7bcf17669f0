/**
 * @file
 * Future-work extension bench (Chapter 7): **cross-application
 * modeling** — make the application identity a one-hot model input
 * and train one joint ensemble over several benchmarks. Where the
 * benchmarks share response structure, the joint model reaches a
 * given accuracy from fewer simulations *per application* than
 * separate models do.
 *
 * Also exercises the **SMARTS** systematic-sampling substrate named
 * in Chapter 2 as a companion to SimPoint, comparing the two partial-
 * simulation estimators' noise at matched instruction budgets.
 */

#include <cstdio>

#include "bench/common.hh"
#include "ml/crossapp.hh"
#include "simpoint/smarts.hh"
#include "util/stats.hh"

using namespace dse;
using namespace dse::bench;

namespace {

void
crossAppComparison(const std::vector<std::string> &apps,
                   size_t per_app, size_t eval_points,
                   size_t trace_length)
{
    std::printf("\n== joint vs per-app models (%zu sims per app) ==\n",
                per_app);
    // Shared space, shared sample indices.
    std::vector<std::unique_ptr<study::StudyContext>> ctxs;
    for (const auto &app : apps) {
        ctxs.push_back(std::make_unique<study::StudyContext>(
            study::StudyKind::Processor, app, trace_length));
    }
    const auto &space = ctxs.front()->space();
    ml::CrossAppSpace joint(space, apps);

    Rng rng(41);
    const auto train_idx =
        rng.sampleWithoutReplacement(space.size(), per_app);
    const auto eval = study::holdoutIndices(space, train_idx,
                                            eval_points, 43);

    // Joint model over all apps' samples.
    std::vector<ml::CrossAppSample> samples;
    for (size_t a = 0; a < apps.size(); ++a) {
        for (uint64_t idx : train_idx)
            samples.push_back({a, idx, ctxs[a]->simulateIpc(idx)});
    }
    const auto joint_model =
        ml::trainCrossAppEnsemble(joint, samples, benchTrainOptions());

    Table t({"app", "per-app_model%", "joint_model%"});
    for (size_t a = 0; a < apps.size(); ++a) {
        // Per-app baseline on the same sample.
        ml::DataSet solo;
        for (uint64_t idx : train_idx)
            solo.add(space.encodeIndex(idx), ctxs[a]->simulateIpc(idx));
        const auto solo_model =
            ml::trainEnsemble(solo, benchTrainOptions());

        std::vector<double> solo_err, joint_err;
        for (uint64_t idx : eval) {
            const double truth = ctxs[a]->simulateIpc(idx);
            solo_err.push_back(percentageError(
                solo_model.predict(space.encodeIndex(idx)), truth));
            joint_err.push_back(percentageError(
                joint_model.predict(joint.encode(a, idx)), truth));
        }
        t.newRow();
        t.add(apps[a]);
        t.add(mean(solo_err), 2);
        t.add(mean(joint_err), 2);
    }
    t.print(std::cout);
}

void
smartsVsSimPoint(const std::string &app, size_t trace_length)
{
    std::printf("\n== SMARTS vs SimPoint estimator noise (%s) ==\n",
                app.c_str());
    study::StudyContext ctx(study::StudyKind::Processor, app,
                            trace_length);
    // Match budgets: SMARTS cadence chosen so both simulate a similar
    // number of detailed instructions.
    const size_t sp_instr = ctx.simPoints().detailedInstructions();
    simpoint::SmartsOptions smarts;
    smarts.unitInstructions =
        std::max<size_t>(256, ctx.trace().size() / 64);
    smarts.cadence = std::max<size_t>(
        1, ctx.trace().size() / std::max<size_t>(1, sp_instr) / 2);

    Rng rng(47);
    std::vector<double> sp_err, sm_err;
    size_t sm_instr = 0;
    for (int i = 0; i < 12; ++i) {
        const uint64_t idx = rng.below(ctx.space().size());
        const double full = ctx.simulateIpc(idx);
        sp_err.push_back(percentageError(
            ctx.simulateSimPointIpc(idx), full));
        const auto est = simpoint::smartsEstimateIpc(
            ctx.trace(), ctx.config(idx), smarts, &ctx.warmStart());
        sm_instr = est.instructionsSimulated;
        sm_err.push_back(percentageError(est.ipc, full));
    }
    Table t({"estimator", "detailed_instr", "mean_err%", "sd_err%"});
    t.newRow();
    t.add(std::string("SimPoint (calibrated)"));
    t.add(static_cast<long long>(sp_instr));
    t.add(mean(sp_err), 2);
    t.add(stddev(sp_err), 2);
    t.newRow();
    t.add(std::string("SMARTS (systematic)"));
    t.add(static_cast<long long>(sm_instr));
    t.add(mean(sm_err), 2);
    t.add(stddev(sm_err), 2);
    t.print(std::cout);
}

} // namespace

int
main()
{
    const auto scope = study::BenchScope::fromEnv({"gzip", "crafty"});
    std::printf("Extension: cross-application modeling and SMARTS "
                "sampling (Chapters 2 and 7)\n(apps: %s)\n",
                join(scope.apps, ",").c_str());
    crossAppComparison(scope.apps, 150,
                       std::min<size_t>(scope.evalPoints, 400),
                       scope.traceLength);
    smartsVsSimPoint(scope.apps.front(), scope.traceLength);
    return 0;
}
