/**
 * @file
 * Command-line front end for the library: run a predictive
 * design-space exploration of either paper study on any bundled
 * benchmark without writing code, save the trained model, and query
 * it later.
 *
 * Examples:
 *   dse_explore --study=processor --app=gzip --target-error=2
 *   dse_explore --study=memory --app=mcf --simpoint --max-sims=400 \
 *               --save-model=mcf.model --journal=mcf.journal
 *   dse_explore --study=memory --app=mcf --load-model=mcf.model \
 *               --predict=12345 --predict=99
 *   dse_explore --study=processor --app=crafty --describe-space
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cli.hh"
#include "ml/explorer.hh"
#include "ml/io.hh"
#include "remote/dispatcher.hh"
#include "study/harness.hh"
#include "workload/profile.hh"

using namespace dse;

namespace {

struct Options
{
    study::StudyKind kind = study::StudyKind::Processor;
    std::string app = "gzip";
    double targetError = 2.0;
    size_t batch = 50;
    size_t maxSims = 1000;
    bool simpoint = false;
    bool active = false;
    bool describeSpace = false;
    bool listApps = false;
    std::string saveModel;
    std::string loadModel;
    std::vector<uint64_t> predictIndices;
    int maxEpochs = 5000;
    cli::Metrics metrics;
    std::string workers;  ///< host:port,...
    std::string journal;
};

const char *const kUsage =
    "usage: dse_explore [options]\n"
    "  --study=memory|processor   design space (default processor)\n"
    "  --app=<name>               benchmark (default gzip)\n"
    "  --target-error=<pct>       stop threshold (default 2.0)\n"
    "  --batch=<n>                sims per round (default 50)\n"
    "  --max-sims=<n>             simulation cap (default 1000)\n"
    "  --max-epochs=<n>           per-network budget (default 5000)\n"
    "  --simpoint                 train on SimPoint estimates\n"
    "  --active                   active-learning sampling\n"
    "  --save-model=<path>        write the trained ensemble\n"
    "  --load-model=<path>        skip training, load a model\n"
    "  --predict=<index>          predict a design point (repeat)\n"
    "  --workers=<host:port,...>  remote simulation workers (failures\n"
    "                             fall back to local simulation)\n"
    "  --journal=<path>           crash-safe simulation journal: every\n"
    "                             result is appended as it completes,\n"
    "                             and a rerun replays it instead of\n"
    "                             simulating again\n"
    "  --describe-space           print the space and exit\n"
    "  --list-apps                print benchmark names and exit\n"
    "  --metrics[=path]           collect dse::obs metrics; print a\n"
    "                             table, or write JSON to <path>";

void
describeSpace(const ml::DesignSpace &space)
{
    std::printf("%llu design points, %zu parameters, %d encoded "
                "inputs\n",
                static_cast<unsigned long long>(space.size()),
                space.numParams(), space.encodedWidth());
    for (size_t p = 0; p < space.numParams(); ++p) {
        const auto &desc = space.param(p);
        std::printf("  %-16s", desc.name.c_str());
        if (desc.kind == ml::ParamKind::Nominal) {
            for (const auto &label : desc.labels)
                std::printf(" %s", label.c_str());
        } else {
            for (double v : desc.values)
                std::printf(" %g", v);
        }
        std::printf("\n");
    }
}

void
printPoint(study::StudyContext &ctx, const ml::Ensemble &model,
           uint64_t idx)
{
    const auto &space = ctx.space();
    if (idx >= space.size()) {
        std::printf("point %llu: out of range (space has %llu)\n",
                    static_cast<unsigned long long>(idx),
                    static_cast<unsigned long long>(space.size()));
        return;
    }
    const double pred = model.predict(space.encodeIndex(idx));
    std::printf("point %llu: predicted IPC %.4f  (spread %.4f)\n",
                static_cast<unsigned long long>(idx), pred,
                model.memberSpread(space.encodeIndex(idx)));
    const auto lv = space.levels(idx);
    for (size_t p = 0; p < space.numParams(); ++p) {
        if (space.param(p).kind == ml::ParamKind::Nominal) {
            std::printf("    %-16s %s\n", space.param(p).name.c_str(),
                        space.label(p, lv[p]).c_str());
        } else {
            std::printf("    %-16s %g\n", space.param(p).name.c_str(),
                        space.value(p, lv[p]));
        }
    }
}

int
explore(const Options &opts)
{
    if (opts.listApps) {
        for (const auto &name : workload::benchmarkNames())
            std::puts(name.c_str());
        return 0;
    }
    if (opts.describeSpace) {
        describeSpace(study::spaceFor(opts.kind));
        return 0;
    }

    // Refuse a malformed --workers before building the study.
    const auto endpoints = remote::parseEndpoints(opts.workers);
    study::StudyContext ctx(opts.kind, opts.app, 0, opts.journal);
    std::printf("%s study, %s: %llu design points, %zu-instruction "
                "trace\n",
                study::studyName(opts.kind), opts.app.c_str(),
                static_cast<unsigned long long>(ctx.space().size()),
                ctx.trace().size());

    std::unique_ptr<ml::Ensemble> model;
    if (!opts.loadModel.empty()) {
        model = std::make_unique<ml::Ensemble>(
            ml::loadEnsemble(opts.loadModel));
        std::printf("loaded model from %s (stored estimate "
                    "%.2f%% +- %.2f%%)\n",
                    opts.loadModel.c_str(), model->estimate().meanPct,
                    model->estimate().sdPct);
    } else {
        ml::ExplorerOptions eopts;
        eopts.batchSize = opts.batch;
        eopts.targetMeanPct = opts.targetError;
        eopts.maxSimulations = opts.maxSims;
        eopts.activeLearning = opts.active;
        eopts.train.maxEpochs = opts.maxEpochs;

        remote::DispatcherOptions dopts;
        dopts.endpoints = endpoints;
        dopts.simpoint = opts.simpoint;
        remote::RemoteDispatcher dispatcher(ctx, dopts);
        if (dispatcher.active()) {
            std::printf("remote: %zu simulation worker(s); failures "
                        "fall back to local simulation\n",
                        dopts.endpoints.size());
        }
        // Simulate each round's batch up front: on the workers first
        // when there are any, then whatever is left on the thread
        // pool. The per-index calls below then hit the memo cache.
        eopts.prefetch = [&](const std::vector<uint64_t> &batch) {
            dispatcher.simulateBatch(batch);
        };

        auto simulate = [&](uint64_t i) {
            return opts.simpoint ? ctx.simulateSimPointIpc(i)
                                 : ctx.simulateIpc(i);
        };
        ml::Explorer explorer(ctx.space(), simulate, eopts);
        for (const auto &step : explorer.run()) {
            std::printf("  %4zu sims: estimated error %.2f%% "
                        "+- %.2f%%\n",
                        step.totalSamples, step.estimate.meanPct,
                        step.estimate.sdPct);
        }
        model = std::make_unique<ml::Ensemble>(explorer.ensemble());
        std::printf("done: %zu simulations%s\n",
                    explorer.sampledIndices().size(),
                    opts.simpoint ? " (SimPoint estimates)" : "");
        if (dispatcher.active()) {
            const auto st = dispatcher.stats();
            std::printf("remote: %llu dispatched, %llu completed, "
                        "%llu retries, %llu redispatches, "
                        "%llu local fallbacks\n",
                        static_cast<unsigned long long>(st.dispatched),
                        static_cast<unsigned long long>(st.completed),
                        static_cast<unsigned long long>(st.retries),
                        static_cast<unsigned long long>(st.redispatches),
                        static_cast<unsigned long long>(st.fallbacks));
        }
    }

    if (!opts.saveModel.empty()) {
        ml::saveEnsemble(opts.saveModel, *model);
        std::printf("model saved to %s\n", opts.saveModel.c_str());
    }
    for (uint64_t idx : opts.predictIndices)
        printPoint(ctx, *model, idx);

    opts.metrics.report();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    cli::Command cmd("dse_explore", kUsage);
    cmd.value("--study", opts.kind)
        .value("--app", opts.app)
        .value("--target-error", opts.targetError)
        .value("--batch", opts.batch)
        .value("--max-sims", opts.maxSims)
        .value("--max-epochs", opts.maxEpochs)
        .value("--save-model", opts.saveModel)
        .value("--load-model", opts.loadModel)
        .value("--predict", opts.predictIndices)
        .value("--workers", opts.workers)
        .value("--journal", opts.journal)
        .flag("--simpoint", opts.simpoint)
        .flag("--active", opts.active)
        .flag("--describe-space", opts.describeSpace)
        .flag("--list-apps", opts.listApps)
        .metrics(opts.metrics);
    return cmd.run(argc, argv, [&] { return explore(opts); });
}
