/**
 * @file
 * Prediction-service daemon: load (or train) an ensemble model and
 * serve it over the dse::serve wire protocol until SIGINT/SIGTERM,
 * then drain gracefully.
 *
 * Examples:
 *   dse_serve --model=mcf.model --study=memory --port=7070
 *   dse_serve --study=memory --app=gzip --train --max-sims=200
 *   dse_serve --port=0 --port-file=/tmp/port --metrics=serve.json
 */

#include <cstdio>
#include <optional>
#include <string>

#include "cli.hh"
#include "daemon.hh"
#include "ml/io.hh"
#include "serve/server.hh"
#include "study/spaces.hh"

using namespace dse;

namespace {

struct Options
{
    serve::ServerOptions server = serve::ServerOptions::fromEnv();
    std::string model;  ///< ensemble file to serve
    std::optional<study::StudyKind> kind;
    std::string app;
    bool train = false;
    size_t maxSims = 200;
    int maxEpochs = 2000;
    std::string portFile;  ///< write the bound port here (scripts)
    cli::Metrics metrics;
};

const char *const kUsage =
    "usage: dse_serve [options]\n"
    "  --model=<path>             serve a saved ensemble file\n"
    "  --study=memory|processor   attach a design space (enables\n"
    "                             PredictRange; required to train)\n"
    "  --app=<name>               benchmark to train on\n"
    "  --train                    train at startup (needs study+app)\n"
    "  --max-sims=<n>             training simulation cap (200)\n"
    "  --max-epochs=<n>           per-network epoch cap (2000)\n"
    "  --addr=<ip>                bind address (default 127.0.0.1)\n"
    "  --port=<n>                 TCP port (default 0 = ephemeral)\n"
    "  --port-file=<path>         write the bound port to a file\n"
    "  --workers=<n>              worker threads (default DSE_THREADS)\n"
    "  --queue=<n>                request-queue capacity (256)\n"
    "  --batch=<n>                max coalesced points (1024)\n"
    "  --metrics[=path]           dse::obs report at shutdown\n"
    "env: DSE_SERVE_ADDR, DSE_SERVE_BATCH, DSE_SERVE_QUEUE,\n"
    "     DSE_SERVE_WORKERS, DSE_SERVE_IDLE_MS, DSE_SERVE_WRITE_MS\n"
    "     (flags win over env)";

int
serveModel(const Options &opts)
{
    if (opts.train && (!opts.kind || opts.app.empty()))
        throw cli::UsageError("--train needs --study and --app");

    serve::ModelState state;
    if (opts.kind) {
        state.space = std::make_shared<const ml::DesignSpace>(
            study::spaceFor(*opts.kind));
        state.study = study::studyName(*opts.kind);
        state.app = opts.app;
    }
    if (!opts.model.empty()) {
        state.ensemble = std::make_shared<const ml::Ensemble>(
            ml::loadEnsemble(opts.model));
        std::printf("model loaded from %s (%zu members)\n",
                    opts.model.c_str(), state.ensemble->members());
    } else if (opts.train) {
        std::printf("training %s/%s (max %zu sims)...\n",
                    study::studyName(*opts.kind), opts.app.c_str(),
                    opts.maxSims);
        state.ensemble = std::make_shared<const ml::Ensemble>(
            serve::trainOneRound(*opts.kind, opts.app, opts.maxSims,
                                 opts.maxEpochs));
        std::printf("trained: estimated error %.2f%% +- %.2f%%\n",
                    state.ensemble->estimate().meanPct,
                    state.ensemble->estimate().sdPct);
    } else {
        std::printf("no model at startup; waiting for LoadModel\n");
    }

    serve::Server server(opts.server);
    if (state.ensemble || state.space)
        server.setModel(std::move(state));
    server.start();
    cli::serveUntilSignalled(server, "serving", opts.server.addr,
                             opts.portFile);

    const auto stats = server.statsSnapshot();
    std::printf("served %llu requests (%llu predictions, "
                "%llu coalesced, %llu overloaded, %llu protocol "
                "errors) over %llu connections\n",
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(stats.predictions),
                static_cast<unsigned long long>(stats.batchedRequests),
                static_cast<unsigned long long>(stats.overloaded),
                static_cast<unsigned long long>(stats.protocolErrors),
                static_cast<unsigned long long>(
                    stats.connectionsAccepted));

    opts.metrics.report();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    cli::Command cmd("dse_serve", kUsage);
    cmd.value("--model", opts.model)
        .value("--study", opts.kind)
        .value("--app", opts.app)
        .value("--max-sims", opts.maxSims)
        .value("--max-epochs", opts.maxEpochs)
        .value("--addr", opts.server.addr)
        .value("--port", opts.server.port)
        .value("--port-file", opts.portFile)
        .value("--workers", opts.server.workers)
        .value("--queue", opts.server.queueCapacity)
        .value("--batch", opts.server.maxBatchPoints)
        .flag("--train", opts.train)
        .metrics(opts.metrics);
    return cmd.run(argc, argv, [&] { return serveModel(opts); });
}
