/**
 * @file
 * Simulation-worker daemon: serve SimulateBatch requests from a
 * RemoteDispatcher (dse_explore --workers) until SIGINT/SIGTERM, then
 * drain gracefully. Server settings come from the flags alone; one
 * without a flag keeps its remote::SimWorkerOptions default.
 *
 * The worker rebuilds each requested (study, app, trace length)
 * context on demand and memoizes per context, so repeat batches from
 * one exploration cost only the new points. Results are bit-identical
 * to the dispatcher simulating locally (purity + raw IEEE-754 wire
 * encoding), which is what makes worker failure recoverable by
 * re-dispatch or local fallback.
 *
 * Examples:
 *   dse_simworker --port=7080
 *   dse_simworker --port=0 --port-file=/tmp/w1.port
 *   DSE_FAULTS=remote.worker.crash:0.05:1 dse_simworker --port=7080
 */

#include <cstdio>
#include <string>

#include "cli.hh"
#include "daemon.hh"
#include "remote/worker.hh"

using namespace dse;

namespace {

struct Options
{
    remote::SimWorkerOptions worker;
    std::string portFile;
    cli::Metrics metrics;
};

const char *const kUsage =
    "usage: dse_simworker [options]\n"
    "  --addr=<ip>            bind address (default 127.0.0.1)\n"
    "  --port=<n>             TCP port (default 0 = ephemeral)\n"
    "  --port-file=<path>     write the bound port to a file\n"
    "  --threads=<n>          server worker threads (DSE_THREADS)\n"
    "  --max-batch=<n>        max design points per request (4096)\n"
    "  --delay-ms=<n>         remote.conn.delay sleep (250)\n"
    "  --fault-salt=<n>       mixed into fault-site keys so\n"
    "                         co-located workers fail independently\n"
    "  --metrics[=path]       dse::obs report at shutdown\n"
    "env: DSE_FAULTS (remote.worker.crash, remote.conn.delay)\n"
    "An injected crash exits 3.";

int
serveSimulations(const Options &opts)
{
    remote::SimWorker worker(opts.worker);
    worker.start();
    cli::serveUntilSignalled(worker.server(), "simulation worker",
                             opts.worker.server.addr, opts.portFile);

    std::printf("served %llu batches\n",
                static_cast<unsigned long long>(worker.batchesServed()));
    opts.metrics.report();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    // The daemon emulates crashes for real: the process exits without
    // a reply, exactly what the dispatcher's failover expects.
    opts.worker.crashExits = true;
    cli::Command cmd("dse_simworker", kUsage);
    cmd.value("--addr", opts.worker.server.addr)
        .value("--port", opts.worker.server.port)
        .value("--port-file", opts.portFile)
        .value("--threads", opts.worker.server.workers)
        .value("--max-batch", opts.worker.maxBatchPoints)
        .value("--delay-ms", opts.worker.delayMs)
        .value("--fault-salt", opts.worker.faultSalt)
        .metrics(opts.metrics);
    return cmd.run(argc, argv, [&] { return serveSimulations(opts); });
}
