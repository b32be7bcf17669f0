/**
 * @file
 * Closed-loop load generator for the prediction service: N client
 * threads, one connection each, issuing back-to-back PredictPoints
 * (or PredictRange) requests and recording per-request latency.
 * Reports p50/p95/p99/mean latency and request/prediction throughput;
 * --json emits the google-benchmark-shaped file run_benches.sh
 * archives as BENCH_serve.json.
 *
 * Examples:
 *   dse_loadgen --port=7070 --connections=8 --requests=5000
 *   dse_loadgen --port-file=/tmp/port --points=16 --duration=5
 *   dse_loadgen --port=7070 --range=256 --json=BENCH_serve.json
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "cli.hh"
#include "serve/client.hh"

using namespace dse;
using Clock = std::chrono::steady_clock;

namespace {

struct Options
{
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    std::string portFile;
    size_t connections = 4;
    size_t requests = 2000;  ///< per connection (0 = until duration)
    size_t points = 1;       ///< points per PredictPoints request
    size_t range = 0;        ///< nonzero: PredictRange of this count
    double durationS = 0;    ///< nonzero: time-bounded instead
    std::string jsonPath;
};

const char *const kUsage =
    "usage: dse_loadgen [options]\n"
    "  --host=<ip>           server address (default 127.0.0.1)\n"
    "  --port=<n>            server port\n"
    "  --port-file=<path>    read the port from a file (dse_serve\n"
    "                        --port-file)\n"
    "  --connections=<n>     concurrent client connections (4)\n"
    "  --requests=<n>        requests per connection (2000)\n"
    "  --points=<n>          points per PredictPoints request (1)\n"
    "  --range=<n>           use PredictRange of this count instead\n"
    "  --duration=<sec>      run for a fixed time instead of a\n"
    "                        fixed request count\n"
    "  --json=<path>         write a benchmark-format JSON report";

struct WorkerResult
{
    std::vector<uint64_t> latenciesNs;
    uint64_t requests = 0;
    uint64_t predictions = 0;
    uint64_t overloaded = 0;       ///< queue-full refusals (retried)
    uint64_t timeouts = 0;         ///< deadline expiries (reconnect)
    uint64_t disconnects = 0;      ///< peer closed/reset (reconnect)
    uint64_t connectFailures = 0;  ///< failed connect attempts
    uint64_t errors = 0;           ///< anything not classified above
};

double
percentile(std::vector<uint64_t> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double rank = p / 100.0 *
        static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return static_cast<double>(sorted[lo]) * (1.0 - frac) +
        static_cast<double>(sorted[hi]) * frac;
}

/** The port in a daemon's port file: its whole text, but for one
 *  trailing newline, is an integer in [1, 65535]. */
uint16_t
readPortFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::invalid_argument("cannot read port file " + path);
    std::string text{std::istreambuf_iterator<char>(in), {}};
    if (!text.empty() && text.back() == '\n')
        text.pop_back();
    unsigned port = 0;
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, port);
    if (ec != std::errc() || stop != end || port < 1 || port > 65535)
        throw std::invalid_argument("port file " + path + " holds '" +
                                    text + "', not a port in [1, 65535]");
    return static_cast<uint16_t>(port);
}

int
generateLoad(Options opts)
{
    if (opts.connections == 0 || opts.points == 0)
        throw cli::UsageError("--connections/--points must be > 0");
    if (!opts.portFile.empty())
        opts.port = readPortFile(opts.portFile);
    if (opts.port == 0)
        throw std::invalid_argument("--port or --port-file required");

    // Probe the model once: feature width for PredictPoints payloads,
    // space size to bound PredictRange offsets. An unreachable server
    // is an outcome the report must show, not a crash: retry briefly,
    // then emit an all-zero report with the failures counted.
    size_t width = 0;
    uint64_t spaceSize = 0;
    uint64_t probeFailures = 0;
    for (int tries = 0; tries < 5 && width == 0; ++tries) {
        serve::Client probe;
        try {
            probe.connect(opts.host, opts.port);
            const auto info = probe.modelInfo();
            if (info.inputs == 0)
                throw std::invalid_argument(
                    "server has no model loaded");
            if (opts.range > 0 && info.spaceSize == 0)
                throw std::invalid_argument(
                    "--range needs a server-side design space");
            width = info.inputs;
            spaceSize = info.spaceSize;
        } catch (const std::invalid_argument &) {
            throw;  // a usage error, not an availability outcome
        } catch (const std::exception &) {
            ++probeFailures;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10 << tries));
        }
    }

    std::vector<WorkerResult> results(opts.connections);
    std::vector<std::thread> threads;
    std::atomic<bool> deadline{false};

    const auto t0 = Clock::now();
    for (size_t c = 0; width > 0 && c < opts.connections; ++c) {
        threads.emplace_back([&, c] {
            WorkerResult &res = results[c];
            serve::Client client;
            // A refused or flaky connect is an outcome to report, not
            // a reason to kill the whole run: retry with a short
            // backoff, then give up on this connection only.
            auto reconnect = [&]() -> bool {
                for (int tries = 0; tries < 5; ++tries) {
                    if (deadline.load(std::memory_order_relaxed))
                        return false;
                    try {
                        client.connect(opts.host, opts.port);
                        return true;
                    } catch (const std::exception &) {
                        ++res.connectFailures;
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(10 << tries));
                    }
                }
                return false;
            };
            if (!reconnect())
                return;
            // Deterministic per-connection feature pattern inside the
            // encoder's [0,1] range; values only need to be valid,
            // not meaningful, to exercise the prediction path.
            std::vector<double> x(opts.points * width);
            for (size_t i = 0; i < x.size(); ++i)
                x[i] = static_cast<double>((i * 2654435761u + c) %
                                           1000) /
                    999.0;
            res.latenciesNs.reserve(
                opts.requests ? opts.requests : 65536);
            for (size_t r = 0; opts.requests == 0 || r < opts.requests;
                 ++r) {
                if (deadline.load(std::memory_order_relaxed))
                    break;
                const auto start = Clock::now();
                try {
                    if (opts.range > 0) {
                        const uint64_t first =
                            (r * opts.range) %
                            (spaceSize - opts.range + 1);
                        client.predictRange(first, opts.range);
                        res.predictions += opts.range;
                    } else {
                        client.predictPoints(x.data(), opts.points,
                                             width);
                        res.predictions += opts.points;
                    }
                } catch (const serve::ServeError &e) {
                    switch (e.code()) {
                      case serve::ErrCode::Overloaded:
                        // The server doing its job; just retry.
                        ++res.overloaded;
                        continue;
                      case serve::ErrCode::Timeout:
                        // A reply may still be in flight; reusing the
                        // stream would desynchronize correlation, so
                        // reconnect clean.
                        ++res.timeouts;
                        client.close();
                        if (!reconnect())
                            return;
                        continue;
                      case serve::ErrCode::Disconnected:
                        ++res.disconnects;
                        client.close();
                        if (!reconnect())
                            return;
                        continue;
                      default:
                        ++res.errors;
                        return;
                    }
                }
                const auto ns =
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - start)
                        .count();
                res.latenciesNs.push_back(static_cast<uint64_t>(ns));
                ++res.requests;
            }
        });
    }
    if (opts.durationS > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(opts.durationS));
        deadline.store(true, std::memory_order_relaxed);
    }
    for (auto &t : threads)
        t.join();
    const double wallS =
        std::chrono::duration<double>(Clock::now() - t0).count();

    std::vector<uint64_t> all;
    uint64_t requests = 0, predictions = 0, errors = 0;
    uint64_t overloaded = 0, timeouts = 0, disconnects = 0;
    uint64_t connect_failures = 0;
    for (auto &res : results) {
        all.insert(all.end(), res.latenciesNs.begin(),
                   res.latenciesNs.end());
        requests += res.requests;
        predictions += res.predictions;
        overloaded += res.overloaded;
        timeouts += res.timeouts;
        disconnects += res.disconnects;
        connect_failures += res.connectFailures;
        errors += res.errors;
    }
    connect_failures += probeFailures;
    std::sort(all.begin(), all.end());

    const double p50 = percentile(all, 50), p95 = percentile(all, 95),
                 p99 = percentile(all, 99);
    double mean = 0;
    for (uint64_t v : all)
        mean += static_cast<double>(v);
    if (!all.empty())
        mean /= static_cast<double>(all.size());
    const double rps = static_cast<double>(requests) / wallS;
    const double pps = static_cast<double>(predictions) / wallS;

    std::printf("%zu connections, %llu requests, %llu predictions "
                "in %.2fs\n",
                opts.connections,
                static_cast<unsigned long long>(requests),
                static_cast<unsigned long long>(predictions), wallS);
    std::printf("outcomes: %llu overloaded, %llu timeouts, "
                "%llu disconnects, %llu connect failures, "
                "%llu other errors\n",
                static_cast<unsigned long long>(overloaded),
                static_cast<unsigned long long>(timeouts),
                static_cast<unsigned long long>(disconnects),
                static_cast<unsigned long long>(connect_failures),
                static_cast<unsigned long long>(errors));
    std::printf("throughput: %.0f req/s, %.0f predictions/s\n", rps,
                pps);
    std::printf("latency us: p50 %.1f  p95 %.1f  p99 %.1f  mean %.1f\n",
                p50 / 1e3, p95 / 1e3, p99 / 1e3, mean / 1e3);

    if (!opts.jsonPath.empty()) {
        FILE *f = std::fopen(opts.jsonPath.c_str(), "w");
        if (!f)
            throw std::runtime_error("cannot write " + opts.jsonPath);
        const std::string name = opts.range > 0
            ? "serve/predict_range/" + std::to_string(opts.range)
            : "serve/predict_points/" + std::to_string(opts.points);
        const int written = std::fprintf(
            f,
            "{\n"
            "  \"context\": {\n"
            "    \"executable\": \"dse_loadgen\",\n"
            "    \"connections\": %zu,\n"
            "    \"points_per_request\": %zu\n"
            "  },\n"
            "  \"benchmarks\": [\n"
            "    {\n"
            "      \"name\": \"%s\",\n"
            "      \"run_type\": \"iteration\",\n"
            "      \"iterations\": %llu,\n"
            "      \"real_time\": %.1f,\n"
            "      \"cpu_time\": %.1f,\n"
            "      \"time_unit\": \"ns\",\n"
            "      \"requests_per_second\": %.1f,\n"
            "      \"predictions_per_second\": %.1f,\n"
            "      \"latency_p50_ns\": %.1f,\n"
            "      \"latency_p95_ns\": %.1f,\n"
            "      \"latency_p99_ns\": %.1f,\n"
            "      \"overloaded\": %llu,\n"
            "      \"timeouts\": %llu,\n"
            "      \"disconnects\": %llu,\n"
            "      \"connect_failures\": %llu,\n"
            "      \"errors\": %llu\n"
            "    }\n"
            "  ]\n"
            "}\n",
            opts.connections, opts.points, name.c_str(),
            static_cast<unsigned long long>(requests), mean, mean, rps,
            pps, p50, p95, p99,
            static_cast<unsigned long long>(overloaded),
            static_cast<unsigned long long>(timeouts),
            static_cast<unsigned long long>(disconnects),
            static_cast<unsigned long long>(connect_failures),
            static_cast<unsigned long long>(errors));
        if (std::fclose(f) != 0 || written < 0)
            throw std::runtime_error("cannot write " + opts.jsonPath +
                                     ": " + std::strerror(errno));
        std::printf("report written to %s\n", opts.jsonPath.c_str());
    }
    if (requests == 0) {
        std::fprintf(stderr,
                     "dse_loadgen: no request completed (see the "
                     "outcome counters above)\n");
        return 3;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    cli::Command cmd("dse_loadgen", kUsage);
    cmd.value("--host", opts.host)
        .value("--port", opts.port)
        .value("--port-file", opts.portFile)
        .value("--connections", opts.connections)
        .value("--requests", opts.requests)
        .value("--points", opts.points)
        .value("--range", opts.range)
        .value("--duration", opts.durationS)
        .value("--json", opts.jsonPath);
    return cmd.run(argc, argv, [&] { return generateLoad(opts); });
}
