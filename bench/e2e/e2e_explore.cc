/**
 * @file
 * e2e_explore — the end-to-end exploration benchmark driver (see
 * bench/e2e/README.md for the workloads, metrics and how to read a
 * trace).
 *
 * One process runs one workload: a fixed-budget exploration through
 * the public library API, exactly as dse_explore drives it — a
 * StudyContext, a closed loop of Explorer::step() calls, then
 * Explorer::predictSpace(). The exploration repeats for the measuring
 * window, each repetition from a fresh context, journal directory and
 * (on mcf-remote) fresh simulation workers, so nothing is memoized
 * across repetitions. Every repetition of one seed must produce the
 * same result digest; the last one is then scored against a
 * detailed-simulation holdout.
 *
 * Untraced, the driver reports the end-to-end metrics (median
 * explore_s and setup_s, peak RSS). With --trace-out it alternates
 * untraced and traced repetitions: traced ones record the driver's own
 * spans around each call into a layer, arm the dse::obs registry for
 * the counts the driver cannot see from outside, and yield the
 * per-layer metrics; the untraced ones give the tracing overhead.
 *
 * Usage:
 *   e2e_explore --workload=NAME [--seed=N] [--seconds=S]
 *               [--trace-out=PATH] [--scratch=DIR] [--smoke]
 *
 * Stdout carries one "workload metric value unit" line per metric,
 * '#' info lines, and last one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * Exit codes: 0 ran (check "correct"), 1 bad usage, 3 run failed.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "ml/explorer.hh"
#include "remote/dispatcher.hh"
#include "remote/worker.hh"
#include "study/harness.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

using namespace dse;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/**
 * Peak resident set of this process image in MB (VmHWM). getrusage's
 * ru_maxrss is no use here: Linux carries the launching process's
 * high-water mark across exec, so it reports the launcher's peak
 * whenever that is the larger.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/** Nearest-rank percentile (p in [0, 100]); 0 for an empty sample. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 50.0);
}

enum class Backend { Detailed, SimPoint, Remote };

/** One benchmark workload (README.md says why each was chosen). */
struct Workload
{
    const char *name;
    study::StudyKind kind;
    const char *app;
    size_t traceLength;  ///< dynamic instructions per simulation
    Backend backend;
    bool active;    ///< query-by-committee sampling (pool 500)
    size_t batch;   ///< simulations per round
    size_t budget;  ///< total simulations: fixed, never a target error
};

const Workload kWorkloads[] = {
    {"mcf-detailed", study::StudyKind::MemorySystem, "mcf", 65536,
     Backend::Detailed, false, 50, 100},
    {"mcf-simpoint", study::StudyKind::MemorySystem, "mcf", 65536,
     Backend::SimPoint, false, 50, 100},
    {"gzip-active", study::StudyKind::Processor, "gzip", 16384,
     Backend::Detailed, true, 25, 250},
    {"mcf-remote", study::StudyKind::MemorySystem, "mcf", 65536,
     Backend::Remote, false, 50, 100},
};

constexpr size_t kHoldoutPoints = 128;
constexpr size_t kRemoteWorkers = 2;
constexpr size_t kRemoteWorkerThreads = 2;
constexpr size_t kRemoteCheckPoints = 8;
/** Set-ups measured on their own before the timed repetitions, so
 *  setup_s is a median of many even when few repetitions fit. */
constexpr int kSetupSamples = 41;

struct Options
{
    std::string workload;
    uint64_t seed = 99;
    double seconds = 20.0;
    std::string traceOut;  ///< non-empty = traced run, chrome trace here
    std::string scratch = ".bench_build/e2e/scratch";
    bool smoke = false;
};

/**
 * The driver's own spans around each call into a layer: name, start,
 * end, parent and repetition ("run") id, kept in memory and written as
 * chrome-trace JSON at exit. Every span opens and closes on the
 * driver's thread (the explorer calls its simulator and prefetch hook
 * there), so parents form a stack.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        double start, end;  ///< seconds since the tracer was made
        int parent;         ///< index into spans(), -1 for a root
        int run;
    };

    bool on = false;
    int run = 0;

    void
    open(const char *name)
    {
        spans_.push_back({name, now(), 0.0,
                          stack_.empty() ? -1 : stack_.back(), run});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
    }

    void
    close()
    {
        spans_[stack_.back()].end = now();
        stack_.pop_back();
    }

    /** Durations (s) of every span called @p name, in run @p run
     *  (any run when negative). */
    std::vector<double>
    durations(const char *name, int run = -1) const
    {
        std::vector<double> out;
        for (const auto &s : spans_) {
            if (std::strcmp(s.name, name) == 0 && (run < 0 || s.run == run))
                out.push_back(s.end - s.start);
        }
        return out;
    }

    double
    total(const char *name, int run) const
    {
        double sum = 0.0;
        for (double d : durations(name, run))
            sum += d;
        return sum;
    }

    bool
    writeChrome(const std::string &path) const
    {
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"traceEvents\":[");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const auto &s = spans_[i];
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                         "{\"id\":%zu,\"parent\":%d,\"run\":%d}}",
                         i ? "," : "", s.name, s.start * 1e6,
                         (s.end - s.start) * 1e6, i, s.parent, s.run);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    double now() const { return secondsSince(epoch_); }

    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; records nothing (no clock read) while tracing is off. */
class SpanScope
{
  public:
    SpanScope(Tracer &t, const char *name) : t_(t.on ? &t : nullptr)
    {
        if (t_)
            t_->open(name);
    }
    ~SpanScope()
    {
        if (t_)
            t_->close();
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer *t_;
};

/** A run's scale: the workload's own, or the smoke test's. */
struct Budget
{
    size_t batch, sims, holdout;
    double trueErrorCeilingPct;  ///< sanity ceiling on holdout error
};

/**
 * One repetition's state: everything built before round 1 (the
 * set-up), then the explorer. The explorer's simulator and prefetch
 * hook capture this object, so it is pinned.
 */
class Session
{
  public:
    Session(const Workload &w, const Budget &b, uint64_t seed,
            Tracer &tracer, fs::path dir)
        : w_(w), tracer_(tracer), dir_(std::move(dir))
    {
        SpanScope setup(tracer_, "setup");
        {
            SpanScope span(tracer_, "workload.trace");
            ctx_ = std::make_unique<study::StudyContext>(
                w.kind, w.app, w.traceLength, (dir_ / "journal").string());
        }
        if (w.backend == Backend::SimPoint) {
            SpanScope span(tracer_, "simpoint.select");
            ctx_->simPoints();
        }

        ml::ExplorerOptions eopts;
        eopts.batchSize = b.batch;
        eopts.maxSimulations = b.sims;
        eopts.targetMeanPct = 0.0;
        eopts.activeLearning = w.active;
        eopts.seed = seed;
        eopts.train.maxEpochs = 5000;
        eopts.train.seed = SplitMix64(seed).next();

        if (w.backend == Backend::Remote) {
            SpanScope span(tracer_, "remote.start");
            remote::DispatcherOptions dopts;
            for (size_t i = 0; i < kRemoteWorkers; ++i) {
                remote::SimWorkerOptions wopts;
                wopts.server.addr = "127.0.0.1";
                wopts.server.port = 0;
                wopts.server.workers = kRemoteWorkerThreads;
                workers_.push_back(
                    std::make_unique<remote::SimWorker>(wopts));
                workers_.back()->start();
                dopts.endpoints.push_back(
                    {"127.0.0.1", workers_.back()->port()});
            }
            dispatcher_ =
                std::make_unique<remote::RemoteDispatcher>(*ctx_, dopts);
            eopts.prefetch = [this](const std::vector<uint64_t> &batch) {
                SpanScope span(tracer_, "remote.prefetch");
                dispatcher_->prefetch(batch);
            };
        }
        explorer_ = std::make_unique<ml::Explorer>(
            ctx_->space(), [this](uint64_t i) { return simulate(i); },
            eopts);
    }

    ~Session()
    {
        // Explorer before the context it reads, dispatcher before the
        // workers it talks to; the journal closes before its directory
        // goes.
        explorer_.reset();
        dispatcher_.reset();
        workers_.clear();
        ctx_.reset();
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    study::StudyContext &ctx() { return *ctx_; }
    ml::Explorer &explorer() { return *explorer_; }
    const remote::RemoteDispatcher *dispatcher() const
    {
        return dispatcher_.get();
    }
    size_t simCalls() const { return simCalls_; }
    size_t memoHits() const { return memoHits_; }

  private:
    double
    simulate(uint64_t i)
    {
        ++simCalls_;
        const bool sp = w_.backend == Backend::SimPoint;
        if (tracer_.on) {
            memoHits_ += sp ? ctx_->hasSimPointEstimate(i)
                            : ctx_->hasResult(i);
        }
        SpanScope span(tracer_, "simulate");
        return sp ? ctx_->simulateSimPointIpc(i) : ctx_->simulateIpc(i);
    }

    const Workload &w_;
    Tracer &tracer_;
    fs::path dir_;
    std::unique_ptr<study::StudyContext> ctx_;
    std::vector<std::unique_ptr<remote::SimWorker>> workers_;
    std::unique_ptr<remote::RemoteDispatcher> dispatcher_;
    std::unique_ptr<ml::Explorer> explorer_;
    size_t simCalls_ = 0;
    size_t memoHits_ = 0;
};

/** FNV-1a over 64-bit words. */
struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void
    add(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
};

/** What one repetition measured. */
struct Rep
{
    int run = 0;
    bool traced = false;
    double exploreS = 0.0;
    double cpuS = 0.0;
    uint64_t digest = 0;
    size_t rounds = 0;
    size_t simCalls = 0;
    size_t memoHits = 0;
    size_t droppedFolds = 0;
    bool predictionsValid = false;
    ml::ErrorEstimate estimate;
    remote::DispatchStats remote;
    obs::MetricsSnapshot counts;  ///< dse::obs, traced repetitions only
};

/** The timed region: every round, then the whole-space prediction. */
Rep
explore(Session &s, Tracer &tracer)
{
    Rep rep;
    rep.run = tracer.run;
    rep.traced = tracer.on;
    auto &explorer = s.explorer();
    // Untraced repetitions run with the registry off, as a plain
    // dse_explore does.
    obs::setMetricsEnabled(rep.traced);
    if (rep.traced)
        obs::MetricsRegistry::global().reset();
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    for (;;) {
        SpanScope span(tracer, "step");
        if (!explorer.step())
            break;
        ++rep.rounds;
        rep.droppedFolds += explorer.ensemble().warnings().size();
    }
    std::vector<double> predictions;
    {
        SpanScope span(tracer, "predict_space");
        predictions = explorer.predictSpace();
    }
    rep.exploreS = secondsSince(t0);
    rep.cpuS = cpuSeconds() - cpu0;
    if (rep.traced)
        rep.counts = obs::MetricsRegistry::global().snapshot();
    obs::setMetricsEnabled(false);

    rep.simCalls = s.simCalls();
    rep.memoHits = s.memoHits();
    rep.estimate = explorer.ensemble().estimate();
    if (s.dispatcher())
        rep.remote = s.dispatcher()->stats();
    rep.predictionsValid =
        predictions.size() == s.ctx().space().size() &&
        std::all_of(predictions.begin(), predictions.end(),
                    [](double p) { return std::isfinite(p) && p > 0.0; });

    Fnv fnv;
    for (uint64_t i : explorer.sampledIndices())
        fnv.add(i);
    for (double y : explorer.data().y)
        fnv.add(y);
    fnv.add(rep.estimate.meanPct);
    fnv.add(rep.estimate.sdPct);
    for (double p : predictions)
        fnv.add(p);
    rep.digest = fnv.h;
    return rep;
}

bool
sameResult(const sim::SimResult &a, const sim::SimResult &b)
{
    const auto fields = [](const sim::SimResult &r) {
        return std::tie(r.cycles, r.instructions, r.ipc, r.l1dMissRate,
                        r.l2MissRate, r.l1iMissRate, r.branchMispredictRate,
                        r.l1dAccesses, r.l1dMisses, r.l2Accesses,
                        r.l2Misses, r.l1iAccesses, r.l1iMisses, r.branches,
                        r.branchMispredicts);
    };
    return fields(a) == fields(b);
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** What the driver learned about the last repetition after the timed
 *  window: its holdout score and the sizes rates are taken over. */
struct Scored
{
    double holdoutS = 0.0;
    size_t holdoutPoints = 0;
    double trueErrorPct = 0.0;
    size_t tracePoints = 0;  ///< instructions per detailed simulation
    size_t spacePoints = 0;
};

/** Per-layer metrics from the traced repetitions (medians over them). */
std::vector<Metric>
layerMetrics(const Workload &w, const Tracer &tracer,
             const std::vector<Rep> &reps, const Scored &sc)
{
    std::vector<double> untraced, traced, simBusy, stepSelf, stepSelfPct,
        foldBusy, parallelism, predict, cpu, cpuPar, prefetchPct,
        scorePct, journalPct, accounted, callMs, minst;
    const Rep *first = nullptr;
    for (const auto &r : reps) {
        if (!r.traced) {
            untraced.push_back(r.exploreS);
            continue;
        }
        if (!first)
            first = &r;
        const double sim = tracer.total("simulate", r.run);
        const double pre = tracer.total("remote.prefetch", r.run);
        const double step = tracer.total("step", r.run);
        const double pred = tracer.total("predict_space", r.run);
        const double self = step - sim - pre;
        const auto ns = [&](const char *name) {
            const auto *h = r.counts.histogram(name);
            return h ? static_cast<double>(h->sum) * 1e-9 : 0.0;
        };
        const double pct = 100.0 / r.exploreS;
        traced.push_back(r.exploreS);
        simBusy.push_back(sim);
        stepSelf.push_back(self);
        stepSelfPct.push_back(self * pct);
        foldBusy.push_back(ns("train.fold_wall_ns"));
        parallelism.push_back(ns("train.fold_wall_ns") / self);
        predict.push_back(pred);
        cpu.push_back(r.cpuS);
        cpuPar.push_back(r.cpuS / r.exploreS);
        prefetchPct.push_back(pre * pct);
        scorePct.push_back(ns("explore.score_wall_ns") * pct);
        journalPct.push_back(ns("journal.append_wall_ns") * pct);
        accounted.push_back((step + pred) * pct);
        for (double d : tracer.durations("simulate", r.run))
            callMs.push_back(d * 1e3);
        const double executed =
            static_cast<double>(r.counts.counter("sim.executed"));
        if (executed > 0)
            minst.push_back(executed * static_cast<double>(sc.tracePoints) /
                            ns("sim.wall_ns") * 1e-6);
    }
    if (!first)
        throw std::logic_error("trace mode ran no traced repetition");

    const double simBusyPct = median(simBusy) * 100.0 / median(traced);
    const bool sp = w.backend == Backend::SimPoint;
    const double setupMedian = median(tracer.durations("setup"));
    const double calls = static_cast<double>(first->simCalls);
    const auto count = [&](const char *name) {
        return static_cast<double>(first->counts.counter(name));
    };
    return {
        {"workload.trace_s", median(tracer.durations("workload.trace")),
         "s"},
        {"simpoint.select_pct",
         median(tracer.durations("simpoint.select")) * 100.0 / setupMedian,
         "%"},
        {"simpoint.busy_pct", sp ? simBusyPct : 0.0, "%"},
        {"sim.busy_pct", sp ? 0.0 : simBusyPct, "%"},
        {"sim.minst_per_s", median(minst), "Minst/s"},
        {"explore.sim_calls", calls, "count"},
        {"explore.sim_busy_s", median(simBusy), "s"},
        {"explore.sim_call_ms_p50", percentile(callMs, 50.0), "ms"},
        {"explore.sim_call_ms_p95", percentile(callMs, 95.0), "ms"},
        {"explore.sim_call_samples", static_cast<double>(callMs.size()),
         "count"},
        {"study.memo_hit_pct",
         100.0 * static_cast<double>(first->memoHits) / calls, "%"},
        {"study.journal_appends", count("journal.appends"), "count"},
        {"study.journal_pct", median(journalPct), "%"},
        {"study.holdout_s", sc.holdoutS, "s"},
        {"study.batch_sims_per_s",
         static_cast<double>(sc.holdoutPoints) / sc.holdoutS, "1/s"},
        {"ml.step_self_s", median(stepSelf), "s"},
        {"ml.step_self_pct", median(stepSelfPct), "%"},
        {"ml.train_epochs", count("train.epochs"), "count"},
        {"ml.fold_busy_s", median(foldBusy), "s"},
        {"ml.fold_retries", count("train.fold_retries"), "count"},
        {"ml.train_parallelism", median(parallelism), "ratio"},
        {"ml.score_pct", median(scorePct), "%"},
        {"ml.predict_space_s", median(predict), "s"},
        {"ml.predict_points_per_s",
         static_cast<double>(sc.spacePoints) / median(predict), "1/s"},
        {"ml.true_error_pct", sc.trueErrorPct, "%"},
        {"ml.estimate_gap_pct",
         std::fabs(first->estimate.meanPct - sc.trueErrorPct), "pp"},
        {"remote.prefetch_pct", median(prefetchPct), "%"},
        {"remote.batches", static_cast<double>(first->remote.completed),
         "count"},
        {"remote.retries", static_cast<double>(first->remote.retries),
         "count"},
        {"remote.hedges", static_cast<double>(first->remote.hedges),
         "count"},
        {"remote.fallbacks", static_cast<double>(first->remote.fallbacks),
         "count"},
        {"util.cpu_s", median(cpu), "s"},
        {"util.parallelism", median(cpuPar), "ratio"},
        {"trace.overhead_pct",
         (median(traced) / median(untraced) - 1.0) * 100.0, "%"},
        {"trace.accounted_pct", median(accounted), "%"},
    };
}

bool
parseArg(const char *arg, const char *name, std::string &out)
{
    const size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
        out = arg + len + 1;
        return true;
    }
    return false;
}

bool
parse(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        std::string v;
        if (parseArg(arg, "--workload", v)) {
            o.workload = v;
        } else if (parseArg(arg, "--seed", v)) {
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (parseArg(arg, "--seconds", v)) {
            o.seconds = std::atof(v.c_str());
        } else if (parseArg(arg, "--trace-out", v)) {
            o.traceOut = v;
        } else if (parseArg(arg, "--scratch", v)) {
            o.scratch = v;
        } else if (std::strcmp(arg, "--smoke") == 0) {
            o.smoke = true;
        } else {
            std::fprintf(stderr, "e2e_explore: unknown option '%s'\n", arg);
            return false;
        }
    }
    return !o.workload.empty();
}

int
run(const Options &o)
{
    const Workload *found = nullptr;
    for (const auto &w : kWorkloads) {
        if (o.workload == w.name)
            found = &w;
    }
    if (!found) {
        std::fprintf(stderr, "e2e_explore: unknown workload '%s'\n",
                     o.workload.c_str());
        return 1;
    }
    const Workload &w = *found;
    const bool trace = !o.traceOut.empty();
    // Twenty points train too few networks for the full-scale ceiling;
    // the smoke ceiling still rejects a model that predicts garbage.
    const Budget budget = o.smoke
        ? Budget{10, 20, 16, 100.0}
        : Budget{w.batch, w.budget, kHoldoutPoints, 25.0};
    obs::setMetricsEnabled(false);

    const fs::path scratch = fs::path(o.scratch) /
        (std::string(w.name) + "-" + std::to_string(getpid()));
    fs::create_directories(scratch);
    Tracer tracer;
    int nextRun = 0;
    std::vector<double> setupS;
    const auto session = [&](bool traced) {
        tracer.run = nextRun++;
        tracer.on = traced;
        const fs::path dir = scratch / ("run" + std::to_string(tracer.run));
        fs::create_directories(dir);
        const auto t0 = Clock::now();
        auto s = std::make_unique<Session>(w, budget, o.seed, tracer, dir);
        setupS.push_back(secondsSince(t0));
        return s;
    };

    for (int i = 0; i < kSetupSamples; ++i)
        session(trace);

    // Closed loop, one caller: repetition n+1 starts after n ends, and
    // the window closes when the next repetition would overrun it.
    const size_t minReps = trace ? 4 : (o.smoke ? 2 : 3);
    std::vector<Rep> reps;
    std::vector<double> repS;
    std::unique_ptr<Session> last;
    double firstPeakMb = 0.0;
    const auto window = Clock::now();
    while (reps.size() < minReps ||
           secondsSince(window) + median(repS) <= o.seconds) {
        const auto t0 = Clock::now();
        last.reset();
        last = session(trace && reps.size() % 2 == 1);
        reps.push_back(explore(*last, tracer));
        repS.push_back(secondsSince(t0));
        // Peak RSS of set-up plus one exploration: each later
        // repetition's fresh contexts and worker threads leave the
        // allocator's arenas more fragmented, so the process peak
        // would grow with the repetition count.
        if (reps.size() == 1)
            firstPeakMb = peakRssMb();
    }
    tracer.on = false;

    // Correctness, outside every timed region.
    bool correct = true;
    const auto check = [&](bool ok, const std::string &what) {
        if (!ok) {
            std::printf("# check failed: %s\n", what.c_str());
            correct = false;
        }
    };
    uint64_t attempted = 0, failed = 0;
    const int folds = ml::TrainOptions().folds;
    for (const auto &r : reps) {
        check(r.simCalls == budget.sims,
              "simulator calls " + std::to_string(r.simCalls) +
                  " != budget " + std::to_string(budget.sims));
        check(r.predictionsValid,
              "predictSpace() values not all finite and > 0");
        check(r.digest == reps.front().digest,
              "repetitions of one seed disagree");
        check(r.remote.fallbacks == 0, "remote batches fell back");
        attempted += r.simCalls + r.rounds * static_cast<size_t>(folds) +
            r.remote.dispatched;
        failed += r.droppedFolds + r.remote.retries + r.remote.fallbacks;
    }
    auto &ctx = last->ctx();
    const auto &sampled = last->explorer().sampledIndices();
    check(sampled.size() == budget.sims, "sampled points != budget");
    if (w.backend == Backend::Remote) {
        sim::SimOptions warm;
        warm.warmCaches = true;
        for (size_t i = 0; i < kRemoteCheckPoints && i < sampled.size();
             ++i) {
            const uint64_t idx = sampled[i];
            check(sameResult(ctx.simulateFull(idx),
                             sim::simulate(ctx.trace(), ctx.config(idx),
                                           warm)),
                  "remote result differs from local simulation at " +
                      std::to_string(idx));
        }
    }

    SplitMix64 seeds(o.seed);
    seeds.next();  // the training seed
    const auto holdout = study::holdoutIndices(ctx.space(), sampled,
                                               budget.holdout, seeds.next());
    Scored sc;
    const auto h0 = Clock::now();
    sc.trueErrorPct =
        study::measureTrueError(ctx, last->explorer().ensemble(), holdout)
            .meanPct;
    sc.holdoutS = secondsSince(h0);
    sc.holdoutPoints = holdout.size();
    sc.tracePoints = ctx.trace().size();
    sc.spacePoints = ctx.space().size();
    check(sc.trueErrorPct <= budget.trueErrorCeilingPct,
          "true error " + std::to_string(sc.trueErrorPct) + "% above " +
              std::to_string(budget.trueErrorCeilingPct) + "%");
    last.reset();
    std::error_code ec;
    fs::remove_all(scratch, ec);

    std::vector<double> explores;
    for (const auto &r : reps) {
        if (!r.traced)
            explores.push_back(r.exploreS);
    }

    std::vector<Metric> metrics;
    if (trace) {
        metrics = layerMetrics(w, tracer, reps, sc);
        if (!tracer.writeChrome(o.traceOut)) {
            std::fprintf(stderr, "e2e_explore: cannot write %s\n",
                         o.traceOut.c_str());
            return 3;
        }
    } else {
        metrics = {
            {"explore_s", median(explores), "s"},
            {"setup_s", median(setupS), "s"},
            {"peak_rss_mb", firstPeakMb, "MB"},
        };
    }

    std::printf("# workload=%s seed=%llu threads=%zu nproc=%ld reps=%zu "
                "setups=%zu budget=%zu batch=%zu holdout=%zu\n",
                w.name, static_cast<unsigned long long>(o.seed),
                util::ThreadPool::global().threadCount(),
                sysconf(_SC_NPROCESSORS_ONLN), reps.size(), setupS.size(),
                budget.sims, budget.batch, holdout.size());
    std::printf("# digest=%016llx true_error_pct=%.4f estimate_pct=%.4f\n",
                static_cast<unsigned long long>(reps.front().digest),
                sc.trueErrorPct, reps.front().estimate.meanPct);
    std::printf("# explore_s");
    for (const auto &r : reps)
        std::printf(" %.4f%s", r.exploreS, r.traced ? "t" : "");
    std::printf("\n");
    for (const auto &m : metrics)
        std::printf("%s %s %.12g %s\n", w.name, m.name.c_str(), m.value,
                    m.unit);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parse(argc, argv, opts)) {
        std::fprintf(stderr,
                     "usage: e2e_explore --workload=NAME [--seed=N] "
                     "[--seconds=S] [--trace-out=PATH] "
                     "[--scratch=DIR] [--smoke]\n");
        return 1;
    }
    try {
        return run(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2e_explore: error: %s\n", e.what());
        return 3;
    }
}
