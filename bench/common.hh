/**
 * @file
 * Shared machinery for the paper-reproduction benchmark harnesses:
 * the scope knobs, learning-curve sweeps (incremental training sets,
 * fixed holdout), default training budgets, and simulated-instruction
 * accounting for the reduction-factor figures.
 *
 * Scope knobs (environment, read by BenchScope::fromEnv): DSE_APPS,
 * DSE_EVAL_POINTS, DSE_FULL_SPACE, DSE_TRACE_LEN, DSE_MAX_SAMPLE_PCT
 * and DSE_BATCH, plus DSE_MAX_EPOCHS for the training budget and
 * DSE_CSV for the table format. Each is parsed strictly: a malformed
 * or out-of-range value prints one line naming the variable and exits
 * 1, the tools' bad-usage code, before any trace is generated. An
 * unset or empty variable keeps its default. DSE_THREADS sizes the
 * worker pool that batch simulation, fold training and holdout
 * evaluation fan out on; the library reads it.
 */

#ifndef DSE_BENCH_COMMON_HH
#define DSE_BENCH_COMMON_HH

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ml/cross_validation.hh"
#include "study/harness.hh"
#include "tools/cli.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"
#include "workload/profile.hh"

namespace dse {
namespace bench {

/**
 * Bench knob @p name: @p fallback when the variable is unset or
 * empty, else what @p parse reads from its text. When @p parse reads
 * nothing (std::nullopt, or cli::parseNumber's UsageError), the knob
 * prints one line naming the variable and what it must be (@p want)
 * and exits 1. This is the knobs' only exit, so no bench main needs a
 * try/catch.
 */
template <typename T, typename Parse>
T
knob(const char *name, T fallback, const std::string &want, Parse parse)
{
    const char *text = std::getenv(name);
    if (!text || !*text)
        return fallback;
    try {
        if (std::optional<T> value = parse(std::string_view(text)))
            return *value;
    } catch (const cli::UsageError &) {
    }
    std::fprintf(stderr, "%s: '%s' is not %s\n", name, text, want.c_str());
    std::exit(1);
}

/** A numeric knob (cli::parseNumber) that @p ok accepts. */
template <typename T, typename Ok = bool (*)(T)>
T
numberKnob(const char *name, T fallback, const std::string &want,
           Ok ok = [](T) { return true; })
{
    const auto parse = [&](std::string_view text) -> std::optional<T> {
        const T value = cli::parseNumber<T>(name, text);
        return ok(value) ? std::optional<T>(value) : std::nullopt;
    };
    return knob(name, fallback, want, parse);
}

/** A yes/no knob: 1, true, yes or on; 0, false, no or off; any case. */
inline bool
boolKnob(const char *name, bool fallback)
{
    const auto parse = [](std::string_view text) -> std::optional<bool> {
        std::string word(text);
        for (char &c : word)
            c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        if (word == "1" || word == "true" || word == "yes" || word == "on")
            return true;
        if (word == "0" || word == "false" || word == "no" || word == "off")
            return false;
        return std::nullopt;
    };
    return knob(name, fallback, "1/true/yes/on or 0/false/no/off", parse);
}

/** A comma list of benchmark names (workload::benchmarkNames()). */
inline std::vector<std::string>
appsKnob(const char *name, const std::vector<std::string> &fallback)
{
    const auto &known = workload::benchmarkNames();
    const auto parse = [&](std::string_view text)
        -> std::optional<std::vector<std::string>> {
        auto apps = split(std::string(text), ',');
        for (const auto &app : apps) {
            if (std::find(known.begin(), known.end(), app) == known.end())
                return std::nullopt;
        }
        if (apps.empty())
            return std::nullopt;
        return apps;
    };
    return knob(name, fallback, "a comma list of " + join(known, ","), parse);
}

/** Training budget for benchmark runs (reduced wall clock):
 *  DSE_MAX_EPOCHS epochs per network, at least 1. */
inline ml::TrainOptions
benchTrainOptions()
{
    ml::TrainOptions opts;
    opts.maxEpochs = numberKnob("DSE_MAX_EPOCHS", 5000, "an integer >= 1",
                                [](int epochs) { return epochs >= 1; });
    opts.esInterval = 25;
    opts.patience = 20;
    return opts;
}

/** DSE_CSV: print tables as CSV for plotting. */
inline bool
csvOutput()
{
    return boolKnob("DSE_CSV", false);
}

/** The scope of one bench run (DESIGN.md "Per-experiment index"). */
struct BenchScope
{
    std::vector<std::string> apps;  ///< applications to run
    size_t evalPoints = 1000;       ///< holdout size (0 = full space)
    size_t traceLength = 0;         ///< 0 = library default
    double maxSamplePct = 4.5;      ///< learning-curve extent (% of space)
    size_t batch = 50;              ///< training-set increment

    /** Read the scope knobs over these defaults; a bad knob exits 1
     *  (knob()). DSE_MAX_EPOCHS and DSE_CSV are read where they are
     *  used, and parsed here too so that a bad one also exits before
     *  any work. */
    static BenchScope
    fromEnv(const std::vector<std::string> &default_apps)
    {
        BenchScope scope;
        scope.apps = appsKnob("DSE_APPS", default_apps);
        scope.evalPoints = numberKnob("DSE_EVAL_POINTS", scope.evalPoints,
                                      "an integer >= 0");
        if (boolKnob("DSE_FULL_SPACE", false))
            scope.evalPoints = 0;
        scope.traceLength = numberKnob("DSE_TRACE_LEN", scope.traceLength,
                                       "an integer >= 0");
        scope.maxSamplePct = numberKnob(
            "DSE_MAX_SAMPLE_PCT", scope.maxSamplePct, "a number in (0, 100]",
            [](double pct) { return pct > 0.0 && pct <= 100.0; });
        scope.batch = numberKnob("DSE_BATCH", scope.batch, "an integer >= 1",
                                 [](size_t batch) { return batch >= 1; });
        benchTrainOptions();
        csvOutput();
        return scope;
    }
};

/** Threads the global pool runs loops on (DSE_THREADS / hardware). */
inline size_t
effectiveThreads()
{
    return util::ThreadPool::global().threadCount();
}

/** One point of a learning curve. */
struct CurvePoint
{
    size_t samples = 0;
    double samplePct = 0.0;
    ml::ErrorEstimate estimated;   ///< cross-validation estimate
    study::TrueError truth;        ///< measured on the holdout
};

/**
 * Training-set sizes for a learning curve: `batch` up to
 * `max_pct` percent of the space, in a handful of increments
 * (the paper uses 50-instruction increments; the default here is
 * coarser to fit a laptop-scale run — tighten with DSE_BATCH).
 */
inline std::vector<size_t>
curveSizes(uint64_t space_size, double max_pct, size_t batch)
{
    const size_t cap = static_cast<size_t>(
        max_pct / 100.0 * static_cast<double>(space_size));
    std::vector<size_t> sizes;
    // Geometric-ish ramp: dense early where the curve moves fastest.
    for (size_t n = batch; n < cap; n = n * 3 / 2 + batch)
        sizes.push_back(n);
    // Top up with the exact cap unless the ramp already landed there
    // (within one batch).
    if (sizes.empty() || sizes.back() + batch / 2 < cap)
        sizes.push_back(cap);
    return sizes;
}

/**
 * Sweep a learning curve on one (study, app) context.
 *
 * Training sets grow incrementally (size i is a prefix of size i+1,
 * as in the paper's batched collection); the holdout is fixed and
 * disjoint from every training set.
 *
 * @param simpoint train on SimPoint estimates instead of full
 *        simulations (true error is still measured against full
 *        simulation, Section 5.3)
 */
inline std::vector<CurvePoint>
learningCurve(study::StudyContext &ctx, const std::vector<size_t> &sizes,
              size_t eval_points, bool simpoint = false,
              ml::TrainOptions train = benchTrainOptions(),
              uint64_t seed = 2024)
{
    Rng rng(seed);
    const size_t max_n = sizes.back();
    const auto order =
        rng.sampleWithoutReplacement(ctx.space().size(), max_n);
    const auto eval = study::holdoutIndices(ctx.space(), order,
                                            eval_points, seed + 1);

    // Run every training-set simulation up front as one parallel
    // batch; the incremental loop below then reads the memoized
    // results (the holdout is batched inside measureTrueError).
    if (simpoint)
        ctx.simulateSimPointBatch(order);
    else
        ctx.simulateBatch(order);

    std::vector<CurvePoint> curve;
    ml::DataSet data;
    size_t filled = 0;
    for (size_t n : sizes) {
        for (; filled < n; ++filled) {
            const uint64_t idx = order[filled];
            const double y = simpoint ? ctx.simulateSimPointIpc(idx)
                                      : ctx.simulateIpc(idx);
            data.add(ctx.space().encodeIndex(idx), y);
        }
        ml::TrainOptions opts = train;
        opts.seed = train.seed + n;
        const auto model = ml::trainEnsemble(data, opts);

        CurvePoint point;
        point.samples = n;
        point.samplePct = 100.0 * static_cast<double>(n) /
            static_cast<double>(ctx.space().size());
        point.estimated = model.estimate();
        point.truth = study::measureTrueError(ctx, model, eval);
        curve.push_back(point);
        std::fprintf(stderr,
                     "  [%s/%s%s] n=%zu (%.2f%%) est=%.2f%% true=%.2f%%\n",
                     ctx.app().c_str(), study::studyName(ctx.kind()),
                     simpoint ? "+SimPoint" : "", n, point.samplePct,
                     point.estimated.meanPct, point.truth.meanPct);
    }
    return curve;
}

/** Smallest sample size on a curve whose true error is <= target. */
inline const CurvePoint *
firstReaching(const std::vector<CurvePoint> &curve, double target_pct)
{
    for (const auto &p : curve) {
        if (p.truth.meanPct <= target_pct)
            return &p;
    }
    return nullptr;
}

/** Print a curve as an aligned table (and CSV when DSE_CSV=1). */
inline void
printCurve(const std::string &title, const std::vector<CurvePoint> &curve)
{
    if (obs::metricsEnabled()) {
        // Annotate the curve header with the simulation-cache story
        // so a bench log records how much work was memoized away.
        const auto snap = obs::MetricsRegistry::global().snapshot();
        std::printf("\n== %s (threads=%zu sim.executed=%llu "
                    "sim.memo_hits=%llu) ==\n",
                    title.c_str(), effectiveThreads(),
                    static_cast<unsigned long long>(
                        snap.counter("sim.executed")),
                    static_cast<unsigned long long>(
                        snap.counter("sim.memo_hits")));
    } else {
        std::printf("\n== %s (threads=%zu) ==\n", title.c_str(),
                    effectiveThreads());
    }
    Table t({"samples", "sample%", "est_mean%", "est_sd%", "true_mean%",
             "true_sd%"});
    for (const auto &p : curve) {
        t.newRow();
        t.add(static_cast<long long>(p.samples));
        t.add(p.samplePct, 2);
        t.add(p.estimated.meanPct, 2);
        t.add(p.estimated.sdPct, 2);
        t.add(p.truth.meanPct, 2);
        t.add(p.truth.sdPct, 2);
    }
    std::ostream &os = std::cout;
    if (csvOutput())
        t.printCsv(os);
    else
        t.print(os);
}

} // namespace bench
} // namespace dse

#endif // DSE_BENCH_COMMON_HH
