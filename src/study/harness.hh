/**
 * @file
 * Study harness: binds an application trace to a study's design
 * space, memoizes simulations by design-point index, and provides the
 * evaluation utilities the benchmarks share (holdout construction,
 * true-error measurement, learning-curve sweeps).
 */

#ifndef DSE_STUDY_HARNESS_HH
#define DSE_STUDY_HARNESS_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ml/cross_validation.hh"
#include "ml/encoding.hh"
#include "sim/core.hh"
#include "sim/warm_start.hh"
#include "simpoint/simpoint.hh"
#include "study/journal.hh"
#include "study/spaces.hh"
#include "util/metrics.hh"
#include "workload/trace.hh"

namespace dse {
namespace study {

/**
 * One (study, application) pair: the design space, the application's
 * trace, and a memoized simulator keyed by design-point index.
 *
 * Simulations run with warmed caches/predictor (steady state; see
 * SimOptions::warmCaches) so short synthetic traces behave like the
 * paper's long MinneSPEC runs.
 *
 * Thread safety: one mutex guards both memo maps, so
 * simulateFull/simulateIpc/simulateSimPointIpc (and the batch
 * variants, which fan out on the global ThreadPool) may be called
 * concurrently. The lock covers single hash operations only; every
 * simulation runs outside it and takes milliseconds, so one lock does
 * not contend. Simulation itself is a pure function of (trace,
 * config), so concurrent evaluation is bit-identical to serial
 * regardless of thread count or interleaving.
 *
 * Crash safety: with a journal attached (explicit path, or the
 * DSE_JOURNAL environment variable — "{study}" and "{app}"
 * placeholders expand so one setting covers multi-app sweeps), every
 * detailed simulation result is appended to an append-only
 * checksummed journal as it completes, and construction replays an
 * existing journal into the memo cache. A killed campaign resumed
 * against the same journal re-simulates nothing, and replayed
 * results are bit-identical to freshly simulated ones (see
 * journal.hh and DESIGN.md, "Failure model & recovery").
 */
class StudyContext
{
  public:
    /**
     * @param kind which design space
     * @param app benchmark name (one of workload::benchmarkNames())
     * @param trace_length dynamic trace length (0 = library default)
     * @param journal_path write-ahead journal file; "" consults the
     *        DSE_JOURNAL environment variable (unset = no journal)
     */
    StudyContext(StudyKind kind, const std::string &app,
                 size_t trace_length = 0,
                 const std::string &journal_path = "");

    const ml::DesignSpace &space() const { return space_; }
    StudyKind kind() const { return kind_; }
    const std::string &app() const { return app_; }
    const workload::Trace &trace() const { return trace_; }

    /** Full detailed simulation of one design point (memoized). */
    const sim::SimResult &simulateFull(uint64_t index);

    /** IPC of one design point (memoized full simulation). */
    double simulateIpc(uint64_t index);

    /**
     * Simulate a batch of design points concurrently on the global
     * ThreadPool (duplicates and cache hits cost nothing extra).
     * @return the IPC of each input index, in input order
     */
    std::vector<double> simulateBatch(const std::vector<uint64_t> &indices);

    /** SimPoint-estimate analogue of simulateBatch (Section 5.3). */
    std::vector<double>
    simulateSimPointBatch(const std::vector<uint64_t> &indices);

    /** Machine configuration of a design point. */
    sim::MachineConfig config(uint64_t index) const;

    /**
     * The trace's functional warm-up memo, built on first use (not at
     * construction). Every warm run of the context goes through it;
     * pass it to warm runs made outside the context, such as SMARTS
     * estimates, to share it.
     */
    sim::WarmStart &warmStart();

    /// @name Remote-result injection (dse::remote::RemoteDispatcher).
    /// Simulation is a pure function of (trace, config), so a result
    /// computed by a worker with the same (study, app, trace length)
    /// identity is bit-identical to a local one; injecting it into the
    /// memo cache makes remote sourcing invisible to every consumer.
    /// Injected results are journaled (they are real results) but do
    /// NOT count toward simulationsExecuted() — that counter stays
    /// "work this process did".
    /// @{

    /** Merge a remotely computed detailed result into the memo cache.
     *  A concurrent local result for the same index wins harmlessly
     *  (the values are identical by purity). */
    void injectResult(uint64_t index, const sim::SimResult &result);

    /** Merge a remotely computed calibrated SimPoint IPC estimate. */
    void injectSimPointEstimate(uint64_t index, double ipc);

    /** True if a detailed result for @p index is memoized. */
    bool hasResult(uint64_t index) const;

    /** True if a SimPoint estimate for @p index is memoized. */
    bool hasSimPointEstimate(uint64_t index) const;

    /// @}

    /**
     * The distinct indices of @p indices with no memoized detailed
     * result (SimPoint estimate when @p simpoint), in input order:
     * what a batch over @p indices still has to simulate.
     */
    std::vector<uint64_t> missing(const std::vector<uint64_t> &indices,
                                  bool simpoint) const;

    /** Number of distinct detailed simulations performed so far
     *  (memoized results, including any replayed from a journal). */
    size_t simulationsRun() const;

    /** Detailed simulations actually *executed* by this context —
     *  excludes journal-replayed results, so a resumed study reports
     *  0 until it reaches a point its journal has not seen. */
    size_t simulationsExecuted() const { return executed_.value(); }

    /** True if a write-ahead journal is attached. */
    bool journalActive() const { return journal_ != nullptr; }

    /** What construction replayed from the journal (zeros if none). */
    const SimJournal::ReplayStats &journalStats() const
    {
        return journalStats_;
    }

    /** Instructions per detailed simulation (trace length). */
    size_t instructionsPerSimulation() const { return trace_.size(); }

    /**
     * The application's SimPoint selection (computed once per
     * context, configuration-independent, as in the SimPoint tool).
     */
    const simpoint::SimPoints &simPoints();

    /**
     * SimPoint *estimate* of a design point's IPC: only the
     * representative intervals are simulated in detail (memoized).
     * This is the noisy-but-cheap signal the ANN+SimPoint study
     * trains on (Section 5.3).
     *
     * Estimates are calibrated once per application against a single
     * full simulation of a reference configuration, which removes
     * the constant bias a fixed representative-interval choice
     * carries on short traces. The calibration cost (one detailed
     * simulation) is amortized over the whole exploration.
     */
    double simulateSimPointIpc(uint64_t index);

  private:
    /** The one batch path behind simulateBatch and
     *  simulateSimPointBatch. */
    std::vector<double> batch(const std::vector<uint64_t> &indices,
                              bool simpoint);

    /** Calibrate (once) and return the SimPoint IPC scale factor. */
    double simPointScale();

    StudyKind kind_;
    std::string app_;
    ml::DesignSpace space_;
    workload::Trace trace_;
    /** Guards results_ and estimates_. Values are never mutated after
     *  insertion, and unordered_map never invalidates references, so
     *  returned references stay valid under concurrent inserts. */
    mutable std::mutex memoMu_;
    std::unordered_map<uint64_t, sim::SimResult> results_;
    std::unordered_map<uint64_t, double> estimates_;  ///< SimPoint IPCs
    std::mutex simPointMu_;  ///< guards simPoints_ / simPointScale_
    std::unique_ptr<simpoint::SimPoints> simPoints_;
    double simPointScale_ = 0.0;  ///< lazily calibrated; 0 = not yet
    std::once_flag warmOnce_;
    std::unique_ptr<sim::WarmStart> warmStart_;
    std::unique_ptr<SimJournal> journal_;
    SimJournal::ReplayStats journalStats_;
    obs::OwnedCounter executed_;  ///< non-replayed; feeds sim.executed
};

/**
 * A random holdout of design points for measuring *true* model error,
 * disjoint from a set of excluded (training) indices.
 *
 * The paper measures error over every untrained point of the full
 * space; a uniform random holdout estimates the same mean/SD
 * unbiasedly at a fraction of the simulation cost (DESIGN.md,
 * substitution table). Pass n >= space size to get the full space.
 */
std::vector<uint64_t> holdoutIndices(const ml::DesignSpace &space,
                                     const std::vector<uint64_t> &excluded,
                                     size_t n, uint64_t seed);

/** True mean/SD of percentage error of a model over given points. */
struct TrueError
{
    double meanPct = 0.0;
    double sdPct = 0.0;
};

/**
 * Measure a trained ensemble against detailed simulation on the given
 * evaluation points (simulations are memoized in the context).
 */
TrueError measureTrueError(StudyContext &ctx, const ml::Ensemble &model,
                           const std::vector<uint64_t> &eval_points);

/**
 * Shared benchmark-harness scope knobs (read from the environment;
 * see DESIGN.md "Per-experiment index").
 */
struct BenchScope
{
    std::vector<std::string> apps;  ///< applications to run
    size_t evalPoints = 1000;       ///< holdout size (0 = full space)
    size_t traceLength = 0;         ///< 0 = library default
    double maxSamplePct = 4.5;      ///< learning-curve extent (% of space)
    size_t batch = 50;              ///< training-set increment
    size_t threads = 1;             ///< effective worker thread count

    /** Read DSE_APPS / DSE_EVAL_POINTS / DSE_THREADS / DSE_* with
     *  these defaults (threads resolves DSE_THREADS against the
     *  hardware, matching what the global ThreadPool will use). */
    static BenchScope fromEnv(const std::vector<std::string> &default_apps);
};

} // namespace study
} // namespace dse

#endif // DSE_STUDY_HARNESS_HH
