/**
 * @file
 * Crash-safe write-ahead journal of simulation results.
 *
 * A long campaign runs thousands of cycle-accurate simulations; a
 * killed process must not throw them away. The journal is an
 * append-only binary file of (design-point index -> SimResult)
 * records that StudyContext writes as each simulation completes and
 * replays into its memo cache on construction, so a resumed study
 * re-simulates nothing it already paid for. Replay is bit-identical
 * to a fresh run: records carry the exact doubles the simulator
 * produced.
 *
 * Format (written through util/bytes.hh; DESIGN.md "Byte formats"):
 *
 *   header   "DSEJRNL1" | u32 version | u32 kind | u64 traceLen
 *            | u32 appLen | app bytes | u64 FNV-1a over the above
 *   record   u64 index | sim::putSimResult record
 *            | u64 FNV-1a over the preceding record bytes
 *
 * Records are fixed-size (kRecordSize), so replay can resynchronize
 * past a checksum-corrupt record (the record is rejected, later ones
 * still load) and a truncated/torn tail is recognized by a short
 * read and truncated away before the next append. The header binds
 * the journal to one (study, app, trace length); replaying a journal
 * into a different study is an error, not silent corruption.
 */

#ifndef DSE_STUDY_JOURNAL_HH
#define DSE_STUDY_JOURNAL_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "sim/config.hh"
#include "study/spaces.hh"

namespace dse {
namespace study {

class SimJournal
{
  public:
    /** What replay() recovered from an existing journal file. */
    struct ReplayStats
    {
        size_t replayed = 0;  ///< intact records delivered
        size_t rejected = 0;  ///< checksum-corrupt records skipped
        bool tornTail = false;  ///< trailing partial record dropped
    };

    /**
     * Open (or create) the journal at @p path for the given study
     * identity. An existing file must carry a matching header.
     * @throws std::runtime_error on I/O failure, a foreign file, or
     *         an identity mismatch
     */
    SimJournal(std::string path, StudyKind kind, const std::string &app,
               uint64_t trace_len);
    ~SimJournal();

    SimJournal(const SimJournal &) = delete;
    SimJournal &operator=(const SimJournal &) = delete;

    /**
     * Replay every intact record to @p fn, then truncate any torn
     * tail so subsequent appends extend a valid file. Must be called
     * exactly once, before the first append().
     */
    ReplayStats
    replay(const std::function<void(uint64_t, const sim::SimResult &)> &fn);

    /**
     * Append one record and flush it to stable storage (write +
     * fsync; a crash after append() returns cannot lose the record).
     * Thread-safe.
     */
    void append(uint64_t index, const sim::SimResult &r);

    const std::string &path() const { return path_; }

    /** Fixed on-disk record size in bytes (tests craft torn tails). */
    static constexpr size_t kRecordSize = 8 + sim::kSimResultBytes + 8;

  private:
    std::string path_;
    int fd_ = -1;
    std::mutex appendMu_;
    bool replayed_ = false;
};

static_assert(SimJournal::kRecordSize == 136,
              "the journal record size is part of the on-disk format");

} // namespace study
} // namespace dse

#endif // DSE_STUDY_JOURNAL_HH
