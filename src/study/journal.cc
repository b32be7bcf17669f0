#include "study/journal.hh"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "util/bytes.hh"
#include "util/fault.hh"
#include "util/metrics.hh"
#include "util/trace.hh"

namespace dse {
namespace study {

namespace {

/** Journal durability metrics (DESIGN.md "Observability"). */
const obs::Counter kAppends("journal.appends");
const obs::Counter kFsyncs("journal.fsyncs");
const obs::Counter kReplayed("journal.replayed");
const obs::Counter kRejected("journal.rejected");
const obs::Counter kTornTails("journal.torn_tails");
const obs::Histogram kAppendWallNs("journal.append_wall_ns");

constexpr char kMagic[8] = {'D', 'S', 'E', 'J', 'R', 'N', 'L', '1'};
constexpr uint32_t kVersion = 1;

std::string
encodeHeader(StudyKind kind, const std::string &app, uint64_t trace_len)
{
    util::WireWriter w;
    w.raw(kMagic, sizeof(kMagic));
    w.u32(kVersion);
    w.u32(static_cast<uint32_t>(kind));
    w.u64(trace_len);
    w.str(app);
    w.u64(util::fnv1a64(w.bytes().data(), w.bytes().size()));
    return w.take();
}

std::string
encodeRecord(uint64_t index, const sim::SimResult &r)
{
    util::WireWriter w;
    w.reserve(SimJournal::kRecordSize);
    w.u64(index);
    sim::putSimResult(w, r);
    w.u64(util::fnv1a64(w.bytes().data(), w.bytes().size()));
    return w.take();
}

/** Decode one record; false when its checksum does not match. */
bool
decodeRecord(const char *p, uint64_t &index, sim::SimResult &r)
{
    util::WireReader in(p, SimJournal::kRecordSize);
    index = in.u64();
    r = sim::getSimResult(in);
    return in.u64() == util::fnv1a64(p, SimJournal::kRecordSize - 8);
}

void
fsyncOrThrow(int fd, const std::string &path)
{
    if (::fsync(fd) != 0) {
        throw std::runtime_error("journal fsync failed: " + path + ": " +
                                 std::strerror(errno));
    }
}

} // namespace

SimJournal::SimJournal(std::string path, StudyKind kind,
                       const std::string &app, uint64_t trace_len)
    : path_(std::move(path))
{
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0) {
        throw std::runtime_error("cannot open journal: " + path_ + ": " +
                                 std::strerror(errno));
    }

    // A constructor that throws never runs ~SimJournal, so every
    // failure below closes the descriptor itself.
    try {
        // One writer per file: a second journal on this path would
        // append at its own offset over this one's records. The lock
        // goes when the descriptor closes.
        if (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
            const int err = errno;
            throw std::runtime_error(
                err == EWOULDBLOCK
                    ? "journal is in use by another process: " + path_
                    : "cannot lock journal: " + path_ + ": " +
                        std::strerror(err));
        }
        const auto header = encodeHeader(kind, app, trace_len);
        const off_t size = ::lseek(fd_, 0, SEEK_END);
        if (size == 0) {
            // Fresh journal: persist the identity header before any
            // record can refer to it.
            ::lseek(fd_, 0, SEEK_SET);
            util::writeAll(fd_, header.data(), header.size(), path_);
            fsyncOrThrow(fd_, path_);
            replayed_ = true;  // nothing to replay
            return;
        }

        std::string existing(header.size(), '\0');
        ::lseek(fd_, 0, SEEK_SET);
        const ssize_t got = ::read(fd_, existing.data(), existing.size());
        if (got < static_cast<ssize_t>(sizeof(kMagic)) ||
            std::memcmp(existing.data(), kMagic, sizeof(kMagic)) != 0) {
            throw std::runtime_error("not a simulation journal: " + path_);
        }
        if (got != static_cast<ssize_t>(existing.size()) ||
            existing != header) {
            throw std::runtime_error(
                "journal belongs to a different study/app/trace: " + path_);
        }
    } catch (...) {
        ::close(fd_);
        throw;
    }
}

SimJournal::~SimJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

SimJournal::ReplayStats
SimJournal::replay(
    const std::function<void(uint64_t, const sim::SimResult &)> &fn)
{
    ReplayStats stats;
    if (replayed_)
        return stats;  // fresh file, already positioned past header
    replayed_ = true;

    const off_t header_end = ::lseek(fd_, 0, SEEK_CUR);
    const off_t size = ::lseek(fd_, 0, SEEK_END);
    const uint64_t body = static_cast<uint64_t>(size - header_end);
    const uint64_t records = body / kRecordSize;
    stats.tornTail = body % kRecordSize != 0;

    ::lseek(fd_, header_end, SEEK_SET);
    char buf[kRecordSize];
    for (uint64_t n = 0; n < records; ++n) {
        ssize_t got = 0;
        while (got < static_cast<ssize_t>(kRecordSize)) {
            const ssize_t r = ::read(fd_, buf + got,
                                     kRecordSize - static_cast<size_t>(got));
            if (r < 0 && errno == EINTR)
                continue;
            if (r <= 0) {
                throw std::runtime_error("journal read failed: " + path_ +
                                         ": " + std::strerror(errno));
            }
            got += r;
        }
        uint64_t index;
        sim::SimResult result;
        if (decodeRecord(buf, index, result)) {
            fn(index, result);
            ++stats.replayed;
        } else {
            // Checksum-corrupt record: reject it but keep going —
            // records are fixed-size, so the stream stays in sync.
            ++stats.rejected;
        }
    }

    if (stats.tornTail) {
        // Drop the torn tail so the next append extends a valid file.
        const off_t valid =
            header_end + static_cast<off_t>(records * kRecordSize);
        if (::ftruncate(fd_, valid) != 0) {
            throw std::runtime_error("journal truncate failed: " + path_ +
                                     ": " + std::strerror(errno));
        }
        ::lseek(fd_, valid, SEEK_SET);
    }

    kReplayed.add(stats.replayed);
    kRejected.add(stats.rejected);
    if (stats.tornTail)
        kTornTails.add();
    return stats;
}

void
SimJournal::append(uint64_t index, const sim::SimResult &r)
{
    obs::TraceScope span("journal-append", kAppendWallNs);
    kAppends.add();
    const auto record = encodeRecord(index, r);
    std::lock_guard<std::mutex> lock(appendMu_);
    if (util::FaultInjector::global().shouldFail("journal", index)) {
        // Injected torn write: persist only half the record, exactly
        // what a crash mid-append leaves behind.
        util::writeAll(fd_, record.data(), record.size() / 2, path_);
        ::fsync(fd_);
        throw std::runtime_error(
            "injected fault: journal append (torn write at index " +
            std::to_string(index) + ")");
    }
    util::writeAll(fd_, record.data(), record.size(), path_);
    fsyncOrThrow(fd_, path_);
    kFsyncs.add();
}

} // namespace study
} // namespace dse
