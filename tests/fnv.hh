/**
 * @file
 * Streaming FNV-1a 64 for the digest pins (tests/test_sim_digest.cc,
 * tests/test_golden.cc, tests/test_faults.cc, tests/test_serve_fuzz.cc).
 * Doubles enter as their IEEE-754 bit patterns, so a pin holds only
 * while results are bit-identical: the contract is exact equality, not
 * a tolerance. Byte-format pins hash raw bytes (addBytes).
 */

#ifndef DSE_TESTS_FNV_HH
#define DSE_TESTS_FNV_HH

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "ml/cross_validation.hh"
#include "ml/multitask.hh"
#include "sim/config.hh"

namespace dse {
namespace testfnv {

/** Streaming FNV-1a 64. */
class Fnv
{
  public:
    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }

    void
    add(double d)
    {
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof bits);
        add(bits);
    }

    void
    add(const std::vector<double> &v)
    {
        add(static_cast<uint64_t>(v.size()));
        for (double d : v)
            add(d);
    }

    void
    addBytes(std::string_view bytes)
    {
        for (unsigned char c : bytes) {
            h_ ^= c;
            h_ *= 0x100000001b3ull;
        }
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

inline std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Digest of a byte string: a file's contents or an encoded frame. */
inline std::string
bytesDigest(std::string_view bytes)
{
    Fnv fnv;
    fnv.addBytes(bytes);
    return hex(fnv.value());
}

/** Digest of one SimResult, every field in declaration order. */
inline std::string
resultDigest(const sim::SimResult &r)
{
    Fnv fnv;
    fnv.add(r.cycles);
    fnv.add(r.instructions);
    fnv.add(r.ipc);
    fnv.add(r.l1dMissRate);
    fnv.add(r.l2MissRate);
    fnv.add(r.l1iMissRate);
    fnv.add(r.branchMispredictRate);
    fnv.add(r.l1dAccesses);
    fnv.add(r.l1dMisses);
    fnv.add(r.l2Accesses);
    fnv.add(r.l2Misses);
    fnv.add(r.l1iAccesses);
    fnv.add(r.l1iMisses);
    fnv.add(r.branches);
    fnv.add(r.branchMispredicts);
    return hex(fnv.value());
}

/** A quiet NaN carrying a payload: its bits must survive a round trip. */
inline double
nanWithPayload()
{
    return std::bit_cast<double>(0x7ff80000deadbeefull);
}

/**
 * Three fixed results for the byte-format pins (journal records and
 * SimulateBatchReply frames). Their doubles cover -0.0, the smallest
 * subnormal, a NaN payload and infinity; their counters cover zero
 * and the top bit.
 */
inline std::vector<sim::SimResult>
pinnedResults()
{
    sim::SimResult a;
    a.cycles = 123456789;
    a.instructions = 98765432;
    a.ipc = 0.8;
    a.l1dMissRate = -0.0;
    a.l2MissRate = std::numeric_limits<double>::denorm_min();
    a.l1iMissRate = nanWithPayload();
    a.branchMispredictRate = 1.0 / 3.0;
    a.l1dAccesses = 40000;
    a.l1dMisses = 1200;
    a.l2Accesses = 1200;
    a.l2Misses = 48;
    a.l1iAccesses = 90000;
    a.l1iMisses = 17;
    a.branches = 9000;
    a.branchMispredicts = 153;

    sim::SimResult b;
    b.cycles = std::numeric_limits<uint64_t>::max();
    b.instructions = 1ull << 63;
    b.ipc = std::numeric_limits<double>::infinity();
    b.l1dMissRate = -std::numeric_limits<double>::denorm_min();
    b.l2MissRate = std::numeric_limits<double>::max();
    b.l1iMissRate = -1.5;
    b.branchMispredictRate = 0x1.23456789abcdep-7;
    b.l1dAccesses = 0x0102030405060708ull;
    b.l1dMisses = 0x8070605040302010ull;
    b.l2Accesses = 1;
    b.l2Misses = 2;
    b.l1iAccesses = 3;
    b.l1iMisses = 4;
    b.branches = 5;
    b.branchMispredicts = 6;

    return {a, b, sim::SimResult{}};
}

/**
 * Digest of a trained ensemble: every member's weights in member
 * order, the error estimate, and the fold and attempt count of every
 * dropped fold.
 */
inline std::string
ensembleDigest(const ml::Ensemble &model)
{
    Fnv fnv;
    fnv.add(static_cast<uint64_t>(model.members()));
    for (size_t m = 0; m < model.members(); ++m)
        fnv.add(model.memberWeights(m));
    fnv.add(model.estimate().meanPct);
    fnv.add(model.estimate().sdPct);
    for (const auto &w : model.warnings()) {
        fnv.add(static_cast<uint64_t>(w.fold));
        fnv.add(static_cast<uint64_t>(w.attempts));
    }
    return hex(fnv.value());
}

/**
 * Digest of a trained multi-task ensemble, which does not expose its
 * member weights: the member count, every decoded prediction of every
 * target on each of the @p probe rows, the primary estimate, and the
 * fold and attempt count of every dropped fold.
 */
inline std::string
ensembleDigest(const ml::MultiTaskEnsemble &model,
               const std::vector<std::vector<double>> &probe)
{
    Fnv fnv;
    fnv.add(static_cast<uint64_t>(model.members()));
    for (const auto &x : probe)
        fnv.add(model.predictAll(x));
    fnv.add(model.estimate().meanPct);
    fnv.add(model.estimate().sdPct);
    for (const auto &w : model.warnings()) {
        fnv.add(static_cast<uint64_t>(w.fold));
        fnv.add(static_cast<uint64_t>(w.attempts));
    }
    return hex(fnv.value());
}

} // namespace testfnv
} // namespace dse

#endif // DSE_TESTS_FNV_HH
