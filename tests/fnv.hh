/**
 * @file
 * Streaming FNV-1a 64 for the digest pins (tests/test_sim_digest.cc,
 * tests/test_golden.cc, tests/test_faults.cc). Doubles enter as their
 * IEEE-754 bit patterns, so a pin holds only while results are
 * bit-identical: the contract is exact equality, not a tolerance.
 */

#ifndef DSE_TESTS_FNV_HH
#define DSE_TESTS_FNV_HH

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ml/cross_validation.hh"

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

} // namespace testfnv
} // namespace dse

#endif // DSE_TESTS_FNV_HH
