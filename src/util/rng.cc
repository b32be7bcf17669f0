#include "util/rng.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

namespace dse {

namespace {

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

uint64_t
SplitMix64::next()
{
    x_ += 0x9e3779b97f4a7c15ull;
    uint64_t z = x_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed)
{
    SplitMix64 sm(seed);
    for (auto &word : s_)
        word = sm.next();
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::below(uint64_t n)
{
    assert(n > 0);
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = (0 - n) % n;
    for (;;) {
        uint64_t r = next();
        if (r >= threshold)
            return r % n;
    }
}

int64_t
Rng::range(int64_t lo, int64_t hi)
{
    assert(lo <= hi);
    return lo + static_cast<int64_t>(
        below(static_cast<uint64_t>(hi - lo) + 1));
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

double
Rng::gaussian()
{
    // Box-Muller; regenerate on the (measure-zero) log(0) edge.
    double u1 = uniform();
    while (u1 <= 0.0)
        u1 = uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double
Rng::gaussian(double mean, double sd)
{
    return mean + sd * gaussian();
}

std::vector<uint64_t>
Rng::sampleWithoutReplacement(uint64_t n, uint64_t k)
{
    if (k > n)
        throw std::invalid_argument("sampleWithoutReplacement: k > n");

    if (k * 2 >= n) {
        // Dense case: shuffle the full index range and truncate.
        std::vector<uint64_t> all(n);
        std::iota(all.begin(), all.end(), 0);
        shuffle(all);
        all.resize(k);
        return all;
    }

    // Floyd's algorithm: for j in [n-k, n), draw t in [0, j]; insert
    // t unless already chosen, in which case insert j.
    std::unordered_set<uint64_t> chosen;
    std::vector<uint64_t> out;
    out.reserve(k);
    for (uint64_t j = n - k; j < n; ++j) {
        uint64_t t = below(j + 1);
        if (chosen.count(t)) {
            chosen.insert(j);
            out.push_back(j);
        } else {
            chosen.insert(t);
            out.push_back(t);
        }
    }
    return out;
}

} // namespace dse
