/**
 * @file
 * Deterministic pseudo-random number generation for reproducible
 * experiments. All stochastic components in the library (trace
 * generation, sampling, network initialization, clustering) draw from
 * Rng instances seeded explicitly so that every experiment is exactly
 * repeatable across runs and platforms.
 */

#ifndef DSE_UTIL_RNG_HH
#define DSE_UTIL_RNG_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dse {

/**
 * SplitMix64 sequence generator (Steele et al.). Primarily a seed
 * deriver: successive next() values from one stream make statistically
 * decorrelated seeds for independent Rng streams — e.g. one seed per
 * cross-validation fold, so folds can train concurrently yet produce
 * results bit-identical to serial execution at any thread count.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(uint64_t seed) : x_(seed) {}

    /** Next 64-bit value of the stream. */
    uint64_t next();

  private:
    uint64_t x_;
};

/**
 * xoshiro256** PRNG with a splitmix64 seeding sequence.
 *
 * Chosen over std::mt19937 because its output sequence is fully
 * specified (libstdc++'s distributions are not portable across
 * implementations), it is fast, and its state is small.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; any value (including 0) is valid. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). Requires n > 0. */
    uint64_t below(uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    int64_t range(int64_t lo, int64_t hi);

    /** Bernoulli draw with probability p of returning true. */
    bool chance(double p);

    /** Standard normal deviate (Box-Muller, no caching). */
    double gaussian();

    /** Normal deviate with the given mean and standard deviation. */
    double gaussian(double mean, double sd);

    /** Fisher-Yates shuffle of a vector in place. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            size_t j = static_cast<size_t>(below(i));
            std::swap(v[i - 1], v[j]);
        }
    }

    /**
     * Sample k distinct values from [0, n) uniformly at random.
     * Uses Floyd's algorithm; O(k) expected time for k << n, falls
     * back to shuffling when k is a large fraction of n.
     */
    std::vector<uint64_t> sampleWithoutReplacement(uint64_t n, uint64_t k);

  private:
    uint64_t s_[4];
};

} // namespace dse

#endif // DSE_UTIL_RNG_HH
