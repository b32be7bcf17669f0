/**
 * @file
 * Unit and property tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/rng.hh"

namespace dse {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformMeanIsCentred)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysBelow)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(7), 7u);
}

TEST(Rng, BelowCoversAllValues)
{
    Rng rng(5);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(5));
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, BelowIsApproximatelyUniform)
{
    Rng rng(17);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.below(10)];
    for (int c : counts)
        EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(13);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(21);
    double sum = 0.0, sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianScaled)
{
    Rng rng(23);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(5.0, 2.0);
    EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(31);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyMoves)
{
    Rng rng(31);
    std::vector<int> v(100);
    for (int i = 0; i < 100; ++i)
        v[i] = i;
    rng.shuffle(v);
    int moved = 0;
    for (int i = 0; i < 100; ++i)
        moved += v[i] != i;
    EXPECT_GT(moved, 50);
}

TEST(Rng, SampleWithoutReplacementDistinct)
{
    Rng rng(41);
    auto s = rng.sampleWithoutReplacement(1000, 100);
    EXPECT_EQ(s.size(), 100u);
    std::set<uint64_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 100u);
    for (uint64_t x : s)
        EXPECT_LT(x, 1000u);
}

TEST(Rng, SampleWithoutReplacementFullRange)
{
    Rng rng(43);
    auto s = rng.sampleWithoutReplacement(50, 50);
    std::set<uint64_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 50u);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample)
{
    Rng rng(47);
    EXPECT_THROW(rng.sampleWithoutReplacement(10, 11),
                 std::invalid_argument);
}

/** Property sweep: determinism and bounds across seeds. */
class RngSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngSeedTest, ReplayIsIdentical)
{
    Rng a(GetParam()), b(GetParam());
    for (int i = 0; i < 50; ++i) {
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
        EXPECT_EQ(a.below(100), b.below(100));
    }
}

TEST_P(RngSeedTest, SampleIsValidForAnySeed)
{
    Rng rng(GetParam());
    auto s = rng.sampleWithoutReplacement(200, 50);
    std::set<uint64_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedTest,
                         ::testing::Values(0, 1, 42, 0xdeadbeef,
                                           ~0ull, 123456789));

} // namespace
} // namespace dse
