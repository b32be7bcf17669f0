/**
 * @file
 * Tests for the benches' scope knobs (common.hh): their defaults,
 * their overrides, and the strict reader's exit on a bad value.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hh"

namespace dse {
namespace bench {
namespace {

TEST(Harness, BenchScopeDefaults)
{
    unsetenv("DSE_APPS");
    unsetenv("DSE_EVAL_POINTS");
    unsetenv("DSE_FULL_SPACE");
    const auto scope = BenchScope::fromEnv({"mesa", "mcf"});
    EXPECT_EQ(scope.apps, (std::vector<std::string>{"mesa", "mcf"}));
    EXPECT_EQ(scope.evalPoints, 1000u);
}

TEST(Harness, BenchScopeEnvOverrides)
{
    setenv("DSE_APPS", "gzip", 1);
    setenv("DSE_EVAL_POINTS", "123", 1);
    const auto scope = BenchScope::fromEnv({"mesa"});
    EXPECT_EQ(scope.apps, std::vector<std::string>{"gzip"});
    EXPECT_EQ(scope.evalPoints, 123u);
    unsetenv("DSE_APPS");
    unsetenv("DSE_EVAL_POINTS");
}

TEST(Harness, BenchScopeAcceptsItsBounds)
{
    const std::pair<const char *, const char *> edge[] = {
        {"DSE_MAX_SAMPLE_PCT", "100"}, {"DSE_BATCH", "1"},
        {"DSE_MAX_EPOCHS", "1"},       {"DSE_FULL_SPACE", "Yes"},
        {"DSE_CSV", "OFF"},
    };
    for (const auto &[name, value] : edge)
        setenv(name, value, 1);
    const auto scope = BenchScope::fromEnv({"mesa"});
    EXPECT_EQ(scope.maxSamplePct, 100.0);
    EXPECT_EQ(scope.batch, 1u);
    EXPECT_EQ(scope.evalPoints, 0u);  // the full space
    EXPECT_EQ(benchTrainOptions().maxEpochs, 1);
    EXPECT_FALSE(csvOutput());
    for (const auto &[name, value] : edge)
        unsetenv(name);
}

TEST(Harness, BenchScopeRefusesBadKnobs)
{
    // Each value exits 1 with one line naming its variable, before
    // fromEnv returns a scope. tests/cli_tools.py runs a bench binary
    // on six more.
    const std::pair<const char *, const char *> bad[] = {
        {"DSE_MAX_EPOCHS", "0"},     {"DSE_MAX_EPOCHS", "1e3"},
        {"DSE_MAX_SAMPLE_PCT", "0"}, {"DSE_MAX_SAMPLE_PCT", "100.5"},
        {"DSE_MAX_SAMPLE_PCT", "nan"}, {"DSE_FULL_SPACE", "2"},
        {"DSE_TRACE_LEN", "-1"},     {"DSE_TRACE_LEN", "4k"},
        {"DSE_APPS", ","},           {"DSE_APPS", "MESA"},
    };
    for (const auto &[name, value] : bad) {
        setenv(name, value, 1);
        EXPECT_EXIT(BenchScope::fromEnv({"mesa"}),
                    ::testing::ExitedWithCode(1), name)
            << name << "=" << value;
        unsetenv(name);
    }
}

} // namespace
} // namespace bench
} // namespace dse
