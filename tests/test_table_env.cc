/**
 * @file
 * Unit tests for table formatting and environment configuration.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "util/env.hh"
#include "util/table.hh"

namespace dse {
namespace {

TEST(Table, AlignedOutputContainsCells)
{
    Table t({"app", "ipc"});
    t.newRow();
    t.add("mesa");
    t.add(0.512, 3);
    t.newRow();
    t.add("mcf");
    t.add(0.087, 3);

    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("app"), std::string::npos);
    EXPECT_NE(out.find("mesa"), std::string::npos);
    EXPECT_NE(out.find("0.512"), std::string::npos);
    EXPECT_NE(out.find("0.087"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.newRow();
    t.add(1ll);
    t.add(2ll);
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, AddWithoutNewRowStartsRow)
{
    Table t({"x"});
    t.add("v");
    EXPECT_EQ(t.rows(), 1u);
}

TEST(FormatFixed, Precision)
{
    EXPECT_EQ(formatFixed(1.23456, 2), "1.23");
    EXPECT_EQ(formatFixed(1.0, 0), "1");
    EXPECT_EQ(formatFixed(-0.5, 1), "-0.5");
}

TEST(JoinSplit, RoundTrip)
{
    const std::vector<std::string> parts{"a", "bb", "ccc"};
    EXPECT_EQ(join(parts, ","), "a,bb,ccc");
    EXPECT_EQ(split("a,bb,ccc", ','), parts);
}

TEST(Split, DropsEmptyPieces)
{
    EXPECT_EQ(split(",,a,,b,", ','),
              (std::vector<std::string>{"a", "b"}));
    EXPECT_TRUE(split("", ',').empty());
}

class EnvTest : public ::testing::Test
{
  protected:
    void TearDown() override { unsetenv("DSE_TEST_VAR"); }
};

TEST_F(EnvTest, IntParsesAndFallsBack)
{
    setenv("DSE_TEST_VAR", "42", 1);
    EXPECT_EQ(envInt("DSE_TEST_VAR", 7), 42);
    setenv("DSE_TEST_VAR", "not-a-number", 1);
    EXPECT_EQ(envInt("DSE_TEST_VAR", 7), 7);
    unsetenv("DSE_TEST_VAR");
    EXPECT_EQ(envInt("DSE_TEST_VAR", 7), 7);
}

TEST_F(EnvTest, BoolVariants)
{
    for (const char *v : {"1", "true", "YES", "on"}) {
        setenv("DSE_TEST_VAR", v, 1);
        EXPECT_TRUE(envBool("DSE_TEST_VAR", false)) << v;
    }
    for (const char *v : {"0", "false", "NO", "off"}) {
        setenv("DSE_TEST_VAR", v, 1);
        EXPECT_FALSE(envBool("DSE_TEST_VAR", true)) << v;
    }
    setenv("DSE_TEST_VAR", "maybe", 1);
    EXPECT_TRUE(envBool("DSE_TEST_VAR", true));
}

} // namespace
} // namespace dse
