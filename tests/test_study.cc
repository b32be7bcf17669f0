/**
 * @file
 * Tests for the study layer: the paper's two design spaces (Tables
 * 4.1/4.2), the design-point -> machine mapping with its dependent
 * parameters, and the evaluation utilities.
 */

#include <gtest/gtest.h>

#include <set>

#include "study/harness.hh"
#include "study/spaces.hh"
#include "util/stats.hh"

namespace dse {
namespace study {
namespace {

TEST(Spaces, MemorySystemMatchesPaperSize)
{
    // Table 4.1: 23,040 simulations per benchmark.
    EXPECT_EQ(memorySystemSpace().size(), 23040u);
}

TEST(Spaces, ProcessorMatchesPaperSize)
{
    // Table 4.2: 20,736 simulations per benchmark.
    EXPECT_EQ(processorSpace().size(), 20736u);
}

TEST(Spaces, MemorySystemParameterNames)
{
    const auto space = memorySystemSpace();
    for (const char *name :
         {"L1DSizeKB", "L1DBlockB", "L1DAssoc", "L1DWritePolicy",
          "L2SizeKB", "L2BlockB", "L2Assoc", "L2BusB", "FSBGHz"}) {
        EXPECT_NO_THROW(space.paramIndex(name)) << name;
    }
}

TEST(Spaces, MemorySystemConfigMapsAllParameters)
{
    const auto space = memorySystemSpace();
    std::vector<int> lv(space.numParams(), 0);
    lv[space.paramIndex("L1DSizeKB")] = 3;       // 64 KB
    lv[space.paramIndex("L1DWritePolicy")] = 0;  // WT
    lv[space.paramIndex("L2Assoc")] = 4;         // 16-way
    lv[space.paramIndex("FSBGHz")] = 2;          // 1.4 GHz
    const auto cfg = memorySystemConfig(space, lv);
    EXPECT_EQ(cfg.l1d.sizeKB, 64);
    EXPECT_FALSE(cfg.l1d.writeBack);
    EXPECT_EQ(cfg.l2.assoc, 16);
    EXPECT_DOUBLE_EQ(cfg.fsbGHz, 1.4);
    // Fixed parameters from the right side of Table 4.1.
    EXPECT_DOUBLE_EQ(cfg.freqGHz, 4.0);
    EXPECT_EQ(cfg.fetchWidth, 4);
    EXPECT_EQ(cfg.robSize, 128);
    EXPECT_EQ(cfg.l1i.sizeKB, 32);
    EXPECT_EQ(cfg.l1iLatency, 2);
    EXPECT_GE(cfg.l1dLatency, 1);
    EXPECT_GT(cfg.l2Latency, cfg.l1dLatency);
}

TEST(Spaces, ProcessorConfigDependentParameters)
{
    const auto space = processorSpace();
    std::vector<int> lv(space.numParams(), 0);

    // 2 GHz -> 11-cycle penalty; 4 GHz -> 20 cycles.
    lv[space.paramIndex("FreqGHz")] = 0;
    EXPECT_EQ(processorConfig(space, lv).mispredictPenaltyCycles, 11);
    lv[space.paramIndex("FreqGHz")] = 1;
    EXPECT_EQ(processorConfig(space, lv).mispredictPenaltyCycles, 20);

    // L1/L2 associativity tied to size (Table 4.2 right side).
    lv[space.paramIndex("L1DSizeKB")] = 0;  // 8 KB -> direct
    EXPECT_EQ(processorConfig(space, lv).l1d.assoc, 1);
    lv[space.paramIndex("L1DSizeKB")] = 1;  // 32 KB -> 2-way
    EXPECT_EQ(processorConfig(space, lv).l1d.assoc, 2);
    lv[space.paramIndex("L2SizeKB")] = 0;   // 256 KB -> 4-way
    EXPECT_EQ(processorConfig(space, lv).l2.assoc, 4);
    lv[space.paramIndex("L2SizeKB")] = 1;   // 1 MB -> 8-way
    EXPECT_EQ(processorConfig(space, lv).l2.assoc, 8);
}

TEST(Spaces, RegisterFileCoupledToRob)
{
    // Table 4.2: two register-file choices per ROB size.
    const auto space = processorSpace();
    std::vector<int> lv(space.numParams(), 0);
    const size_t rob = space.paramIndex("ROBSize");
    const size_t reg = space.paramIndex("RegFileChoice");

    const int expected[3][2] = {{64, 80}, {80, 96}, {96, 112}};
    for (int r = 0; r < 3; ++r) {
        for (int c = 0; c < 2; ++c) {
            lv[rob] = r;
            lv[reg] = c;
            const auto cfg = processorConfig(space, lv);
            EXPECT_EQ(cfg.intRegs, expected[r][c]) << r << "," << c;
            EXPECT_EQ(cfg.fpRegs, expected[r][c]);
        }
    }
}

TEST(Spaces, WidthSetsAllThreeStages)
{
    const auto space = processorSpace();
    std::vector<int> lv(space.numParams(), 0);
    lv[space.paramIndex("Width")] = 2;  // 8-wide
    const auto cfg = processorConfig(space, lv);
    EXPECT_EQ(cfg.fetchWidth, 8);
    EXPECT_EQ(cfg.issueWidth, 8);
    EXPECT_EQ(cfg.commitWidth, 8);
}

TEST(Spaces, EveryMemoryPointYieldsValidGeometry)
{
    const auto space = memorySystemSpace();
    // Sweep a systematic sample of the space; every point must build
    // a structurally valid machine (power-of-two sets etc.).
    for (uint64_t i = 0; i < space.size(); i += 487) {
        const auto cfg = memorySystemConfig(space, space.levels(i));
        EXPECT_GT(cfg.l1d.numSets(), 0);
        EXPECT_GT(cfg.l2.numSets(), 0);
    }
}

TEST(Spaces, StudyNamesAndDispatch)
{
    EXPECT_STREQ(studyName(StudyKind::MemorySystem), "memory-system");
    EXPECT_STREQ(studyName(StudyKind::Processor), "processor");
    EXPECT_EQ(spaceFor(StudyKind::MemorySystem).size(), 23040u);
    EXPECT_EQ(spaceFor(StudyKind::Processor).size(), 20736u);
}

TEST(Harness, SimulationIsMemoized)
{
    StudyContext ctx(StudyKind::MemorySystem, "gzip", 8192);
    const double a = ctx.simulateIpc(100);
    EXPECT_EQ(ctx.simulationsRun(), 1u);
    const double b = ctx.simulateIpc(100);
    EXPECT_EQ(ctx.simulationsRun(), 1u);
    EXPECT_DOUBLE_EQ(a, b);
    ctx.simulateIpc(200);
    EXPECT_EQ(ctx.simulationsRun(), 2u);
}

TEST(Harness, DifferentPointsDiffer)
{
    StudyContext ctx(StudyKind::MemorySystem, "crafty", 8192);
    // Extreme corners of the space should give different IPC.
    EXPECT_NE(ctx.simulateIpc(0), ctx.simulateIpc(ctx.space().size() - 1));
}

TEST(Harness, HoldoutExcludesAndIsDisjoint)
{
    const auto space = memorySystemSpace();
    const std::vector<uint64_t> excluded{1, 2, 3, 500, 900};
    const auto holdout = holdoutIndices(space, excluded, 300, 5);
    EXPECT_EQ(holdout.size(), 300u);
    std::set<uint64_t> seen;
    for (uint64_t idx : holdout) {
        EXPECT_LT(idx, space.size());
        EXPECT_TRUE(seen.insert(idx).second);
        for (uint64_t e : excluded)
            EXPECT_NE(idx, e);
    }
}

TEST(Harness, HoldoutZeroMeansFullSpace)
{
    ml::DesignSpace small;
    small.addCardinal("a", {1, 2, 3, 4});
    small.addCardinal("b", {1, 2, 3});
    const auto all = holdoutIndices(small, {3, 5}, 0, 1);
    EXPECT_EQ(all.size(), 10u);  // 12 - 2 excluded
}

TEST(Harness, SimPointSelectionIsStable)
{
    StudyContext ctx(StudyKind::Processor, "gzip", 16384);
    const auto &a = ctx.simPoints();
    const auto &b = ctx.simPoints();
    EXPECT_EQ(&a, &b);
    EXPECT_GE(a.k, 1);
    EXPECT_LT(a.detailedInstructions(), ctx.trace().size());
}

TEST(Harness, SimPointEstimateReasonable)
{
    StudyContext ctx(StudyKind::Processor, "gzip", 16384);
    const uint64_t idx = ctx.space().size() / 3;
    const double full = ctx.simulateIpc(idx);
    const double est = ctx.simulateSimPointIpc(idx);
    EXPECT_GT(est, 0.0);
    EXPECT_LT(percentageError(est, full), 40.0);
}

} // namespace
} // namespace study
} // namespace dse
