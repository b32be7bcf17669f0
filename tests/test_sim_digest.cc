/**
 * @file
 * Differential oracle for the core simulator: FNV-1a digests of every
 * SimResult field (doubles as IEEE-754 bit patterns) over a grid of
 * study configurations, run shapes, partial-simulation estimates and
 * hand-built edge traces.
 *
 * The pins were produced by the scan-based pipeline that preceded the
 * event-driven scheduler, except dram_chain, which was recorded on the
 * event-driven pipeline while its completions still went through a
 * binary heap (its completions land far beyond any short completion
 * calendar). Any rewrite of the core's timing machinery
 * must leave every pin unchanged: SimResult is integer cycles and
 * counts, so the contract is exact equality, not a tolerance. A
 * deliberate modelling change that moves them must update the pins in
 * the same commit and say why.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "fnv.hh"
#include "sim/cacti.hh"
#include "sim/core.hh"
#include "simpoint/simpoint.hh"
#include "simpoint/smarts.hh"
#include "study/spaces.hh"
#include "workload/generator.hh"

namespace dse {
namespace {

using sim::MachineConfig;
using sim::SimOptions;
using sim::SimResult;
using workload::OpClass;
using workload::Trace;
using workload::TraceOp;

/** FNV-1a over every SimResult field. */
class Fnv : public testfnv::Fnv
{
  public:
    using testfnv::Fnv::add;

    void
    add(const SimResult &r)
    {
        add(r.cycles);
        add(r.instructions);
        add(r.ipc);
        add(r.l1dMissRate);
        add(r.l2MissRate);
        add(r.l1iMissRate);
        add(r.branchMispredictRate);
        add(r.l1dAccesses);
        add(r.l1dMisses);
        add(r.l2Accesses);
        add(r.l2Misses);
        add(r.l1iAccesses);
        add(r.l1iMisses);
        add(r.branches);
        add(r.branchMispredicts);
    }
};

using testfnv::hex;

constexpr size_t kTraceLength = 8192;
constexpr int kConfigsPerStudy = 24;

/** Spread design-point indices: both corners plus a golden-ratio walk. */
std::vector<uint64_t>
configIndices(uint64_t space_size)
{
    std::vector<uint64_t> out = {0, space_size - 1};
    for (int k = 0; k < kConfigsPerStudy; ++k) {
        const uint64_t h =
            static_cast<uint64_t>(k + 1) * 0x9e3779b97f4a7c15ull;
        out.push_back((h >> 17) % space_size);
    }
    return out;
}

/**
 * Every run shape the studies and samplers use on one configuration:
 * a warm full run, a cold full run, a functionally warmed range with
 * a detailed-warmup prefix, and a SimPoint-style warm interval.
 */
void
digestRunShapes(Fnv &fnv, const Trace &trace, const MachineConfig &cfg,
                int k)
{
    SimOptions warm;
    warm.warmCaches = true;
    fnv.add(sim::simulate(trace, cfg, warm));

    fnv.add(sim::simulate(trace, cfg, SimOptions{}));

    SimOptions range;
    range.begin = 1024 + static_cast<size_t>(k) * 97 % 3072;
    range.end = range.begin + 2048 + static_cast<size_t>(k) * 61;
    range.warmupInstructions = k % 3 == 0 ? 0 : 1500;
    range.detailedWarmup = k % 2 == 0 ? 700 : 0;
    fnv.add(sim::simulate(trace, cfg, range));

    SimOptions interval;
    interval.begin = 4096;
    interval.end = 6144;
    interval.detailedWarmup = 1024;
    interval.warmCaches = true;
    fnv.add(sim::simulate(trace, cfg, interval));
}

struct StudyPin
{
    study::StudyKind kind;
    const char *app;
    uint64_t digest;
};

void
PrintTo(const StudyPin &pin, std::ostream *os)
{
    *os << study::studyName(pin.kind) << "/" << pin.app;
}

// clang-format off
const StudyPin kStudyPins[] = {
    {study::StudyKind::MemorySystem, "gzip",   0xbe176a1823119109ull},
    {study::StudyKind::MemorySystem, "mcf",    0x57dd044d8712264full},
    {study::StudyKind::MemorySystem, "crafty", 0x60ff284a7704e06cull},
    {study::StudyKind::MemorySystem, "twolf",  0x38ec6112f3e4333aull},
    {study::StudyKind::MemorySystem, "mesa",   0x42c5e4832f4ff83cull},
    {study::StudyKind::MemorySystem, "equake", 0xb195a12da1fbbb71ull},
    {study::StudyKind::MemorySystem, "mgrid",  0x3e126fcff8785a81ull},
    {study::StudyKind::MemorySystem, "applu",  0x356e90d7d4c9bce2ull},
    {study::StudyKind::Processor,    "gzip",   0x2ab38ca584341b22ull},
    {study::StudyKind::Processor,    "mcf",    0xb1a595e9ede440e1ull},
    {study::StudyKind::Processor,    "crafty", 0xd5664ede8ae2a88full},
    {study::StudyKind::Processor,    "twolf",  0xbaf3eec7ba62a5e5ull},
    {study::StudyKind::Processor,    "mesa",   0x9cca94d565b090d4ull},
    {study::StudyKind::Processor,    "equake", 0xe3a8b8bd519bcd67ull},
    {study::StudyKind::Processor,    "mgrid",  0xedb928a64bdb5d1cull},
    {study::StudyKind::Processor,    "applu",  0x6ce643c91a541369ull},
};
// clang-format on

class SimDigestStudy : public ::testing::TestWithParam<StudyPin> {};

TEST_P(SimDigestStudy, EveryFieldOfEveryRunShape)
{
    const StudyPin &pin = GetParam();
    const auto trace =
        workload::generateBenchmarkTrace(pin.app, kTraceLength);
    const auto space = study::spaceFor(pin.kind);
    Fnv fnv;
    int k = 0;
    for (uint64_t idx : configIndices(space.size())) {
        const auto cfg =
            study::configFor(pin.kind, space, space.levels(idx));
        digestRunShapes(fnv, trace, cfg, k++);
    }
    EXPECT_EQ(hex(fnv.value()), hex(pin.digest))
        << study::studyName(pin.kind) << "/" << pin.app;
}

INSTANTIATE_TEST_SUITE_P(
    Pins, SimDigestStudy, ::testing::ValuesIn(kStudyPins),
    [](const ::testing::TestParamInfo<StudyPin> &info) {
        return std::string(info.param.kind ==
                                   study::StudyKind::MemorySystem
                               ? "memory_"
                               : "processor_") +
            info.param.app;
    });

struct AppPin
{
    const char *app;
    uint64_t digest;
};

void
PrintTo(const AppPin &pin, std::ostream *os)
{
    *os << pin.app;
}

// clang-format off
const AppPin kSamplingPins[] = {
    {"gzip",   0x327d21dbdacf9fe4ull},
    {"mcf",    0xe63d0e164e3ed83cull},
    {"crafty", 0xc0cf397eb78fa729ull},
    {"twolf",  0xeb9e780816e91113ull},
    {"mesa",   0x4a9775a310581010ull},
    {"equake", 0xfeebf85fb0cde21bull},
    {"mgrid",  0x490530f5d8257f98ull},
    {"applu",  0xdaabe1d9f812e85bull},
};
// clang-format on

class SimDigestSampling : public ::testing::TestWithParam<AppPin> {};

TEST_P(SimDigestSampling, SimPointAndSmartsEstimates)
{
    const AppPin &pin = GetParam();
    const auto trace =
        workload::generateBenchmarkTrace(pin.app, kTraceLength);
    simpoint::SimPointOptions sp_opts;
    sp_opts.intervalLength = 1024;
    sp_opts.maxK = 6;
    const auto points = simpoint::pickSimPoints(trace, sp_opts);

    Fnv fnv;
    for (auto kind :
         {study::StudyKind::MemorySystem, study::StudyKind::Processor}) {
        const auto space = study::spaceFor(kind);
        const auto indices = configIndices(space.size());
        for (size_t i = 0; i < 6; ++i) {
            const auto cfg = study::configFor(kind, space,
                                              space.levels(indices[i]));
            const auto sp = simpoint::estimateIpc(trace, cfg, points);
            fnv.add(sp.ipc);
            fnv.add(static_cast<uint64_t>(sp.instructionsSimulated));

            simpoint::SmartsOptions sm_opts;
            sm_opts.unitInstructions = 256 << (i % 3);
            sm_opts.cadence = 3 + i;
            sm_opts.phase = i;
            const auto sm =
                simpoint::smartsEstimateIpc(trace, cfg, sm_opts);
            fnv.add(sm.ipc);
            fnv.add(static_cast<uint64_t>(sm.instructionsSimulated));
            fnv.add(static_cast<uint64_t>(sm.unitsSampled));
        }
    }
    EXPECT_EQ(hex(fnv.value()), hex(pin.digest)) << pin.app;
}

INSTANTIATE_TEST_SUITE_P(
    Pins, SimDigestSampling, ::testing::ValuesIn(kSamplingPins),
    [](const ::testing::TestParamInfo<AppPin> &info) {
        return std::string(info.param.app);
    });

/** Deterministic 64-bit LCG for the hand-built traces, local so the
 *  pins depend on nothing but the simulator. */
class Lcg
{
  public:
    explicit Lcg(uint64_t seed) : s_(seed) {}

    uint32_t
    next(uint32_t bound)
    {
        s_ = s_ * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<uint32_t>((s_ >> 33) % bound);
    }

  private:
    uint64_t s_;
};

MachineConfig
baseConfig()
{
    MachineConfig cfg;
    sim::CactiModel::applyLatencies(cfg);
    return cfg;
}

/** Run a hand-built trace warm and cold, whole and as a range. */
uint64_t
digestEdge(const Trace &trace, const MachineConfig &cfg)
{
    Fnv fnv;
    SimOptions warm;
    warm.warmCaches = true;
    fnv.add(sim::simulate(trace, cfg, warm));
    fnv.add(sim::simulate(trace, cfg, SimOptions{}));
    SimOptions range;
    range.begin = trace.size() / 3;
    range.end = 2 * trace.size() / 3;
    range.warmupInstructions = trace.size() / 4;
    range.detailedWarmup = trace.size() / 8;
    fnv.add(sim::simulate(trace, cfg, range));
    return fnv.value();
}

TraceOp
op(OpClass cls, uint64_t addr = 0, int32_t src1 = 0, int32_t src2 = 0)
{
    TraceOp o;
    o.cls = cls;
    o.addr = addr;
    o.src1 = src1;
    o.src2 = src2;
    o.fpDest = cls == OpClass::FpAlu || cls == OpClass::FpMul;
    return o;
}

Trace
finish(std::vector<TraceOp> ops)
{
    Trace t;
    t.app = "edge";
    t.numBlocks = 1;
    t.numBranches = 1;
    for (size_t i = 0; i < ops.size(); ++i) {
        ops[i].pc = static_cast<uint32_t>(0x1000 + 4 * (i % 512));
        if (ops[i].cls == OpClass::Branch)
            ops[i].branchId = 0;
    }
    t.ops = std::move(ops);
    return t;
}

/** Long-latency misses keep a near-maximal ROB full as indices wrap
 *  the 256-entry ring many times. */
Trace
robWrapTrace()
{
    std::vector<TraceOp> ops;
    for (size_t i = 0; i < 3000; ++i) {
        if (i % 7 == 0)
            ops.push_back(op(OpClass::Load, 0x100000 + 4096 * i, 7));
        else
            ops.push_back(op(OpClass::IntAlu, 0, 1,
                             static_cast<int32_t>(i % 5)));
    }
    return finish(std::move(ops));
}

/** Stores wait on slow loads; younger loads to the same 8-byte block
 *  must wait, loads to neighbouring blocks may bypass. */
Trace
storeConflictTrace()
{
    std::vector<TraceOp> ops;
    for (size_t i = 0; i < 2400; ++i) {
        const uint64_t base = 0x40000 + 64 * (i / 8 % 16);
        TraceOp o;
        switch (i % 8) {
          case 0: o = op(OpClass::Load, 0x800000 + 8192 * i); break;
          case 1: o = op(OpClass::Store, base, 1); break;
          case 2: o = op(OpClass::Load, base + 4); break;  // same block
          case 3: o = op(OpClass::Load, base + 8); break;  // next block
          case 4: o = op(OpClass::Store, base + 16, 0, 4); break;
          case 5: o = op(OpClass::Load, base + 16, 1); break;
          case 6: o = op(OpClass::Load, base + 20); break;
          default: o = op(OpClass::IntAlu, 0, 2, 3); break;
        }
        ops.push_back(o);
    }
    return finish(std::move(ops));
}

/** Independent misses to distinct blocks: one MSHR is exhausted at
 *  once and loads retry (their L1D lines already allocated). */
Trace
mshrTrace()
{
    std::vector<TraceOp> ops;
    for (size_t i = 0; i < 2000; ++i) {
        if (i % 3 == 2)
            ops.push_back(op(OpClass::IntAlu, 0, 1, 2));
        else
            ops.push_back(op(OpClass::Load, 0x200000 + 256 * i));
    }
    return finish(std::move(ops));
}

/** src1 == src2, distances past the start of the trace, zero and
 *  negative distances, and every op class. */
Trace
dependenceTrace()
{
    std::vector<TraceOp> ops;
    for (size_t i = 0; i < 2000; ++i) {
        const auto d = static_cast<int32_t>(i % 9);
        const auto at = static_cast<int32_t>(i);
        TraceOp o;
        switch (i % 6) {
          case 0: o = op(OpClass::IntMul, 0, d, d); break;
          case 1: o = op(OpClass::FpMul, 0, 3000, d); break;
          case 2: o = op(OpClass::FpAlu, 0, -2, 1); break;
          case 3: o = op(OpClass::Load, 0x9000 + 8 * (i % 64), 2, 2); break;
          case 4: o = op(OpClass::Store, 0x9000 + 8 * (i % 32), 1, at + 1);
                  break;
          default: o = op(OpClass::IntAlu, 0, at, 4); break;
        }
        ops.push_back(o);
    }
    return finish(std::move(ops));
}

/** Many independent ops of mixed classes: the issue width fills
 *  every cycle while per-class unit limits skip some ready ops. */
Trace
widthTrace()
{
    const OpClass mix[] = {OpClass::IntAlu, OpClass::FpAlu, OpClass::IntAlu,
                           OpClass::Load,   OpClass::IntMul, OpClass::Store,
                           OpClass::FpMul,  OpClass::IntAlu};
    std::vector<TraceOp> ops;
    for (size_t i = 0; i < 3000; ++i) {
        const OpClass cls = mix[i % 8];
        ops.push_back(op(cls, 0xa000 + 8 * (i % 128),
                         i % 16 == 0 ? 12 : 0));
    }
    return finish(std::move(ops));
}

/** Back-to-back dependent loads that each miss to DRAM (they are
 *  never pre-warmed), with ALU ops and a warm load/store region in
 *  between. Every other group of eight also stores to two cold blocks,
 *  so the FSB is still busy when the next chain load misses. On the
 *  slowest FSB with 128-byte L2 blocks the chain loads complete about
 *  550 or 1,500 cycles after they issue, and the first one about 8,000. */
Trace
dramChainTrace()
{
    std::vector<TraceOp> ops;
    for (size_t i = 0; i < 2400; ++i) {
        const bool busy_fsb = i / 8 % 2 == 0;
        TraceOp o;
        switch (i % 8) {
          case 0:  // depends on the previous chain load
            o = op(OpClass::Load, 0x4000000 + 4096 * i, 8);
            o.noWarm = true;
            break;
          case 1: o = op(OpClass::IntAlu, 0, 1); break;
          case 2:
          case 3:
            o = op(OpClass::Store, busy_fsb ? 0x8000000 + 4096 * i
                                            : 0xc000 + 8 * (i % 64));
            o.noWarm = busy_fsb;
            break;
          case 5: o = op(OpClass::Store, 0xc000 + 8 * (i % 64), 1); break;
          case 6: o = op(OpClass::IntAlu, 0, 2, 5); break;
          default: o = op(OpClass::Load, 0xc000 + 8 * (i % 32)); break;
        }
        ops.push_back(o);
    }
    return finish(std::move(ops));
}

/** A random mix of everything, including mispredicted branches. */
Trace
randomTrace(uint64_t seed)
{
    Lcg rng(seed);
    std::vector<TraceOp> ops;
    const OpClass classes[] = {OpClass::IntAlu, OpClass::IntMul,
                               OpClass::FpAlu,  OpClass::FpMul,
                               OpClass::Load,   OpClass::Store,
                               OpClass::Branch};
    for (size_t i = 0; i < 4000; ++i) {
        TraceOp o = op(classes[rng.next(7)],
                       rng.next(4) == 0 ? 0x300000 + 64 * rng.next(20000)
                                        : 0xb000 + 4 * rng.next(96),
                       static_cast<int32_t>(rng.next(40)) - 4,
                       static_cast<int32_t>(rng.next(12)));
        o.taken = rng.next(3) != 0;
        o.noWarm = rng.next(16) == 0;
        ops.push_back(o);
    }
    return finish(std::move(ops));
}

/** Configurations most edge traces run under. */
std::vector<MachineConfig>
edgeConfigs()
{
    std::vector<MachineConfig> out;
    out.push_back(baseConfig());

    MachineConfig big = baseConfig();  // ring wrap with a full ROB
    big.robSize = 255;
    big.lsqLoads = big.lsqStores = 128;
    big.intRegs = big.fpRegs = 300;
    big.maxBranches = 64;
    out.push_back(big);

    MachineConfig one_mshr = baseConfig();
    one_mshr.mshrs = 1;
    out.push_back(one_mshr);

    MachineConfig narrow = baseConfig();  // width-bound issue
    narrow.issueWidth = 2;
    narrow.fetchWidth = narrow.commitWidth = 8;
    narrow.intAluUnits = 1;
    narrow.fpUnits = 1;
    narrow.loadPorts = 1;
    narrow.storePorts = 1;
    out.push_back(narrow);

    MachineConfig wide = baseConfig();
    wide.fetchWidth = wide.issueWidth = wide.commitWidth = 8;
    wide.l1d = {8, 32, 1, false};  // write-through L1D
    wide.l2 = {256, 64, 1, true};
    wide.mshrs = 2;
    sim::CactiModel::applyLatencies(wide);
    out.push_back(wide);

    MachineConfig tiny = baseConfig();  // ROB of one
    tiny.robSize = 1;
    out.push_back(tiny);
    return out;
}

/** The slowest memory either study builds: the 0.533 GHz FSB moving
 *  128-byte L2 blocks, with one MSHR and with the default eight. */
std::vector<MachineConfig>
slowMemoryConfigs()
{
    MachineConfig slow = baseConfig();
    slow.fsbGHz = 0.533;
    slow.l2.blockBytes = 128;
    sim::CactiModel::applyLatencies(slow);
    MachineConfig one_mshr = slow;
    one_mshr.mshrs = 1;
    return {one_mshr, slow};
}

struct EdgeCase
{
    const char *name;
    Trace (*trace)();
    std::vector<MachineConfig> (*configs)();
    uint64_t digest;
};

void
PrintTo(const EdgeCase &edge, std::ostream *os)
{
    *os << edge.name;
}

// clang-format off
const EdgeCase kEdgePins[] = {
    {"rob_wrap",       robWrapTrace,       edgeConfigs,
     0x05db3e6e9fb6f75aull},
    {"store_conflict", storeConflictTrace, edgeConfigs,
     0x2e7dcc89dc21ce17ull},
    {"mshr",           mshrTrace,          edgeConfigs,
     0x083a796e545df5b0ull},
    {"dependence",     dependenceTrace,    edgeConfigs,
     0xb6648d65fff10973ull},
    {"width",          widthTrace,         edgeConfigs,
     0x08493783ea2da8b9ull},
    {"random",         [] { return randomTrace(7); }, edgeConfigs,
     0xf0b293a2ee456508ull},
    {"dram_chain",     dramChainTrace,     slowMemoryConfigs,
     0xaab63efd52c5aad5ull},
};
// clang-format on

class SimDigestEdge : public ::testing::TestWithParam<EdgeCase> {};

TEST_P(SimDigestEdge, HandBuiltTrace)
{
    const EdgeCase &edge = GetParam();
    const Trace trace = edge.trace();
    Fnv fnv;
    for (const auto &cfg : edge.configs())
        fnv.add(digestEdge(trace, cfg));
    EXPECT_EQ(hex(fnv.value()), hex(edge.digest)) << edge.name;
}

INSTANTIATE_TEST_SUITE_P(
    Pins, SimDigestEdge, ::testing::ValuesIn(kEdgePins),
    [](const ::testing::TestParamInfo<EdgeCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace dse
