#include "sim/memsys.hh"

#include <algorithm>
#include <cmath>

namespace dse {
namespace sim {

namespace {

/// Write-buffer depth (in bus cycles of slack) for write-through L1s.
constexpr uint64_t kWriteBufferSlack = 16;

} // namespace

MemorySystem::MemorySystem(const MachineConfig &cfg)
    : cfg_(cfg), l1i_(cfg.l1i), l1d_(cfg.l1d), l2_(cfg.l2)
{
    dramCycles_ = static_cast<uint64_t>(
        std::ceil(cfg.sdramNs * cfg.freqGHz));
    mshrs_.resize(static_cast<size_t>(std::max(1, cfg.mshrs)));
}

uint64_t
MemorySystem::l2BusCycles(int bytes) const
{
    // The L2 bus runs at core frequency (Pentium 4 style).
    const int width = std::max(1, cfg_.l2BusBytes);
    return static_cast<uint64_t>((bytes + width - 1) / width);
}

uint64_t
MemorySystem::fsbCycles(int bytes) const
{
    const int width = std::max(1, cfg_.fsbBytes);
    const double beats = std::ceil(static_cast<double>(bytes) / width);
    const double ns = beats / cfg_.fsbGHz;
    return static_cast<uint64_t>(std::ceil(ns * cfg_.freqGHz));
}

uint64_t
MemorySystem::serviceL1Miss(uint64_t addr, bool is_write, int block_bytes,
                            uint64_t ready)
{
    // Request crosses the L2 bus (address phase: one bus slot).
    uint64_t t = std::max(ready, l2BusFree_);
    l2BusFree_ = t + 1;
    t += 1;

    // L2 lookup.
    auto l2_result = l2_.access(addr, is_write);
    t += static_cast<uint64_t>(cfg_.l2Latency);

    if (!l2_result.hit) {
        // Fetch the L2 block from SDRAM over the FSB.
        uint64_t mem_start = std::max(t, fsbFree_);
        const uint64_t transfer = fsbCycles(cfg_.l2.blockBytes);
        fsbFree_ = mem_start + transfer;
        t = mem_start + dramCycles_ + transfer;
    }
    if (l2_result.writeback) {
        // Dirty L2 victim drains to memory; occupies the FSB but the
        // load does not wait for it.
        fsbFree_ = std::max(fsbFree_, t) + fsbCycles(cfg_.l2.blockBytes);
    }

    // Data returns to the L1 across the L2 bus. Critical word
    // first: the requester resumes after the first beat while the
    // rest of the block streams (the bus stays occupied for the
    // full transfer).
    const uint64_t fill = l2BusCycles(block_bytes);
    uint64_t data_start = std::max(t, l2BusFree_);
    l2BusFree_ = data_start + fill;
    return data_start + 1;
}

uint64_t
MemorySystem::load(uint64_t addr, uint64_t now)
{
    const uint64_t ready = now + static_cast<uint64_t>(cfg_.l1dLatency);
    const uint64_t req_block =
        addr / static_cast<uint64_t>(cfg_.l1d.blockBytes);
    auto result = l1d_.access(addr, false);
    if (result.hit) {
        // The tag may be present while its fill is still in flight:
        // wait for the outstanding miss to the same block.
        for (const auto &m : mshrs_) {
            if (m.valid && m.block == req_block && m.ready > now)
                return std::max(m.ready, ready);
        }
        return ready;
    }

    // Merge with an in-flight miss to the same block.
    const uint64_t block = req_block;
    Mshr *free_slot = nullptr;
    for (auto &m : mshrs_) {
        if (m.valid && m.ready <= now)
            m.valid = false;
        if (m.valid && m.block == block)
            return std::max(m.ready, ready);
        if (!m.valid)
            free_slot = &m;
    }
    if (!free_slot)
        return 0;  // MSHRs exhausted; caller retries

    if (result.writeback) {
        // Dirty L1 victim goes down the L2 bus and into the L2.
        l2BusFree_ = std::max(l2BusFree_, ready) +
            l2BusCycles(cfg_.l1d.blockBytes);
        auto wb = l2_.access(result.victimAddr, true);
        if (wb.writeback) {
            fsbFree_ = std::max(fsbFree_, ready) +
                fsbCycles(cfg_.l2.blockBytes);
        }
    }

    const uint64_t done =
        serviceL1Miss(addr, false, cfg_.l1d.blockBytes, ready);
    free_slot->valid = true;
    free_slot->block = block;
    free_slot->ready = done;
    return done;
}

uint64_t
MemorySystem::store(uint64_t addr, uint64_t now)
{
    const uint64_t ready = now + static_cast<uint64_t>(cfg_.l1dLatency);

    if (cfg_.l1d.writeBack) {
        auto result = l1d_.access(addr, true);
        if (result.hit)
            return ready;
        if (result.writeback) {
            l2BusFree_ = std::max(l2BusFree_, ready) +
                l2BusCycles(cfg_.l1d.blockBytes);
            auto wb = l2_.access(result.victimAddr, true);
            if (wb.writeback) {
                fsbFree_ = std::max(fsbFree_, ready) +
                    fsbCycles(cfg_.l2.blockBytes);
            }
        }
        // Write-allocate: fetch the block, but the store buffer hides
        // the latency from the core; the traffic still occupies buses.
        serviceL1Miss(addr, false, cfg_.l1d.blockBytes, ready);
        return ready;
    }

    // Write-through, no-write-allocate: the word is written to the L2
    // on every store, consuming L2 bus bandwidth. A small write
    // buffer decouples the core, but sustained traffic backs up and
    // stalls the store (and with it, commit).
    l1d_.access(addr, true, /*allocate=*/false);
    uint64_t stall_ready = ready;
    if (l2BusFree_ > ready + kWriteBufferSlack)
        stall_ready = l2BusFree_ - kWriteBufferSlack;
    uint64_t t = std::max(ready, l2BusFree_);
    l2BusFree_ = t + l2BusCycles(8);
    auto l2_result = l2_.access(addr, true);
    if (!l2_result.hit) {
        // Word continues to memory over the FSB (no allocate in L2
        // would be unusual; we allocate and drain the victim).
        fsbFree_ = std::max(fsbFree_, t) + fsbCycles(cfg_.l2.blockBytes);
    }
    if (l2_result.writeback)
        fsbFree_ = std::max(fsbFree_, t) + fsbCycles(cfg_.l2.blockBytes);
    return stall_ready;
}

uint64_t
MemorySystem::fetch(uint32_t pc, uint64_t now)
{
    const uint64_t ready = now + static_cast<uint64_t>(cfg_.l1iLatency);
    auto result = l1i_.access(pc, false);
    if (result.hit)
        return ready;
    return serviceL1Miss(pc, false, cfg_.l1i.blockBytes, ready);
}

void
MemorySystem::warmAccess(uint64_t addr, bool is_write)
{
    auto result = l1d_.access(addr, is_write && cfg_.l1d.writeBack,
                              /*allocate=*/!is_write || cfg_.l1d.writeBack);
    if (!result.hit)
        l2_.access(addr, is_write && !cfg_.l1d.writeBack);
    if (result.writeback)
        l2_.access(result.victimAddr, true);
}

void
MemorySystem::warm(const Cache &l1i, std::span<const WarmFetchMiss> l1i_misses,
                   std::span<const uint64_t> accesses)
{
    l1i_ = l1i;
    size_t next = 0;
    const auto replay_to = [&](size_t end) {
        for (; next < end; ++next)
            warmAccess(accesses[next] >> 1, accesses[next] & 1);
    };
    for (const WarmFetchMiss &miss : l1i_misses) {
        replay_to(miss.before);
        l2_.access(miss.pc, false);
    }
    replay_to(accesses.size());
}

} // namespace sim
} // namespace dse
