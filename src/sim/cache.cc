#include "sim/cache.hh"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace dse {
namespace sim {

namespace {

int
log2Exact(uint64_t v)
{
    if (v == 0 || (v & (v - 1)) != 0)
        throw std::invalid_argument("cache geometry must be a power of two");
    return std::countr_zero(v);
}

} // namespace

Cache::Cache(const CacheConfig &cfg)
    : cfg_(cfg)
{
    if (cfg.sizeKB <= 0 || cfg.blockBytes <= 0 || cfg.assoc <= 0)
        throw std::invalid_argument("cache geometry must be positive");
    const uint64_t bytes = static_cast<uint64_t>(cfg.sizeKB) * 1024;
    const uint64_t block = static_cast<uint64_t>(cfg.blockBytes);
    if (bytes % (block * cfg.assoc) != 0)
        throw std::invalid_argument("cache size not divisible by way size");
    blockShift_ = log2Exact(block);
    numSets_ = bytes / (block * cfg.assoc);
    log2Exact(numSets_);  // validate power of two
    lines_.resize(numSets_ * cfg.assoc);
}

CacheAccessResult
Cache::access(uint64_t addr, bool is_write, bool allocate)
{
    CacheAccessResult result;
    ++accesses_;
    ++clock_;

    const uint64_t block = blockAddr(addr);
    const size_t set = setIndex(block);
    Line *base = &lines_[set * cfg_.assoc];

    // Hit path.
    for (int w = 0; w < cfg_.assoc; ++w) {
        Line &line = base[w];
        if (line.valid() && line.tag == block) {
            line.lastUse = clock_;
            if (is_write && cfg_.writeBack)
                line.dirty = true;
            result.hit = true;
            return result;
        }
    }

    ++misses_;
    if (!allocate)
        return result;

    // Choose the LRU victim.
    Line *victim = base;
    for (int w = 1; w < cfg_.assoc; ++w) {
        Line &line = base[w];
        if (!line.valid()) {
            victim = &line;
            break;
        }
        if (line.lastUse < victim->lastUse)
            victim = &line;
    }

    if (victim->valid() && victim->dirty) {
        result.writeback = true;
        result.victimAddr = victim->tag << blockShift_;
        ++writebacks_;
    }

    victim->tag = block;
    victim->lastUse = clock_;
    victim->dirty = is_write && cfg_.writeBack;
    return result;
}

bool
Cache::contains(uint64_t addr) const
{
    const uint64_t block = blockAddr(addr);
    const size_t set = setIndex(block);
    const Line *base = &lines_[set * cfg_.assoc];
    for (int w = 0; w < cfg_.assoc; ++w) {
        if (base[w].valid() && base[w].tag == block)
            return true;
    }
    return false;
}

void
Cache::resetStats()
{
    accesses_ = 0;
    misses_ = 0;
    writebacks_ = 0;
}

void
Cache::reset()
{
    for (auto &line : lines_)
        line = Line{};
    clock_ = 0;
    accesses_ = 0;
    misses_ = 0;
    writebacks_ = 0;
}

} // namespace sim
} // namespace dse
