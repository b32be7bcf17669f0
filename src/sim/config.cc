#include "sim/config.hh"

#include "util/bytes.hh"

namespace dse {
namespace sim {

void
putSimResult(util::WireWriter &w, const SimResult &r)
{
    w.u64(r.cycles);
    w.u64(r.instructions);
    w.f64(r.ipc);
    w.f64(r.l1dMissRate);
    w.f64(r.l2MissRate);
    w.f64(r.l1iMissRate);
    w.f64(r.branchMispredictRate);
    w.u64(r.l1dAccesses);
    w.u64(r.l1dMisses);
    w.u64(r.l2Accesses);
    w.u64(r.l2Misses);
    w.u64(r.l1iAccesses);
    w.u64(r.l1iMisses);
    w.u64(r.branches);
    w.u64(r.branchMispredicts);
}

SimResult
getSimResult(util::WireReader &r)
{
    SimResult out;
    out.cycles = r.u64();
    out.instructions = r.u64();
    out.ipc = r.f64();
    out.l1dMissRate = r.f64();
    out.l2MissRate = r.f64();
    out.l1iMissRate = r.f64();
    out.branchMispredictRate = r.f64();
    out.l1dAccesses = r.u64();
    out.l1dMisses = r.u64();
    out.l2Accesses = r.u64();
    out.l2Misses = r.u64();
    out.l1iAccesses = r.u64();
    out.l1iMisses = r.u64();
    out.branches = r.u64();
    out.branchMispredicts = r.u64();
    return out;
}

} // namespace sim
} // namespace dse
