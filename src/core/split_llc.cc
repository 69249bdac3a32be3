#include "split_llc.hh"

namespace dopp
{

SplitLlc::SplitLlc(MainMemory &memory, const SplitLlcConfig &config,
                   const ApproxRegistry &registry,
                   StatRegistry *stat_registry,
                   const std::string &stat_group)
    : LastLevelCache(memory, stat_registry, stat_group),
      registry(registry),
      preciseHalf(std::make_unique<ConventionalLlc>(
          memory, config.preciseBytes, config.preciseWays,
          config.preciseLatency, &registry, ReplPolicy::LRU,
          &statRegistry(),
          statGroupPath() + ".precise")),
      doppHalf(makeDoppEngine(memory, config.dopp, &registry,
                              &statRegistry(),
                              statGroupPath() + ".dopp")),
      degradedFillsCtr(statGroup().group("route").counter(
          "degradedFills",
          "approximate fills routed precise while degraded"))
{
    // Aggregate view: every canonical LlcStats field plus the derived
    // formulas, computed over the sum of both halves and the split's
    // own routing counters; each event is counted in exactly one of
    // the three groups.
    registerLlcStatsView(statGroup(), {"precise", "dopp", "route"});
}

void
SplitLlc::setBackInvalidate(BackInvalidateFn fn)
{
    preciseHalf->setBackInvalidate(fn);
    doppHalf->setBackInvalidate(fn);
}

LastLevelCache::FetchResult
SplitLlc::fetch(Addr addr, u8 *data)
{
    if (registry.isApprox(addr)) {
        // Blocks the guardrail routed precise stay coherent: serve
        // them from the precise half until it evicts them.
        if (preciseHalf->contains(addr))
            return preciseHalf->fetch(addr, data);
        if (guardrail && guardrail->degraded() &&
            !doppHalf->contains(addr)) {
            // Degraded: new approximate fills go to the precise half
            // (exact storage) until the error estimate recovers.
            // Doppelgänger-resident blocks keep hitting there.
            ++degradedFillsCtr;
            return preciseHalf->fetch(addr, data);
        }
        return doppHalf->fetch(addr, data);
    }
    return preciseHalf->fetch(addr, data);
}

void
SplitLlc::writeback(Addr addr, const u8 *data)
{
    if (registry.isApprox(addr) && !preciseHalf->contains(addr))
        doppHalf->writeback(addr, data);
    else
        preciseHalf->writeback(addr, data);
}

bool
SplitLlc::contains(Addr addr) const
{
    if (registry.isApprox(addr)) {
        return doppHalf->contains(addr) ||
            preciseHalf->contains(addr);
    }
    return preciseHalf->contains(addr);
}

void
SplitLlc::forEachBlock(
    const std::function<void(const LlcBlockInfo &)> &visit) const
{
    preciseHalf->forEachBlock(visit);
    doppHalf->forEachBlock(visit);
}

void
SplitLlc::flush()
{
    preciseHalf->flush();
    doppHalf->flush();
}

void
SplitLlc::setFaultInjector(FaultInjector *fi)
{
    // Only the approximate structures take faults: the precise half
    // models a conventional ECC-protected cache. The split's own
    // llcStats never counts injections, so the aggregate counts each
    // fault exactly once (in the Doppelgänger half).
    doppHalf->setFaultInjector(fi);
}

void
SplitLlc::setHotPathProfile(HotPathProfile *p)
{
    // Both halves accumulate into one profile: a split approximate
    // access pays the precise-half probe (containment check) plus the
    // Doppelgänger path, and the breakdown should show both.
    preciseHalf->setHotPathProfile(p);
    doppHalf->setHotPathProfile(p);
}

void
SplitLlc::setGuardrail(QorGuardrail *g)
{
    // The split consults degraded() for routing; the Doppelgänger half
    // feeds the error estimate. degradedFills is counted only here.
    guardrail = g;
    doppHalf->setGuardrail(g);
}

} // namespace dopp
