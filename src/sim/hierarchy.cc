#include "hierarchy.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "util/logging.hh"

namespace dopp
{

HierCounters::HierCounters(StatGroup group)
    : accesses(group.counter("accesses", "core memory accesses")),
      loads(group.counter("loads", "core loads")),
      stores(group.counter("stores", "core stores")),
      l1Hits(group.counter("l1.hits", "L1 hits")),
      l1Misses(group.counter("l1.misses", "L1 misses")),
      l2Hits(group.counter("l2.hits", "L2 hits")),
      l2Misses(group.counter("l2.misses", "L2 misses")),
      upgrades(group.counter("upgrades",
                             "write hits needing ownership")),
      remoteFetches(group.counter(
          "remoteFetches", "blocks pulled out of a remote M copy")),
      invalidationsSent(group.counter("invalidationsSent",
                                      "coherence invalidations sent"))
{
    group.formula(
        "l2Mpka",
        [this] { return view().l2Mpka(); },
        "L2 misses per thousand core accesses");
}

HierarchyStats
HierCounters::view() const
{
    HierarchyStats s;
    s.accesses = accesses.value();
    s.loads = loads.value();
    s.stores = stores.value();
    s.l1Hits = l1Hits.value();
    s.l1Misses = l1Misses.value();
    s.l2Hits = l2Hits.value();
    s.l2Misses = l2Misses.value();
    s.upgrades = upgrades.value();
    s.remoteFetches = remoteFetches.value();
    s.invalidationsSent = invalidationsSent.value();
    return s;
}

void
HierCounters::reset()
{
    accesses.reset();
    loads.reset();
    stores.reset();
    l1Hits.reset();
    l1Misses.reset();
    l2Hits.reset();
    l2Misses.reset();
    upgrades.reset();
    remoteFetches.reset();
    invalidationsSent.reset();
}

namespace
{

/** Directory slots for @p cfg: a power of two of at least twice the
 * blocks all L2s can hold. Entries of blocks no core holds are erased
 * and L1 ⊆ L2, so live entries never exceed half the table. */
u64
directoryCapacity(const HierarchyConfig &cfg)
{
    const u64 l2Blocks = cfg.numCores * (cfg.l2Bytes / blockBytes);
    return u64{1} << ceilLog2(std::max<u64>(2 * l2Blocks, 2));
}

u8
coreBit(u32 core)
{
    return static_cast<u8>(1u << core);
}

} // namespace

MemorySystem::MemorySystem(const HierarchyConfig &config,
                           LastLevelCache &llc, MainMemory &memory,
                           StatRegistry *stat_registry,
                           const std::string &stat_group)
    : cfg(config), llcRef(llc), mem(memory),
      directory(directoryCapacity(config)),
      ownedStats(stat_registry ? nullptr
                               : std::make_unique<StatRegistry>())
{
    if (cfg.numCores == 0 || cfg.numCores > 8)
        fatal("unsupported core count %u", cfg.numCores);
    StatRegistry &reg =
        stat_registry ? *stat_registry : *ownedStats;
    StatGroup group = reg.group(stat_group);
    ctr = std::make_unique<HierCounters>(group);
    group.counterFn(
        "l1.accesses", [this] { return l1Accesses(); },
        "total L1 accesses across cores");
    group.counterFn(
        "l2.accesses", [this] { return l2Accesses(); },
        "total L2 accesses across cores");
    for (u32 c = 0; c < cfg.numCores; ++c) {
        l1.push_back(std::make_unique<PrivateCache>(cfg.l1Bytes,
                                                    cfg.l1Ways));
        l2.push_back(std::make_unique<PrivateCache>(cfg.l2Bytes,
                                                    cfg.l2Ways));
    }
    llcRef.setBackInvalidate(
        [this](Addr addr, u8 *data) { return backInvalidate(addr, data); });
}

void
MemorySystem::dirMaybeErase(Addr addr, const DirEntry &de)
{
    if (de.sharers == 0 && de.owner < 0)
        directory.erase(addr);
}

bool
MemorySystem::invalidateOthers(Addr addr, int except, u8 *merged)
{
    DirEntry *de = directory.find(addr);
    if (!de)
        return false;

    bool dirty = false;
    for (u32 c = 0; c < cfg.numCores; ++c) {
        if (static_cast<int>(c) == except || !(de->sharers & coreBit(c)))
            continue;
        PrivateCache &c1 = *l1[c];
        PrivateCache &c2 = *l2[c];
        const i32 s1 = c1.find(addr);
        const i32 s2 = c2.find(addr);
        // L1 data supersedes L2 data within a core.
        if (s1 >= 0 && c1.dirty(s1)) {
            std::memcpy(merged, c1.data(s1), blockBytes);
            dirty = true;
        } else if (s2 >= 0 && c2.dirty(s2)) {
            std::memcpy(merged, c2.data(s2), blockBytes);
            dirty = true;
        }
        if (s1 >= 0)
            c1.invalidateSlot(s1);
        if (s2 >= 0)
            c2.invalidateSlot(s2);
        de->sharers &= static_cast<u8>(~coreBit(c));
        if (de->owner == static_cast<int>(c))
            de->owner = -1;
        ++ctr->invalidationsSent;
    }
    dirMaybeErase(addr, *de);
    return dirty;
}

bool
MemorySystem::backInvalidate(Addr addr, u8 *data)
{
    bool dirty = false;
    for (u32 c = 0; c < cfg.numCores; ++c) {
        PrivateCache &c1 = *l1[c];
        PrivateCache &c2 = *l2[c];
        const i32 s1 = c1.find(addr);
        const i32 s2 = c2.find(addr);
        if (s1 >= 0 && c1.dirty(s1)) {
            std::memcpy(data, c1.data(s1), blockBytes);
            dirty = true;
        } else if (s2 >= 0 && c2.dirty(s2)) {
            std::memcpy(data, c2.data(s2), blockBytes);
            dirty = true;
        }
        if (s1 >= 0) {
            c1.invalidateSlot(s1);
            ++ctr->invalidationsSent;
        }
        if (s2 >= 0) {
            c2.invalidateSlot(s2);
            ++ctr->invalidationsSent;
        }
    }
    directory.erase(addr);
    return dirty;
}

void
MemorySystem::evictFromL2(CoreId core, Addr addr, i32 slot)
{
    // Maintain L2 ⊇ L1: the L1 copy must go too; its data is newest.
    PrivateCache &c1 = *l1[core];
    PrivateCache &c2 = *l2[core];
    const u8 *newest = c2.dirty(slot) ? c2.data(slot) : nullptr;
    const i32 s1 = c1.find(addr);
    if (s1 >= 0) {
        if (c1.dirty(s1))
            newest = c1.data(s1);
        c1.invalidateSlot(s1);
    }
    if (newest)
        llcRef.writeback(addr, newest);

    // Looked up only now: the writeback may have erased entries.
    if (DirEntry *de = directory.find(addr)) {
        de->sharers &= static_cast<u8>(~coreBit(core));
        if (de->owner == static_cast<int>(core))
            de->owner = -1;
        dirMaybeErase(addr, *de);
    }
}

i32
MemorySystem::fillPrivate(CoreId core, Addr addr, const u8 *bytes)
{
    // Fill L2 first so inclusion holds when L1 is filled.
    l2[core]->allocate(addr, bytes, [this, core](Addr victim, i32 slot) {
        evictFromL2(core, victim, slot);
    });
    return fillL1(core, addr, bytes);
}

i32
MemorySystem::fillL1(CoreId core, Addr addr, const u8 *bytes)
{
    PrivateCache &c1 = *l1[core];
    PrivateCache &c2 = *l2[core];
    return c1.allocate(addr, bytes, [&](Addr victim, i32 slot) {
        // L1 victim: fold dirty data into the L2 copy (L2 ⊇ L1).
        if (!c1.dirty(slot))
            return;
        const i32 parent = c2.find(victim);
        if (parent >= 0) {
            std::memcpy(c2.data(parent), c1.data(slot), blockBytes);
            c2.setDirty(parent, true);
        } else {
            // Inclusion violated only via races we don't model;
            // be safe and push straight to the LLC.
            llcRef.writeback(victim, c1.data(slot));
        }
    });
}

Tick
MemorySystem::fetchIntoPrivate(CoreId core, Addr addr, bool for_write,
                               i32 &slot)
{
    Tick lat = 0;

    // Resolve a remote modified copy first (Sec 3.6): write it back to
    // the LLC, which for Doppelgänger re-runs map generation.
    const DirEntry *de = directory.find(addr);
    if (de && de->owner >= 0 && de->owner != static_cast<int>(core)) {
        const CoreId owner = static_cast<CoreId>(de->owner);
        ++ctr->remoteFetches;
        lat += cfg.remotePenalty;

        PrivateCache &o1 = *l1[owner];
        PrivateCache &o2 = *l2[owner];
        const i32 s1 = o1.find(addr);
        const i32 s2 = o2.find(addr);
        if (s1 >= 0 || s2 >= 0) {
            llcRef.writeback(addr, s1 >= 0 ? o1.data(s1) : o2.data(s2));
            // Downgrading to clean: the owner's L2 copy must match its
            // L1 copy, or a later silent L1 eviction would leave the
            // stale L2 line answering hits.
            if (s1 >= 0 && s2 >= 0)
                std::memcpy(o2.data(s2), o1.data(s1), blockBytes);
            if (s1 >= 0)
                o1.setDirty(s1, false);
            if (s2 >= 0)
                o2.setDirty(s2, false);
        }
        // The writeback may back-invalidate other blocks, and erasing
        // their entries shifts this one: look it up again.
        if (DirEntry *again = directory.find(addr))
            again->owner = -1;
    }

    BlockData buf;
    const auto result = llcRef.fetch(addr, buf.data());
    lat += result.latency;

    // A dirty copy elsewhere supersedes the LLC's bytes.
    if (for_write)
        invalidateOthers(addr, static_cast<int>(core), buf.data());
    // Taken after invalidateOthers, which may erase the entry.
    DirEntry &entry = directory[addr];
    if (for_write)
        entry.owner = static_cast<i8>(core);
    entry.sharers |= coreBit(core);

    slot = fillPrivate(core, addr, buf.data());
    return lat;
}

Tick
MemorySystem::accessSlow(CoreId core, Addr addr, bool is_write,
                         unsigned size, void *data, i32 slot)
{
    ++ctr->accesses;
    if (is_write)
        ++ctr->stores;
    else
        ++ctr->loads;

    const Addr baddr = blockAlign(addr);
    PrivateCache &c1 = *l1[core];
    PrivateCache &c2 = *l2[core];

    Tick lat = cfg.l1Latency;
    ++c1.accesses;
    if (slot >= 0) {
        ++ctr->l1Hits;
    } else {
        ++c1.misses;
        ++ctr->l1Misses;
        lat += cfg.l2Latency;
        ++c2.accesses;

        const i32 s2 = c2.hit(baddr);
        if (s2 >= 0) {
            ++ctr->l2Hits;
            slot = fillL1(core, baddr, c2.data(s2));
        } else {
            ++c2.misses;
            ++ctr->l2Misses;
            lat += fetchIntoPrivate(core, baddr, is_write, slot);
        }
    }

    u8 *bytes = c1.data(slot) + blockOffset(addr);
    if (!is_write) {
        std::memcpy(data, bytes, size);
        return lat;
    }
    DirEntry &de = directory[baddr];
    de.sharers |= coreBit(core);
    if (de.owner != static_cast<int>(core)) {
        // Upgrade: obtain ownership via the directory. A dirty remote
        // copy is merged straight into our line.
        ++ctr->upgrades;
        lat += cfg.remotePenalty;
        invalidateOthers(baddr, static_cast<int>(core), c1.data(slot));
        // invalidateOthers may have erased then re-created state;
        // re-establish our entry.
        DirEntry &mine = directory[baddr];
        mine.owner = static_cast<i8>(core);
        mine.sharers |= coreBit(core);
    }
    std::memcpy(bytes, data, size);
    c1.setDirty(slot, true);
    return lat;
}

void
MemorySystem::drain()
{
    for (u32 c = 0; c < cfg.numCores; ++c) {
        PrivateCache &c1 = *l1[c];
        PrivateCache &c2 = *l2[c];
        // Fold dirty L1 lines into L2 (or straight to the LLC).
        c1.forEachLine([&](Addr addr, i32 slot) {
            if (!c1.dirty(slot))
                return;
            const i32 parent = c2.find(addr);
            if (parent >= 0) {
                std::memcpy(c2.data(parent), c1.data(slot), blockBytes);
                c2.setDirty(parent, true);
            } else {
                llcRef.writeback(addr, c1.data(slot));
            }
        });
        c1.invalidateAll();

        c2.forEachLine([&](Addr addr, i32 slot) {
            if (c2.dirty(slot))
                llcRef.writeback(addr, c2.data(slot));
        });
        c2.invalidateAll();
    }
    directory.clear();
    llcRef.flush();
}

bool
MemorySystem::checkInvariants(std::string *why) const
{
    std::string first;
    const auto fail = [&](const char *what, Addr addr, u32 core) {
        if (first.empty()) {
            char buf[160];
            std::snprintf(buf, sizeof(buf), "%s: block %#llx, core %u",
                          what, static_cast<unsigned long long>(addr),
                          core);
            first = buf;
        }
    };
    const auto ownerOf = [&](Addr addr) {
        const DirEntry *de = directory.find(addr);
        return de ? de->owner : -1;
    };
    for (u32 c = 0; c < cfg.numCores; ++c) {
        const PrivateCache &c1 = *l1[c];
        const PrivateCache &c2 = *l2[c];
        c1.forEachLine([&](Addr addr, i32 slot) {
            if (c2.find(addr) < 0)
                fail("L1 line missing from L2", addr, c);
            if (c1.dirty(slot) && ownerOf(addr) != static_cast<int>(c))
                fail("dirty L1 line not owned by its core", addr, c);
        });
        c2.forEachLine([&](Addr addr, i32 slot) {
            if (!llcRef.contains(addr))
                fail("L2 line missing from the LLC", addr, c);
            const DirEntry *de = directory.find(addr);
            if (!de || !(de->sharers & coreBit(c)))
                fail("L2 line without its sharer bit", addr, c);
            if (c2.dirty(slot) && ownerOf(addr) != static_cast<int>(c))
                fail("dirty L2 line not owned by its core", addr, c);
        });
    }
    directory.forEach([&](Addr addr, const DirEntry &de) {
        if (de.sharers == 0 && de.owner < 0)
            fail("empty directory entry", addr, 0);
        if (de.owner >= 0 && !(de.sharers & coreBit(de.owner)))
            fail("owner is not a sharer", addr, de.owner);
        for (u32 c = 0; c < cfg.numCores; ++c) {
            if ((de.sharers & coreBit(c)) && l2[c]->find(addr) < 0)
                fail("sharer bit without an L2 line", addr, c);
        }
    });
    if (why)
        *why = first;
    return first.empty();
}

u64
MemorySystem::l1Accesses() const
{
    u64 n = 0;
    for (const auto &cache : l1)
        n += cache->accesses;
    return n;
}

u64
MemorySystem::l2Accesses() const
{
    u64 n = 0;
    for (const auto &cache : l2)
        n += cache->accesses;
    return n;
}

} // namespace dopp
