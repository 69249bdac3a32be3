/**
 * @file
 * Private per-core writeback cache, used for both L1 and L2 (Table 1:
 * 16 KB 4-way L1, 128 KB 8-way L2). Coherence state (MSI) is tracked by
 * the hierarchy's directory; lines here carry only valid/dirty/data.
 *
 * Structure of arrays: the tags and one flag byte per way sit in a
 * SetAssocDir (sim/set_assoc.hh), whose replacement choices are
 * bit-identical to SetAssocArray's, and the 64 B line payloads sit in
 * a parallel array, so a probe never drags data lines through the
 * host cache. A line is named by its slot index, stable until the line
 * is invalidated or its way reallocated.
 */

#ifndef DOPP_SIM_PRIVATE_CACHE_HH
#define DOPP_SIM_PRIVATE_CACHE_HH

#include <cstring>
#include <vector>

#include "sim/memory.hh"
#include "sim/set_assoc.hh"
#include "util/types.hh"

namespace dopp
{

/** A private writeback, write-allocate cache level. */
class PrivateCache
{
  public:
    PrivateCache(u64 size_bytes, u32 num_ways,
                 ReplPolicy policy = ReplPolicy::LRU)
        : dir(static_cast<u32>(size_bytes / blockBytes / num_ways),
              num_ways, policy),
          slicer(static_cast<u32>(size_bytes / blockBytes / num_ways)),
          lines(static_cast<size_t>(dir.sets()) * num_ways)
    {
    }

    /** @return the slot holding @p addr, or -1. No touch. */
    i32
    find(Addr addr) const
    {
        const u32 set = slicer.set(addr);
        const int way = dir.findWay(set, slicer.tag(addr));
        return way < 0 ? -1 : dir.index(set, static_cast<u32>(way));
    }

    /** find() and, on a hit, mark the line recently used, in one
     * probe. @return the slot, or -1. */
    i32
    hit(Addr addr)
    {
        const u32 set = slicer.set(addr);
        const int way = dir.findWay(set, slicer.tag(addr));
        if (way < 0)
            return -1;
        dir.touch(set, static_cast<u32>(way));
        return dir.index(set, static_cast<u32>(way));
    }

    bool dirty(i32 slot) const { return dir.flag(slot, kDirty); }
    void setDirty(i32 slot, bool d) { dir.setFlag(slot, kDirty, d); }

    /** The 64 data bytes of @p slot. */
    u8 *data(i32 slot) { return lines[static_cast<size_t>(slot)].data(); }
    const u8 *
    data(i32 slot) const
    {
        return lines[static_cast<size_t>(slot)].data();
    }

    /**
     * Install @p addr as a clean line holding @p bytes, evicting a
     * victim if needed. If a valid victim is displaced, @p on_evict
     * runs as on_evict(victim address, victim slot) *before* the new
     * line is installed, so it still sees the victim's flags and data.
     * @return the new line's slot.
     */
    template <typename OnEvict>
    i32
    allocate(Addr addr, const u8 *bytes, OnEvict &&on_evict)
    {
        const u32 set = slicer.set(addr);
        const u32 victim = dir.victimWay(set);
        const i32 slot = dir.index(set, victim);
        if (dir.valid(slot))
            on_evict(slicer.addr(set, dir.key(slot)), slot);
        dir.setValid(slot, true);
        dir.setKey(slot, slicer.tag(addr));
        dir.setFlag(slot, kDirty, false);
        std::memcpy(data(slot), bytes, blockBytes);
        dir.touchInsert(set, victim);
        return slot;
    }

    /** Drop the line in @p slot (no writeback). */
    void invalidateSlot(i32 slot) { dir.setValid(slot, false); }

    /** Drop @p addr if resident. @return whether a line was dropped. */
    bool
    invalidate(Addr addr)
    {
        const i32 slot = find(addr);
        if (slot < 0)
            return false;
        invalidateSlot(slot);
        return true;
    }

    /** Visit every valid line as visit(block address, slot). */
    template <typename Visit>
    void
    forEachLine(Visit &&visit) const
    {
        for (u32 s = 0; s < dir.sets(); ++s) {
            for (u32 w = 0; w < dir.ways(); ++w) {
                const i32 slot = dir.index(s, w);
                if (dir.valid(slot))
                    visit(slicer.addr(s, dir.key(slot)), slot);
            }
        }
    }

    /** Invalidate everything without writebacks. */
    void invalidateAll() { dir.invalidateAll(); }

    u32 sets() const { return dir.sets(); }
    u32 ways() const { return dir.ways(); }

    /** Resident lines (O(1)). */
    u64 validCount() const { return dir.validCount(); }

    /** Access counters for the energy model. */
    u64 accesses = 0;
    u64 misses = 0;

  private:
    /** Client flag bit of a dirty line. */
    static constexpr u8 kDirty = 2;

    SetAssocDir dir;
    AddrSlicer slicer;
    std::vector<BlockData> lines;
};

} // namespace dopp

#endif // DOPP_SIM_PRIVATE_CACHE_HH
