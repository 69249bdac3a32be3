/**
 * @file
 * Frozen reference of the memory hierarchy: the MemorySystem and
 * PrivateCache as they were before the flat hot path (open-addressed
 * directory, structure-of-arrays private caches, one-probe L1 hit),
 * kept verbatim apart from the Ref names and one use-after-free fix in
 * fetchIntoPrivate (see there). Test-only: it is linked into
 * the hierarchy differential suite (tests/test_hierarchy_diff.cc),
 * which requires the live hierarchy to match it bit for bit. It reuses
 * the live HierarchyConfig and HierCounters, so both register the same
 * "hierarchy" stat names.
 */

#ifndef DOPP_TESTS_REF_HIERARCHY_HH
#define DOPP_TESTS_REF_HIERARCHY_HH

#include <cstring>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/hierarchy.hh"
#include "sim/llc.hh"
#include "sim/memory.hh"
#include "sim/set_assoc.hh"
#include "util/types.hh"

namespace dopp
{

/** A private writeback, write-allocate cache level. */
class RefPrivateCache
{
  public:
    struct Line
    {
        bool valid = false;
        u64 tag = 0;
        bool dirty = false;
        BlockData data = {};
    };

    RefPrivateCache(u64 size_bytes, u32 num_ways,
                 ReplPolicy policy = ReplPolicy::LRU)
        : array(static_cast<u32>(size_bytes / blockBytes / num_ways),
                num_ways, policy),
          slicer(static_cast<u32>(size_bytes / blockBytes / num_ways))
    {
    }

    /** @return the resident line for @p addr, or nullptr. No touch. */
    Line *
    find(Addr addr)
    {
        const int way = array.findWay(slicer.set(addr), slicer.tag(addr));
        if (way < 0)
            return nullptr;
        return &array.at(slicer.set(addr), static_cast<u32>(way));
    }

    const Line *
    find(Addr addr) const
    {
        const int way = array.findWay(slicer.set(addr), slicer.tag(addr));
        if (way < 0)
            return nullptr;
        return &array.at(slicer.set(addr), static_cast<u32>(way));
    }

    /** Mark @p addr recently used. @pre the line is resident. */
    void
    touch(Addr addr)
    {
        const int way = array.findWay(slicer.set(addr), slicer.tag(addr));
        if (way >= 0)
            array.touch(slicer.set(addr), static_cast<u32>(way));
    }

    /**
     * Allocate a line for @p addr, evicting a victim if needed.
     * If a valid victim is displaced, @p on_evict is called with its
     * address and line contents *before* the new line is installed.
     * @return the freshly installed (valid, clean, zeroed-data) line.
     */
    Line &
    allocate(Addr addr,
             const std::function<void(Addr, const Line &)> &on_evict)
    {
        const u32 set = slicer.set(addr);
        const u32 victim = array.victimWay(set);
        Line &line = array.at(set, victim);
        if (line.valid && on_evict)
            on_evict(slicer.addr(set, line.tag), line);
        array.setValid(set, victim, true);
        line.tag = slicer.tag(addr);
        line.dirty = false;
        line.data = {};
        array.touchInsert(set, victim);
        return line;
    }

    /** Drop @p addr if resident. @return whether a line was dropped. */
    bool
    invalidate(Addr addr)
    {
        const u32 set = slicer.set(addr);
        const int way = array.findWay(set, slicer.tag(addr));
        if (way < 0)
            return false;
        array.setValid(set, static_cast<u32>(way), false);
        return true;
    }

    /** Visit every valid line as (block address, line). */
    void
    forEachLine(const std::function<void(Addr, Line &)> &visit)
    {
        for (u32 s = 0; s < array.sets(); ++s) {
            for (u32 w = 0; w < array.ways(); ++w) {
                Line &line = array.at(s, w);
                if (line.valid)
                    visit(slicer.addr(s, line.tag), line);
            }
        }
    }

    /** Invalidate everything without writebacks. */
    void invalidateAll() { array.invalidateAll(); }

    u32 sets() const { return array.sets(); }
    u32 ways() const { return array.ways(); }

    /** Access counters for the energy model. */
    u64 accesses = 0;
    u64 misses = 0;

  private:
    SetAssocArray<Line> array;
    AddrSlicer slicer;
};

/**
 * The memory system: cores call access(); the harness wires an LLC and
 * a MainMemory in.
 */
class RefMemorySystem
{
  public:
    /**
     * @param config private-level geometry and latencies
     * @param llc the shared LLC organization (not owned)
     * @param memory backing store (not owned)
     * @param stat_registry per-run registry the hierarchy registers
     *        its counters into; nullptr keeps a private registry
     * @param stat_group dotted group path for hierarchy counters
     */
    RefMemorySystem(const HierarchyConfig &config, LastLevelCache &llc,
                 MainMemory &memory,
                 StatRegistry *stat_registry = nullptr,
                 const std::string &stat_group = "hierarchy");

    RefMemorySystem(const RefMemorySystem &) = delete;
    RefMemorySystem &operator=(const RefMemorySystem &) = delete;

    /**
     * Perform one load or store of @p size bytes at @p addr for
     * @p core. For loads, @p data receives the bytes the core observes
     * (possibly a doppelgänger approximation); for stores, @p data
     * supplies the bytes written.
     *
     * @pre the access does not straddle a 64 B block boundary.
     * @return the number of cycles the core stalls for this access.
     */
    Tick access(CoreId core, Addr addr, bool is_write, unsigned size,
                void *data);

    /**
     * Write back every dirty private and LLC block to memory and
     * invalidate all levels. Used before reading workload outputs and
     * between experiment phases. Doppelgänger writeback semantics apply
     * (dirty tags write their *shared* data entry back).
     */
    void drain();

    /** Per-run statistics (compatibility view of the registry). */
    const HierarchyStats &
    stats() const
    {
        statsView = ctr->view();
        return statsView;
    }

    /** Zero hierarchy statistics (cache contents untouched). */
    void resetStats() { ctr->reset(); }

    /** Per-core private cache access counts, for hierarchy energy. */
    u64 l1Accesses() const;
    u64 l2Accesses() const;

    /** Underlying LLC, e.g. for snapshots. */
    LastLevelCache &llc() { return llcRef; }

    /** Private-cache introspection (tests, inclusion checks). */
    const RefPrivateCache &l1Cache(CoreId core) const { return *l1[core]; }
    const RefPrivateCache &l2Cache(CoreId core) const { return *l2[core]; }
    RefPrivateCache &l1Cache(CoreId core) { return *l1[core]; }
    RefPrivateCache &l2Cache(CoreId core) { return *l2[core]; }

    u32 numCores() const { return cfg.numCores; }

  private:
    /** Directory entry: which cores hold the block, who owns it in M. */
    struct DirEntry
    {
        u8 sharers = 0;  ///< bit per core
        int owner = -1;  ///< core with M, or -1
    };

    /** Invalidate private copies of @p addr in all cores but @p except;
     * dirty data (if any) is merged into @p merged. @return dirty? */
    bool invalidateOthers(Addr addr, int except, u8 *merged);

    /** The LLC's inclusive back-invalidation hook. */
    bool backInvalidate(Addr addr, u8 *data);

    /** L2 victim handler: maintains L2⊇L1 inclusion and writebacks. */
    void evictFromL2(CoreId core, Addr addr,
                     const RefPrivateCache::Line &line);

    /** Fill @p addr into core @p core's L2 and L1, with @p bytes. */
    RefPrivateCache::Line &fillPrivate(CoreId core, Addr addr,
                                    const u8 *bytes);

    /** Fetch @p addr into core's hierarchy from LLC, resolving any
     * remote M copy. @return extra latency. */
    Tick fetchIntoPrivate(CoreId core, Addr addr, bool for_write);

    DirEntry &dirEntry(Addr addr) { return directory[addr]; }
    void dirMaybeErase(Addr addr);

    HierarchyConfig cfg;
    LastLevelCache &llcRef;
    MainMemory &mem;
    std::vector<std::unique_ptr<RefPrivateCache>> l1;
    std::vector<std::unique_ptr<RefPrivateCache>> l2;
    std::unordered_map<Addr, DirEntry> directory;
    std::unique_ptr<StatRegistry> ownedStats; ///< when none is passed
    std::unique_ptr<HierCounters> ctr;
    mutable HierarchyStats statsView; ///< storage behind stats()
};

} // namespace dopp

#endif // DOPP_TESTS_REF_HIERARCHY_HH
