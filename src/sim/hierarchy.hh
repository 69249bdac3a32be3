/**
 * @file
 * Four-core memory hierarchy with MSI directory coherence.
 *
 * Models the system of Table 1: per-core private L1 (16 KB, 4-way,
 * 1-cycle) and L2 (128 KB, 8-way, 3-cycle), a shared inclusive LLC
 * behind them, and main memory (160-cycle). The LLC organization is
 * pluggable (conventional / split Doppelgänger / uniDoppelgänger /
 * dedup). The hierarchy is both *functional* — every line carries its
 * 64 bytes, so approximation applied at the LLC propagates to what the
 * cores read — and *timing*: access() returns the cycles the requesting
 * core stalls.
 *
 * Coherence follows the paper's Sec 3.6: a directory at the LLC tracks
 * sharers per block (full-map vector); requests for a block modified in
 * a remote private cache first write that copy back to the LLC (which,
 * for Doppelgänger, re-runs map generation per Sec 3.4).
 *
 * Hot path (DESIGN.md §14.5): the directory is a fixed-size
 * open-addressed table, the private caches are structure-of-arrays,
 * and a load hit in L1 or a store hit on a dirty L1 line returns from
 * the inline access() after one probe.
 */

#ifndef DOPP_SIM_HIERARCHY_HH
#define DOPP_SIM_HIERARCHY_HH

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "sim/llc.hh"
#include "sim/memory.hh"
#include "sim/private_cache.hh"
#include "util/flat_map.hh"
#include "util/types.hh"

namespace dopp
{

/** Timing and geometry of the private levels (defaults = Table 1). */
struct HierarchyConfig
{
    u32 numCores = 4;

    u64 l1Bytes = 16 * 1024;
    u32 l1Ways = 4;
    Tick l1Latency = 1;

    u64 l2Bytes = 128 * 1024;
    u32 l2Ways = 8;
    Tick l2Latency = 3;

    /** Extra cycles when a request must first retrieve a block that is
     * modified in another core's private cache. */
    Tick remotePenalty = 6;
};

/** Aggregate hierarchy counters (per run). */
struct HierarchyStats
{
    u64 accesses = 0;
    u64 loads = 0;
    u64 stores = 0;
    u64 l1Hits = 0;
    u64 l1Misses = 0;
    u64 l2Hits = 0;
    u64 l2Misses = 0;
    u64 upgrades = 0;        ///< write hits needing ownership
    u64 remoteFetches = 0;   ///< blocks pulled out of a remote M copy
    u64 invalidationsSent = 0;

    double
    l2Mpka() const
    {
        return accesses ? 1000.0 * static_cast<double>(l2Misses) /
            static_cast<double>(accesses) : 0.0;
    }
};

/** Registry-backed hierarchy counters (one instance per run). */
struct HierCounters
{
    explicit HierCounters(StatGroup group);

    Counter &accesses;
    Counter &loads;
    Counter &stores;
    Counter &l1Hits;
    Counter &l1Misses;
    Counter &l2Hits;
    Counter &l2Misses;
    Counter &upgrades;
    Counter &remoteFetches;
    Counter &invalidationsSent;

    /** Compatibility view: HierarchyStats snapshot of the counters. */
    HierarchyStats view() const;

    /** Zero every counter. */
    void reset();
};

/**
 * The memory system: cores call access(); the harness wires an LLC and
 * a MainMemory in.
 */
class MemorySystem
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
    MemorySystem(const HierarchyConfig &config, LastLevelCache &llc,
                 MainMemory &memory,
                 StatRegistry *stat_registry = nullptr,
                 const std::string &stat_group = "hierarchy");

    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;

    /**
     * Perform one load or store of @p size bytes at @p addr for
     * @p core. For loads, @p data receives the bytes the core observes
     * (possibly a doppelgänger approximation); for stores, @p data
     * supplies the bytes written.
     *
     * @pre the access does not straddle a 64 B block boundary.
     * @return the number of cycles the core stalls for this access.
     *
     * Always inlined, so that the kernels' constant @p is_write and
     * @p size fold into the hit path.
     */
    [[gnu::always_inline]] Tick
    access(CoreId core, Addr addr, bool is_write, unsigned size,
           void *data)
    {
        DOPP_ASSERT(core < cfg.numCores);
        DOPP_ASSERT(size > 0 && size <= blockBytes);
        DOPP_ASSERT(blockAlign(addr) == blockAlign(addr + size - 1));

        PrivateCache &c1 = *l1[core];
        const i32 slot = c1.hit(blockAlign(addr));
        // A dirty L1 line means this core owns the block in M
        // (checkInvariants), so neither a load hit nor a store to a
        // dirty line needs the directory.
        if (slot < 0 || (is_write && !c1.dirty(slot)))
            return accessSlow(core, addr, is_write, size, data, slot);

        ++ctr->accesses;
        ++(is_write ? ctr->stores : ctr->loads);
        ++ctr->l1Hits;
        ++c1.accesses;
        u8 *bytes = c1.data(slot) + blockOffset(addr);
        if (is_write)
            std::memcpy(bytes, data, size);
        else
            std::memcpy(data, bytes, size);
        return cfg.l1Latency;
    }

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
    const PrivateCache &l1Cache(CoreId core) const { return *l1[core]; }
    const PrivateCache &l2Cache(CoreId core) const { return *l2[core]; }
    PrivateCache &l1Cache(CoreId core) { return *l1[core]; }
    PrivateCache &l2Cache(CoreId core) { return *l2[core]; }

    u32 numCores() const { return cfg.numCores; }

    /**
     * Check the coherence state against the private contents (tests
     * only): every directory sharer bit names a core whose L2 holds
     * the block and every L2 line has its bit; a dirty L1 or L2 line
     * in core c means the block's owner is c (the fact access()'s
     * fast path relies on); an owner is a sharer; no entry is empty;
     * and L1 ⊆ L2 ⊆ LLC. @p why receives the first violation.
     */
    bool checkInvariants(std::string *why = nullptr) const;

  private:
    /** Directory entry: which cores hold the block, who owns it in M. */
    struct DirEntry
    {
        u8 sharers = 0;  ///< bit per core
        i8 owner = -1;   ///< core with M, or -1
    };

    /** Everything access() does not finish inline; @p slot is the L1
     * probe's result (already touched on a hit). */
    Tick accessSlow(CoreId core, Addr addr, bool is_write,
                    unsigned size, void *data, i32 slot);

    /** Invalidate private copies of @p addr in all cores but @p except;
     * dirty data (if any) is copied into @p merged. @return dirty? */
    bool invalidateOthers(Addr addr, int except, u8 *merged);

    /** The LLC's inclusive back-invalidation hook. */
    bool backInvalidate(Addr addr, u8 *data);

    /** L2 victim handler: maintains L2⊇L1 inclusion and writebacks. */
    void evictFromL2(CoreId core, Addr addr, i32 slot);

    /** Fill @p addr, absent from both private levels, into core
     * @p core's L2 and L1 with @p bytes. @return the L1 slot. */
    i32 fillPrivate(CoreId core, Addr addr, const u8 *bytes);

    /** Fill @p addr, resident in L2, into core @p core's L1.
     * @return the L1 slot. */
    i32 fillL1(CoreId core, Addr addr, const u8 *bytes);

    /** Fetch @p addr into core's hierarchy from LLC, resolving any
     * remote M copy; @p slot receives the L1 slot. @return extra
     * latency. */
    Tick fetchIntoPrivate(CoreId core, Addr addr, bool for_write,
                          i32 &slot);

    /** Drop @p de (the entry of @p addr) if no core holds the block. */
    void dirMaybeErase(Addr addr, const DirEntry &de);

    HierarchyConfig cfg;
    LastLevelCache &llcRef;
    MainMemory &mem;
    std::vector<std::unique_ptr<PrivateCache>> l1;
    std::vector<std::unique_ptr<PrivateCache>> l2;
    /** Block address → entry. Erasing shifts other entries, and the
     * LLC erases through backInvalidate, so no DirEntry pointer is
     * held across an LLC call (DESIGN.md §14.5). */
    FlatMap<DirEntry> directory;
    std::unique_ptr<StatRegistry> ownedStats; ///< when none is passed
    std::unique_ptr<HierCounters> ctr;
    mutable HierarchyStats statsView; ///< storage behind stats()
};

} // namespace dopp

#endif // DOPP_SIM_HIERARCHY_HH
