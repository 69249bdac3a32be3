/**
 * @file
 * Sparse functional backing store standing in for off-chip memory,
 * optionally partitioned into a tiered precise/approximate/NVM main
 * memory (sim/mem_tier.hh, DESIGN.md §13).
 *
 * The store is paged: a 4 KiB page holds 64 blocks and their refresh
 * epochs, and is materialized whole on the first touch of any of its
 * blocks (zero-filled, as an OS would hand out zeroed pages). Pages
 * never move once created; a flat page-number index finds them. Demand
 * reads and writebacks are counted so the harness can report off-chip
 * traffic (paper Fig 12); poke/peek provide traffic-free functional
 * access for workload input setup and output collection (the paper's
 * inputs arrive via I/O, not the LLC), one copy per page-contiguous
 * run.
 *
 * Tiered mode (constructed from a non-empty MemTierConfig) adds:
 *  - page-granular routing: annotated approximate regions route
 *    round-robin across the non-precise partitions (routeApprox,
 *    called by SimRuntime::annotate); everything else pins to the
 *    precise partition. One functional store backs all partitions, so
 *    migration re-routes pages without copying data.
 *  - per-partition latencies: readBlock/writeBlock return the access
 *    latency of the partition they hit, which the LLC miss paths
 *    charge instead of a flat constant.
 *  - an NVM-style write buffer per partition: a non-full buffer
 *    absorbs a writeback at the cheap buffered latency; reads drain
 *    one entry each; a full buffer makes the blocked access wait one
 *    full writeLatency drain (counted in wbufStalls).
 *  - deterministic per-partition fault injection on demand reads
 *    (bitErrorRate) and on refresh-epoch boundaries (refreshFaultRate
 *    per elapsed epoch), drawn from the run's seeded FaultInjector and
 *    recorded in its trace with field = partition index. Only
 *    header-inline injector methods are used here, so dopp_sim keeps
 *    its no-link-dependency on dopp_fault.
 *  - cross-tier graceful degradation: migrateApproxToPrecise() pins
 *    every approx-routed page to the precise partition (the
 *    QorGuardrail's MIGRATED tier), restoreApproxRoutes() re-applies
 *    the recorded approximate routes when the error estimate recovers.
 *
 * Flat, fault-free memory also has a sharded phase (beginSharded /
 * endSharded) in which one thread per LLC slice accesses it at once
 * with no lock: the sliced LLC's concurrent replay (DESIGN.md §15.3).
 */

#ifndef DOPP_SIM_MEMORY_HH
#define DOPP_SIM_MEMORY_HH

#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fault/fault_injector.hh"
#include "sim/mem_tier.hh"
#include "sim/slice_hash.hh"
#include "util/flat_map.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace dopp
{

/** One cache block worth of raw bytes. */
using BlockData = std::array<u8, blockBytes>;

/** Main-memory model: functional store plus traffic counters, with
 * optional partitioned tiering. */
class MainMemory
{
  public:
    /** Legacy flat memory: one implicit precise partition with a
     * fixed access latency (Table 1: 160 cycles). */
    explicit MainMemory(Tick latency = 160)
    {
        MemPartitionProfile flat;
        flat.name = "flat-dram";
        flat.readLatency = latency;
        flat.writeLatency = latency;
        parts.push_back(PartitionState{flat});
    }

    /** Tiered memory per @p tier; an empty tier degenerates to the
     * legacy flat default above. */
    explicit MainMemory(const MemTierConfig &tier)
        : tiered(tier.enabled())
    {
        if (!tiered) {
            MemPartitionProfile flat;
            flat.name = "flat-dram";
            parts.push_back(PartitionState{flat});
            return;
        }
        parts.reserve(tier.partitions.size());
        for (const MemPartitionProfile &p : tier.partitions)
            parts.push_back(PartitionState{p});
        for (u32 i = 0; i < parts.size(); ++i) {
            if (parts[i].prof.kind == MemPartitionKind::PreciseDram) {
                precisePart = i;
                break;
            }
        }
        for (u32 i = 0; i < parts.size(); ++i) {
            if (parts[i].prof.kind != MemPartitionKind::PreciseDram)
                approxParts.push_back(i);
        }
    }

    /** Number of partitions (1 in legacy mode). */
    u32 partitionCount() const
    {
        return static_cast<u32>(parts.size());
    }

    /** Whether a non-empty MemTierConfig configured this memory. */
    bool isTiered() const { return tiered; }

    /** Partition index addr currently routes to. */
    u32
    partitionOf(Addr addr) const
    {
        if (approxParts.empty())
            return precisePart;
        const auto it = pageRoute.find(pageOf(addr));
        return it == pageRoute.end() ? precisePart : it->second;
    }

    const MemPartitionProfile &
    partitionProfile(u32 index) const
    {
        return parts[index].prof;
    }

    /**
     * Route the pages of an annotated approximate region to an
     * approximate partition (regions round-robin across the
     * non-precise partitions in registration order, so the assignment
     * is a pure function of the annotation sequence). No-op when the
     * tier has no approximate partition. Routes apply to future
     * accesses only; the functional store is shared, so no data moves.
     */
    void
    routeApprox(Addr base, u64 size)
    {
        if (approxParts.empty() || size == 0)
            return;
        const u32 part = approxParts[nextApproxRegion++ %
                                     approxParts.size()];
        const Addr firstPage = pageOf(base);
        const Addr lastPage = pageOf(base + size - 1);
        for (Addr p = firstPage; p <= lastPage; ++p)
            pageRoute[p] = part;
        approxSpans.push_back({firstPage, lastPage, part});
        if (migratedNow) // late annotation while migrated: stay precise
            for (Addr p = firstPage; p <= lastPage; ++p)
                pageRoute[p] = precisePart;
    }

    /**
     * Graceful degradation, tier 2: pin every approx-routed page to
     * the precise partition (QorGuardrail MIGRATED state). Idempotent;
     * returns the number of pages whose route changed.
     */
    u64
    migrateApproxToPrecise()
    {
        if (migratedNow)
            return 0;
        migratedNow = true;
        ++migrations_;
        u64 moved = 0;
        for (const RouteSpan &s : approxSpans) {
            for (Addr p = s.firstPage; p <= s.lastPage; ++p) {
                auto it = pageRoute.find(p);
                if (it != pageRoute.end() &&
                    it->second != precisePart) {
                    it->second = precisePart;
                    ++moved;
                }
            }
        }
        pagesMigrated_ += moved;
        return moved;
    }

    /** Undo migrateApproxToPrecise(): re-apply the recorded
     * approximate routes (hysteresis recovery). Idempotent. */
    void
    restoreApproxRoutes()
    {
        if (!migratedNow)
            return;
        migratedNow = false;
        for (const RouteSpan &s : approxSpans)
            for (Addr p = s.firstPage; p <= s.lastPage; ++p)
                pageRoute[p] = s.partition;
    }

    /** Whether approx routes are currently pinned precise. */
    bool migrated() const { return migratedNow; }

    /** Route migrations performed (MIGRATED entries). */
    u64 migrations() const { return migrations_; }

    /** Pages re-pinned to the precise partition across migrations. */
    u64 pagesMigrated() const { return pagesMigrated_; }

    /**
     * Attach the run's seeded fault source for per-partition
     * injection (tiered mode; the legacy flat path keeps using
     * faultHook). Must outlive the memory's accesses.
     */
    void setFaultInjector(FaultInjector *fi) { injector = fi; }

    /**
     * Observer run after every injected flip, with the stored block
     * already corrupted: (aligned block address, stored block, flipped
     * bit, partition index). The harness computes the element error
     * (flipping the bit back to recover the pre-fault value) and
     * feeds the QoR guardrail.
     */
    std::function<void(Addr, u8 *, u32, u32)> onBitFlip;

    /** Create the page of the block at @p addr if absent
     * (zero-filled, as first touch does), with no traffic accounting. */
    void materialize(Addr addr) { pageAt(addr); }

    /**
     * Enter the sharded phase: from here to endSharded(), one thread
     * per slice may call readBlock/writeBlock at once, with no lock,
     * provided each thread touches only blocks of its own slice under
     * (@p shard_count, @p hash) — the routing the sliced LLC front end
     * uses (sim/sliced_llc.hh) — and only blocks materialized before
     * this call (any other is fatal). The workers then only find() in
     * the page index, which is const for data races, and each writes
     * only its own slice's blocks (slices may share a page, never a
     * block). The traffic counters go to one cache-line-aligned shard
     * per slice, chosen by sliceOf(), so each shard has exactly one
     * writer. Fatal on tiered memory and with a fault hook, a bit-flip
     * observer or a fault injector attached:
     * their draws and the write-buffer state follow the global access
     * order, which concurrent slices do not have.
     */
    void
    beginSharded(u32 shard_count, SliceHashKind hash)
    {
        if (tiered)
            fatal("main memory: sharded access on tiered memory");
        if (faultHook)
            fatal("main memory: sharded access with a fault hook");
        if (onBitFlip)
            fatal("main memory: sharded access with a bit-flip "
                  "observer");
        if (injector)
            fatal("main memory: sharded access with a fault injector");
        DOPP_ASSERT(shards.empty() && shard_count > 0);
        shards.assign(shard_count, CounterShard{});
        shardHash = hash;
    }

    /**
     * Leave the sharded phase: fold the shards into the traffic
     * counters in shard order. The sums commute, so every counter is
     * bit-identical to a serial run of the same accesses.
     */
    void
    endSharded()
    {
        // Only these four move in the phase: the other counters need a
        // fault injector or a write buffer, which beginSharded refuses.
        PartitionCounters &c = parts[precisePart].c;
        for (const CounterShard &s : shards) {
            c.reads += s.c.reads;
            c.writes += s.c.writes;
            c.readCycles += s.c.readCycles;
            c.writeCycles += s.c.writeCycles;
        }
        shards.clear();
    }

    /**
     * Demand-read block at @p addr into @p data; counts traffic.
     * @return the read latency of the partition hit, including any
     * stall behind a full write buffer.
     */
    Tick
    readBlock(Addr addr, u8 *data)
    {
        const Addr aligned = blockAlign(addr);
        PartitionState &p = parts[partitionOf(aligned)];
        PartitionCounters &c = countersFor(p, aligned);
        ++c.reads;
        Page &pg = pageAt(aligned);
        const unsigned blk = pageBlock(aligned);
        u8 *bytes = pg.bytes.data() + blk * blockBytes;

        injectReadFaults(p, aligned, bytes, pg.epochs[blk]);
        if (faultHook)
            faultHook(aligned, bytes);

        Tick lat = p.prof.readLatency;
        if (p.prof.writeBufferDepth > 0 && p.wbufOccupancy > 0) {
            if (p.wbufOccupancy >= p.prof.writeBufferDepth) {
                // Full buffer: the read waits for one drain.
                lat += p.prof.writeLatency;
                ++c.wbufStalls;
            }
            --p.wbufOccupancy; // the read slot drains one entry
        }
        c.readCycles += lat;
        std::memcpy(data, bytes, blockBytes);
        return lat;
    }

    /**
     * Writeback block at @p addr from @p data; counts traffic.
     * @return the write latency (buffered or full). Writebacks are
     * posted off the critical path, so the LLC does not charge this
     * to runtime; it is visible in writeCycles and the energy model.
     */
    Tick
    writeBlock(Addr addr, const u8 *data)
    {
        const Addr aligned = blockAlign(addr);
        PartitionState &p = parts[partitionOf(aligned)];
        PartitionCounters &c = countersFor(p, aligned);
        ++c.writes;
        Page &pg = pageAt(aligned);
        const unsigned blk = pageBlock(aligned);
        std::memcpy(pg.bytes.data() + blk * blockBytes, data, blockBytes);
        pg.epochs[blk] = currentEpoch(p); // a write refreshes the cells

        Tick lat;
        if (p.prof.writeBufferDepth > 0) {
            if (p.wbufOccupancy < p.prof.writeBufferDepth) {
                ++p.wbufOccupancy;
                ++c.wbufHits;
                lat = p.prof.bufferedWriteLatency;
            } else {
                ++c.wbufStalls; // full: wait one full drain
                lat = p.prof.writeLatency;
            }
        } else {
            lat = p.prof.writeLatency;
        }
        c.writeCycles += lat;
        return lat;
    }

    /** Functional write without traffic accounting (input setup). */
    void
    poke(Addr addr, const void *src, u64 len)
    {
        const u8 *p = static_cast<const u8 *>(src);
        while (len > 0) {
            const u64 off = addr & (pageBytes - 1);
            const u64 chunk = std::min<u64>(len, pageBytes - off);
            std::memcpy(pageAt(addr).bytes.data() + off, p, chunk);
            p += chunk;
            addr += chunk;
            len -= chunk;
        }
    }

    /** Functional read without traffic accounting (output collection).
     * Unmaterialized pages read as zeros and stay unmaterialized. */
    void
    peek(Addr addr, void *dst, u64 len) const
    {
        u8 *p = static_cast<u8 *>(dst);
        while (len > 0) {
            const u64 off = addr & (pageBytes - 1);
            const u64 chunk = std::min<u64>(len, pageBytes - off);
            if (const Page *pg = findPage(pageOf(addr)))
                std::memcpy(p, pg->bytes.data() + off, chunk);
            else
                std::memset(p, 0, chunk);
            p += chunk;
            addr += chunk;
            len -= chunk;
        }
    }

    /**
     * Optional fault hook, run on every demand read before the data
     * leaves memory. It receives the *stored* block and may corrupt it
     * in place, modeling bit flips that accumulate in approximate DRAM
     * partitions and materialize at the next read. The harness wires
     * this to a FaultInjector, filtered to annotated regions (precise
     * data lives in the reliable partition) — the legacy flat-memory
     * fault path; tiered runs use setFaultInjector instead. Functional
     * peek/poke bypass the hook, so input setup and output collection
     * stay exact.
     */
    std::function<void(Addr, u8 *)> faultHook;

    /** Read latency of the precise (default-route) partition — the
     * legacy flat-latency view. */
    Tick latency() const
    {
        return parts[precisePart].prof.readLatency;
    }

    /** Demand block reads since the last resetStats(). */
    u64 reads() const { return total(&PartitionCounters::reads); }

    /** Block writebacks since the last resetStats(). */
    u64 writes() const { return total(&PartitionCounters::writes); }

    /** Total off-chip block transfers. */
    u64 traffic() const { return reads() + writes(); }

    /** Per-partition counters (index < partitionCount()). */
    struct PartitionCounters
    {
        u64 reads = 0;          ///< demand block reads
        u64 writes = 0;         ///< block writebacks
        u64 readCycles = 0;     ///< latency charged to reads
        u64 writeCycles = 0;    ///< latency charged to writes
        u64 bitFlips = 0;       ///< raw read-disturb flips injected
        u64 refreshFaults = 0;  ///< retention flips at epoch boundaries
        u64 wbufHits = 0;       ///< writes absorbed by the buffer
        u64 wbufStalls = 0;     ///< accesses stalled on a full buffer
    };

    PartitionCounters
    partitionCounters(u32 index) const
    {
        return parts[index].c;
    }

    /**
     * Expose the traffic counters under @p group (counter functions
     * over the existing members, so readBlock/writeBlock keep their
     * header-only hot path). Tiered memories additionally register
     * one subgroup per partition ("partition0", "partition1", ...)
     * plus the migration counters; the legacy flat layout is
     * unchanged, so pre-tier snapshots stay bit-identical. The memory
     * must outlive the registry's snapshots.
     */
    void
    registerStats(StatGroup group)
    {
        group.counterFn(
            "reads", [this] { return reads(); },
            "demand block reads from memory");
        group.counterFn(
            "writes", [this] { return writes(); },
            "block writebacks to memory");
        group.counterFn(
            "traffic", [this] { return traffic(); },
            "total off-chip block transfers");
        if (!tiered)
            return;
        group.counterFn(
            "migrations", [this] { return migrations_; },
            "approx-to-precise route migrations");
        group.counterFn(
            "pagesMigrated", [this] { return pagesMigrated_; },
            "pages re-pinned to the precise partition");
        group.counterFn(
            "migratedNow", [this] { return migratedNow ? 1 : 0; },
            "whether approx routes are currently pinned precise");
        for (u32 i = 0; i < parts.size(); ++i) {
            StatGroup pg =
                group.group("partition" + std::to_string(i));
            const std::string what =
                parts[i].prof.name + " (" +
                memPartitionKindName(parts[i].prof.kind) + ")";
            pg.counterFn(
                "reads", [this, i] { return parts[i].c.reads; },
                "demand block reads: " + what);
            pg.counterFn(
                "writes", [this, i] { return parts[i].c.writes; },
                "block writebacks: " + what);
            pg.counterFn(
                "readCycles",
                [this, i] { return parts[i].c.readCycles; },
                "latency charged to reads: " + what);
            pg.counterFn(
                "writeCycles",
                [this, i] { return parts[i].c.writeCycles; },
                "latency charged to writes: " + what);
            pg.counterFn(
                "bitFlips", [this, i] { return parts[i].c.bitFlips; },
                "read-disturb bit flips injected: " + what);
            pg.counterFn(
                "refreshFaults",
                [this, i] { return parts[i].c.refreshFaults; },
                "retention flips at refresh epochs: " + what);
            pg.counterFn(
                "wbufHits", [this, i] { return parts[i].c.wbufHits; },
                "writes absorbed by the write buffer: " + what);
            pg.counterFn(
                "wbufStalls",
                [this, i] { return parts[i].c.wbufStalls; },
                "accesses stalled on a full write buffer: " + what);
        }
    }

    /** Zero the traffic counters (not the contents or routes). */
    void
    resetStats()
    {
        for (PartitionState &p : parts) {
            p.c = {};
            p.wbufOccupancy = 0;
        }
    }

  private:
    static constexpr u64 pageBytes = 4096;
    static constexpr unsigned pageBlocks = pageBytes / blockBytes;

    /** One 4 KiB page of the store: its blocks' bytes, contiguous, and
     * for each block the refresh epoch it was last rewritten or read
     * (fault accumulation restarts from there). */
    struct Page
    {
        std::array<u8, pageBytes> bytes = {};
        std::array<u64, pageBlocks> epochs = {};
    };

    struct PartitionState
    {
        MemPartitionProfile prof;
        PartitionCounters c = {};
        u32 wbufOccupancy = 0; ///< buffered writes outstanding
    };

    /** Traffic counters of one slice in the sharded phase, one cache
     * line each so concurrent slices never share a line. */
    struct alignas(64) CounterShard
    {
        PartitionCounters c = {};
    };

    /** Sum of @p field over every partition. */
    u64
    total(u64 PartitionCounters::*field) const
    {
        u64 n = 0;
        for (const PartitionState &p : parts)
            n += p.c.*field;
        return n;
    }

    /** Counters an access to @p aligned in @p p bumps: the
     * partition's own, or in the sharded phase its slice's shard. */
    PartitionCounters &
    countersFor(PartitionState &p, Addr aligned)
    {
        if (shards.empty())
            return p.c;
        return shards[sliceOf(aligned, static_cast<u32>(shards.size()),
                              shardHash)]
            .c;
    }

    /** Page number of @p addr (4 KiB pages, matching the runtime's
     * page-aligned allocator). */
    static Addr pageOf(Addr addr) { return addr >> 12; }

    /** Index of @p addr's block within its page. */
    static unsigned
    pageBlock(Addr addr)
    {
        return static_cast<unsigned>(addr / blockBytes) % pageBlocks;
    }

    static u64
    currentEpoch(const PartitionState &p)
    {
        // Every read and write of the partition ticks the clock.
        return p.prof.refreshIntervalAccesses
            ? (p.c.reads + p.c.writes) / p.prof.refreshIntervalAccesses
            : 0;
    }

    /**
     * Deterministic fault injection for one demand read: first the
     * retention draws (one per refresh epoch elapsed since the block
     * was last read or written, capped for boundedness), then one
     * read-disturb draw. Draw order is fixed so equal configs replay
     * the exact same fault trace (DESIGN.md §8).
     */
    void
    injectReadFaults(PartitionState &p, Addr aligned, u8 *bytes,
                     u64 &block_epoch)
    {
        if (!injector)
            return;
        const u32 partIdx = static_cast<u32>(&p - parts.data());
        if (p.prof.refreshFaultRate > 0.0 &&
            p.prof.refreshIntervalAccesses > 0) {
            const u64 epoch = currentEpoch(p);
            u64 elapsed = epoch > block_epoch ? epoch - block_epoch : 0;
            // One draw per missed refresh; cap so a long-idle block
            // costs bounded PRNG work (the tail rates are tiny).
            elapsed = std::min<u64>(elapsed, 16);
            for (u64 e = 0; e < elapsed; ++e) {
                if (injector->drawRate(p.prof.refreshFaultRate)) {
                    flipOne(aligned, bytes, partIdx);
                    ++p.c.refreshFaults;
                }
            }
            block_epoch = epoch; // the read scrubs accumulated epochs
        }
        if (p.prof.bitErrorRate > 0.0 &&
            injector->drawRate(p.prof.bitErrorRate)) {
            flipOne(aligned, bytes, partIdx);
            ++p.c.bitFlips;
        }
    }

    /** Flip one uniformly-picked bit of the stored block @p bytes,
     * record it in the fault trace (field = partition index), and
     * notify the observer. */
    void
    flipOne(Addr aligned, u8 *bytes, u32 part_idx)
    {
        const u32 bit =
            static_cast<u32>(injector->pick(blockBytes * 8));
        bytes[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
        injector->record(FaultDomain::MemoryData, aligned, part_idx,
                         bit);
        if (onBitFlip)
            onBitFlip(aligned, bytes, bit, part_idx);
    }

    /** The page holding @p addr, materialized (zero-filled) on first
     * touch outside the sharded phase. */
    Page &
    pageAt(Addr addr)
    {
        const Addr page_no = pageOf(addr);
        if (Page *pg = findPage(page_no))
            return *pg;
        if (!shards.empty()) {
            fatal("main memory: sharded access to unmaterialized "
                  "block %#llx",
                  static_cast<unsigned long long>(blockAlign(addr)));
        }
        pages.reserve(pages.size() + 1);
        std::unique_ptr<Page> &pg = pages[page_no];
        pg = std::make_unique<Page>();
        return *pg;
    }

    /** The page @p page_no if materialized, else nullptr. */
    Page *
    findPage(Addr page_no) const
    {
        const std::unique_ptr<Page> *pg = pages.find(page_no);
        return pg ? pg->get() : nullptr;
    }

    struct RouteSpan
    {
        Addr firstPage;
        Addr lastPage;
        u32 partition;
    };

    /** Page number → page; pages never move once created. */
    FlatMap<std::unique_ptr<Page>> pages{64};
    std::vector<PartitionState> parts;
    std::unordered_map<Addr, u32> pageRoute;
    std::vector<RouteSpan> approxSpans;
    std::vector<u32> approxParts;
    u32 precisePart = 0;
    u64 nextApproxRegion = 0;
    bool tiered = false;
    bool migratedNow = false;
    u64 migrations_ = 0;
    u64 pagesMigrated_ = 0;
    FaultInjector *injector = nullptr;
    std::vector<CounterShard> shards; ///< non-empty only while sharded
    SliceHashKind shardHash = SliceHashKind::BitSelect;
};

} // namespace dopp

#endif // DOPP_SIM_MEMORY_HH
