/**
 * @file
 * Sliced LLC front end (DESIGN.md §15): owns N independent sub-LLCs
 * and routes every access to exactly one of them by a SliceHash
 * policy (sim/slice_hash.hh), the way Intel physically shards its
 * last-level cache. The front end is organization-agnostic — the
 * factory (harness/llc_factory.hh) builds any registered organization
 * once per slice, so baseline, split/uni Doppelgänger, dedup and BDI
 * can all be sliced without per-organization edits.
 *
 * Determinism contract:
 *  - Hierarchy-driven (routed) fetch/writeback always run on the
 *    calling thread, so shared state (the backing memory, the fault
 *    injector's Rng, the guardrail, inclusive back-invalidation into
 *    the private caches) sees exactly the serial access order, and
 *    sliceThreads=1 and sliceThreads=N are bit-identical by
 *    construction. No thread exists outside replay().
 *  - Genuine parallelism is confined to replay(): a direct-drive
 *    fetch/writeback stream is partitioned by slice hash up front and
 *    the partitions run concurrently, one thread per slice started
 *    and joined inside the call, with no lock and no shared mutable
 *    state. Before the workers start, replay() materializes the block
 *    of every op in the backing memory (victims were materialized when
 *    they were fetched), so workers only look blocks up and each
 *    writes only its own slice's blocks; traffic counters go to one
 *    counter shard per slice (MainMemory::beginSharded) and fold back
 *    in slice order after the join. The sums commute, so per-slice
 *    state, memory contents and merged stats are bit-identical to a
 *    serial replay.
 *    Concurrent replay is fatal with an LLC fault injector, a
 *    guardrail or a hot-path profile attached, on tiered memory, and
 *    with a memory fault hook, bit-flip observer or fault injector
 *    attached — each would draw or order by the global access
 *    sequence, which concurrent slices do not have.
 */

#ifndef DOPP_SIM_SLICED_LLC_HH
#define DOPP_SIM_SLICED_LLC_HH

#include <memory>
#include <vector>

#include "sim/llc.hh"
#include "sim/slice_hash.hh"

namespace dopp
{

/** N-slice LLC front end; a pure container like SplitLlc. */
class SlicedLlc : public LastLevelCache
{
  public:
    /**
     * @param slices one factory-built sub-LLC per slice (their
     *        counters already live under per-slice stat groups;
     *        stats() reads the merged aggregate the factory registers
     *        under @p stat_group)
     * @param hash slice-selection policy
     * @param worker_threads > 1 allows concurrent replay(); routed
     *        accesses never start a thread
     */
    SlicedLlc(MainMemory &memory,
              std::vector<std::unique_ptr<LastLevelCache>> slices,
              SliceHashKind hash, u32 worker_threads,
              StatRegistry *stat_registry = nullptr,
              const std::string &stat_group = "llc");

    FetchResult fetch(Addr addr, u8 *data) override;
    void writeback(Addr addr, const u8 *data) override;
    bool contains(Addr addr) const override;
    void forEachBlock(
        const std::function<void(const LlcBlockInfo &)> &visit)
        const override;
    void flush() override;
    const char *name() const override { return "sliced"; }

    void setBackInvalidate(BackInvalidateFn fn) override;
    void setFaultInjector(FaultInjector *fi) override;
    void setGuardrail(QorGuardrail *g) override;
    void setHotPathProfile(HotPathProfile *p) override;

    /** @name Introspection */
    /// @{
    u32 sliceCount() const { return static_cast<u32>(subs.size()); }
    SliceHashKind hashKind() const { return hash; }

    /** Slice index @p addr routes to. */
    u32 sliceOfAddr(Addr addr) const
    {
        return sliceOf(addr, sliceCount(), hash);
    }

    LastLevelCache &slice(u32 i) { return *subs[i]; }
    const LastLevelCache &slice(u32 i) const { return *subs[i]; }
    /// @}

    /** One direct-drive replay operation (bench throughput mode). */
    struct SliceOp
    {
        Addr addr = 0;       ///< block address
        bool isWrite = false; ///< writeback of a pattern block, else fetch
    };

    /**
     * Direct-drive replay of @p ops: partition by slice hash, then run
     * each slice's partition in op order — concurrently (one thread
     * per slice, joined before return) when @p concurrent is set and
     * the front end was built with worker_threads > 1, serially
     * otherwise. Writebacks store a deterministic in-range
     * F32 pattern derived from the address. Per-slice results are
     * bit-identical either way (see the determinism contract above,
     * which also lists the configurations concurrent replay refuses).
     */
    void replay(const std::vector<SliceOp> &ops, bool concurrent);

  private:
    std::vector<std::unique_ptr<LastLevelCache>> subs;
    SliceHashKind hash;
    bool concurrentReplay; ///< worker_threads > 1
    HotPathProfile *prof = nullptr;
};

} // namespace dopp

#endif // DOPP_SIM_SLICED_LLC_HH
