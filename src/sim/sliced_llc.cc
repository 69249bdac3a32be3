#include "sliced_llc.hh"

#include <cstring>
#include <thread>

#include "util/logging.hh"

namespace dopp
{

SlicedLlc::SlicedLlc(MainMemory &memory,
                     std::vector<std::unique_ptr<LastLevelCache>> slices,
                     SliceHashKind hash_kind, u32 worker_threads,
                     StatRegistry *stat_registry,
                     const std::string &stat_group)
    : LastLevelCache(memory, stat_registry, stat_group),
      subs(std::move(slices)), hash(hash_kind),
      concurrentReplay(worker_threads > 1)
{
    if (subs.empty())
        fatal("sliced llc: no slices");
    // Validate the (count, hash) pair once up front.
    (void)sliceOf(0, sliceCount(), hash);
    for (const auto &s : subs) {
        if (!s)
            fatal("sliced llc: null slice");
    }
}

LastLevelCache::FetchResult
SlicedLlc::fetch(Addr addr, u8 *data)
{
    return subs[sliceOfAddr(addr)]->fetch(addr, data);
}

void
SlicedLlc::writeback(Addr addr, const u8 *data)
{
    subs[sliceOfAddr(addr)]->writeback(addr, data);
}

bool
SlicedLlc::contains(Addr addr) const
{
    return subs[sliceOfAddr(addr)]->contains(addr);
}

void
SlicedLlc::forEachBlock(
    const std::function<void(const LlcBlockInfo &)> &visit) const
{
    for (const auto &s : subs)
        s->forEachBlock(visit);
}

void
SlicedLlc::flush()
{
    for (const auto &s : subs)
        s->flush();
}

void
SlicedLlc::setBackInvalidate(BackInvalidateFn fn)
{
    for (const auto &s : subs)
        s->setBackInvalidate(fn);
}

void
SlicedLlc::setFaultInjector(FaultInjector *fi)
{
    faults = fi;
    for (const auto &s : subs)
        s->setFaultInjector(fi);
}

void
SlicedLlc::setGuardrail(QorGuardrail *g)
{
    guardrail = g;
    for (const auto &s : subs)
        s->setGuardrail(g);
}

void
SlicedLlc::setHotPathProfile(HotPathProfile *p)
{
    prof = p;
    for (const auto &s : subs)
        s->setHotPathProfile(p);
}

namespace
{

/** Deterministic in-range F32 pattern block for replay writebacks:
 * 16 values in [0, 1) derived from the block number, so Doppelgänger
 * map generation sees realistic (finite, bounded) inputs. */
void
fillPatternBlock(Addr addr, u8 *data)
{
    const u64 blockNum = addr >> blockOffsetBits;
    for (unsigned e = 0; e < blockBytes / sizeof(float); ++e) {
        const float v =
            static_cast<float>((blockNum * 16 + e * 7) % 1024) /
            1024.0f;
        std::memcpy(data + e * sizeof(float), &v, sizeof(float));
    }
}

} // namespace

void
SlicedLlc::replay(const std::vector<SliceOp> &ops, bool concurrent)
{
    const bool parallel = concurrent && concurrentReplay;
    if (parallel && (faults || guardrail || prof)) {
        fatal("sliced llc: concurrent replay with a fault "
              "injector, guardrail or hot-path profile attached");
    }

    std::vector<std::vector<SliceOp>> parts(sliceCount());
    for (const SliceOp &op : ops)
        parts[sliceOfAddr(op.addr)].push_back(op);

    // Each slice consumes exactly its partition, in partition order,
    // whether the partitions run serially or concurrently — that is
    // the whole determinism argument.
    auto drive = [](LastLevelCache &llc,
                    const std::vector<SliceOp> &part) {
        BlockData buf;
        for (const SliceOp &op : part) {
            if (op.isWrite) {
                fillPatternBlock(op.addr, buf.data());
                llc.writeback(op.addr, buf.data());
            } else {
                llc.fetch(op.addr, buf.data());
            }
        }
    };

    if (!parallel) {
        for (u32 i = 0; i < sliceCount(); ++i)
            drive(*subs[i], parts[i]);
        return;
    }

    // A slice touches memory only at its ops' blocks and at its
    // victims, and every victim was fetched, which materialized it
    // (a writeback that misses goes to memory at its own address).
    // So after this loop every store access of the workers is a
    // lookup.
    for (const SliceOp &op : ops)
        mem.materialize(op.addr);
    // One thread per slice, whatever the thread request beyond 1: a
    // slice is the unit of independent state, so more threads than
    // slices could never run anything extra. The joins order every
    // write a worker made before endSharded() folds the shards.
    mem.beginSharded(sliceCount(), hash);
    std::vector<std::thread> workers;
    workers.reserve(sliceCount());
    for (u32 i = 0; i < sliceCount(); ++i)
        workers.emplace_back([&drive, this, i, &parts] {
            drive(*subs[i], parts[i]);
        });
    for (std::thread &w : workers)
        w.join();
    mem.endSharded();
}

} // namespace dopp
