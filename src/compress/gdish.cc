#include "gdish.hh"

#include <cstring>
#include <unordered_set>

#include "util/logging.hh"

namespace dopp
{

namespace
{

u32
wordAt(const u8 *block, unsigned i)
{
    u32 w;
    std::memcpy(&w, block + i * gdishWordBytes, gdishWordBytes);
    return w;
}

} // namespace

bool
GdishDict::compressible(const u8 *block) const
{
    u32 missing = 0;
    std::unordered_set<u32> seen;
    for (unsigned i = 0; i < gdishWordsPerBlock; ++i) {
        const u32 w = wordAt(block, i);
        if (words.count(w) || !seen.insert(w).second)
            continue;
        ++missing;
    }
    return words.size() + missing <= cap;
}

bool
GdishDict::acquire(const u8 *block)
{
    if (!compressible(block))
        return false;
    for (unsigned i = 0; i < gdishWordsPerBlock; ++i)
        ++words[wordAt(block, i)];
    return true;
}

void
GdishDict::release(const u8 *block)
{
    for (unsigned i = 0; i < gdishWordsPerBlock; ++i) {
        auto it = words.find(wordAt(block, i));
        DOPP_ASSERT(it != words.end() && it->second > 0);
        if (--it->second == 0)
            words.erase(it);
    }
}

bool
GdishDict::checkInvariants(std::string *why) const
{
    if (words.size() > cap) {
        if (why)
            *why = "gdish dict: size exceeds capacity";
        return false;
    }
    for (const auto &[w, refs] : words) {
        if (refs == 0) {
            if (why)
                *why = "gdish dict: zero-refcount entry survived";
            return false;
        }
    }
    return true;
}

u64
GdishDict::totalRefs() const
{
    u64 n = 0;
    for (const auto &[w, refs] : words)
        n += refs;
    return n;
}

GdishLlc::GdishLlc(MainMemory &memory, const GdishLlcConfig &config,
                   const ApproxRegistry *registry,
                   StatRegistry *stat_registry,
                   const std::string &stat_group)
    : LastLevelCache(memory, stat_registry, stat_group), cfg(config),
      registry(registry),
      sets(config.sizeBytes / blockBytes / config.ways),
      slicer(static_cast<u32>(config.sizeBytes / blockBytes /
                              config.ways)),
      dict(config.dictEntries)
{
    if (cfg.tagFactor == 0)
        fatal("gdish llc: tagFactor must be non-zero");
    if (cfg.dictEntries == 0)
        fatal("gdish llc: dictEntries must be non-zero");
    for (auto &set : sets)
        set.entries.resize(static_cast<size_t>(cfg.ways) *
                           cfg.tagFactor);
    initLlcCounters();

    // Dictionary observability, under the organization's own subgroup
    // so sliced runs merge it like any other counter (DESIGN.md §15).
    StatGroup g = statGroup().group("gdish");
    compressedFills =
        &g.counter("compressedFills",
                   "blocks stored as dictionary indices");
    rawFills = &g.counter("rawFills",
                          "blocks stored uncompressed (dict full or "
                          "unshareable words)");
    GdishDict *d = &dict;
    g.counterFn(
        "dictWords", [d] { return static_cast<u64>(d->size()); },
        "distinct words currently materialized");
    dictInserts = &g.counter("dictInserts", "dictionary insertions");
    dictErases = &g.counter("dictErases",
                            "dictionary entries freed at refcount zero");
}

GdishLlc::Entry *
GdishLlc::find(Addr addr)
{
    Set &set = sets[slicer.set(addr)];
    const u64 tag = slicer.tag(addr);
    for (auto &e : set.entries)
        if (e.valid && e.tag == tag)
            return &e;
    return nullptr;
}

const GdishLlc::Entry *
GdishLlc::find(Addr addr) const
{
    return const_cast<GdishLlc *>(this)->find(addr);
}

void
GdishLlc::releaseEntry(Entry &e)
{
    if (e.dictCompressed)
        releaseWords(e.data.data());
    e.dictCompressed = false;
    e.valid = false;
}

void
GdishLlc::releaseWords(const u8 *block)
{
    // Releasing only erases, so the shrink is the erase count.
    const u32 before = dict.size();
    dict.release(block);
    *dictErases += before - dict.size();
}

void
GdishLlc::evictLru(Set &set, u32 set_idx)
{
    Entry *victim = nullptr;
    for (auto &e : set.entries) {
        if (e.valid && (!victim || e.stamp < victim->stamp))
            victim = &e;
    }
    DOPP_ASSERT(victim);

    const Addr addr = slicer.addr(set_idx, victim->tag);
    ++ctr->evictions;
    BlockData upward;
    const bool upwardDirty = invalidateUpward(addr, upward.data());
    if (upwardDirty) {
        mem.writeBlock(addr, upward.data());
        ++ctr->dirtyWritebacks;
    } else if (victim->dirty) {
        ++ctr->dataArray.reads;
        mem.writeBlock(addr, victim->data.data());
        ++ctr->dirtyWritebacks;
    }
    set.usedBytes -= victim->size;
    releaseEntry(*victim);
}

void
GdishLlc::makeRoom(Set &set, u32 set_idx, unsigned extra)
{
    const u64 budget = static_cast<u64>(cfg.ways) * blockBytes;
    auto freeSlot = [&]() -> bool {
        for (const auto &e : set.entries)
            if (!e.valid)
                return true;
        return false;
    };
    while (set.usedBytes + extra > budget || !freeSlot())
        evictLru(set, set_idx);
}

unsigned
GdishLlc::install(Entry &e, const u8 *block)
{
    std::memcpy(e.data.data(), block, blockBytes);
    // Acquiring only inserts, so the growth is the insert count.
    const u32 before = dict.size();
    e.dictCompressed = dict.acquire(e.data.data());
    *dictInserts += dict.size() - before;
    if (e.dictCompressed) {
        ++*compressedFills;
        e.size = gdishCompressedBlockBytes;
    } else {
        ++*rawFills;
        e.size = blockBytes;
    }
    return e.size;
}

LastLevelCache::FetchResult
GdishLlc::fetch(Addr addr, u8 *data)
{
    ++ctr->fetches;
    ++ctr->tagArray.reads;

    const u64 t0 = prof ? hotpathNowNs() : 0;
    Entry *entry = find(addr);
    if (prof)
        prof->tagProbeNs += hotpathNowNs() - t0;
    if (entry) {
        ++ctr->fetchHits;
        ++ctr->dataArray.reads;
        entry->stamp = ++clock;
        const u64 d0 = prof ? hotpathNowNs() : 0;
        std::memcpy(data, entry->data.data(), blockBytes);
        if (prof)
            prof->dataArrayNs += hotpathNowNs() - d0;
        return {true, cfg.hitLatency + cfg.decompressLatency};
    }

    ++ctr->fetchMisses;
    BlockData fetched;
    const Tick memLat = mem.readBlock(addr, fetched.data());

    // Worst case the block stays raw, so make room for 64 B; a
    // compressed install returns the surplus to the set right away.
    const u32 set_idx = slicer.set(addr);
    Set &set = sets[set_idx];
    const u64 l0 = prof ? hotpathNowNs() : 0;
    makeRoom(set, set_idx, blockBytes);

    for (auto &e : set.entries) {
        if (e.valid)
            continue;
        e.valid = true;
        e.tag = slicer.tag(addr);
        e.dirty = false;
        e.stamp = ++clock;
        set.usedBytes += install(e, fetched.data());
        break;
    }
    if (prof)
        prof->listMaintNs += hotpathNowNs() - l0;
    ++ctr->tagArray.writes;
    ++ctr->dataArray.writes;

    const u64 d0 = prof ? hotpathNowNs() : 0;
    std::memcpy(data, fetched.data(), blockBytes);
    if (prof)
        prof->dataArrayNs += hotpathNowNs() - d0;
    return {false, cfg.hitLatency + memLat};
}

void
GdishLlc::writeback(Addr addr, const u8 *data)
{
    ++ctr->writebacksIn;
    ++ctr->tagArray.reads;

    const u64 t0 = prof ? hotpathNowNs() : 0;
    Entry *entry = find(addr);
    if (prof)
        prof->tagProbeNs += hotpathNowNs() - t0;
    if (!entry) {
        mem.writeBlock(addr, data);
        ++ctr->dirtyWritebacks;
        return;
    }

    const u32 set_idx = slicer.set(addr);
    Set &set = sets[set_idx];

    // Release the old contents first (its words may be exactly what
    // lets the new contents compress), then make room for the raw
    // worst case; the entry itself is protected from the LRU loop.
    const u64 l0 = prof ? hotpathNowNs() : 0;
    set.usedBytes -= entry->size;
    if (entry->dictCompressed)
        releaseWords(entry->data.data());
    entry->dictCompressed = false;
    entry->size = 0;
    entry->stamp = ++clock;
    const u64 budget = static_cast<u64>(cfg.ways) * blockBytes;
    while (set.usedBytes + blockBytes > budget)
        evictLru(set, set_idx);
    if (prof)
        prof->listMaintNs += hotpathNowNs() - l0;

    const u64 d0 = prof ? hotpathNowNs() : 0;
    set.usedBytes += install(*entry, data);
    if (prof)
        prof->dataArrayNs += hotpathNowNs() - d0;
    entry->dirty = true;
    ++ctr->dataArray.writes;
}

bool
GdishLlc::contains(Addr addr) const
{
    return find(addr) != nullptr;
}

void
GdishLlc::forEachBlock(
    const std::function<void(const LlcBlockInfo &)> &visit) const
{
    for (u32 s = 0; s < sets.size(); ++s) {
        for (const auto &e : sets[s].entries) {
            if (!e.valid)
                continue;
            LlcBlockInfo info;
            info.addr = slicer.addr(s, e.tag);
            info.data = e.data.data();
            info.dirty = e.dirty;
            const ApproxRegion *region =
                registry ? registry->find(info.addr) : nullptr;
            info.approx = region != nullptr;
            info.type = region ? region->type : ElemType::F32;
            visit(info);
        }
    }
}

void
GdishLlc::flush()
{
    for (u32 s = 0; s < sets.size(); ++s) {
        Set &set = sets[s];
        bool any = true;
        while (any) {
            any = false;
            for (const auto &e : set.entries) {
                if (e.valid) {
                    any = true;
                    break;
                }
            }
            if (any)
                evictLru(set, s);
        }
        set.usedBytes = 0;
    }
}

u64
GdishLlc::blockCount() const
{
    u64 n = 0;
    for (const auto &set : sets)
        for (const auto &e : set.entries)
            n += e.valid ? 1 : 0;
    return n;
}

u64
GdishLlc::storedBytes() const
{
    u64 n = 0;
    for (const auto &set : sets)
        n += set.usedBytes;
    return n;
}

double
GdishLlc::compressionRatio() const
{
    const u64 bytes = storedBytes();
    if (bytes == 0)
        return 1.0;
    return static_cast<double>(blockCount() * blockBytes) /
        static_cast<double>(bytes);
}

bool
GdishLlc::checkInvariants(std::string *why) const
{
    u64 compressedResident = 0;
    for (u32 s = 0; s < sets.size(); ++s) {
        const Set &set = sets[s];
        u64 bytes = 0;
        for (const auto &e : set.entries) {
            if (!e.valid)
                continue;
            bytes += e.size;
            const unsigned expect = e.dictCompressed
                ? gdishCompressedBlockBytes
                : blockBytes;
            if (e.size != expect) {
                if (why)
                    *why = "gdish: entry size disagrees with its "
                           "compression state in set " +
                        std::to_string(s);
                return false;
            }
            compressedResident += e.dictCompressed ? 1 : 0;
        }
        if (bytes != set.usedBytes) {
            if (why)
                *why = "gdish: byte accounting drifted in set " +
                    std::to_string(s);
            return false;
        }
        if (set.usedBytes > static_cast<u64>(cfg.ways) * blockBytes) {
            if (why)
                *why = "gdish: set " + std::to_string(s) +
                    " exceeds its byte budget";
            return false;
        }
    }
    if (!dict.checkInvariants(why))
        return false;
    if (dict.totalRefs() !=
        compressedResident * gdishWordsPerBlock) {
        if (why)
            *why = "gdish: dictionary refcounts disagree with the "
                   "resident compressed blocks";
        return false;
    }
    return true;
}

} // namespace dopp
