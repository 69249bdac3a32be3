/**
 * @file
 * Differential hierarchy harness: the live MemorySystem (open-addressed
 * directory, structure-of-arrays private caches, inline one-probe L1
 * hit) must be bit-identical to the frozen reference hierarchy
 * (tests/ref_hierarchy.hh). Both are driven with the same seeded
 * 4-core access stream — shared blocks, false-shared blocks, stores
 * and load-then-store upgrades — over every registered LLC
 * organization, unsliced and at 4 slices, clean and with LLC fault
 * injection plus an active QoR guardrail. The LLC is small, so
 * back-invalidations fire inside remote-owner writebacks (the path
 * where a stale directory pointer would go wrong). Every run compares
 * the per-access latencies and loaded bytes, the StatRegistry
 * snapshot, the private-cache contents, the LLC contents, the memory
 * bytes and the fault trace, and the live hierarchy's coherence
 * invariants are checked periodically along the way.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fault/fault_injector.hh"
#include "fault/qor_guardrail.hh"
#include "harness/experiment.hh"
#include "harness/llc_factory.hh"
#include "ref_hierarchy.hh"
#include "sim/hierarchy.hh"
#include "util/random.hh"

namespace dopp
{

namespace
{

/** Shape of one differential run. */
struct DiffOpts
{
    u64 ops = 30000;             ///< core accesses in the stream
    u64 seed = 0x41E2A2C4;       ///< stream seed
    u32 slices = 0;              ///< 0: unsliced LLC
    bool faulted = false;        ///< LLC faults + QoR guardrail
    u64 llcBytes = 64 * 1024;    ///< far below the 4 × 128 KB of L2
    u64 footprintBlocks = 4096;  ///< lower half annotated F32
    u64 checkEvery = 997;        ///< live checkInvariants() period
};

/** One access of the stream. */
struct Op
{
    CoreId core;
    Addr addr;
    bool write;
    unsigned size;
    u64 value;
};

/**
 * The seeded 4-core stream: a hot set every core shares, blocks whose
 * words are split between the cores (false sharing), and uniform
 * traffic over the footprint; a quarter of the loads are followed by
 * a store from the same core (an upgrade of a shared line). It does
 * not depend on loaded values, so both hierarchies see the same ops.
 */
std::vector<Op>
makeStream(const DiffOpts &opt)
{
    Rng rng(opt.seed);
    std::vector<Op> ops;
    ops.reserve(opt.ops);
    const u64 half = opt.footprintBlocks / 2;
    while (ops.size() < opt.ops) {
        Op op;
        op.core = static_cast<CoreId>(rng.below(4));
        op.size = rng.below(2) ? 8 : 4;
        const u64 kind = rng.below(10);
        u64 block;
        unsigned offset;
        if (kind < 4) {
            // Hot set shared by all cores, half approximate.
            block = rng.below(2) ? rng.below(32) : half + rng.below(32);
            offset = static_cast<unsigned>(rng.below(8)) * 8;
        } else if (kind < 6) {
            // False sharing: each core keeps to its own 16 B quarter.
            block = half + 64 + rng.below(16);
            offset = op.core * 16 + static_cast<unsigned>(rng.below(2)) * 8;
        } else {
            block = rng.below(opt.footprintBlocks);
            offset = static_cast<unsigned>(rng.below(8)) * 8;
        }
        op.addr = block * blockBytes + offset;
        op.write = rng.below(100) < 45;
        float f = static_cast<float>(rng.below(1000)) / 1000.0f;
        std::memcpy(&op.value, &f, sizeof(f));
        op.value |= rng.next() << 32;
        ops.push_back(op);
        if (!op.write && rng.below(4) == 0 && ops.size() < opt.ops) {
            Op up = op;
            up.write = true;
            ops.push_back(up);
        }
    }
    return ops;
}

/** Deterministically seed @p mem with in-range F32 blocks. */
void
seedMemory(MainMemory &mem, u64 footprint_blocks)
{
    Rng rng(0x5EED0F);
    BlockData block;
    for (u64 b = 0; b < footprint_blocks; ++b) {
        for (unsigned e = 0; e < elemsPerBlock(ElemType::F32); ++e) {
            setBlockElement(block.data(), ElemType::F32, e,
                            rng.below(1000) / 1000.0);
        }
        mem.poke(b * blockBytes, block.data(), blockBytes);
    }
}

/** One line of a contents dump: address, dirty bit, 64 bytes. */
std::string
lineText(Addr addr, bool dirty, const u8 *bytes)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llx d%d:",
                  static_cast<unsigned long long>(addr), dirty ? 1 : 0);
    std::string out = buf;
    for (unsigned i = 0; i < blockBytes; ++i) {
        std::snprintf(buf, sizeof(buf), "%02x", bytes[i]);
        out += buf;
    }
    return out;
}

/** Sorted dump of one private cache level. */
std::string
joinSorted(std::vector<std::string> lines)
{
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const std::string &l : lines)
        out += l + '\n';
    return out;
}

std::string
dumpLevel(const PrivateCache &cache)
{
    std::vector<std::string> lines;
    cache.forEachLine([&](Addr addr, i32 slot) {
        lines.push_back(lineText(addr, cache.dirty(slot), cache.data(slot)));
    });
    return joinSorted(lines);
}

std::string
dumpLevel(RefPrivateCache &cache)
{
    std::vector<std::string> lines;
    cache.forEachLine([&](Addr addr, RefPrivateCache::Line &line) {
        lines.push_back(lineText(addr, line.dirty, line.data.data()));
    });
    return joinSorted(lines);
}

/** Sorted dump of the LLC contents (address, dirty, approx, bytes). */
std::string
dumpLlc(const LastLevelCache &llc)
{
    std::vector<std::string> lines;
    llc.forEachBlock([&](const LlcBlockInfo &info) {
        lines.push_back(lineText(info.addr, info.dirty, info.data) +
                        (info.approx ? " a" : " p"));
    });
    return joinSorted(lines);
}

/** One hierarchy's observable outcome for a run. */
struct DiffResult
{
    std::vector<u64> trace; ///< per access: latency, then loaded bytes
    StatSnapshot stats;
    std::vector<std::string> privateDump; ///< L1, L2 per core
    std::string llcDump;
    std::vector<u8> memory;
    std::vector<FaultEvent> faultTrace;
    std::string invariantFailure;
};

/** Checks the live hierarchy's invariants; the reference has none. */
void
checkIfLive(MemorySystem &sys, u64 n, std::string &failure)
{
    std::string why;
    if (failure.empty() && !sys.checkInvariants(&why))
        failure = "after op " + std::to_string(n) + ": " + why;
}

void
checkIfLive(RefMemorySystem &, u64, std::string &)
{
}

/**
 * Build organization @p org, put hierarchy @p System over it and drive
 * it with @p ops (a drain in the middle and at the end, as a workload's
 * phases do).
 */
template <typename System>
DiffResult
runOne(const std::string &org, const DiffOpts &opt,
       const std::vector<Op> &ops)
{
    MainMemory mem;
    seedMemory(mem, opt.footprintBlocks);

    ApproxRegistry registry;
    ApproxRegion region;
    region.base = 0;
    region.size = (opt.footprintBlocks / 2) * blockBytes;
    region.type = ElemType::F32;
    region.minValue = 0.0;
    region.maxValue = 1.0;
    region.name = "diff";
    registry.add(region);

    RunConfig cfg;
    cfg.workloadName = "hierarchy-diff";
    cfg.baselineBytes = opt.llcBytes;
    cfg.sliceCount = opt.slices;

    StatRegistry statReg;
    mem.registerStats(statReg.group("mem"));
    registerBuiltinLlcs();
    LlcBuilt built = buildLlc(org, mem, registry, cfg, statReg);
    LastLevelCache &llc = *built.llc;

    FaultConfig fc;
    QorConfig qc;
    if (opt.faulted) {
        fc.seed = 0xFA17ED;
        fc.tagMetaRate = 0.002;
        fc.mtagMetaRate = 0.001;
        fc.dataRate = 0.0005;
        qc.budget = 0.02;
        qc.window = 128;
        qc.minDwell = 32;
    }
    FaultInjector injector(fc);
    QorGuardrail guard(qc);
    if (opt.faulted) {
        injector.registerStats(statReg.group("fault"));
        llc.setFaultInjector(&injector);
        guard.registerStats(statReg.group("qor"));
        llc.setGuardrail(&guard);
    }

    System sys(HierarchyConfig{}, llc, mem, &statReg, "hierarchy");
    DiffResult r;
    r.trace.reserve(ops.size() * 2);
    for (u64 n = 0; n < ops.size(); ++n) {
        const Op &op = ops[n];
        u64 v = op.value;
        const Tick lat = sys.access(op.core, op.addr, op.write, op.size, &v);
        r.trace.push_back(lat);
        r.trace.push_back(op.write ? 0 : v);
        if (n == ops.size() / 2)
            sys.drain();
        if (opt.checkEvery && n % opt.checkEvery == 0)
            checkIfLive(sys, n, r.invariantFailure);
    }
    checkIfLive(sys, ops.size(), r.invariantFailure);

    for (CoreId c = 0; c < sys.numCores(); ++c) {
        r.privateDump.push_back(dumpLevel(sys.l1Cache(c)));
        r.privateDump.push_back(dumpLevel(sys.l2Cache(c)));
    }
    r.llcDump = dumpLlc(llc);
    sys.drain();
    r.stats = statReg.snapshot();
    r.memory.resize(opt.footprintBlocks * blockBytes);
    mem.peek(0, r.memory.data(), r.memory.size());
    if (opt.faulted)
        r.faultTrace = injector.events();
    return r;
}

/** Index of the first differing element, or -1. */
i64
firstMismatch(const std::vector<u64> &a, const std::vector<u64> &b)
{
    const size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
        if (a[i] != b[i])
            return static_cast<i64>(i);
    }
    return a.size() == b.size() ? -1 : static_cast<i64>(n);
}

/** Assert the live and reference hierarchies agree on @p org. */
void
expectIdentical(const std::string &org, const DiffOpts &opt)
{
    SCOPED_TRACE(org + " slices=" + std::to_string(opt.slices) +
                 (opt.faulted ? " faulted" : " clean"));
    const std::vector<Op> ops = makeStream(opt);
    const DiffResult ref = runOne<RefMemorySystem>(org, opt, ops);
    const DiffResult live = runOne<MemorySystem>(org, opt, ops);

    EXPECT_EQ(live.invariantFailure, "");
    const i64 at = firstMismatch(ref.trace, live.trace);
    EXPECT_EQ(at, -1) << "first divergence at access " << at / 2
                      << (at % 2 ? " (loaded bytes)" : " (latency)");
    EXPECT_TRUE(ref.stats == live.stats)
        << "reference snapshot:\n" << ref.stats.json()
        << "\nlive snapshot:\n" << live.stats.json();
    ASSERT_EQ(ref.privateDump.size(), live.privateDump.size());
    for (size_t i = 0; i < ref.privateDump.size(); ++i) {
        EXPECT_EQ(ref.privateDump[i], live.privateDump[i])
            << "core " << i / 2 << (i % 2 ? " L2" : " L1");
    }
    EXPECT_EQ(ref.llcDump, live.llcDump);
    EXPECT_TRUE(ref.memory == live.memory);

    ASSERT_EQ(ref.faultTrace.size(), live.faultTrace.size());
    for (size_t i = 0; i < ref.faultTrace.size(); ++i) {
        const FaultEvent &a = ref.faultTrace[i];
        const FaultEvent &b = live.faultTrace[i];
        EXPECT_EQ(a.op, b.op) << "fault event " << i;
        EXPECT_EQ(a.domain, b.domain) << "fault event " << i;
        EXPECT_EQ(a.entry, b.entry) << "fault event " << i;
        EXPECT_EQ(a.field, b.field) << "fault event " << i;
        EXPECT_EQ(a.bit, b.bit) << "fault event " << i;
    }

    // The stream must reach the coherence paths under test.
    EXPECT_GT(live.stats.counter("hierarchy.remoteFetches"), 0u);
    EXPECT_GT(live.stats.counter("hierarchy.upgrades"), 0u);
    EXPECT_GT(live.stats.counter("hierarchy.invalidationsSent"), 0u);
}

std::vector<std::string>
allOrgs()
{
    registerBuiltinLlcs();
    return registeredLlcNames();
}

} // namespace

TEST(HierarchyDiff, CleanUnsliced)
{
    for (const std::string &org : allOrgs())
        expectIdentical(org, DiffOpts{});
}

TEST(HierarchyDiff, CleanFourSlices)
{
    DiffOpts opt;
    opt.slices = 4;
    for (const std::string &org : allOrgs())
        expectIdentical(org, opt);
}

TEST(HierarchyDiff, FaultedGuardrailedUnsliced)
{
    DiffOpts opt;
    opt.ops = 20000;
    opt.faulted = true;
    for (const std::string &org : allOrgs())
        expectIdentical(org, opt);
}

TEST(HierarchyDiff, FaultedGuardrailedFourSlices)
{
    DiffOpts opt;
    opt.ops = 20000;
    opt.slices = 4;
    opt.faulted = true;
    for (const std::string &org : allOrgs())
        expectIdentical(org, opt);
}

TEST(HierarchyDiff, SecondSeedStaysIdentical)
{
    DiffOpts opt;
    opt.seed = 0x5EC0D5EED;
    opt.footprintBlocks = 2048;
    for (const std::string &org : allOrgs())
        expectIdentical(org, opt);
}

} // namespace dopp
