/**
 * @file
 * Tests for the split precise + Doppelgänger LLC organization:
 * registry-driven routing, stat aggregation, hook propagation.
 */

#include <gtest/gtest.h>

#include "core/split_llc.hh"

namespace dopp
{

namespace
{

class SplitLlcTest : public ::testing::Test
{
  protected:
    SplitLlcTest()
    {
        ApproxRegion r;
        r.base = approxBase;
        r.size = 1 << 20;
        r.type = ElemType::F32;
        r.minValue = 0.0;
        r.maxValue = 1.0;
        r.name = "approx";
        reg.add(r);

        SplitLlcConfig cfg;
        cfg.preciseBytes = 64 * 1024;
        cfg.dopp.tagEntries = 256;
        cfg.dopp.dataEntries = 64;
        cfg.dopp.dataWays = 4;
        llc = std::make_unique<SplitLlc>(mem, cfg, reg);
    }

    void
    seedBlock(Addr addr, float value)
    {
        BlockData b;
        for (unsigned i = 0; i < 16; ++i)
            setBlockElement(b.data(), ElemType::F32, i,
                            static_cast<double>(value));
        mem.poke(addr, b.data(), blockBytes);
    }

    static constexpr Addr approxBase = 0x100000;
    static constexpr Addr preciseBase = 0x800000;

    MainMemory mem;
    ApproxRegistry reg;
    std::unique_ptr<SplitLlc> llc;
    BlockData buf;
};

} // namespace

TEST_F(SplitLlcTest, ApproxRequestsGoToDoppelganger)
{
    seedBlock(approxBase, 0.5f);
    llc->fetch(approxBase, buf.data());
    EXPECT_EQ(llc->doppelganger().stats().fetches, 1u);
    EXPECT_EQ(llc->precise().stats().fetches, 0u);
    EXPECT_TRUE(llc->doppelganger().contains(approxBase));
}

TEST_F(SplitLlcTest, PreciseRequestsGoToConventional)
{
    seedBlock(preciseBase, 0.5f);
    llc->fetch(preciseBase, buf.data());
    EXPECT_EQ(llc->precise().stats().fetches, 1u);
    EXPECT_EQ(llc->doppelganger().stats().fetches, 0u);
}

TEST_F(SplitLlcTest, PreciseDataIsExact)
{
    seedBlock(preciseBase, 0.123456f);
    llc->fetch(preciseBase, buf.data());
    llc->fetch(preciseBase, buf.data());
    EXPECT_FLOAT_EQ(
        static_cast<float>(blockElement(buf.data(), ElemType::F32, 0)),
        0.123456f);
}

TEST_F(SplitLlcTest, ApproxBlocksShareViaDopp)
{
    seedBlock(approxBase, 0.5f);
    seedBlock(approxBase + 0x1000, 0.5f);
    llc->fetch(approxBase, buf.data());
    llc->fetch(approxBase + 0x1000, buf.data());
    EXPECT_TRUE(llc->doppelganger().sameDataEntry(
        approxBase, approxBase + 0x1000));
}

TEST_F(SplitLlcTest, StatsAreAggregated)
{
    llc->fetch(approxBase, buf.data());
    llc->fetch(preciseBase, buf.data());
    const LlcStats &s = llc->stats();
    EXPECT_EQ(s.fetches, 2u);
    EXPECT_EQ(s.fetchMisses, 2u);
}

TEST_F(SplitLlcTest, WritebackRoutes)
{
    llc->fetch(approxBase, buf.data());
    llc->fetch(preciseBase, buf.data());
    BlockData w = {};
    llc->writeback(approxBase, w.data());
    llc->writeback(preciseBase, w.data());
    EXPECT_EQ(llc->doppelganger().stats().writebacksIn, 1u);
    EXPECT_EQ(llc->precise().stats().writebacksIn, 1u);
}

TEST_F(SplitLlcTest, ContainsChecksTheRightHalf)
{
    llc->fetch(approxBase, buf.data());
    EXPECT_TRUE(llc->contains(approxBase));
    EXPECT_FALSE(llc->contains(preciseBase));
}

TEST_F(SplitLlcTest, BackInvalidatePropagatesToBothHalves)
{
    unsigned calls = 0;
    llc->setBackInvalidate([&](Addr, u8 *) {
        ++calls;
        return false;
    });
    llc->fetch(approxBase, buf.data());
    llc->fetch(preciseBase, buf.data());
    llc->flush(); // evictions in both halves fire the hook
    EXPECT_GE(calls, 2u);
}

TEST_F(SplitLlcTest, ForEachBlockCoversBothHalves)
{
    llc->fetch(approxBase, buf.data());
    llc->fetch(preciseBase, buf.data());
    unsigned approx = 0;
    unsigned precise = 0;
    llc->forEachBlock([&](const LlcBlockInfo &info) {
        (info.approx ? approx : precise) += 1;
    });
    EXPECT_EQ(approx, 1u);
    EXPECT_EQ(precise, 1u);
}

TEST_F(SplitLlcTest, ResetStatsClearsBothHalves)
{
    llc->fetch(approxBase, buf.data());
    llc->fetch(preciseBase, buf.data());
    llc->resetStats();
    EXPECT_EQ(llc->stats().fetches, 0u);
}

TEST_F(SplitLlcTest, NameReported)
{
    EXPECT_STREQ(llc->name(), "split-doppelganger");
}

TEST_F(SplitLlcTest, RepairAndDegradationCountersAggregateOnce)
{
    // Fault/guardrail counters live in exactly one half (injection and
    // repair in the Doppelgänger half, degraded fills in the split's
    // own stats), so the aggregate equals the sum without double
    // counting, and reading stats() twice must not change it.
    FaultConfig fc;
    fc.dataRate = 0.2;
    fc.tagMetaRate = 0.2;
    fc.mtagMetaRate = 0.2;
    FaultInjector fi(fc);
    llc->setFaultInjector(&fi);
    QorConfig qc;
    qc.budget = 1e-6;
    qc.window = 4;
    qc.minDwell = 2;
    QorGuardrail guard(qc);
    llc->setGuardrail(&guard);

    for (u64 i = 0; i < 600; ++i) {
        const Addr a = approxBase + (i % 200) * blockBytes;
        seedBlock(a, static_cast<float>(i % 7) / 7.0f);
        llc->fetch(a, buf.data());
    }

    const LlcStats once = llc->stats();
    const LlcStats twice = llc->stats();
    for (const LlcStatField &f : llcStatFields())
        EXPECT_EQ(f.value(once), f.value(twice)) << f.name;

    EXPECT_GT(once.faultsInjected, 0u);
    EXPECT_EQ(once.faultsInjected,
              llc->doppelganger().stats().faultsInjected);
    EXPECT_EQ(once.faultsDetected,
              llc->doppelganger().stats().faultsDetected);
    EXPECT_EQ(once.faultsRepaired,
              llc->doppelganger().stats().faultsRepaired);
    EXPECT_EQ(llc->precise().stats().faultsInjected, 0u);
    EXPECT_EQ(llc->precise().stats().degradedFills, 0u);
    EXPECT_EQ(llc->doppelganger().stats().degradedFills, 0u);
}

} // namespace dopp

