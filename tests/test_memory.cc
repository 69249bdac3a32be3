/**
 * @file
 * Unit tests for the main-memory model: functional storage, zero-fill
 * semantics, traffic accounting, cross-block and cross-page poke/peek,
 * page materialization.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "sim/memory.hh"

namespace dopp
{

TEST(MainMemory, ZeroFilledOnFirstTouch)
{
    MainMemory mem;
    BlockData buf;
    buf.fill(0xAB);
    mem.readBlock(0x1000, buf.data());
    for (u8 b : buf)
        EXPECT_EQ(b, 0);
}

TEST(MainMemory, WriteThenReadBack)
{
    MainMemory mem;
    BlockData w;
    for (unsigned i = 0; i < blockBytes; ++i)
        w[i] = static_cast<u8>(i);
    mem.writeBlock(0x2000, w.data());
    BlockData r = {};
    mem.readBlock(0x2000, r.data());
    EXPECT_EQ(w, r);
}

TEST(MainMemory, UnalignedAddressesAlias)
{
    MainMemory mem;
    BlockData w = {};
    w[0] = 7;
    mem.writeBlock(0x2000, w.data());
    BlockData r = {};
    mem.readBlock(0x2007, r.data()); // same block
    EXPECT_EQ(r[0], 7);
}

TEST(MainMemory, TrafficCounters)
{
    MainMemory mem;
    BlockData b = {};
    mem.readBlock(0, b.data());
    mem.readBlock(64, b.data());
    mem.writeBlock(0, b.data());
    EXPECT_EQ(mem.reads(), 2u);
    EXPECT_EQ(mem.writes(), 1u);
    EXPECT_EQ(mem.traffic(), 3u);
}

TEST(MainMemory, PokePeekNoTraffic)
{
    MainMemory mem;
    const u32 v = 0xDEADBEEF;
    mem.poke(0x123, &v, sizeof(v));
    u32 r = 0;
    mem.peek(0x123, &r, sizeof(r));
    EXPECT_EQ(r, v);
    EXPECT_EQ(mem.traffic(), 0u);
}

TEST(MainMemory, PokeCrossesBlockBoundary)
{
    MainMemory mem;
    u8 data[128];
    for (unsigned i = 0; i < 128; ++i)
        data[i] = static_cast<u8>(i ^ 0x5A);
    mem.poke(0x1020, data, sizeof(data)); // spans three blocks
    u8 back[128] = {};
    mem.peek(0x1020, back, sizeof(back));
    EXPECT_EQ(std::memcmp(data, back, sizeof(data)), 0);
}

TEST(MainMemory, PeekUntouchedIsZero)
{
    MainMemory mem;
    u64 v = 123;
    mem.peek(0x9999999, &v, sizeof(v));
    EXPECT_EQ(v, 0u);
}

TEST(MainMemory, PokeVisibleToReadBlock)
{
    MainMemory mem;
    const float f = 3.25f;
    mem.poke(0x4004, &f, sizeof(f));
    BlockData b = {};
    mem.readBlock(0x4000, b.data());
    float r;
    std::memcpy(&r, b.data() + 4, sizeof(r));
    EXPECT_EQ(r, f);
}

TEST(MainMemory, ResetStatsKeepsContents)
{
    MainMemory mem;
    BlockData w = {};
    w[0] = 9;
    mem.writeBlock(0, w.data());
    mem.resetStats();
    EXPECT_EQ(mem.traffic(), 0u);
    BlockData r = {};
    mem.readBlock(0, r.data());
    EXPECT_EQ(r[0], 9);
    EXPECT_EQ(mem.reads(), 1u);
}

TEST(MainMemory, ConfigurableLatency)
{
    MainMemory fast(10);
    MainMemory table1;
    EXPECT_EQ(fast.latency(), 10u);
    EXPECT_EQ(table1.latency(), 160u); // Table 1 default
}

TEST(MainMemory, PokePeekSpanPages)
{
    // An unaligned run over three 4 KiB pages, interleaved with block
    // reads/writes that go through the same pages.
    MainMemory mem;
    std::vector<u8> in(10000);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<u8>(i * 7 + 1);
    const Addr base = 0x10FF3;
    mem.poke(base, in.data(), in.size());
    BlockData w;
    w.fill(0x5A);
    mem.writeBlock(0x12000, w.data());
    for (unsigned i = 0; i < blockBytes; ++i)
        in[0x12000 - base + i] = 0x5A;

    std::vector<u8> out(in.size());
    mem.peek(base, out.data(), out.size());
    EXPECT_EQ(in, out);
    BlockData r;
    mem.readBlock(0x11FC0, r.data());
    EXPECT_EQ(0, std::memcmp(r.data(), in.data() + (0x11FC0 - base),
                             blockBytes));
    EXPECT_EQ(mem.reads(), 1u);
    EXPECT_EQ(mem.writes(), 1u);
}

TEST(MainMemory, MaterializeCreatesTheWholePage)
{
    // The sharded phase may read any block of a materialized page:
    // materialize() creates the page, zero-filled.
    MainMemory mem;
    mem.materialize(0x3040);
    mem.beginSharded(2, SliceHashKind::BitSelect);
    BlockData b;
    b.fill(0xAA);
    mem.readBlock(0x3FC0, b.data());
    mem.endSharded();
    EXPECT_EQ(b, BlockData{});
    EXPECT_EQ(mem.reads(), 1u);
}

TEST(MainMemoryDeathTest, ShardedAccessToUnmaterializedPageIsFatal)
{
    EXPECT_EXIT(
        {
            MainMemory mem;
            mem.materialize(0x3040);
            mem.beginSharded(2, SliceHashKind::BitSelect);
            BlockData b;
            mem.readBlock(0x4000, b.data());
        },
        ::testing::ExitedWithCode(1), "unmaterialized block 0x4000");
}

} // namespace dopp
