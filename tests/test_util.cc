/**
 * @file
 * Unit tests for the util library: RNG determinism and distribution,
 * bit-manipulation helpers, statistics accumulators.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_map>

#include <cstdlib>

#include "util/bitfield.hh"
#include "util/env.hh"
#include "util/flat_map.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace dopp
{

TEST(Types, BlockAlignRoundsDown)
{
    EXPECT_EQ(blockAlign(0), 0u);
    EXPECT_EQ(blockAlign(63), 0u);
    EXPECT_EQ(blockAlign(64), 64u);
    EXPECT_EQ(blockAlign(65), 64u);
    EXPECT_EQ(blockAlign(0xABCDEF), 0xABCDEFULL & ~63ULL);
}

TEST(Types, BlockOffset)
{
    EXPECT_EQ(blockOffset(0), 0u);
    EXPECT_EQ(blockOffset(63), 63u);
    EXPECT_EQ(blockOffset(64), 0u);
    EXPECT_EQ(blockOffset(100), 36u);
}

TEST(Types, BlockConstantsConsistent)
{
    EXPECT_EQ(1u << blockOffsetBits, blockBytes);
}

TEST(Bitfield, IsPowerOf2)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_TRUE(isPowerOf2(1024));
    EXPECT_TRUE(isPowerOf2(1ULL << 63));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_FALSE(isPowerOf2(1536));
}

TEST(Bitfield, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(floorLog2(1536), 10u);
}

TEST(Bitfield, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1536), 11u);
    EXPECT_EQ(ceilLog2(16 * 1024), 14u);
    EXPECT_EQ(ceilLog2(32 * 1024), 15u);
}

TEST(Bitfield, BitsExtraction)
{
    EXPECT_EQ(bits(0xFF00, 15, 8), 0xFFu);
    EXPECT_EQ(bits(0xFF00, 7, 0), 0x00u);
    EXPECT_EQ(bits(0xA5, 3, 0), 0x5u);
    EXPECT_EQ(bits(0xA5, 7, 4), 0xAu);
    EXPECT_EQ(bits(~0ULL, 63, 0), ~0ULL);
}

TEST(Bitfield, LowMask)
{
    EXPECT_EQ(lowMask(0), 0u);
    EXPECT_EQ(lowMask(1), 1u);
    EXPECT_EQ(lowMask(8), 0xFFu);
    EXPECT_EQ(lowMask(64), ~0ULL);
}

TEST(Rng, SameSeedSameStream)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsStream)
{
    Rng a(7);
    const u64 first = a.next();
    a.next();
    a.reseed(7);
    EXPECT_EQ(a.next(), first);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(9);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowCoversRange)
{
    Rng r(10);
    std::set<u64> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(11);
    bool sawLo = false;
    bool sawHi = false;
    for (int i = 0; i < 10000; ++i) {
        const i64 v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        sawLo |= v == -3;
        sawHi |= v == 3;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(12);
    for (int i = 0; i < 10000; ++i) {
        const double v = r.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng r(13);
    RunningStat s;
    for (int i = 0; i < 100000; ++i)
        s.sample(r.uniform());
    EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, GaussianMoments)
{
    Rng r(14);
    RunningStat s;
    for (int i = 0; i < 100000; ++i)
        s.sample(r.gaussian());
    EXPECT_NEAR(s.mean(), 0.0, 0.02);
    EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, GaussianScaled)
{
    Rng r(15);
    RunningStat s;
    for (int i = 0; i < 50000; ++i)
        s.sample(r.gaussian(10.0, 3.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.1);
    EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(RunningStat, Empty)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, KnownValues)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.sample(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, Reset)
{
    RunningStat s;
    s.sample(42.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(Histogram, BucketsAndClamping)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(0.5);   // bucket 0
    h.sample(9.5);   // bucket 9
    h.sample(-5.0);  // clamps to bucket 0
    h.sample(50.0);  // clamps to bucket 9
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(9), 2u);
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_EQ(h.buckets(), 10u);
}

TEST(Stats, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({}), 1.0);
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Stats, Amean)
{
    EXPECT_DOUBLE_EQ(amean({}), 0.0);
    EXPECT_DOUBLE_EQ(amean({1.0, 2.0, 3.0}), 2.0);
}

// ---------------------------------------------------------------------
// Strict environment parsing (util/env.hh).
// ---------------------------------------------------------------------

TEST(Env, UnsetGivesFallback)
{
    unsetenv("DOPP_TEST_KNOB");
    EXPECT_EQ(envU64("DOPP_TEST_KNOB", 42), 42u);
    EXPECT_DOUBLE_EQ(envDouble("DOPP_TEST_KNOB", 1.5), 1.5);
}

TEST(Env, ValidValuesParse)
{
    setenv("DOPP_TEST_KNOB", "123", 1);
    EXPECT_EQ(envU64("DOPP_TEST_KNOB", 42), 123u);
    setenv("DOPP_TEST_KNOB", "0.25", 1);
    EXPECT_DOUBLE_EQ(envDouble("DOPP_TEST_KNOB", 1.0), 0.25);
    unsetenv("DOPP_TEST_KNOB");
}

TEST(EnvDeathTest, GarbageU64IsFatalAndNamesTheVariable)
{
    EXPECT_EXIT(
        {
            setenv("DOPP_TEST_KNOB", "abc", 1);
            envU64("DOPP_TEST_KNOB", 1);
        },
        ::testing::ExitedWithCode(1),
        "DOPP_TEST_KNOB='abc' is not a positive integer");
}

TEST(EnvDeathTest, NegativeZeroAndTrailingJunkU64AreFatal)
{
    EXPECT_EXIT(
        {
            setenv("DOPP_TEST_KNOB", "-7", 1);
            envU64("DOPP_TEST_KNOB", 1);
        },
        ::testing::ExitedWithCode(1), "not a positive integer");
    EXPECT_EXIT(
        {
            setenv("DOPP_TEST_KNOB", "0", 1);
            envU64("DOPP_TEST_KNOB", 1);
        },
        ::testing::ExitedWithCode(1), "not a positive integer");
    EXPECT_EXIT(
        {
            setenv("DOPP_TEST_KNOB", "12x", 1);
            envU64("DOPP_TEST_KNOB", 1);
        },
        ::testing::ExitedWithCode(1), "not a positive integer");
    EXPECT_EXIT(
        {
            setenv("DOPP_TEST_KNOB", "", 1);
            envU64("DOPP_TEST_KNOB", 1);
        },
        ::testing::ExitedWithCode(1), "not a positive integer");
}

TEST(EnvDeathTest, GarbageDoubleIsFatal)
{
    EXPECT_EXIT(
        {
            setenv("DOPP_TEST_KNOB", "fast", 1);
            envDouble("DOPP_TEST_KNOB", 1.0);
        },
        ::testing::ExitedWithCode(1),
        "DOPP_TEST_KNOB='fast' is not a positive number");
    EXPECT_EXIT(
        {
            setenv("DOPP_TEST_KNOB", "-0.5", 1);
            envDouble("DOPP_TEST_KNOB", 1.0);
        },
        ::testing::ExitedWithCode(1), "not a positive number");
    EXPECT_EXIT(
        {
            setenv("DOPP_TEST_KNOB", "nan", 1);
            envDouble("DOPP_TEST_KNOB", 1.0);
        },
        ::testing::ExitedWithCode(1), "not a positive number");
}

TEST(FlatMap, MatchesUnorderedMapUnderChurn)
{
    // Few slots, dense keys and erase-heavy traffic: long probe runs
    // wrap the table end and backward-shift deletion moves entries on
    // nearly every erase.
    FlatMap<u32> map(64);
    std::unordered_map<u64, u32> ref;
    Rng rng(0xF1A7);
    for (u32 n = 0; n < 200000; ++n) {
        const u64 key = rng.below(80) * 64;
        const u64 roll = rng.below(3);
        if (roll == 0 && ref.size() < 40) {
            map[key] = n;
            ref[key] = n;
        } else if (roll == 1) {
            EXPECT_EQ(map.erase(key), ref.erase(key) == 1);
        }
        const u32 *v = map.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(v != nullptr, it != ref.end()) << "op " << n;
        if (v) {
            ASSERT_EQ(*v, it->second) << "op " << n;
        }
        ASSERT_EQ(map.size(), ref.size());
    }
    u64 visited = 0;
    map.forEach([&](u64 key, u32 value) {
        ++visited;
        EXPECT_EQ(ref.at(key), value);
    });
    EXPECT_EQ(visited, ref.size());
}

TEST(FlatMap, ReserveGrowsAndKeepsEntries)
{
    FlatMap<u64> map(2);
    for (u64 k = 0; k < 1000; ++k) {
        map.reserve(map.size() + 1);
        map[k] = k * 3;
    }
    EXPECT_GE(map.capacity(), 2000u);
    for (u64 k = 0; k < 1000; ++k)
        ASSERT_EQ(*map.find(k), k * 3);
    map.clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.find(7), nullptr);
}

TEST(FlatMapDeathTest, FullTablePanics)
{
    // One slot always stays empty so that a probe for an absent key
    // ends; the insert that would take it is a bug, not a rehash.
    EXPECT_DEATH(
        {
            FlatMap<u8> map(4);
            for (u64 k = 1; k <= 4; ++k)
                map[k] = 1;
        },
        "flat map: full at 3 entries");
}

} // namespace dopp
