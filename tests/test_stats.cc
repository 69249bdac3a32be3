/**
 * @file
 * StatRegistry observability layer: registry/snapshot semantics, the
 * by-name LlcStats read (LastLevelCache::stats()) staying in sync
 * with the registered counter names, the LLC factory, the
 * schema-drift guard tying every registered counter to the CSV/JSON
 * exports, and per-organization snapshot pins.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unistd.h>

#include <gtest/gtest.h>

#include "harness/batch_runner.hh"
#include "harness/experiment.hh"
#include "harness/llc_factory.hh"
#include "harness/results_io.hh"
#include "sim/llc.hh"
#include "util/stats.hh"

namespace dopp
{
namespace
{

RunConfig
tinyRun(const std::string &org,
        const std::string &workload = "kmeans")
{
    RunConfig cfg;
    cfg.llcName = org;
    cfg.workloadName = workload;
    cfg.workload.scale = 0.05;
    return cfg;
}

/** The five organizations of the paper's evaluation. */
constexpr const char *paperOrgs[] = {
    "baseline", "split-doppelganger", "uniDoppelganger",
    "dedup",    "bdi",
};

/** Pass-through LLC that registers no counters of its own. */
class NullLlc final : public LastLevelCache
{
  public:
    NullLlc(MainMemory &m, StatRegistry *reg)
        : LastLevelCache(m, reg, "llc")
    {
    }
    FetchResult fetch(Addr, u8 *) override { return {}; }
    void writeback(Addr, const u8 *) override {}
    bool contains(Addr) const override { return false; }
    void forEachBlock(
        const std::function<void(const LlcBlockInfo &)> &) const override
    {
    }
    void flush() override {}
    const char *name() const override { return "null"; }
};

/**
 * Factory build of @p org outside runWorkload, over a 1 MB
 * approximate F32 region at address 0 (precise memory above it);
 * @p slices 0 is the unsliced build.
 */
struct LlcRig
{
    LlcRig(const std::string &org, u32 slices)
    {
        ApproxRegion region;
        region.base = 0;
        region.size = 1 << 20;
        region.type = ElemType::F32;
        region.minValue = 0.0;
        region.maxValue = 1.0;
        region.name = "approx";
        approx.add(region);
        RunConfig cfg;
        cfg.llcName = org;
        cfg.sliceCount = slices;
        built = buildLlc(org, mem, approx, cfg, stats);
    }

    /** @p n fetch+writeback pairs, alternating approximate and
     * precise blocks, writing back blocks of a few repeated values
     * (shareable, compressible). */
    void
    drive(u32 n)
    {
        LastLevelCache &llc = *built.llc;
        BlockData b;
        for (u32 i = 0; i < n; ++i) {
            const Addr addr = (i & 1 ? 0x200000 : 0) +
                static_cast<Addr>(i / 2) * blockBytes;
            llc.fetch(addr, b.data());
            for (unsigned e = 0; e < 16; ++e) {
                setBlockElement(b.data(), ElemType::F32, e,
                                static_cast<double>(i % 8) / 8.0);
            }
            llc.writeback(addr, b.data());
        }
    }

    MainMemory mem;
    ApproxRegistry approx;
    StatRegistry stats;
    LlcBuilt built;
};

/** 64-bit FNV-1a over every (name, value) of @p snap, in order. */
u64
snapshotDigest(const StatSnapshot &snap)
{
    u64 h = 0xcbf29ce484222325ULL;
    for (const StatValue &v : snap.values()) {
        for (unsigned char c : v.name + "=" + v.str() + "\n") {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

} // namespace

// ---------------------------------------------------------------------
// StatRegistry core.
// ---------------------------------------------------------------------

TEST(StatRegistry, CounterIncrementAndSnapshot)
{
    StatRegistry reg;
    Counter &hits = reg.group("llc").counter("hits", "tag hits");
    EXPECT_EQ(hits.value(), 0u);
    ++hits;
    hits += 41;
    EXPECT_EQ(hits.value(), 42u);

    const StatSnapshot snap = reg.snapshot();
    EXPECT_TRUE(snap.has("llc.hits"));
    EXPECT_EQ(snap.counter("llc.hits"), 42u);
    EXPECT_EQ(snap.value("llc.hits"), 42.0);
}

TEST(StatRegistry, NestedGroupsComposeDottedNames)
{
    StatRegistry reg;
    StatGroup tag = reg.group("llc").group("dopp").group("tagArray");
    ++tag.counter("reads");
    EXPECT_TRUE(reg.contains("llc.dopp.tagArray.reads"));
    EXPECT_EQ(reg.snapshot().counter("llc.dopp.tagArray.reads"), 1u);
}

TEST(StatRegistry, DistributionExpandsToFourEntries)
{
    StatRegistry reg;
    Distribution &d =
        reg.group("qor").distribution("err", "observed errors");
    d.sample(0.5);
    d.sample(1.5);

    const StatSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("qor.err.count"), 2u);
    EXPECT_EQ(snap.value("qor.err.mean"), 1.0);
    EXPECT_EQ(snap.value("qor.err.min"), 0.5);
    EXPECT_EQ(snap.value("qor.err.max"), 1.5);
    EXPECT_EQ(snap.size(), 4u);
}

TEST(StatRegistry, CounterFnAndFormulaEvaluateAtSnapshotTime)
{
    StatRegistry reg;
    u64 external = 7;
    reg.group("mem").counterFn("reads", [&] { return external; });
    reg.group("llc").formula(
        "ratio", [&] { return static_cast<double>(external) / 2.0; });

    external = 10;
    const StatSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("mem.reads"), 10u);
    EXPECT_EQ(snap.value("llc.ratio"), 5.0);
}

TEST(StatRegistry, NamesAndDescriptionsAreRecorded)
{
    StatRegistry reg;
    reg.group("a").counter("x", "the x counter");
    reg.group("a").distribution("d");
    const std::vector<std::string> names = reg.names();
    const std::vector<std::string> expect = {"a.x", "a.d.count",
                                             "a.d.mean", "a.d.min",
                                             "a.d.max"};
    EXPECT_EQ(names, expect);
    EXPECT_EQ(reg.description("a.x"), "the x counter");
    EXPECT_TRUE(reg.description("a.unknown").empty());
    EXPECT_EQ(reg.statCount(), 2u);
}

TEST(StatRegistry, ResetPrefixRespectsDotBoundary)
{
    StatRegistry reg;
    Counter &a = reg.group("llc").counter("fetches");
    Counter &b = reg.group("llcx").counter("fetches");
    a += 5;
    b += 7;
    reg.reset("llc");
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(b.value(), 7u); // "llcx" is not under "llc"
    reg.reset();
    EXPECT_EQ(b.value(), 0u);
}

TEST(StatRegistryDeathTest, DuplicateNameIsFatal)
{
    StatRegistry reg;
    reg.group("llc").counter("fetches");
    EXPECT_EXIT(reg.group("llc").counter("fetches"),
                ::testing::ExitedWithCode(1), "registered twice");
}

TEST(StatRegistryDeathTest, MissingSnapshotNameIsFatal)
{
    StatRegistry reg;
    reg.group("llc").counter("fetches");
    const StatSnapshot snap = reg.snapshot();
    EXPECT_EXIT(snap.counter("llc.nope"),
                ::testing::ExitedWithCode(1), "no entry named");
}

// ---------------------------------------------------------------------
// Snapshot delta / json / equality.
// ---------------------------------------------------------------------

TEST(StatSnapshot, DeltaSubtractsAndClampsAtZero)
{
    StatRegistry reg;
    Counter &c = reg.group("llc").counter("fetches");
    c += 10;
    const StatSnapshot before = reg.snapshot();
    c += 5;
    const StatSnapshot after = reg.snapshot();
    EXPECT_EQ(after.delta(before).counter("llc.fetches"), 5u);

    // A counter reset mid-interval reads as zero progress, not a wrap.
    reg.reset();
    c += 3;
    const StatSnapshot wrapped = reg.snapshot();
    EXPECT_EQ(wrapped.delta(after).counter("llc.fetches"), 0u);
}

TEST(StatSnapshot, DeltaSubtractsFormulasArithmetically)
{
    StatRegistry reg;
    double v = 1.5;
    reg.group("run").formula("f", [&] { return v; });
    const StatSnapshot a = reg.snapshot();
    v = 4.0;
    const StatSnapshot b = reg.snapshot();
    EXPECT_EQ(b.delta(a).value("run.f"), 2.5);
}

TEST(StatSnapshot, JsonNestsDottedNames)
{
    StatRegistry reg;
    reg.group("llc").counter("fetches") += 2;
    reg.group("llc").group("tagArray").counter("reads") += 3;
    reg.group("mem").counter("reads") += 4;
    EXPECT_EQ(reg.snapshot().json(),
              "{\"llc\":{\"fetches\":2,\"tagArray\":{\"reads\":3}},"
              "\"mem\":{\"reads\":4}}");
}

TEST(StatSnapshot, EqualityComparesNamesAndValues)
{
    StatRegistry a, b;
    a.group("llc").counter("fetches") += 2;
    b.group("llc").counter("fetches") += 2;
    EXPECT_EQ(a.snapshot(), b.snapshot());
    b.group("llc").counter("hits");
    EXPECT_NE(a.snapshot(), b.snapshot());
}

// ---------------------------------------------------------------------
// LlcCounters ↔ llcStatFields sync and the by-name stats() read.
// ---------------------------------------------------------------------

TEST(LlcCounters, EveryCanonicalFieldIsRegistered)
{
    StatRegistry reg;
    LlcCounters ctr(reg.group("llc"));
    for (const LlcStatField &f : llcStatFields()) {
        EXPECT_TRUE(reg.contains(std::string("llc.") + f.name))
            << "llcStatFields() entry '" << f.name
            << "' has no registered counter — keep LlcCounters and "
               "statFieldTable in sync";
    }
    EXPECT_EQ(reg.statCount(), llcStatFields().size());
}

TEST(LlcCounters, ViewMirrorsCounterValues)
{
    // stats() and resetStats() read and zero the LLC's stat group by
    // name, whoever registered the counters there.
    MainMemory mem;
    StatRegistry reg;
    NullLlc llc(mem, &reg);
    EXPECT_EQ(llc.stats().fetches, 0u); // empty group: zeros, no fatal

    LlcCounters ctr(reg.group("llc"));
    ctr.fetches += 9;
    ctr.tagArray.reads += 4;
    ctr.degradedFills += 2;

    const LlcStats s = llc.stats();
    EXPECT_EQ(s.fetches, 9u);
    EXPECT_EQ(s.tagArray.reads, 4u);
    EXPECT_EQ(s.degradedFills, 2u);

    llc.resetStats();
    EXPECT_EQ(llc.stats().fetches, 0u);
    EXPECT_EQ(reg.snapshot().counter("llc.tagArray.reads"), 0u);
}

TEST(LlcCounters, RegisteredViewMatchesDirectRegistration)
{
    // An aggregate view registered under "llc" must use the exact
    // names direct registration uses, so split/uniDopp exports line
    // up with baseline exports column-for-column, and must mirror the
    // child's values.
    StatRegistry direct, viewed;
    LlcCounters ctr(direct.group("llc"));
    LlcCounters child(viewed.group("llc.dopp"));
    child.fetches += 5;
    child.fetchMisses += 2;
    registerLlcStatsView(viewed.group("llc"), {"dopp"});

    std::vector<std::string> viewedNames = viewed.names();
    // The view adds the derived formulas on top of the counters.
    for (const std::string &n : direct.names()) {
        EXPECT_NE(std::find(viewedNames.begin(), viewedNames.end(), n),
                  viewedNames.end())
            << "view is missing '" << n << "'";
    }
    EXPECT_TRUE(viewed.contains("llc.missRate"));
    EXPECT_TRUE(viewed.contains("llc.avgLinkedTags"));
    const StatSnapshot snap = viewed.snapshot();
    EXPECT_EQ(snap.counter("llc.fetches"), 5u);
    EXPECT_EQ(snap.value("llc.missRate"), 0.4);
}

// ---------------------------------------------------------------------
// LLC factory.
// ---------------------------------------------------------------------

TEST(LlcFactory, BuiltinsAreRegistered)
{
    // The built-ins come first, in registration order; tests may
    // register more organizations after them.
    const std::vector<std::string> builtins = {
        "baseline", "split-doppelganger", "uniDoppelganger", "dedup",
        "bdi",      "uniDoppBdi",         "gdish",           "approxDedup",
    };
    const std::vector<std::string> names = registeredLlcNames();
    ASSERT_GE(names.size(), builtins.size());
    EXPECT_EQ(std::vector<std::string>(
                  names.begin(), names.begin() + builtins.size()),
              builtins);
    for (const std::string &name : builtins)
        EXPECT_TRUE(llcRegistered(name));
    EXPECT_FALSE(llcRegistered("no-such-organization"));
}

TEST(LlcFactoryDeathTest, UnknownOrganizationBuildIsFatal)
{
    EXPECT_EXIT(runWorkload(tinyRun("no-such-organization")),
                ::testing::ExitedWithCode(1),
                "unknown organization 'no-such-organization'");
}

TEST(LlcFactory, CustomOrganizationPlugsIntoRunWorkload)
{
    static bool registered = false;
    if (!registered) {
        registered = true;
        registerLlc("test-tiny-conventional",
                    [](MainMemory &memory, const ApproxRegistry &reg,
                       const RunConfig &cfg, StatRegistry &stats,
                       const std::string &group) {
                        LlcBuilt built;
                        built.llc = std::make_unique<ConventionalLlc>(
                            memory, cfg.baselineBytes / 4, cfg.llcWays,
                            cfg.llcLatency, &reg, ReplPolicy::LRU,
                            &stats, group);
                        registerLlcFormulas(stats.group(group));
                        return built;
                    });
    }
    const RunResult r = runWorkload(tinyRun("test-tiny-conventional"));
    EXPECT_EQ(r.organization, "test-tiny-conventional");
    EXPECT_GT(r.stats.counter("llc.fetches"), 0u);
    EXPECT_TRUE(r.stats.has("llc.missRate"));
}

// ---------------------------------------------------------------------
// Schema-drift guard: every registered counter reaches the exports.
// ---------------------------------------------------------------------

TEST(SchemaDrift, EveryRegisteredStatExportsAndRoundTrips)
{
    for (const char *org : paperOrgs) {
        const RunResult r = runWorkload(tinyRun(org));

        // CSV header carries every snapshot name, in order.
        const std::string header = runResultCsvHeader(r);
        for (const StatValue &v : r.stats.values()) {
            EXPECT_NE(header.find(v.name), std::string::npos)
                << org << ": column '" << v.name
                << "' missing from the CSV header";
        }

        // JSON export carries every leaf key.
        const std::string json = runResultJson(r);
        for (const StatValue &v : r.stats.values()) {
            const std::string leaf =
                v.name.substr(v.name.rfind('.') + 1);
            EXPECT_NE(json.find("\"" + leaf + "\":"),
                      std::string::npos)
                << org << ": leaf '" << leaf
                << "' missing from the JSON export";
        }

        // write → loadResultsCsv round-trips every value exactly.
        char buf[] = "/tmp/dopp-schema-XXXXXX";
        const int fd = mkstemp(buf);
        ASSERT_GE(fd, 0);
        ::close(fd);
        writeResultsCsv(buf, {r});
        const std::vector<LoadedRunRow> rows = loadResultsCsv(buf);
        std::remove(buf);
        ASSERT_EQ(rows.size(), 1u);
        EXPECT_EQ(rows[0].values.size(), r.stats.size());
        for (const StatValue &v : r.stats.values()) {
            EXPECT_EQ(rows[0].value(v.name), v.asDouble())
                << org << ": column '" << v.name
                << "' did not round-trip through the CSV";
        }
    }
}

TEST(SchemaDrift, CoreGroupsArePresentForEveryOrganization)
{
    for (const char *org : paperOrgs) {
        const RunResult r = runWorkload(tinyRun(org));
        EXPECT_TRUE(r.stats.has("llc.fetches")) << org;
        EXPECT_TRUE(r.stats.has("llc.missRate")) << org;
        EXPECT_TRUE(r.stats.has("hierarchy.accesses")) << org;
        EXPECT_TRUE(r.stats.has("mem.reads")) << org;
        EXPECT_TRUE(r.stats.has("mem.writes")) << org;
        EXPECT_TRUE(r.stats.has("run.runtimeCycles")) << org;
        // The typed views read the same counters the snapshot
        // records.
        EXPECT_EQ(r.stats.counter("hierarchy.accesses"),
                  r.hierarchy.accesses) << org;
        EXPECT_EQ(r.stats.counter("mem.reads"), r.memReads) << org;
        EXPECT_EQ(r.stats.counter("run.runtimeCycles"), r.runtime) << org;

        // LastLevelCache::stats() is the by-name read of the same
        // "llc.*" counters the snapshot records.
        LlcRig rig(org, 0);
        rig.drive(512);
        const LlcStats &s = rig.built.llc->stats();
        const StatSnapshot snap = rig.stats.snapshot();
        EXPECT_GT(s.fetches, 0u) << org;
        for (const LlcStatField &f : llcStatFields()) {
            EXPECT_EQ(f.value(s),
                      snap.counter(std::string("llc.") + f.name))
                << org << ": " << f.name;
        }
    }
}

TEST(SchemaDrift, SplitRegistersHalvesAndAggregate)
{
    // Every aggregate "llc.X" is exactly the sum of the halves'
    // "llc.precise.X" + "llc.dopp.X" (plus the split's own routing
    // counter for degradedFills), unsliced and merged over slices. The
    // guardrail config degrades, so degradedFills is exercised too.
    for (u32 slices : {0u, 2u}) {
        RunConfig cfg = tinyRun("split-doppelganger");
        cfg.sliceCount = slices;
        cfg.fault.dataRate = 0.05;
        cfg.fault.tagMetaRate = 0.01;
        cfg.fault.mtagMetaRate = 0.01;
        cfg.qor.budget = 0.0005;
        cfg.qor.window = 16;
        cfg.qor.minDwell = 8;
        const RunResult r = runWorkload(cfg);
        ASSERT_TRUE(r.stats.has("llc.precise.fetches")) << slices;
        ASSERT_TRUE(r.stats.has("llc.dopp.fetches")) << slices;
        ASSERT_TRUE(r.stats.has("llc.route.degradedFills")) << slices;
        EXPECT_GT(r.stats.counter("llc.degradedFills"), 0u) << slices;
        EXPECT_GT(r.stats.counter("llc.precise.fetches"), 0u) << slices;
        EXPECT_GT(r.stats.counter("llc.dopp.fetches"), 0u) << slices;
        for (const LlcStatField &f : llcStatFields()) {
            const std::string name = f.name;
            u64 sum = r.stats.counter("llc.precise." + name) +
                r.stats.counter("llc.dopp." + name);
            if (name == "degradedFills")
                sum += r.stats.counter("llc.route.degradedFills");
            EXPECT_EQ(r.stats.counter("llc." + name), sum)
                << "slices=" << slices << ": " << name;
        }
    }
}

TEST(SchemaDrift, ResetStatsClearsEveryEventCounter)
{
    // resetStats() zeroes every counter and distribution under the
    // LLC's group, the organization-specific ones (gdish fills and
    // dictionary inserts/erases, B∆I accounting) included. Dictionary
    // state is not an event count and stays: dictWords counts the
    // current contents.
    const auto kept = [](const std::string &name) {
        return name.substr(name.rfind('.') + 1) == "dictWords";
    };
    for (const std::string &org : registeredLlcNames()) {
        for (u32 slices : {0u, 2u}) {
            SCOPED_TRACE(org + " slices=" + std::to_string(slices));
            LlcRig rig(org, slices);
            rig.drive(4096);
            EXPECT_GT(rig.built.llc->stats().fetches, 0u);

            rig.built.llc->resetStats();
            const StatSnapshot snap = rig.stats.snapshot();
            for (const StatValue &v : snap.values()) {
                if (v.integral && !kept(v.name)) {
                    EXPECT_EQ(v.u, 0u) << v.name;
                }
            }
        }
    }
}

TEST(SchemaDrift, SnapshotsArePinnedForEveryOrganization)
{
    // Digest of a tiny kmeans run's full snapshot: every stat name in
    // registration order plus its value. Values computed before the
    // LLC stats moved to by-name reads; they must never move. A change here renames,
    // reorders or changes a stat that reports and journals rely on.
    const std::pair<const char *, u64> pins[] = {
        {"baseline", 0xa276130151fee220ULL},
        {"split-doppelganger", 0x3593c40890c2dc3ULL},
        {"uniDoppelganger", 0x29ae4c7487b39d7cULL},
        {"dedup", 0xcfc4f5200ade6427ULL},
        {"bdi", 0xc629858547f78db0ULL},
        {"uniDoppBdi", 0x192ba4cbd653835fULL},
        {"gdish", 0xddf498d5a218069cULL},
        {"approxDedup", 0x6cd5b013d50c7fcfULL},
    };
    for (const auto &[org, digest] : pins) {
        // A 16 KB LLC, so the tiny run evicts and the organizations
        // differ in their values, not only in their names.
        RunConfig cfg = tinyRun(org);
        cfg.baselineBytes = 16 * 1024;
        const RunResult r = runWorkload(cfg);
        EXPECT_EQ(snapshotDigest(r.stats), digest)
            << org << ": 0x" << std::hex << snapshotDigest(r.stats);
    }
}

TEST(SchemaDrift, MixedSchemasMergeIntoUnionColumns)
{
    const RunResult base = runWorkload(tinyRun("baseline"));
    const RunResult split = runWorkload(tinyRun("split-doppelganger"));
    const std::vector<std::string> cols =
        resultStatColumns({base, split});
    const auto hasCol = [&](const std::string &n) {
        return std::find(cols.begin(), cols.end(), n) != cols.end();
    };
    EXPECT_TRUE(hasCol("llc.fetches"));
    EXPECT_TRUE(hasCol("llc.precise.fetches"));

    // A baseline row leaves split-only columns *empty* — a backfilled
    // 0 would read as a measured value (e.g. "0% compression" for an
    // organization that has no compression counters). The loader skips
    // the empty cells, so the column is simply absent from that row.
    char buf[] = "/tmp/dopp-union-XXXXXX";
    const int fd = mkstemp(buf);
    ASSERT_GE(fd, 0);
    ::close(fd);
    writeResultsCsv(buf, {base, split});
    const std::vector<LoadedRunRow> rows = loadResultsCsv(buf);
    std::remove(buf);
    ASSERT_EQ(rows.size(), 2u);
    const auto rowHas = [](const LoadedRunRow &row,
                           const std::string &n) {
        for (const auto &[name, v] : row.values)
            if (name == n)
                return true;
        return false;
    };
    EXPECT_FALSE(rowHas(rows[0], "llc.precise.fetches"));
    EXPECT_GT(rows[1].value("llc.precise.fetches"), 0.0);
}

TEST(SchemaDrift, FaultAndQorGroupsExportWhenConfigured)
{
    RunConfig cfg = tinyRun("split-doppelganger", "blackscholes");
    cfg.fault.dataRate = 0.01;
    cfg.fault.tagMetaRate = 0.01;
    cfg.fault.memoryRate = 0.001;
    cfg.qor.budget = 0.05;
    const RunResult r = runWorkload(cfg);
    EXPECT_TRUE(r.stats.has("fault.injected.total"));
    EXPECT_TRUE(r.stats.has("fault.injected.memory-data"));
    EXPECT_TRUE(r.stats.has("fault.detected"));
    EXPECT_TRUE(r.stats.has("fault.repairs"));
    EXPECT_TRUE(r.stats.has("qor.observations"));
    EXPECT_TRUE(r.stats.has("qor.estimate"));
    EXPECT_TRUE(r.stats.has("qor.substitutionError.count"));
    EXPECT_EQ(r.stats.counter("fault.injected.total"),
              r.fault.totalInjected());
    EXPECT_EQ(r.stats.counter("qor.degradations"),
              r.guardrailDegradations);

    // Clean runs carry no fault/qor groups at all.
    const RunResult clean = runWorkload(tinyRun("split-doppelganger"));
    EXPECT_FALSE(clean.stats.has("fault.injected.total"));
    EXPECT_FALSE(clean.stats.has("qor.observations"));
}

// ---------------------------------------------------------------------
// Determinism: registry dumps are identical for any job count.
// ---------------------------------------------------------------------

TEST(SchemaDrift, RegistryDumpsIdenticalAcrossJobCounts)
{
    std::vector<RunConfig> configs;
    configs.push_back(tinyRun("baseline", "kmeans"));
    configs.push_back(tinyRun("split-doppelganger", "jmeint"));
    configs.push_back(tinyRun("uniDoppelganger", "jpeg"));
    configs.push_back(tinyRun("bdi", "blackscholes"));

    BatchOptions serial;
    serial.jobs = 1;
    BatchOptions wide;
    wide.jobs = 4;
    const std::vector<RunResult> a = runBatch(configs, serial);
    const std::vector<RunResult> b = runBatch(configs, wide);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].stats, b[i].stats) << "config " << i;
        EXPECT_EQ(a[i].stats.json(), b[i].stats.json());
        EXPECT_EQ(runResultCsvRow(a[i]), runResultCsvRow(b[i]));
    }
}

// ---------------------------------------------------------------------
// DOPP_STATS_JSON: per-run JSONL dump.
// ---------------------------------------------------------------------

TEST(StatsJsonl, EveryRunAppendsOneLine)
{
    char buf[] = "/tmp/dopp-jsonl-XXXXXX";
    const int fd = mkstemp(buf);
    ASSERT_GE(fd, 0);
    ::close(fd);
    std::remove(buf); // runWorkload appends; start from nothing

    ASSERT_EQ(setenv("DOPP_STATS_JSON", buf, 1), 0);
    runWorkload(tinyRun("baseline"));
    runWorkload(tinyRun("uniDoppelganger", "jpeg"));
    ASSERT_EQ(unsetenv("DOPP_STATS_JSON"), 0);

    std::ifstream in(buf);
    ASSERT_TRUE(in.good());
    std::string line;
    u64 lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"stats\":{"), std::string::npos);
    }
    std::remove(buf);
    EXPECT_EQ(lines, 2u);
}

} // namespace dopp
