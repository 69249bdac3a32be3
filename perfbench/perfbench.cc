/**
 * @file
 * Repository benchmark program (see NOTES.md for the metric table).
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--scale X] [--pins FILE] [--out FILE] [--spans FILE]
 *             [--fail-op KEY]
 *
 * Workloads: paper-sweep, llc-replay, sliced-replay, fault-tier. A run
 * sets up its inputs, then repeats whole passes over the workload's ops
 * until the next pass would end past --seconds (at least one pass). It
 * sets up again between passes, spread over the window, kSetups times
 * in all (setup_s is the fastest). An op is one runWorkload() call or
 * one LLC stream replay.
 *
 * Every layer is timed from outside, by calls into its public
 * functions: runWorkload / Workload::run, MemorySystem::access (on a
 * replay of the run's core-access trace), LastLevelCache::fetch /
 * writeback (through the forwarding TimedLlc below), MainMemory::
 * readBlock / writeBlock (on a replay of the captured memory-op
 * stream), computeMapComponents and SlicedLlc::replay. With --trace 0
 * only the untraced ops run and the end-to-end metrics are reported;
 * with --trace 1 each op also runs traced and the per-layer metrics
 * are reported.
 *
 * The result (metrics, op counts, correctness) is written as one JSON
 * object to --out; run.py turns it into the benchmark's result line.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/map_function.hh"
#include "harness/experiment.hh"
#include "harness/llc_factory.hh"
#include "sim/mem_tier.hh"
#include "sim/sliced_llc.hh"
#include "workloads/workload.hh"

using namespace dopp;

namespace
{

using Clock = std::chrono::steady_clock;

u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

double
nsToS(u64 ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/* ------------------------------------------------------------------ */
/* Spans                                                               */
/* ------------------------------------------------------------------ */

/**
 * In-memory span recorder. Spans nest on a stack; a span's self time is
 * its duration minus the time its child spans cover. Spans are
 * aggregated per (op id, name) — one record per op and span name, with
 * the call count — so per-access spans cost no memory; the records are
 * written out once, when the run ends.
 */
class Tracer
{
  public:
    struct Record
    {
        u64 op = 0;
        std::string label; ///< what the op was
        std::string name;
        std::string parent;
        u64 count = 0;
        u64 totalNs = 0;
        u64 selfNs = 0;
    };

    int
    intern(const std::string &name)
    {
        auto it = ids.find(name);
        if (it != ids.end())
            return it->second;
        names.push_back(name);
        cur.push_back({});
        return ids[name] = static_cast<int>(names.size() - 1);
    }

    void
    beginOp(u64 id, std::string label)
    {
        opId = id;
        opLabel = std::move(label);
        for (Agg &a : cur)
            a = Agg{};
    }

    void
    open(int name)
    {
        stack.push_back({name, nowNs(), 0});
    }

    /** Close the innermost span, which covered @p calls calls. */
    void
    close(u64 calls = 1)
    {
        const Frame f = stack.back();
        stack.pop_back();
        const u64 d = nowNs() - f.start;
        Agg &a = cur[static_cast<size_t>(f.name)];
        a.count += calls;
        a.totalNs += d;
        a.selfNs += d - std::min(d, f.childNs);
        if (!stack.empty()) {
            stack.back().childNs += d;
            a.parent = stack.back().name;
        }
    }

    /** Close the op: fold its spans into the run's records. */
    void
    endOp()
    {
        for (size_t i = 0; i < cur.size(); ++i) {
            const Agg &a = cur[i];
            if (!a.count)
                continue;
            Record r;
            r.op = opId;
            r.label = opLabel;
            r.name = names[i];
            r.parent = a.parent >= 0 ? names[static_cast<size_t>(
                                           a.parent)]
                                     : "";
            r.count = a.count;
            r.totalNs = a.totalNs;
            r.selfNs = a.selfNs;
            records.push_back(std::move(r));
        }
    }

    /** Current op's totals of span @p name. */
    u64 totalNs(int name) const { return cur[name].totalNs; }
    u64 selfNs(int name) const { return cur[name].selfNs; }
    u64 count(int name) const { return cur[name].count; }

    void
    write(const std::string &path) const
    {
        if (path.empty())
            return;
        std::ofstream out(path);
        for (const Record &r : records) {
            out << "{\"op\":" << r.op << ",\"label\":\"" << r.label
                << "\",\"name\":\"" << r.name << "\",\"parent\":\""
                << r.parent << "\",\"count\":" << r.count
                << ",\"total_ns\":" << r.totalNs
                << ",\"self_ns\":" << r.selfNs << "}\n";
        }
    }

  private:
    struct Frame
    {
        int name;
        u64 start;
        u64 childNs;
    };
    struct Agg
    {
        u64 count = 0;
        u64 totalNs = 0;
        u64 selfNs = 0;
        int parent = -1;
    };

    std::map<std::string, int> ids;
    std::vector<std::string> names;
    std::vector<Agg> cur;
    std::vector<Frame> stack;
    std::vector<Record> records;
    u64 opId = 0;
    std::string opLabel;
};

/** RAII span; a null tracer records nothing. A span may stand for a
 * loop of @p calls calls, so a tight loop pays for one span. */
class Span
{
  public:
    Span(Tracer *t, int name, u64 calls = 1) : tr(t), n(calls)
    {
        if (tr)
            tr->open(name);
    }
    ~Span()
    {
        if (tr)
            tr->close(n);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tr;
    u64 n;
};

/* ------------------------------------------------------------------ */
/* Captured streams                                                    */
/* ------------------------------------------------------------------ */

/** Functional memory contents and annotations at the first LLC op. */
struct Image
{
    Addr base = 0;
    std::vector<u8> bytes;
    /** Annotated regions, in an order whose round-robin routing
     * reproduces the live run's partition assignment. */
    std::vector<ApproxRegion> regions;
};

/** Marks a flush in an LLC op stream (real ops are block-aligned). */
constexpr Addr flushMark = ~Addr{0};

/** LLC request stream: block address per op, low bit set for a dirty
 * writeback (whose 64 B payload is next in @ref payloads). */
struct LlcStream
{
    std::string workload;
    Image image;
    std::vector<Addr> ops;
    std::vector<BlockData> payloads;
};

struct MemOp
{
    Addr addr;
    bool isWrite;
};

/**
 * Reconstructs the MainMemory op stream an LLC issues, from outside:
 * demand reads through MainMemory::faultHook (called on every read),
 * writes as the op's own or back-invalidated addresses whose stored
 * bytes changed, padded to the write counter's delta.
 */
struct MemCapture
{
    explicit MemCapture(MainMemory &m) : mem(m)
    {
        mem.faultHook = [this](Addr a, u8 *) { reads.push_back(a); };
    }
    ~MemCapture() { mem.faultHook = nullptr; }
    MemCapture(const MemCapture &) = delete;
    MemCapture &operator=(const MemCapture &) = delete;

    void
    candidate(Addr a)
    {
        BlockData b;
        mem.peek(a, b.data(), blockBytes);
        cands.push_back({a, b});
    }

    void
    begin(Addr own)
    {
        cands.clear();
        reads.clear();
        w0 = mem.writes();
        if (own != flushMark)
            candidate(own);
    }

    void
    end()
    {
        u64 k = mem.writes() - w0;
        std::vector<bool> used(cands.size(), false);
        BlockData now;
        for (size_t i = 0; i < cands.size() && k; ++i) {
            mem.peek(cands[i].first, now.data(), blockBytes);
            if (now != cands[i].second) {
                ops.push_back({cands[i].first, true});
                used[i] = true;
                --k;
            }
        }
        for (size_t i = 0; i < cands.size() && k; ++i) {
            if (!used[i]) {
                ops.push_back({cands[i].first, true});
                --k;
            }
        }
        for (; k; --k)
            ops.push_back({cands.empty() ? 0 : cands[0].first, true});
        for (Addr a : reads)
            ops.push_back({a, false});
    }

    MainMemory &mem;
    std::vector<MemOp> ops;
    std::vector<std::pair<Addr, BlockData>> cands;
    std::vector<Addr> reads;
    u64 w0 = 0;
};

/* ------------------------------------------------------------------ */
/* Forwarding LLC                                                      */
/* ------------------------------------------------------------------ */

/**
 * Transparent LastLevelCache that forwards every call to the wrapped
 * organization and optionally times fetch/writeback as spans, records
 * the request stream, or reconstructs the memory-op stream. Registers
 * no counters of its own, so a run's stat snapshot is unchanged.
 */
class TimedLlc final : public LastLevelCache
{
  public:
    TimedLlc(std::unique_ptr<LastLevelCache> wrapped, MainMemory &memory)
        : LastLevelCache(memory, &wrapped->statRegistry(),
                         wrapped->statGroupPath()),
          inner(std::move(wrapped))
    {
        inner->setBackInvalidate([this](Addr a, u8 *d) {
            if (memCap)
                memCap->candidate(a);
            return upstream ? upstream(a, d) : false;
        });
    }

    FetchResult
    fetch(Addr addr, u8 *data) override
    {
        before(addr);
        if (stream)
            stream->ops.push_back(addr);
        FetchResult r;
        {
            Span s(tracer, span);
            r = inner->fetch(addr, data);
        }
        if (memCap)
            memCap->end();
        return r;
    }

    void
    writeback(Addr addr, const u8 *data) override
    {
        before(addr);
        if (stream) {
            stream->ops.push_back(addr | 1);
            BlockData b;
            std::memcpy(b.data(), data, blockBytes);
            stream->payloads.push_back(b);
        }
        {
            Span s(tracer, span);
            inner->writeback(addr, data);
        }
        if (memCap)
            memCap->end();
    }

    void
    flush() override
    {
        before(flushMark);
        if (stream)
            stream->ops.push_back(flushMark);
        if (memCap) {
            inner->forEachBlock([this](const LlcBlockInfo &b) {
                if (b.dirty)
                    memCap->candidate(b.addr);
            });
        }
        inner->flush();
        if (memCap)
            memCap->end();
    }

    bool contains(Addr addr) const override
    {
        return inner->contains(addr);
    }
    void
    forEachBlock(const std::function<void(const LlcBlockInfo &)> &visit)
        const override
    {
        inner->forEachBlock(visit);
    }
    const char *name() const override { return inner->name(); }
    void setBackInvalidate(BackInvalidateFn fn) override
    {
        upstream = std::move(fn);
    }
    void setFaultInjector(FaultInjector *fi) override
    {
        inner->setFaultInjector(fi);
    }
    void setGuardrail(QorGuardrail *g) override { inner->setGuardrail(g); }
    void setHotPathProfile(HotPathProfile *p) override
    {
        inner->setHotPathProfile(p);
    }
    const LlcStats &stats() const override { return inner->stats(); }
    void resetStats() override { inner->resetStats(); }

    Tracer *tracer = nullptr;
    int span = -1;
    std::function<void()> onFirstOp; ///< run once, before the first op
    LlcStream *stream = nullptr;     ///< request-stream capture
    MemCapture *memCap = nullptr;    ///< memory-op capture

  private:
    void
    before(Addr addr)
    {
        if (onFirstOp) {
            auto f = std::move(onFirstOp);
            onFirstOp = nullptr;
            f();
        }
        if (memCap)
            memCap->begin(addr);
    }

    std::unique_ptr<LastLevelCache> inner;
    BackInvalidateFn upstream;
};

/** Uncached precise LLC: every fetch and writeback goes to memory.
 * Running a workload on it gives the golden (exact) output. */
class DirectLlc final : public LastLevelCache
{
  public:
    explicit DirectLlc(MainMemory &m) : LastLevelCache(m, nullptr, "llc")
    {
    }
    FetchResult
    fetch(Addr addr, u8 *data) override
    {
        return {false, mem.readBlock(addr, data)};
    }
    void writeback(Addr addr, const u8 *data) override
    {
        mem.writeBlock(addr, data);
    }
    bool contains(Addr) const override { return false; }
    void forEachBlock(
        const std::function<void(const LlcBlockInfo &)> &) const override
    {
    }
    void flush() override {}
    const char *name() const override { return "direct"; }
};

/* ------------------------------------------------------------------ */
/* Assembled runs                                                      */
/* ------------------------------------------------------------------ */

/**
 * One simulated system assembled the way runWorkload() assembles it
 * (experiment.cc), with the LLC behind a TimedLlc so the benchmark can
 * observe it. Supports the configurations this benchmark runs: flat
 * or tiered memory, LLC fault injection, the QoR guardrail with
 * migration. The traced run's stat snapshot is checked against the
 * untraced runWorkload() snapshot, so any drift from the harness shows
 * as a failed op.
 */
struct Rig
{
    explicit Rig(const RunConfig &cfg)
        : memory(cfg.memTier)
    {
        if (cfg.fault.memoryRate > 0.0 && !cfg.memTier.enabled())
            throw std::runtime_error("flat-memory fault hook unsupported");
        memory.registerStats(stats.group("mem"));
        built = buildLlc(cfg.llcName, memory, registry, cfg, stats);
        llc = std::make_unique<TimedLlc>(std::move(built.llc), memory);

        if (cfg.fault.enabled() || cfg.memTier.anyFaultRate()) {
            injector = std::make_unique<FaultInjector>(cfg.fault);
            injector->registerStats(stats.group("fault"));
        }
        if (cfg.qor.enabled()) {
            guard = std::make_unique<QorGuardrail>(cfg.qor);
            guard->registerStats(stats.group("qor"));
        }
        if (injector && cfg.memTier.enabled()) {
            memory.setFaultInjector(injector.get());
            QorGuardrail *g = guard.get();
            ApproxRegistry *reg = &registry;
            memory.onBitFlip = [g, reg](Addr addr, u8 *block, u32 bit,
                                        u32) {
                if (!g)
                    return;
                const ApproxRegion *region = reg->find(addr);
                if (!region)
                    return;
                const unsigned elem = bit / elemBits(region->type);
                const double after =
                    blockElement(block, region->type, elem);
                block[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
                const double before =
                    blockElement(block, region->type, elem);
                block[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
                double err = std::abs(after - before) /
                    std::max(region->span(), 1e-30);
                if (!std::isfinite(err) || err > 1.0)
                    err = 1.0;
                g->observeError(err);
            };
        }
        if (guard && cfg.memTier.enabled() &&
            cfg.qor.migrateFactor > 0.0) {
            MainMemory *m = &memory;
            guard->onMigrate = [m](bool migrate) {
                if (migrate)
                    m->migrateApproxToPrecise();
                else
                    m->restoreApproxRoutes();
            };
        }
        if (injector)
            llc->setFaultInjector(injector.get());
        if (guard)
            llc->setGuardrail(guard.get());

        system = std::make_unique<MemorySystem>(HierarchyConfig{}, *llc,
                                                memory, &stats,
                                                "hierarchy");
        rt = std::make_unique<SimRuntime>(*system, memory, registry);
        allocBase = rt->allocate(0, "probe");

        std::vector<const DoppEngine *> dopps = built.dopps;
        StatGroup run = stats.group("run");
        SimRuntime *r = rt.get();
        run.counterFn(
            "runtimeCycles", [r] { return r->runtime(); },
            "slowest core's cycles");
        run.formula(
            "tagsPerDataEntry",
            [dopps] {
                u64 tags = 0;
                u64 entries = 0;
                for (const DoppEngine *d : dopps) {
                    tags += d->tagCount();
                    entries += d->dataCount();
                }
                return entries ? static_cast<double>(tags) /
                        static_cast<double>(entries)
                               : 0.0;
            },
            "end-of-run occupancy: tags per valid data entry");
    }

    // Hooks and stat functions hold pointers into the rig.
    Rig(const Rig &) = delete;
    Rig &operator=(const Rig &) = delete;

    /** Snapshot memory and annotations (call before the first LLC op:
     * no memory write or read fault can have happened yet). */
    Image
    image()
    {
        Image img;
        img.base = allocBase;
        const Addr end = rt->allocate(0, "probe");
        img.bytes.resize(end - allocBase);
        memory.peek(allocBase, img.bytes.data(), img.bytes.size());
        img.regions = routeOrder(registry.regions());
        return img;
    }

    /** Load @p img into this (fresh) rig's memory and registry. */
    void
    load(const Image &img)
    {
        memory.poke(img.base, img.bytes.data(), img.bytes.size());
        for (const ApproxRegion &r : img.regions) {
            registry.add(r);
            memory.routeApprox(r.base, r.size);
        }
    }

    /** Order @p regions so that round-robin routing in that order
     * gives each region the partition the live memory gave it. */
    std::vector<ApproxRegion>
    routeOrder(std::vector<ApproxRegion> regions) const
    {
        std::vector<u32> approxParts;
        for (u32 i = 0; i < memory.partitionCount(); ++i) {
            if (memory.partitionProfile(i).kind !=
                MemPartitionKind::PreciseDram)
                approxParts.push_back(i);
        }
        if (!memory.isTiered() || approxParts.empty())
            return regions;
        std::vector<ApproxRegion> ordered;
        std::vector<bool> used(regions.size(), false);
        for (size_t k = 0; k < regions.size(); ++k) {
            const u32 want = approxParts[k % approxParts.size()];
            for (size_t i = 0; i < regions.size(); ++i) {
                if (!used[i] &&
                    memory.partitionOf(regions[i].base) == want) {
                    used[i] = true;
                    ordered.push_back(regions[i]);
                    break;
                }
            }
        }
        if (ordered.size() != regions.size())
            throw std::runtime_error("cannot reproduce memory routes");
        return ordered;
    }

    StatRegistry stats;
    MainMemory memory;
    ApproxRegistry registry;
    LlcBuilt built;
    std::unique_ptr<TimedLlc> llc;
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<QorGuardrail> guard;
    std::unique_ptr<MemorySystem> system;
    std::unique_ptr<SimRuntime> rt;
    Addr allocBase = 0;
};

/* ------------------------------------------------------------------ */
/* Digests and checks                                                  */
/* ------------------------------------------------------------------ */

struct Fnv
{
    u64 h = 0xcbf29ce484222325ULL;
    void
    add(const void *p, size_t n)
    {
        const u8 *b = static_cast<const u8 *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    }
    template <typename T> void addPod(const T &v) { add(&v, sizeof(v)); }
};

/** Stat values keyed by name (registration order does not matter). */
std::map<std::string, StatValue>
byName(const StatSnapshot &s)
{
    std::map<std::string, StatValue> m;
    for (const StatValue &v : s.values())
        m[v.name] = v;
    return m;
}

/** Digest of a run: every stat in @p s whose name does not start with
 * @p skip, plus the output vector's bits. */
u64
digest(const StatSnapshot &s, const std::vector<double> &output,
       const std::string &skip = "")
{
    Fnv f;
    for (const auto &[name, v] : byName(s)) {
        if (!skip.empty() && name.rfind(skip, 0) == 0)
            continue;
        f.add(name.data(), name.size());
        f.addPod(v.integral);
        if (v.integral)
            f.addPod(v.u);
        else
            f.addPod(v.d);
    }
    for (double d : output)
        f.addPod(d);
    return f.h;
}

u64
streamDigest(const LlcStream &s)
{
    Fnv f;
    f.add(s.ops.data(), s.ops.size() * sizeof(Addr));
    for (const BlockData &b : s.payloads)
        f.add(b.data(), b.size());
    f.add(s.image.bytes.data(), s.image.bytes.size());
    for (const ApproxRegion &r : s.image.regions) {
        f.addPod(r.base);
        f.addPod(r.size);
    }
    return f.h;
}

std::string
hex(u64 v)
{
    char b[24];
    std::snprintf(b, sizeof b, "%016llx",
                  static_cast<unsigned long long>(v));
    return b;
}

/* ------------------------------------------------------------------ */
/* Benchmark state                                                     */
/* ------------------------------------------------------------------ */

struct Options
{
    std::string workload;
    u64 seed = WorkloadConfig{}.seed;
    double seconds = 10.0;
    bool trace = false;
    double scale = 1.0;
    std::string pins;
    std::string out;
    std::string spans;
    std::string failOp; ///< this op throws (tests failure accounting)
};

/** Set-ups per run: the first before the measured window, the others
 * between passes, spread evenly over it. */
constexpr size_t kSetups = 7;

/** One op's outcome in the untraced window. */
struct OpResult
{
    double seconds = 0.0;
    u64 work = 0; ///< core accesses or LLC ops
    bool ok = true;
};

/** Per-layer accumulators (traced run), summed over every traced op;
 * divided by the number of passes when reported. */
struct Layers
{
    double workloadsSelf = 0, hierSelf = 0, harnessBuild = 0,
           harnessSnapshot = 0, unattributed = 0, tracedTotal = 0,
           untracedTotal = 0, memBusy = 0, faultOverhead = 0;
    u64 accesses = 0, l1Hits = 0, l2Misses = 0, remoteFetches = 0,
        invalidations = 0, memReads = 0, memWrites = 0, memOps = 0,
        faultInjected = 0, faultDetected = 0, faultRepairs = 0,
        qorDegradations = 0, qorDegradedOps = 0, qorObservations = 0,
        memMigrations = 0, mapCount = 0;
    double mapNs = 0;
    std::vector<u64> partOps = std::vector<u64>(3, 0);
    struct Llc
    {
        double busy = 0, self = 0;
        u64 ops = 0, fetches = 0, hits = 0, mapGens = 0;
    };
    std::map<std::string, Llc> llc;
    double slicedImbalance = 0, slicedBusyMax = 0, slicedWait = 0,
           slicedSpeedup = 0;
};

class Bench
{
  public:
    explicit Bench(const Options &o) : opt(o)
    {
        if (!opt.pins.empty())
            loadPins(opt.pins);
        spanRunWorkload = tracer.intern("runWorkload");
        spanBuild = tracer.intern("harness.build");
        spanRun = tracer.intern("workload.run");
        spanSnapshot = tracer.intern("harness.snapshot");
        spanHierReplay = tracer.intern("replay.hierarchy");
        spanAccess = tracer.intern("hierarchy.access");
        spanMemReplay = tracer.intern("replay.memory");
        spanMem = tracer.intern("mem.op");
        spanLlcReplay = tracer.intern("replay.llc");
        spanMap = tracer.intern("map.compute");
        spanSliced = tracer.intern("sliced.replay");
        for (const std::string &org : registeredLlcNames())
            spanLlc[org] = tracer.intern("llc." + org);
    }

    int run();

  private:
    RunConfig
    baseConfig(const std::string &wl, const std::string &org) const
    {
        RunConfig c;
        c.workloadName = wl;
        c.llcName = org;
        c.workload.seed = opt.seed;
        c.workload.scale = opt.scale;
        c.sliceCount = 0;
        return c;
    }

    RunConfig
    faultConfig(const std::string &wl, const std::string &org) const
    {
        RunConfig c = baseConfig(wl, org);
        c.memTier = defaultMemTier(1e-5, 1e-4);
        c.fault.dataRate = 1e-3;
        c.fault.tagMetaRate = 1e-3;
        c.fault.mtagMetaRate = 1e-3;
        c.qor.budget = 0.002;
        c.qor.migrateFactor = 1.5;
        return c;
    }

    /** Check @p d for op @p key: pinned value (at the pinned seed and
     * scale) and equality with the first pass. */
    bool
    checkDigest(const std::string &key, u64 d)
    {
        bool ok = true;
        if (pinsApply) {
            auto it = pins.find(key);
            if (it == pins.end()) {
                fail(key, "no pinned digest at the pinned seed and scale "
                          "(refresh the pins with --write-pins)");
                ok = false;
            } else if (it->second != hex(d)) {
                std::fprintf(stderr, "perfbench: %s digest %s != pinned %s\n",
                             key.c_str(), hex(d).c_str(),
                             it->second.c_str());
                ok = false;
            }
        }
        auto [it, fresh] = seen.emplace(key, d);
        if (!fresh && it->second != d) {
            std::fprintf(stderr, "perfbench: %s not repeatable\n",
                         key.c_str());
            ok = false;
        }
        return ok;
    }

    void
    fail(const std::string &key, const std::string &why)
    {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", key.c_str(),
                     why.c_str());
    }

    void loadPins(const std::string &path);

    /* set-up */
    void choose();
    void setup();
    std::vector<double> goldenOutput(const std::string &wl) const;
    LlcStream capture(const std::string &wl) const;

    /* ops */
    size_t opsPerPass() const;
    OpResult op(size_t i, bool traced);
    OpResult paperOp(const RunConfig &cfg, const std::string &key);
    OpResult hierTraced(const RunConfig &cfg, const std::string &key);
    OpResult replayOp(const LlcStream &s, const std::string &org,
                      const std::string &key, bool traced);
    OpResult slicedOp(const LlcStream &s, const std::string &key,
                      bool traced);
    double memReplay(const RunConfig &cfg, const Image &img,
                     const std::vector<MemOp> &ops);
    /** Add a run's simulated counters to the per-layer totals. */
    void count(const StatSnapshot &snap, Layers::Llc &l);
    void mapTime(const Image &img, const RunConfig &cfg);

    std::string writeResult(const std::vector<OpResult> &ops,
                            u64 passes, double wall, double cpu);

    Options opt;
    Tracer tracer;
    int spanRunWorkload, spanBuild, spanRun, spanSnapshot, spanHierReplay,
        spanAccess, spanMemReplay, spanMem, spanLlcReplay, spanMap,
        spanSliced;
    std::map<std::string, int> spanLlc;

    std::map<std::string, std::string> pins;
    bool pinsApply = false;
    std::map<std::string, u64> seen;

    std::vector<std::string> names; ///< the workload's benchmarks
    std::vector<std::string> orgs;  ///< the workload's organizations
    std::map<std::string, std::vector<double>> golden;
    std::vector<LlcStream> streams;
    std::map<std::string, u64> serialSliced; ///< serial-replay digests
    std::vector<double> setupSeconds;
    std::map<std::string, u64> setupDigests; ///< of the first set-up
    std::map<std::string, RunResult> firstPass; ///< paper-sweep results
    Layers L;
    /** One core access of a live run, for the hierarchy replay. */
    struct Rec
    {
        Addr addr;
        u64 payload;
        u8 core, size, write;
    };
    std::vector<Rec> traceBuf;
    u64 attempted = 0, failed = 0;
    u64 opSerial = 0;
};

/* ------------------------------------------------------------------ */

void
Bench::loadPins(const std::string &path)
{
    // The flat JSON run.py --write-pins writes:
    // {"digests": {"key": "hex", ...}, "scale": X, "seed": N}.
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read pins file " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string t = ss.str();
    auto numAfter = [&](const std::string &k) {
        const size_t p = t.find("\"" + k + "\"");
        if (p == std::string::npos)
            throw std::runtime_error("pins file lacks " + k);
        return std::stod(t.substr(t.find(':', p) + 1));
    };
    const double seed = numAfter("seed");
    const double scale = numAfter("scale");
    pinsApply = static_cast<u64>(seed) == opt.seed && scale == opt.scale;
    size_t p = t.find("\"digests\"");
    if (p == std::string::npos)
        throw std::runtime_error("pins file lacks digests");
    p = t.find('{', p);
    const size_t end = t.find('}', p);
    while (true) {
        const size_t k0 = t.find('"', p + 1);
        if (k0 == std::string::npos || k0 > end)
            break;
        const size_t k1 = t.find('"', k0 + 1);
        const size_t v0 = t.find('"', k1 + 1);
        const size_t v1 = t.find('"', v0 + 1);
        pins[t.substr(k0 + 1, k1 - k0 - 1)] = t.substr(v0 + 1, v1 - v0 - 1);
        p = v1;
    }
}

std::vector<double>
Bench::goldenOutput(const std::string &wl) const
{
    MainMemory memory;
    ApproxRegistry registry;
    DirectLlc llc(memory);
    MemorySystem system(HierarchyConfig{}, llc, memory);
    SimRuntime rt(system, memory, registry);
    WorkloadConfig wc;
    wc.seed = opt.seed;
    wc.scale = opt.scale;
    auto w = makeWorkload(wl, wc);
    w->run(rt);
    return w->output();
}

LlcStream
Bench::capture(const std::string &wl) const
{
    LlcStream s;
    s.workload = wl;
    Rig rig(baseConfig(wl, "baseline"));
    rig.llc->stream = &s;
    rig.llc->onFirstOp = [&] { s.image = rig.image(); };
    auto w = makeWorkload(wl, baseConfig(wl, "baseline").workload);
    w->run(*rig.rt);
    return s;
}

void
Bench::choose()
{
    const std::string &w = opt.workload;
    const std::vector<std::string> &all = workloadNames();
    if (w == "paper-sweep") {
        names = all;
        orgs = {"baseline", "split-doppelganger", "uniDoppelganger"};
    } else if (w == "llc-replay") {
        names = all;
        orgs = registeredLlcNames();
    } else if (w == "sliced-replay") {
        names = all;
        orgs = {"split-doppelganger"};
    } else if (w == "fault-tier") {
        names = {"blackscholes", "kmeans", "jpeg"};
        orgs = {"split-doppelganger", "uniDoppelganger"};
    } else {
        throw std::runtime_error("unknown workload '" + w + "'");
    }
}

/** One set-up: timed, and it must produce the same inputs as the
 * first. */
void
Bench::setup()
{
    const std::string &w = opt.workload;
    const u64 t0 = nowNs();
    std::map<std::string, u64> d;
    if (w == "paper-sweep" || w == "fault-tier") {
        golden.clear();
        for (const std::string &n : names) {
            golden[n] = goldenOutput(n);
            d[n] = digest(StatSnapshot{}, golden[n]);
        }
    } else {
        streams.clear();
        for (const std::string &n : names) {
            streams.push_back(capture(n));
            d[n] = streamDigest(streams.back());
        }
    }
    setupSeconds.push_back(nsToS(nowNs() - t0));
    if (setupSeconds.size() == 1) {
        setupDigests = d;
    } else if (d != setupDigests) {
        fail(w + "/setup", "set-up is not deterministic");
        ++attempted;
        ++failed;
    }
}

size_t
Bench::opsPerPass() const
{
    return names.size() * orgs.size();
}

OpResult
Bench::paperOp(const RunConfig &cfg, const std::string &key)
{
    OpResult r;
    const u64 t0 = nowNs();
    RunResult res = runWorkload(cfg);
    r.seconds = nsToS(nowNs() - t0);
    r.work = res.hierarchy.accesses;
    if (res.failed) {
        fail(key, res.error);
        r.ok = false;
    }
    r.ok &= checkDigest(key, digest(res.stats, res.output));
    if (cfg.llcName == "baseline" && !cfg.memTier.enabled() &&
        res.output != golden.at(cfg.workloadName)) {
        fail(key, "baseline output is not bit-exact");
        r.ok = false;
    }
    if (!firstPass.count(key))
        firstPass[key] = std::move(res);
    return r;
}

/** Op @p i of the pass, untraced or traced. A throw fails the op. */
OpResult
Bench::op(size_t i, bool traced)
{
    const std::string &wl = names[i / orgs.size()];
    const std::string &org = orgs[i % orgs.size()];
    const std::string key = opt.workload + "/" + wl + "/" + org;
    try {
        if (key == opt.failOp)
            throw std::runtime_error("forced failure (--fail-op)");
        if (opt.workload == "paper-sweep")
            return traced ? hierTraced(baseConfig(wl, org), key)
                          : paperOp(baseConfig(wl, org), key);
        if (opt.workload == "fault-tier")
            return traced ? hierTraced(faultConfig(wl, org), key)
                          : paperOp(faultConfig(wl, org), key);
        const LlcStream &s = streams[i / orgs.size()];
        if (opt.workload == "llc-replay")
            return replayOp(s, org, key, traced);
        return slicedOp(s, key, traced);
    } catch (const std::exception &e) {
        fail(key, e.what());
        OpResult r;
        r.ok = false;
        return r;
    }
}

/**
 * Traced op of a simulated run: the untraced runWorkload() (for the
 * tracing overhead), then the same run assembled with spans around
 * harness construction, Workload::run and the snapshot, recording the
 * core-access trace; then that trace replayed through a fresh system
 * with each MemorySystem::access and LLC call timed; then the memory
 * ops the replay issued, replayed directly into a fresh MainMemory.
 */
OpResult
Bench::hierTraced(const RunConfig &cfg, const std::string &key)
{
    OpResult u = paperOp(cfg, key);
    const RunResult &ref = firstPass.at(key);
    L.untracedTotal += u.seconds;
    if (opt.workload == "fault-tier") {
        RunConfig clean = cfg;
        clean.fault = FaultConfig{};
        clean.memTier = MemTierConfig{};
        clean.qor = QorConfig{};
        const u64 t0 = nowNs();
        runWorkload(clean);
        L.faultOverhead += u.seconds - nsToS(nowNs() - t0);
    }

    std::vector<Rec> &recs = traceBuf; // reused: no page faults per op
    recs.clear();
    Image img;
    StatSnapshot liveStats;
    OpResult t = u;
    const std::string &org = cfg.llcName;

    tracer.beginOp(opSerial++, key);
    const u64 t0 = nowNs();
    {
        Span op(&tracer, spanRunWorkload);
        std::unique_ptr<Rig> rig;
        {
            Span b(&tracer, spanBuild);
            rig = std::make_unique<Rig>(cfg);
        }
        Rig &r = *rig;
        r.llc->onFirstOp = [&] { img = r.image(); };
        r.rt->accessHook = [&](Addr a, bool w, unsigned size, u64 p) {
            recs.push_back({a, p, static_cast<u8>(r.rt->core()),
                            static_cast<u8>(size), static_cast<u8>(w)});
        };
        auto wl = makeWorkload(cfg.workloadName, cfg.workload);
        {
            Span s(&tracer, spanRun);
            wl->run(*r.rt);
        }
        {
            Span s(&tracer, spanSnapshot);
            liveStats = r.stats.snapshot();
            if (digest(liveStats, wl->output()) !=
                digest(ref.stats, ref.output)) {
                fail(key, "traced run differs from untraced run");
                t.ok = false;
            }
        }
        rig.reset();
    }
    const double traced = nsToS(nowNs() - t0);
    L.tracedTotal += traced;
    L.harnessBuild += nsToS(tracer.totalNs(spanBuild));
    L.harnessSnapshot += nsToS(tracer.totalNs(spanSnapshot));
    const double runS = nsToS(tracer.totalNs(spanRun));
    L.unattributed += nsToS(tracer.selfNs(spanRunWorkload));

    // Hierarchy replay from the same image, annotations and routes:
    // one span over the access loop (the loop does nothing but call
    // MemorySystem::access), one span per LLC call inside it. A second,
    // untimed replay reconstructs the memory-op stream.
    std::vector<MemOp> memOps;
    for (bool timed : {true, false}) {
        Span rep(timed ? &tracer : nullptr, spanHierReplay);
        Rig r(cfg);
        MemCapture cap(r.memory);
        r.load(img);
        if (timed) {
            r.llc->tracer = &tracer;
            r.llc->span = spanLlc.at(org);
        } else {
            r.llc->memCap = &cap;
        }
        {
            Span s(timed ? &tracer : nullptr, spanAccess, recs.size());
            for (const Rec &x : recs) {
                u64 data = x.payload;
                r.system->access(x.core, x.addr, x.write, x.size, &data);
            }
        }
        const StatSnapshot rs = r.stats.snapshot();
        if (digest(rs, {}, "run.") != digest(liveStats, {}, "run.")) {
            fail(key, "hierarchy replay counters differ from live run");
            t.ok = false;
        }
        if (!timed)
            memOps = std::move(cap.ops);
    }
    const double accessS = nsToS(tracer.totalNs(spanAccess));
    const double llcS = nsToS(tracer.totalNs(spanLlc.at(org)));
    const double memS = memReplay(cfg, img, memOps);
    if (org == orgs.front())
        mapTime(img, cfg);
    tracer.endOp();

    L.workloadsSelf += runS - accessS;
    L.hierSelf += accessS - llcS;
    Layers::Llc &l = L.llc[org];
    l.busy += llcS;
    l.self += llcS - memS;
    l.ops += tracer.count(spanLlc.at(org));
    L.memBusy += memS;
    L.memOps += memOps.size();

    count(ref.stats, l);
    return t;
}

void
Bench::count(const StatSnapshot &snap, Layers::Llc &l)
{
    const auto st = byName(snap);
    auto c = [&](const std::string &n) {
        auto it = st.find(n);
        return it == st.end() ? u64{0} : it->second.u;
    };
    L.accesses += c("hierarchy.accesses");
    L.l1Hits += c("hierarchy.l1.hits");
    L.l2Misses += c("hierarchy.l2.misses");
    L.remoteFetches += c("hierarchy.remoteFetches");
    L.invalidations += c("hierarchy.invalidationsSent");
    L.memReads += c("mem.reads");
    L.memWrites += c("mem.writes");
    if (st.count("mem.partition0.reads")) {
        for (u32 p = 0; p < 3; ++p) {
            const std::string pre =
                "mem.partition" + std::to_string(p) + ".";
            L.partOps[p] += c(pre + "reads") + c(pre + "writes");
        }
    } else {
        L.partOps[0] += c("mem.reads") + c("mem.writes");
    }
    L.faultInjected += c("fault.injected.total");
    L.faultDetected += c("fault.detected");
    L.faultRepairs += c("fault.repairs");
    L.qorDegradations += c("qor.degradations");
    L.qorDegradedOps += c("qor.degradedOps");
    L.qorObservations += c("qor.observations");
    L.memMigrations += c("mem.migrations");
    l.fetches += c("llc.fetches");
    l.hits += c("llc.fetchHits");
    l.mapGens += c("llc.mapGens");
}

double
Bench::memReplay(const RunConfig &cfg, const Image &img,
                 const std::vector<MemOp> &ops)
{
    MainMemory m(cfg.memTier);
    m.poke(img.base, img.bytes.data(), img.bytes.size());
    for (const ApproxRegion &r : img.regions)
        m.routeApprox(r.base, r.size);
    std::unique_ptr<FaultInjector> fi;
    if (cfg.memTier.enabled() && cfg.memTier.anyFaultRate()) {
        fi = std::make_unique<FaultInjector>(cfg.fault);
        m.setFaultInjector(fi.get());
    }
    BlockData buf{};
    const u64 before = tracer.totalNs(spanMem);
    {
        Span rep(&tracer, spanMemReplay);
        Span s(&tracer, spanMem, ops.size());
        for (const MemOp &op : ops) {
            if (op.isWrite)
                m.writeBlock(op.addr, buf.data());
            else
                m.readBlock(op.addr, buf.data());
        }
    }
    return nsToS(tracer.totalNs(spanMem) - before);
}

void
Bench::mapTime(const Image &img, const RunConfig &cfg)
{
    // computeMapComponents over every approximate block of the input
    // image, with the region's own parameters.
    u64 sink = 0;
    u64 n = 0;
    const u64 before = tracer.totalNs(spanMap);
    {
        Span s(&tracer, spanMap);
        for (const ApproxRegion &r : img.regions) {
            MapParams p;
            p.mapBits = cfg.mapBits;
            p.type = r.type;
            p.minValue = r.minValue;
            p.maxValue = r.maxValue;
            const Addr lo = blockAlign(r.base);
            for (Addr a = lo; a + blockBytes <= r.base + r.size;
                 a += blockBytes) {
                if (a < img.base ||
                    a + blockBytes > img.base + img.bytes.size())
                    continue;
                sink += computeMapComponents(
                            img.bytes.data() + (a - img.base), p)
                            .combined;
                ++n;
            }
        }
    }
    L.mapNs += static_cast<double>(tracer.totalNs(spanMap) - before);
    L.mapCount += n;
    if (sink == 0x5eed5eed5eedULL)
        std::fprintf(stderr, "sink\n");
}

/** Fresh flat memory + registry + LLC loaded with a stream's image. */
struct ReplayRig
{
    ReplayRig(const LlcStream &s, const RunConfig &cfg)
    {
        memory.registerStats(stats.group("mem"));
        built = buildLlc(cfg.llcName, memory, registry, cfg, stats);
        memory.poke(s.image.base, s.image.bytes.data(),
                    s.image.bytes.size());
        for (const ApproxRegion &r : s.image.regions)
            registry.add(r);
    }
    ReplayRig(const ReplayRig &) = delete;
    ReplayRig &operator=(const ReplayRig &) = delete;

    StatRegistry stats;
    MainMemory memory;
    ApproxRegistry registry;
    LlcBuilt built;
};

/** Drive @p llc with stream @p s. */
void
drive(LastLevelCache &llc, const LlcStream &s)
{
    BlockData buf;
    size_t k = 0;
    for (Addr a : s.ops) {
        if (a == flushMark)
            llc.flush();
        else if (a & 1)
            llc.writeback(a & ~Addr{1}, s.payloads[k++].data());
        else
            llc.fetch(a, buf.data());
    }
}

OpResult
Bench::replayOp(const LlcStream &s, const std::string &org,
                const std::string &key, bool traced)
{
    OpResult r;
    RunConfig cfg = baseConfig(s.workload, org);
    r.work = s.ops.size();
    {
        ReplayRig rig(s, cfg);
        const u64 t0 = nowNs();
        drive(*rig.built.llc, s);
        r.seconds = nsToS(nowNs() - t0);
        r.ok = checkDigest(key, digest(rig.stats.snapshot(), {}));
    }
    if (!traced)
        return r;

    L.untracedTotal += r.seconds;
    tracer.beginOp(opSerial++, key);
    std::vector<MemOp> memOps;
    u64 llcOps = 0;
    {
        ReplayRig rig(s, cfg);
        TimedLlc timed(std::move(rig.built.llc), rig.memory);
        timed.tracer = &tracer;
        timed.span = spanLlc.at(org);
        {
            Span sp(&tracer, spanLlcReplay);
            drive(timed, s);
        }
        const StatSnapshot snap = rig.stats.snapshot();
        if (digest(snap, {}) != seen.at(key)) {
            fail(key, "traced replay differs from untraced replay");
            r.ok = false;
        }
        count(snap, L.llc[org]);
    }
    llcOps = tracer.count(spanLlc.at(org));
    {
        // Untimed: reconstruct the memory-op stream of the same replay.
        ReplayRig rig(s, cfg);
        TimedLlc timed(std::move(rig.built.llc), rig.memory);
        MemCapture cap(rig.memory);
        timed.memCap = &cap;
        drive(timed, s);
        memOps = std::move(cap.ops);
    }
    const double llcS = nsToS(tracer.totalNs(spanLlc.at(org)));
    const double memS = memReplay(cfg, s.image, memOps);
    if (org == orgs.front())
        mapTime(s.image, cfg);
    tracer.endOp();
    L.tracedTotal += nsToS(tracer.totalNs(spanLlcReplay));
    L.unattributed += nsToS(tracer.selfNs(spanLlcReplay));
    Layers::Llc &l = L.llc[org];
    l.busy += llcS;
    l.self += llcS - memS;
    l.ops += llcOps;
    L.memBusy += memS;
    L.memOps += memOps.size();
    return r;
}

OpResult
Bench::slicedOp(const LlcStream &s, const std::string &key, bool traced)
{
    OpResult r;
    RunConfig cfg = baseConfig(s.workload, "split-doppelganger");
    cfg.sliceCount = 4;
    cfg.sliceThreads = 4;
    std::vector<SlicedLlc::SliceOp> ops;
    ops.reserve(s.ops.size());
    for (Addr a : s.ops) {
        if (a != flushMark)
            ops.push_back({a & ~Addr{1}, (a & 1) != 0});
    }
    r.work = ops.size();

    auto replaySnap = [&](bool concurrent, double *secs) {
        ReplayRig rig(s, cfg);
        auto *sl = dynamic_cast<SlicedLlc *>(rig.built.llc.get());
        if (!sl)
            throw std::runtime_error("not a sliced LLC");
        const u64 t0 = nowNs();
        sl->replay(ops, concurrent);
        if (secs)
            *secs = nsToS(nowNs() - t0);
        return rig.stats.snapshot();
    };

    if (!serialSliced.count(key))
        serialSliced[key] = digest(replaySnap(false, nullptr), {});
    const u64 d = digest(replaySnap(true, &r.seconds), {});
    r.ok = checkDigest(key, d);
    if (d != serialSliced[key]) {
        fail(key, "concurrent replay differs from serial replay");
        r.ok = false;
    }
    if (!traced)
        return r;

    // Per-slice busy time: each slice's partition replayed alone.
    L.untracedTotal += r.seconds;
    tracer.beginOp(opSerial++, key);
    double concurrent = 0;
    StatSnapshot snap;
    {
        Span sp(&tracer, spanSliced);
        snap = replaySnap(true, &concurrent);
    }
    Layers::Llc &l = L.llc["split-doppelganger"];
    count(snap, l);
    l.ops += ops.size();
    L.tracedTotal += concurrent;
    std::vector<std::vector<SlicedLlc::SliceOp>> parts(4);
    double busyMax = 0;
    {
        ReplayRig probe(s, cfg);
        auto *sl = dynamic_cast<SlicedLlc *>(probe.built.llc.get());
        for (const auto &op : ops)
            parts[sl->sliceOfAddr(op.addr)].push_back(op);
    }
    size_t maxOps = 0;
    for (const auto &p : parts) {
        ReplayRig rig(s, cfg);
        auto *sl = dynamic_cast<SlicedLlc *>(rig.built.llc.get());
        const u64 t0 = nowNs();
        sl->replay(p, false);
        busyMax = std::max(busyMax, nsToS(nowNs() - t0));
        maxOps = std::max(maxOps, p.size());
    }
    RunConfig one = cfg;
    one.sliceCount = 1;
    one.sliceThreads = 1;
    double oneS = 0;
    {
        ReplayRig rig(s, one);
        auto *sl = dynamic_cast<SlicedLlc *>(rig.built.llc.get());
        const u64 t0 = nowNs();
        sl->replay(ops, false);
        oneS = nsToS(nowNs() - t0);
    }
    tracer.endOp();
    const double mean = static_cast<double>(ops.size()) / 4.0;
    L.slicedImbalance += mean > 0 ? static_cast<double>(maxOps) / mean : 0;
    L.slicedBusyMax += busyMax;
    L.slicedWait += concurrent - busyMax;
    L.slicedSpeedup += concurrent > 0 ? oneS / concurrent : 0;
    return r;
}

/** User + system CPU seconds of this process so far. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto s = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
            static_cast<double>(t.tv_usec) * 1e-6;
    };
    return s(ru.ru_utime) + s(ru.ru_stime);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile. */
double
percentile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const size_t k = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, k ? k - 1 : 0)];
}

double
geomean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

struct Json
{
    std::ostringstream o;
    bool firstKey = true;
    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        o << (firstKey ? "" : ",") << "\"" << name
          << "\":{\"value\":" << fmt(value) << ",\"unit\":\"" << unit
          << "\"}";
        firstKey = false;
    }
    static std::string
    fmt(double v)
    {
        if (!std::isfinite(v))
            return "0";
        char b[40];
        std::snprintf(b, sizeof b, "%.17g", v);
        return b;
    }
};

std::string
Bench::writeResult(const std::vector<OpResult> &ops, u64 passes,
                   double wall, double cpu)
{
    Json m;
    const size_t k = opsPerPass();
    if (!opt.trace) {
        // One time per op of the pass, over its repeats that did not
        // fail. Every pass repeats identical simulated work. Single-
        // threaded, the repeats of an op differ only by host
        // interference, which only adds time, so the op's time is its
        // fastest repeat. On sliced-replay they also differ by thread
        // scheduling and lock contention, which belong to the program,
        // so there it is the median repeat.
        std::vector<std::vector<double>> reps(k);
        for (size_t i = 0; i < ops.size(); ++i) {
            if (ops[i].ok)
                reps[i % k].push_back(ops[i].seconds);
        }
        std::vector<double> secs;
        double total = 0;
        u64 work = 0;
        for (size_t i = 0; i < k; ++i) {
            if (reps[i].empty())
                continue;
            secs.push_back(opt.workload == "sliced-replay"
                               ? median(reps[i])
                               : *std::min_element(reps[i].begin(),
                                                   reps[i].end()));
            total += secs.back();
            work += ops[i].work;
        }
        if (secs.empty())
            secs.push_back(0.0);
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        // Set-up is deterministic (checked), so like an op it takes the
        // fastest of its repeats.
        m.metric("setup_s",
                 *std::min_element(setupSeconds.begin(), setupSeconds.end()),
                 "s");
        m.metric("accesses_per_s",
                 static_cast<double>(work) / std::max(total, 1e-12), "1/s");
        m.metric("op_s.p50", median(secs), "s");
        m.metric("op_s.p90", percentile(secs, 0.9), "s");
        m.metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
                 "MB");
    } else {
        const double n = static_cast<double>(std::max<u64>(passes, 1));
        auto per = [n](double v) { return v / n; };
        auto perU = [n](u64 v) { return static_cast<double>(v) / n; };
        auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
        m.metric("workloads.self_s", per(L.workloadsSelf), "s");
        m.metric("workloads.accesses", perU(L.accesses), "count");
        m.metric("workloads.self_ns_per_access",
                 ratio(L.workloadsSelf * 1e9,
                       static_cast<double>(L.accesses)),
                 "ns");
        m.metric("hierarchy.self_s", per(L.hierSelf), "s");
        m.metric("hierarchy.ns_per_access",
                 ratio(L.hierSelf * 1e9, static_cast<double>(L.accesses)),
                 "ns");
        m.metric("hierarchy.l1_hit_ratio",
                 ratio(static_cast<double>(L.l1Hits),
                       static_cast<double>(L.accesses)),
                 "ratio");
        m.metric("hierarchy.l2_misses", perU(L.l2Misses), "count");
        m.metric("hierarchy.remote_fetches", perU(L.remoteFetches),
                 "count");
        m.metric("hierarchy.invalidations", perU(L.invalidations),
                 "count");
        for (const std::string &org : registeredLlcNames()) {
            const Layers::Llc l =
                L.llc.count(org) ? L.llc.at(org) : Layers::Llc{};
            const std::string p = "llc." + org + ".";
            m.metric(p + "busy_s", per(l.busy), "s");
            m.metric(p + "self_s", per(l.self), "s");
            m.metric(p + "ops", perU(l.ops), "count");
            m.metric(p + "hit_ratio",
                     ratio(static_cast<double>(l.hits),
                           static_cast<double>(l.fetches)),
                     "ratio");
            m.metric(p + "ns_per_op",
                     ratio(l.self * 1e9, static_cast<double>(l.ops)), "ns");
            m.metric(p + "map_gens", perU(l.mapGens), "count");
        }
        m.metric("map.ns_per_map",
                 ratio(L.mapNs, static_cast<double>(L.mapCount)), "ns");
        m.metric("map.count", perU(L.mapCount), "count");
        m.metric("mem.reads", perU(L.memReads), "count");
        m.metric("mem.writes", perU(L.memWrites), "count");
        m.metric("mem.ns_per_op",
                 ratio(L.memBusy * 1e9, static_cast<double>(L.memOps)), "ns");
        m.metric("mem.busy_s", per(L.memBusy), "s");
        for (u32 p = 0; p < 3; ++p)
            m.metric("mem.part" + std::to_string(p) + ".ops",
                     perU(L.partOps[p]), "count");
        const double slicedOps = static_cast<double>(
            opt.workload == "sliced-replay" ? names.size() * passes : 1);
        m.metric("sliced.imbalance", L.slicedImbalance / slicedOps, "ratio");
        m.metric("sliced.busy_s.max", per(L.slicedBusyMax), "s");
        m.metric("sliced.wait_s", per(L.slicedWait), "s");
        m.metric("sliced.speedup_vs_1slice", L.slicedSpeedup / slicedOps,
                 "ratio");
        m.metric("fault.injected", perU(L.faultInjected), "count");
        m.metric("fault.detected", perU(L.faultDetected), "count");
        m.metric("fault.repairs", perU(L.faultRepairs), "count");
        m.metric("qor.degradations", perU(L.qorDegradations), "count");
        m.metric("qor.degraded_ops_ratio",
                 ratio(static_cast<double>(L.qorDegradedOps),
                       static_cast<double>(L.qorObservations)),
                 "ratio");
        m.metric("mem.migrations", perU(L.memMigrations), "count");
        m.metric("fault.overhead_s", per(L.faultOverhead), "s");
        m.metric("harness.build_s", per(L.harnessBuild), "s");
        m.metric("harness.snapshot_s", per(L.harnessSnapshot), "s");
        m.metric("trace.unattributed_s", per(L.unattributed), "s");
        m.metric("trace.overhead_pct",
                 ratio(100.0 * (L.tracedTotal - L.untracedTotal),
                       L.untracedTotal),
                 "%");
    }

    // Report-only figures, outside the metric set.
    Json x;
    x.metric("fail_frac",
             attempted ? static_cast<double>(failed) /
                     static_cast<double>(attempted)
                       : 0.0,
             "ratio");
    x.metric("op_s.samples", static_cast<double>(k), "count");
    x.metric("passes", static_cast<double>(passes), "count");
    x.metric("setup_s.samples", static_cast<double>(setupSeconds.size()),
             "count");
    x.metric("measure_wall_s", wall, "s");
    x.metric("measure_cpu_s", cpu, "s");
    if (opt.trace && (opt.workload == "paper-sweep" ||
                      opt.workload == "fault-tier")) {
        // Attribution identity: layer self times + unattributed ==
        // the traced end-to-end time.
        double llcSelf = 0;
        for (const auto &kv : L.llc)
            llcSelf += kv.second.self;
        const double sum = L.workloadsSelf + L.hierSelf + llcSelf +
            L.memBusy + L.harnessBuild + L.harnessSnapshot +
            L.unattributed;
        x.metric("trace.traced_total_s", L.tracedTotal /
                                             std::max<u64>(passes, 1),
                 "s");
        x.metric("trace.attributed_sum_s",
                 sum / static_cast<double>(std::max<u64>(passes, 1)), "s");
    }
    if (!opt.trace && opt.workload == "paper-sweep" &&
        firstPass.size() == opsPerPass()) {
        std::vector<double> rt, off;
        double err = 0;
        for (const std::string &wl : names) {
            const RunResult &b = firstPass.at("paper-sweep/" + wl +
                                              "/baseline");
            const RunResult &s = firstPass.at("paper-sweep/" + wl +
                                              "/split-doppelganger");
            rt.push_back(static_cast<double>(s.runtime) /
                         static_cast<double>(b.runtime));
            off.push_back(static_cast<double>(s.offChipTraffic()) /
                          static_cast<double>(b.offChipTraffic()));
            err += workloadOutputError(wl, s.output, b.output);
        }
        x.metric("norm_runtime", geomean(rt), "ratio");
        x.metric("offchip_norm", geomean(off), "ratio");
        x.metric("app_error_pct",
                 100.0 * err / static_cast<double>(names.size()), "%");
    }
    if (!opt.trace && opt.workload == "fault-tier" && !firstPass.empty()) {
        // Output quality under faults, against the golden outputs.
        double err = 0;
        for (const auto &[key, res] : firstPass)
            err += workloadOutputError(res.workload, res.output,
                                       golden.at(res.workload));
        x.metric("faulted_app_error_pct",
                 100.0 * err / static_cast<double>(firstPass.size()), "%");
    }

    std::ostringstream dg;
    for (const auto &[key, d] : seen)
        dg << (dg.tellp() ? "," : "") << "\"" << key << "\":\"" << hex(d)
           << "\"";

    std::ostringstream o;
    o << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
      << ",\"scale\":" << Json::fmt(opt.scale)
      << ",\"trace\":" << (opt.trace ? 1 : 0)
      << ",\"correct\":" << (failed == 0 ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"metrics\":{" << m.o.str() << "},\"report\":{" << x.o.str()
      << "},\"host\":{\"build_type\":\"" PERFBENCH_BUILD_TYPE
         "\",\"cxx_flags\":\"" PERFBENCH_CXX_FLAGS
         "\",\"compiler\":\"" PERFBENCH_COMPILER "\"},\"digests\":{"
      << dg.str() << "}}";
    return o.str();
}

int
Bench::run()
{
    choose();
    setup();
    std::vector<OpResult> ops;
    const double cpu0 = cpuSeconds();
    const u64 t0 = nowNs();
    u64 passes = 0;
    while (true) {
        const u64 p0 = nowNs();
        for (size_t i = 0; i < opsPerPass(); ++i) {
            OpResult r = op(i, opt.trace);
            ++attempted;
            if (!r.ok)
                ++failed;
            ops.push_back(r);
        }
        ++passes;
        const double lastPass = nsToS(nowNs() - p0);
        // Set up again once the window is past the next set-up's share,
        // so the set-ups sample the host over the whole window.
        const double share = static_cast<double>(setupSeconds.size()) /
            static_cast<double>(kSetups);
        if (setupSeconds.size() < kSetups &&
            nsToS(nowNs() - t0) >= share * opt.seconds)
            setup();
        if (nsToS(nowNs() - t0) + lastPass > opt.seconds)
            break;
    }
    const double wall = nsToS(nowNs() - t0);
    const double cpu = cpuSeconds() - cpu0;
    // A short window still checks that set-up is deterministic.
    while (setupSeconds.size() < 3)
        setup();
    const std::string result = writeResult(ops, passes, wall, cpu);
    tracer.write(opt.spans);
    if (opt.out.empty()) {
        std::printf("%s\n", result.c_str());
    } else {
        std::ofstream out(opt.out);
        out << result << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (i + 1 >= argc)
                throw std::runtime_error("missing value for " + a);
            const std::string v = argv[++i];
            if (a == "--workload")
                opt.workload = v;
            else if (a == "--seed")
                opt.seed = std::stoull(v);
            else if (a == "--seconds")
                opt.seconds = std::stod(v);
            else if (a == "--trace")
                opt.trace = std::stoi(v) != 0;
            else if (a == "--scale")
                opt.scale = std::stod(v);
            else if (a == "--pins")
                opt.pins = v;
            else if (a == "--out")
                opt.out = v;
            else if (a == "--spans")
                opt.spans = v;
            else if (a == "--fail-op")
                opt.failOp = v;
            else
                throw std::runtime_error("unknown option " + a);
        }
        if (opt.workload.empty())
            throw std::runtime_error("--workload is required");
        if (!(opt.scale > 0.0) || !(opt.seconds > 0.0))
            throw std::runtime_error("--scale and --seconds must be > 0");
        Bench b(opt);
        return b.run();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
