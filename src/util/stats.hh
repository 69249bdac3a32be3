/**
 * @file
 * Statistics infrastructure: lightweight accumulators plus the
 * hierarchical StatRegistry every simulated structure registers its
 * counters into.
 *
 * The registry is the single source of truth for *what* a run counts:
 * each LLC organization, the private-cache hierarchy, main memory and
 * the fault/QoR subsystems register named stats under dotted group
 * paths (naming convention `llc.dopp.tagArray.reads`). Export layers
 * (results_io CSV/JSON, the DOPP_STATS_JSON dump) enumerate the
 * registry instead of hand-listing struct fields, so a newly
 * registered counter can never silently miss export.
 *
 * Four stat kinds:
 *  - Counter       registry-owned u64; hot paths cache a `Counter &`
 *                  handle at construction and pay a pointer bump per
 *                  increment, never a map lookup.
 *  - Distribution  count/sum/min/max/mean of double samples.
 *  - counterFn     externally backed integral value, read at
 *                  snapshot time (for structures that keep their own
 *                  u64 tallies, e.g. MainMemory traffic).
 *  - Formula       derived double, evaluated at snapshot time
 *                  (miss rates, EWMA estimates, occupancy ratios).
 *
 * A StatSnapshot is an ordered, self-describing (name, value) list;
 * snapshots subtract (`delta`) for per-interval accounting and
 * serialize to hierarchical JSON. Registries are not thread-safe:
 * each run owns one (the batch runner gives every run its own), so
 * registration order — and therefore snapshot order — is
 * deterministic for a given configuration.
 */

#ifndef DOPP_UTIL_STATS_HH
#define DOPP_UTIL_STATS_HH

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "types.hh"

namespace dopp
{

/**
 * Running mean / variance / extrema accumulator (Welford's algorithm).
 */
class RunningStat
{
  public:
    /** Add one sample. */
    void
    sample(double x)
    {
        ++n;
        const double delta = x - meanVal;
        meanVal += delta / static_cast<double>(n);
        m2 += delta * (x - meanVal);
        minVal = std::min(minVal, x);
        maxVal = std::max(maxVal, x);
    }

    /** Number of samples seen. */
    u64 count() const { return n; }

    /** Sample mean (0 if empty). */
    double mean() const { return n ? meanVal : 0.0; }

    /** Population variance (0 if fewer than two samples). */
    double
    variance() const
    {
        return n > 1 ? m2 / static_cast<double>(n) : 0.0;
    }

    /** Population standard deviation. */
    double stddev() const { return std::sqrt(variance()); }

    /** Smallest sample (+inf if empty). */
    double min() const { return minVal; }

    /** Largest sample (-inf if empty). */
    double max() const { return maxVal; }

    /** Reset to the empty state. */
    void
    reset()
    {
        n = 0;
        meanVal = 0.0;
        m2 = 0.0;
        minVal = std::numeric_limits<double>::infinity();
        maxVal = -std::numeric_limits<double>::infinity();
    }

  private:
    u64 n = 0;
    double meanVal = 0.0;
    double m2 = 0.0;
    double minVal = std::numeric_limits<double>::infinity();
    double maxVal = -std::numeric_limits<double>::infinity();
};

/**
 * Fixed-bucket histogram over [lo, hi); out-of-range samples clamp to the
 * first/last bucket.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, unsigned buckets)
        : lo(lo), hi(hi), counts(buckets, 0)
    {
    }

    /** Add one sample. */
    void
    sample(double x)
    {
        double t = (x - lo) / (hi - lo);
        t = std::clamp(t, 0.0, 1.0);
        auto idx = static_cast<size_t>(t * static_cast<double>(
            counts.size()));
        if (idx >= counts.size())
            idx = counts.size() - 1;
        ++counts[idx];
        ++total;
    }

    /** Count in bucket @p i. */
    u64 bucket(size_t i) const { return counts.at(i); }

    /** Number of buckets. */
    size_t buckets() const { return counts.size(); }

    /** Total samples. */
    u64 samples() const { return total; }

  private:
    double lo;
    double hi;
    std::vector<u64> counts;
    u64 total = 0;
};

/** Geometric mean of a vector of positive values (1.0 if empty). */
inline double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 1.0;
    double acc = 0.0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(xs.size()));
}

/** Arithmetic mean (0.0 if empty). */
inline double
amean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs)
        acc += x;
    return acc / static_cast<double>(xs.size());
}

// ---------------------------------------------------------------------
// StatRegistry
// ---------------------------------------------------------------------

class StatRegistry;

/**
 * Registry-owned u64 event counter. Structures cache a `Counter &`
 * at registration time; incrementing is a plain memory bump on the
 * registry's stable storage (no lookup, no indirection beyond the
 * cached handle).
 */
class Counter
{
  public:
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    Counter &operator++() { ++v; return *this; }
    void operator++(int) { ++v; }
    Counter &operator+=(u64 n) { v += n; return *this; }

    u64 value() const { return v; }
    void reset() { v = 0; }

  private:
    friend class StatRegistry;
    Counter() = default;

    u64 v = 0;
};

/**
 * Registry-owned sample accumulator: count, sum, extrema and mean of
 * double-valued samples. Snapshots expand it into `<name>.count`,
 * `<name>.mean`, `<name>.min`, `<name>.max` (min/max report 0 while
 * empty so exports stay finite).
 */
class Distribution
{
  public:
    Distribution(const Distribution &) = delete;
    Distribution &operator=(const Distribution &) = delete;

    void
    sample(double x)
    {
        ++n;
        total += x;
        minVal = std::min(minVal, x);
        maxVal = std::max(maxVal, x);
    }

    u64 count() const { return n; }
    double sum() const { return total; }
    double mean() const { return n ? total / static_cast<double>(n) : 0.0; }
    double min() const { return n ? minVal : 0.0; }
    double max() const { return n ? maxVal : 0.0; }

    void
    reset()
    {
        n = 0;
        total = 0.0;
        minVal = std::numeric_limits<double>::infinity();
        maxVal = -std::numeric_limits<double>::infinity();
    }

  private:
    friend class StatRegistry;
    Distribution() = default;

    u64 n = 0;
    double total = 0.0;
    double minVal = std::numeric_limits<double>::infinity();
    double maxVal = -std::numeric_limits<double>::infinity();
};

/** One exported stat value: a name plus an integral or real value. */
struct StatValue
{
    std::string name;
    bool integral = true;
    u64 u = 0;      ///< value when integral
    double d = 0.0; ///< value when !integral

    double
    asDouble() const
    {
        return integral ? static_cast<double>(u) : d;
    }

    /** Native textual form: decimal for counters, shortest
     * round-trippable decimal (std::to_chars) for reals. */
    std::string str() const;

    bool
    operator==(const StatValue &o) const
    {
        return name == o.name && integral == o.integral &&
            (integral ? u == o.u : d == o.d);
    }
    bool operator!=(const StatValue &o) const { return !(*this == o); }
};

/**
 * Ordered point-in-time copy of every stat in a registry. The order is
 * registration order, so equal configurations produce byte-identical
 * snapshots. Self-contained: survives the registry (and the run) that
 * produced it, which is how RunResult carries per-run stats.
 */
class StatSnapshot
{
  public:
    const std::vector<StatValue> &values() const { return entries; }
    bool empty() const { return entries.empty(); }
    size_t size() const { return entries.size(); }

    /** @return whether a stat named @p name exists. */
    bool has(const std::string &name) const;

    /** Value of @p name as a double. Fatal if absent. */
    double value(const std::string &name) const;

    /** Value of integral stat @p name. Fatal if absent or real. */
    u64 counter(const std::string &name) const;

    /**
     * Interval accounting: this snapshot minus @p earlier, name-wise.
     * Integral values subtract clamped at zero (a counter reset
     * mid-interval reads as zero progress, not a wrap); real values
     * subtract arithmetically. Names absent from @p earlier are kept
     * as-is (newly registered mid-interval).
     */
    StatSnapshot delta(const StatSnapshot &earlier) const;

    /**
     * Hierarchical JSON object: dotted names become nested objects
     * (`llc.tagArray.reads` → {"llc":{"tagArray":{"reads":N}}}),
     * nesting in first-appearance order. Reals are emitted with
     * shortest-round-trip formatting.
     */
    std::string json() const;

    bool
    operator==(const StatSnapshot &o) const
    {
        return entries == o.entries;
    }
    bool operator!=(const StatSnapshot &o) const { return !(*this == o); }

    /** Rebuild a snapshot from deserialized values (the run journal,
     * harness/journal.hh); order must be the serialized order. */
    static StatSnapshot
    fromValues(std::vector<StatValue> values)
    {
        StatSnapshot s;
        s.entries = std::move(values);
        return s;
    }

  private:
    friend class StatRegistry;

    std::vector<StatValue> entries;
};

/**
 * Handle to one group (dotted path prefix) of a registry; cheap to
 * copy and pass around. Created via StatRegistry::group() or nested
 * with StatGroup::group().
 */
class StatGroup
{
  public:
    /** Child group handle: `group("tagArray")` under "llc" names
     * "llc.tagArray". */
    StatGroup group(const std::string &name) const;

    /** Register an owned counter. Fatal on duplicate full names. */
    Counter &counter(const std::string &name,
                     const std::string &desc = "");

    /** Register an owned sample distribution. */
    Distribution &distribution(const std::string &name,
                               const std::string &desc = "");

    /** Register an externally backed integral stat, read at snapshot
     * time. @p fn must outlive the registry's last snapshot. */
    void counterFn(const std::string &name, std::function<u64()> fn,
                   const std::string &desc = "");

    /** Register a derived real-valued stat, evaluated at snapshot
     * time. */
    void formula(const std::string &name, std::function<double()> fn,
                 const std::string &desc = "");

    const std::string &path() const { return prefix; }

    /** The registry this group registers into. */
    StatRegistry &registry() const { return *reg; }

  private:
    friend class StatRegistry;
    StatGroup(StatRegistry &r, std::string p)
        : reg(&r), prefix(std::move(p))
    {
    }

    std::string fullName(const std::string &name) const;

    StatRegistry *reg;
    std::string prefix;
};

/**
 * The per-run stat tree. Owns every registered stat; enumeration,
 * snapshotting and reset all walk registration order. Not thread-safe
 * (one registry per run).
 */
class StatRegistry
{
  public:
    StatRegistry() = default;
    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /** Root-level group handle ("" prefix → bare names). */
    StatGroup root() { return StatGroup(*this, ""); }

    /** Group handle for dotted @p path. */
    StatGroup group(const std::string &path)
    {
        return StatGroup(*this, path);
    }

    /** @name Registration by full dotted name (StatGroup calls these).
     * All are fatal on a duplicate name. */
    /// @{
    Counter &addCounter(const std::string &full_name,
                        const std::string &desc = "");
    Distribution &addDistribution(const std::string &full_name,
                                  const std::string &desc = "");
    void addCounterFn(const std::string &full_name,
                      std::function<u64()> fn,
                      const std::string &desc = "");
    void addFormula(const std::string &full_name,
                    std::function<double()> fn,
                    const std::string &desc = "");
    /// @}

    /** @return whether @p full_name is registered. */
    bool contains(const std::string &full_name) const;

    /** Current value of the Counter or CounterFn registered as
     * @p full_name. Fatal if absent or of another kind. */
    u64 counterValue(const std::string &full_name) const;

    /** The Distribution registered as @p full_name, or nullptr if
     * absent or of another kind. */
    const Distribution *findDistribution(
        const std::string &full_name) const;

    /**
     * Register a deterministic aggregate view of several same-schema
     * subtrees (the sliced LLC's `llc.sliceN.*` groups merging into
     * `llc.*`; DESIGN.md §15). For every stat `<children[0]>.<suffix>`
     * the matching stat of every child is merged under
     * `<aggregate>.<suffix>`:
     *
     *  - Counter / CounterFn: a counterFn summing the children at
     *    snapshot time (summation order is the @p children order, so
     *    the merge is deterministic).
     *  - Distribution: `<suffix>.count` as a summing counterFn plus
     *    `<suffix>.mean` / `.min` / `.max` formulas (count-weighted
     *    mean; extrema over non-empty children) — the exact snapshot
     *    shape a directly registered Distribution expands to.
     *  - Formula: skipped. Derived stats do not sum; callers
     *    re-register them over the merged view (registerLlcFormulas).
     *
     * Fatal if @p children is empty, a child is missing a stat the
     * first child has, or the kinds mismatch. The registry must
     * outlive every snapshot (the merge closures read it).
     */
    void registerGroupMerge(const std::string &aggregate,
                            const std::vector<std::string> &children);

    /** Registered stat count (Distributions count once here but
     * expand to four snapshot entries). */
    size_t statCount() const { return nodes.size(); }

    /** Every exported stat name, in snapshot order. */
    std::vector<std::string> names() const;

    /** Description registered for @p full_name ("" if none/unknown). */
    std::string description(const std::string &full_name) const;

    /** Point-in-time copy of every stat, in registration order. */
    StatSnapshot snapshot() const;

    /** Zero every owned Counter and Distribution whose full name
     * starts with @p prefix (all of them for ""). counterFn/Formula
     * stats read external state and are unaffected. */
    void reset(const std::string &prefix = "");

  private:
    friend class StatGroup;

    enum class Kind : u8 { Counter, Distribution, CounterFn, Formula };

    struct Node
    {
        std::string name;
        std::string desc;
        Kind kind = Kind::Counter;
        Counter counter;
        Distribution dist;
        std::function<u64()> counterFn;
        std::function<double()> formula;
    };

    Node &addNode(const std::string &full_name, const std::string &desc,
                  Kind kind);

    std::deque<Node> nodes; ///< deque: stable addresses for handles
    std::unordered_map<std::string, size_t> byName;
};

} // namespace dopp

#endif // DOPP_UTIL_STATS_HH
