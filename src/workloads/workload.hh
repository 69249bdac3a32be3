/**
 * @file
 * Workload interface and factory for the nine benchmarks of Sec 4.1.
 *
 * Each benchmark is a self-contained, deterministic kernel that mirrors
 * the algorithm of its PARSEC/AxBench namesake (see DESIGN.md for the
 * substitution argument). Workloads allocate and annotate their data
 * through a SimRuntime, run to completion, and expose a final-output
 * vector; application error is obtained by comparing the output of a
 * run on an approximate LLC to that of a run on the precise baseline.
 */

#ifndef DOPP_WORKLOADS_WORKLOAD_HH
#define DOPP_WORKLOADS_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "workloads/runtime.hh"

namespace dopp
{

/** Sizing knobs shared by all workloads. */
struct WorkloadConfig
{
    /** Linear input-size scale; 1.0 is the default evaluation size. */
    double scale = 1.0;

    /** Input-generation seed; equal seeds give identical inputs. */
    u64 seed = 12345;

    /**
     * Per-use range annotations: instead of one declared range for all
     * elements of a data type (the paper's Sec 4.1 simplification),
     * regions holding small-magnitude values (swaptions' rates) are
     * annotated with their own tight range. This is the "other
     * similarity functions that account for different ranges or
     * different uses of the same data type" the paper leaves as future
     * work (Sec 5.2). Currently honored by swaptions.
     */
    bool perUseRanges = false;
};

/** Abstract benchmark. */
class Workload
{
  public:
    explicit Workload(const WorkloadConfig &config) : cfg(config) {}
    virtual ~Workload() = default;

    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Benchmark name (Table 2 spelling). */
    virtual const char *name() const = 0;

    /** Execute the kernel against @p rt, filling the output vector. */
    virtual void run(SimRuntime &rt) = 0;

    /**
     * Application output error of an approximate run's output against
     * a precise baseline's, using the benchmark's own metric. Pure:
     * usable on a freshly constructed instance.
     */
    virtual double outputError(
        const std::vector<double> &approx_output,
        const std::vector<double> &precise_output) const = 0;

    /** Final output vector (filled by run()). */
    const std::vector<double> &output() const { return out; }

  protected:
    /** Scale helper: N × scale, at least @p min_n. */
    u64
    scaled(u64 n, u64 min_n = 1) const
    {
        const double v = static_cast<double>(n) * cfg.scale;
        return std::max<u64>(static_cast<u64>(v), min_n);
    }

    WorkloadConfig cfg;
    std::vector<double> out;
};

/** All nine benchmark names, in Table 2 order. */
const std::vector<std::string> &workloadNames();

/** Whether @p name is one of workloadNames(). */
bool knownWorkload(const std::string &name);

/** Construct the named benchmark. Fatal on unknown names. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadConfig &config);

/** Score @p approx against @p precise with @p name's error metric. */
double workloadOutputError(const std::string &name,
                           const std::vector<double> &approx,
                           const std::vector<double> &precise);

/** @name Individual factories */
/// @{
std::unique_ptr<Workload> makeBlackscholes(const WorkloadConfig &);
std::unique_ptr<Workload> makeCanneal(const WorkloadConfig &);
std::unique_ptr<Workload> makeFerret(const WorkloadConfig &);
std::unique_ptr<Workload> makeFluidanimate(const WorkloadConfig &);
std::unique_ptr<Workload> makeInversek2j(const WorkloadConfig &);
std::unique_ptr<Workload> makeJmeint(const WorkloadConfig &);
std::unique_ptr<Workload> makeJpeg(const WorkloadConfig &);
std::unique_ptr<Workload> makeKmeans(const WorkloadConfig &);
std::unique_ptr<Workload> makeSwaptions(const WorkloadConfig &);
/// @}

} // namespace dopp

#endif // DOPP_WORKLOADS_WORKLOAD_HH
