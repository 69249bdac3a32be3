/**
 * @file
 * Fig 11: LLC dynamic (a) and leakage (b) energy *reduction* of the
 * split Doppelgänger organization relative to the 2 MB baseline, as
 * the approximate data array varies over 1/2, 1/4, 1/8.
 *
 * Accounting (Sec 5.3, 5.6): per-structure access counts × CactiLite
 * per-access energies, + 168 pJ per map generation; leakage = leakage
 * power × runtime, both halves of the split LLC included.
 * Paper averages at 1/4: 2.55× dynamic, 1.41× leakage.
 */

#include "energy/energy_model.hh"

#include "common.hh"

using namespace dopp;
using namespace dopp::bench;

int
main()
{
    const double fractions[] = {0.5, 0.25, 0.125};
    const EnergyModel energy;
    const auto &names = workloadNames();

    const size_t stride = 1 + 3;
    std::vector<RunConfig> configs;
    for (const auto &name : names) {
        RunConfig base = defaultConfig(name);
        base.llcName = "baseline";
        configs.push_back(std::move(base));
        for (double fraction : fractions) {
            RunConfig cfg = defaultConfig(name);
            cfg.llcName = "split-doppelganger";
            cfg.dataFraction = fraction;
            configs.push_back(std::move(cfg));
        }
    }
    const std::vector<RunResult> results = runCampaign(configs);

    TextTable dyn;
    dyn.header({"benchmark", "dynamic @1/2", "dynamic @1/4",
                "dynamic @1/8"});
    TextTable leak;
    leak.header({"benchmark", "leakage @1/2", "leakage @1/4",
                 "leakage @1/8"});

    double dynSum[3] = {};
    double leakSum[3] = {};
    for (size_t w = 0; w < names.size(); ++w) {
        const RunResult &baseline = results[w * stride];
        // Access counts come from the run's registry snapshot by
        // structure name; the same counters the CSV/JSON exports see.
        const EnergyResult baseE = energy.baseline(baseline.stats, "llc");

        std::vector<std::string> drow = {names[w]};
        std::vector<std::string> lrow = {names[w]};
        for (size_t i = 0; i < 3; ++i) {
            const RunResult &r = results[w * stride + 1 + i];
            const EnergyResult e = energy.split(
                r.stats, "llc.precise", "llc.dopp", r.doppConfig);
            const double dynRed = baseE.dynamicPj / e.dynamicPj;
            const double leakRed = baseE.leakagePj / e.leakagePj;
            drow.push_back(times(dynRed));
            lrow.push_back(times(leakRed));
            dynSum[i] += dynRed;
            leakSum[i] += leakRed;
        }
        dyn.row(std::move(drow));
        leak.row(std::move(lrow));
    }

    const double n = static_cast<double>(names.size());
    dyn.row({"average", times(dynSum[0] / n), times(dynSum[1] / n),
             times(dynSum[2] / n)});
    leak.row({"average", times(leakSum[0] / n), times(leakSum[1] / n),
              times(leakSum[2] / n)});

    dyn.print("Fig 11a: LLC dynamic energy reduction vs baseline");
    leak.print("Fig 11b: LLC leakage energy reduction vs baseline");
    std::printf("(paper averages at 1/4: 2.55x dynamic, 1.41x leakage; "
                "canneal the only dynamic-energy outlier)\n");
    return 0;
}
