/**
 * @file
 * Fig 7: approximate-data storage savings under Doppelgänger map
 * clustering, for 12-, 13- and 14-bit map spaces.
 *
 * Methodology (paper Sec 5.1): snapshot the baseline 2 MB LLC; blocks
 * with equal map values share one data entry; savings is the removable
 * fraction of approximate blocks, averaged over snapshots. Paper
 * averages: 65.2% (12-bit) and 37.9% (14-bit).
 */

#include <array>

#include "common.hh"

using namespace dopp;
using namespace dopp::bench;

int
main()
{
    const std::array<unsigned, 3> mapBits = {12, 13, 14};
    const auto &names = workloadNames();
    const size_t cap = snapshotCap();

    // One averager set per workload; each is written only by the one
    // worker thread executing that workload's config.
    std::vector<std::array<SnapshotAverager, 3>> avg(names.size());
    std::vector<RunConfig> configs;
    for (size_t w = 0; w < names.size(); ++w) {
        RunConfig cfg = defaultConfig(names[w]);
        cfg.llcName = "baseline";
        cfg.snapshotPeriod = snapshotPeriod();
        auto *a = &avg[w];
        cfg.onSnapshot = [a, cap, mapBits](const Snapshot &snap) {
            const Snapshot thin = thinSnapshot(snap, cap);
            for (size_t i = 0; i < mapBits.size(); ++i)
                (*a)[i].sample(mapSavings(thin, mapBits[i]));
        };
        configs.push_back(std::move(cfg));
    }
    runCampaign(configs);

    TextTable table;
    table.header({"benchmark", "12-bit map", "13-bit map", "14-bit map"});

    double sums[3] = {};
    for (size_t w = 0; w < names.size(); ++w) {
        table.row({names[w], pct(avg[w][0].mean()),
                   pct(avg[w][1].mean()), pct(avg[w][2].mean())});
        for (int i = 0; i < 3; ++i)
            sums[i] += avg[w][i].mean();
    }

    const double n = static_cast<double>(names.size());
    table.row({"average", pct(sums[0] / n), pct(sums[1] / n),
               pct(sums[2] / n)});
    table.print("Fig 7: approx data storage savings vs map space size");
    std::printf("(paper averages: 65.2%% @12-bit, 37.9%% @14-bit)\n");
    return 0;
}
