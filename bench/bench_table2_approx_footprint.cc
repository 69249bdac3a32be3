/**
 * @file
 * Table 2: percentage of LLC blocks that are approximate.
 *
 * Methodology (paper Sec 4.1): run each benchmark on the baseline 2 MB
 * LLC and average, over periodic snapshots of the resident blocks, the
 * fraction annotated approximate.
 */

#include "common.hh"

using namespace dopp;
using namespace dopp::bench;

int
main()
{
    // Paper values for side-by-side comparison (Table 2).
    const std::vector<std::pair<std::string, double>> paper = {
        {"blackscholes", 0.618}, {"canneal", 0.380}, {"ferret", 0.459},
        {"fluidanimate", 0.036}, {"inversek2j", 0.997},
        {"jmeint", 0.947},       {"jpeg", 0.984},    {"kmeans", 0.596},
        {"swaptions", 0.015},
    };

    std::vector<SnapshotAverager> avg(paper.size());
    std::vector<RunConfig> configs;
    for (size_t w = 0; w < paper.size(); ++w) {
        RunConfig cfg = defaultConfig(paper[w].first);
        cfg.llcName = "baseline";
        cfg.snapshotPeriod = snapshotPeriod();
        auto *a = &avg[w];
        cfg.onSnapshot = [a](const Snapshot &snap) {
            a->sample(approxFraction(snap));
        };
        configs.push_back(std::move(cfg));
    }
    runCampaign(configs);

    TextTable table;
    table.header({"benchmark", "approx LLC blocks (measured)",
                  "paper (Table 2)"});
    for (size_t w = 0; w < paper.size(); ++w)
        table.row({paper[w].first, pct(avg[w].mean()),
                   pct(paper[w].second)});

    table.print("Table 2: approximate fraction of LLC blocks");
    return 0;
}
