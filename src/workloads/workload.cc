#include "workload.hh"

#include <algorithm>

#include "util/logging.hh"

namespace dopp
{

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "blackscholes", "canneal",  "ferret",
        "fluidanimate", "inversek2j", "jmeint",
        "jpeg",         "kmeans",   "swaptions",
    };
    return names;
}

bool
knownWorkload(const std::string &name)
{
    const std::vector<std::string> &names = workloadNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadConfig &config)
{
    if (name == "blackscholes")
        return makeBlackscholes(config);
    if (name == "canneal")
        return makeCanneal(config);
    if (name == "ferret")
        return makeFerret(config);
    if (name == "fluidanimate")
        return makeFluidanimate(config);
    if (name == "inversek2j")
        return makeInversek2j(config);
    if (name == "jmeint")
        return makeJmeint(config);
    if (name == "jpeg")
        return makeJpeg(config);
    if (name == "kmeans")
        return makeKmeans(config);
    if (name == "swaptions")
        return makeSwaptions(config);
    fatal("unknown workload '%s'", name.c_str());
}

double
workloadOutputError(const std::string &name,
                    const std::vector<double> &approx,
                    const std::vector<double> &precise)
{
    WorkloadConfig cfg;
    return makeWorkload(name, cfg)->outputError(approx, precise);
}

} // namespace dopp
