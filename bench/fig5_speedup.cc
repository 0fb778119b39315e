/**
 * @file
 * FIG-5 / headline result: speedup of demand-driven race detection
 * over continuous analysis.
 *
 * Paper claims (pinned by the abstract): ~10x mean on one suite
 * (Phoenix), ~3x mean on the other (PARSEC), ~51x on one particular
 * program (the near-zero-sharing linear_regression-class workload).
 * Absolute cycles are a cost-model artifact; the *shape* — who wins,
 * by roughly what factor, and where — is what this harness checks.
 */

#include "bench_util.hh"

using namespace hdrd;
using namespace hdrd::bench;

namespace
{

/** Per-seed measurement of one benchmark. */
struct Measured
{
    double cont_slow = 0.0;
    double dem_slow = 0.0;
    double speedup = 0.0;
    double analyzed = 0.0;
    bool race_match = false;
};

Measured
measure(const hdrd::workloads::WorkloadInfo &info,
        hdrd::workloads::WorkloadParams params, std::uint64_t seed)
{
    params.seed = seed;
    runtime::SimConfig config;
    config.seed = seed;
    const auto native =
        runMode(info, params, config, instr::ToolMode::kNative);
    const auto continuous = runMode(info, params, config,
                                    instr::ToolMode::kContinuous);
    const auto demand =
        runMode(info, params, config, instr::ToolMode::kDemand);
    const auto wall = [](const runtime::RunResult &r) {
        return static_cast<double>(r.wall_cycles);
    };
    return Measured{
        .cont_slow = wall(continuous) / wall(native),
        .dem_slow = wall(demand) / wall(native),
        .speedup = wall(continuous) / wall(demand),
        .analyzed = demand.analyzedFraction(),
        .race_match = demand.reports.uniqueCount()
            == continuous.reports.uniqueCount(),
    };
}

} // namespace

int
main(int argc, char **argv)
{
    // Extra flag: --seeds=N averages each benchmark over N seeds.
    int seeds = 1;
    std::vector<char *> passthrough;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--seeds=", 0) == 0)
            seeds = static_cast<int>(
                cli::parseU32("seeds", arg.substr(8), 1, 1000));
        else
            passthrough.push_back(argv[i]);
    }
    const auto opt = BenchOptions::parse(
        static_cast<int>(passthrough.size()), passthrough.data(),
        0.5);
    banner("FIG-5", "demand-driven speedup over continuous analysis",
           opt);
    if (seeds > 1)
        std::printf("averaging over %d seeds per benchmark\n\n",
                    seeds);

    std::printf("%-28s %10s %10s %9s %11s %9s\n", "benchmark",
                "cont_slow", "dem_slow", "speedup", "analyzed%",
                "races=");

    std::vector<double> phoenix, parsec;
    std::string best_name;
    double best = 0.0;
    for (const auto &info : opt.selected()) {
        const auto params = opt.params();
        std::vector<double> s_cont, s_dem, s_speed, s_ana;
        bool all_match = true;
        for (int s = 0; s < seeds; ++s) {
            const auto m = measure(
                info, params,
                42 + static_cast<std::uint64_t>(s) * 1009);
            s_cont.push_back(m.cont_slow);
            s_dem.push_back(m.dem_slow);
            s_speed.push_back(m.speedup);
            s_ana.push_back(m.analyzed);
            all_match &= m.race_match;
        }
        const double cont_slow = geomean(s_cont);
        const double dem_slow = geomean(s_dem);
        const double speedup = geomean(s_speed);
        std::printf("%-28s %9.1fx %9.1fx %8.1fx %10.2f%% %9s\n",
                    info.name.c_str(), cont_slow, dem_slow, speedup,
                    100.0 * mean(s_ana),
                    all_match ? "match" : "fewer");
        (info.suite == "phoenix" ? phoenix : parsec)
            .push_back(speedup);
        if (speedup > best) {
            best = speedup;
            best_name = info.name;
        }
    }

    std::printf("\n");
    if (!phoenix.empty())
        std::printf("phoenix geomean speedup: %5.1fx   "
                    "(paper: ~10x mean)\n",
                    geomean(phoenix));
    if (!parsec.empty())
        std::printf("parsec  geomean speedup: %5.1fx   "
                    "(paper: ~3x mean)\n",
                    geomean(parsec));
    std::printf("best single program:     %5.1fx on %s   "
                "(paper: ~51x on one program)\n",
                best, best_name.c_str());
    return 0;
}
