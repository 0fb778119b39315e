/**
 * @file
 * Shared infrastructure for the experiment harnesses in bench/.
 *
 * Each fig/tab binary regenerates one figure or table of the paper
 * (see DESIGN.md's experiment index). They all share the same CLI:
 *
 *   --scale=<f>    workload size multiplier (default per binary)
 *   --threads=<n>  worker threads (default 4)
 *   --suite=<s>    restrict to one suite ("phoenix"/"parsec"/"micro")
 *   --quick        tiny sizes for smoke runs
 */

#ifndef HDRD_BENCH_BENCH_UTIL_HH
#define HDRD_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "instr/cost_model.hh"
#include "runtime/simulator.hh"
#include "trace/trace_program.hh"
#include "workloads/registry.hh"

namespace hdrd::bench
{

/** Parsed common CLI options. */
struct BenchOptions
{
    double scale = 1.0;
    std::uint32_t threads = 4;
    std::string suite;  // empty = both parallel suites
    bool quick = false;

    /** Parse argv; unknown flags are fatal (catches typos). */
    static BenchOptions
    parse(int argc, char **argv, double default_scale = 1.0)
    {
        BenchOptions opt;
        opt.scale = default_scale;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.rfind("--scale=", 0) == 0) {
                opt.scale = cli::parseDouble("scale", arg.substr(8),
                                             1e-6, 1e6);
            } else if (arg.rfind("--threads=", 0) == 0) {
                opt.threads =
                    cli::parseU32("threads", arg.substr(10), 1);
            } else if (arg.rfind("--suite=", 0) == 0) {
                opt.suite = arg.substr(8);
            } else if (arg == "--quick") {
                opt.quick = true;
                opt.scale = std::min(opt.scale, 0.05);
            } else {
                std::fprintf(stderr, "unknown option: %s\n",
                             arg.c_str());
                std::exit(2);
            }
        }
        return opt;
    }

    /** Workload parameters implied by the options. */
    workloads::WorkloadParams
    params() const
    {
        workloads::WorkloadParams p;
        p.nthreads = threads;
        p.scale = scale;
        return p;
    }

    /** The benchmark set selected by --suite (default: both). */
    std::vector<workloads::WorkloadInfo>
    selected() const
    {
        if (!suite.empty())
            return workloads::suiteWorkloads(suite);
        auto all = workloads::suiteWorkloads("phoenix");
        for (auto &info : workloads::suiteWorkloads("parsec"))
            all.push_back(info);
        return all;
    }
};

/** Run one workload under one tool mode with a given config tweak. */
inline runtime::RunResult
runMode(const workloads::WorkloadInfo &info,
        const workloads::WorkloadParams &params,
        runtime::SimConfig config, instr::ToolMode mode)
{
    config.mode = mode;
    auto program = info.factory(params);
    return runtime::Simulator::runWith(*program, config);
}

/**
 * Record registry workload @p name natively as a TRC2 image into
 * @p out (a string stream, or a file when the image must never sit
 * in memory). Exits on an unknown workload or a failed write.
 * @return recorded operations
 */
inline std::uint64_t
recordTrace(const std::string &name,
            const workloads::WorkloadParams &params, std::ostream &out)
{
    const workloads::WorkloadInfo *info = workloads::findWorkload(name);
    if (info == nullptr)
        fatal("workload not in registry: ", name);
    auto program = info->factory(params);
    trace::TraceWriter writer(out, program->name(),
                              program->numThreads());
    trace::RecordingProgram recording(*program, writer);
    runtime::SimConfig config;
    config.mode = instr::ToolMode::kNative;
    runtime::Simulator::runWith(recording, config);
    if (!writer.finalize())
        fatal("trace write failed for ", name);
    return writer.recorded();
}

/** Geometric mean of a non-empty vector. */
inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/** Arithmetic mean. */
inline double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

/** Print the standard experiment banner. */
inline void
banner(const char *id, const char *title, const BenchOptions &opt)
{
    std::printf("=== %s: %s ===\n", id, title);
    std::printf("(platform: %u cores, scale %.3g, %u threads; "
                "simulated cycles, not wall time)\n\n",
                runtime::SimConfig{}.mem.ncores, opt.scale,
                opt.threads);
}

} // namespace hdrd::bench

#endif // HDRD_BENCH_BENCH_UTIL_HH
