/**
 * @file
 * perfbench — the hdrd benchmark driver.
 *
 *   perfbench --workload scan|shared --seed N --seconds S
 *             --trace 0|1 --served PATH --work-dir DIR
 *
 * A run has two phases, each given half of the seconds: the engine
 * phase runs the workload's program in-process, then the serve phase
 * drives the daemon. Every run thus reports every metric. Prints each
 * metric with its unit and sample count, the host/build
 * stamp, every failed check, and (traced runs) the per-layer self
 * times; the last line is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * holding the end-to-end metrics, or with --trace 1 the per-layer
 * ones. perfbench/run.py builds this binary and runs it.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload scan|shared --seed N "
                 "--seconds S --trace 0|1 --served PATH --work-dir DIR\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            opt.workload = value;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(value, &end, 10);
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(value, &end);
        } else if (key == "--trace") {
            opt.trace = std::strcmp(value, "1") == 0;
        } else if (key == "--served") {
            opt.served = value;
        } else if (key == "--work-dir") {
            opt.work_dir = value;
        } else {
            usage(("unknown option " + key).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("bad number for " + key).c_str());
    }
    if (argc % 2 != 1)
        usage("options come in --key value pairs");
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads), opt.workload)
        == std::end(kWorkloads))
        usage("unknown workload");
    if (!(opt.seconds > 0.0) || opt.work_dir.empty() || opt.served.empty())
        usage("need --seconds > 0, --served and --work-dir");
    return opt;
}

void
printMetrics(const char *kind, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics) {
        std::printf("%-10s %-30s %16.6f %-7s n=%zu\n", kind, m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    std::printf("# stamp %s\n", hostStamp().c_str());
    std::printf("# workload %s seed %llu seconds %g trace %d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::fflush(stdout);

    Result result;
    runEnginePhase(opt, opt.seconds / 2, result);
    runServePhase(opt, opt.seconds / 2, result);
    double setup_s = 0.0;
    std::size_t setup_n = 0, phases = 0;
    for (const Metric &m : result.per_layer) {
        if (m.name == "setup.engine_s" || m.name == "setup.serve_s") {
            setup_s += m.value;
            setup_n += m.samples;
            ++phases;
        }
    }
    if (phases == 2)
        result.end_to_end.push_back({"setup_s", "s", setup_s, setup_n});
    else
        result.fail("a phase ended before reporting its set-up time");

    if (opt.trace) {
        std::size_t spans = 0;
        const double unaccounted = Tracer::instance().report(
            opt.work_dir + "/spans-" + opt.workload + ".jsonl", spans);
        result.per_layer.push_back(
            {"trace.unaccounted_pct", "%", unaccounted, spans});
        result.per_layer.push_back(
            {"trace.spans", "count", static_cast<double>(spans), spans});
    }
    printMetrics("end2end", result.end_to_end);
    printMetrics("layer", result.per_layer);

    const std::vector<Metric> &reported =
        opt.trace ? result.per_layer : result.end_to_end;
    for (const Metric &m : reported) {
        if (!std::isfinite(m.value))
            result.fail("metric " + m.name + " is not a finite number");
    }
    std::size_t shown = 0;
    for (const std::string &f : result.failures) {
        if (shown++ < 20)
            std::printf("# FAILED: %s\n", f.c_str());
    }
    if (result.failures.size() > 20)
        std::printf("# ... %zu failures in all\n", result.failures.size());
    std::printf("# checks: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));

    const bool correct = result.failed == 0 && result.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    const char *sep = "";
    for (const Metric &m : reported) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                    m.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
    return 0;
}
