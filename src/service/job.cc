#include "service/job.hh"

#include <chrono>

#include "service/report_json.hh"

namespace hdrd::service
{

namespace
{

/** Record-decode batch size. */
constexpr std::size_t kBatch = 512;

} // namespace

runtime::SimConfig
Job::simConfig(const runtime::SimConfig &base) const
{
    runtime::SimConfig config = base;
    config.mode = static_cast<instr::ToolMode>(options.mode);
    config.detector =
        static_cast<runtime::DetectorKind>(options.detector);
    config.gating.hitm_counter.sample_after = options.sav;
    config.granule_shift = options.granule_shift;
    config.mem.ncores = options.cores;
    config.seed = options.seed;
    config.faults = faults;
    return config;
}

std::string
Job::reportJson(const runtime::RunResult &result,
                std::uint64_t partial_seq, double host_ms) const
{
    JobReport report;
    report.trace = trace;
    report.nthreads = nthreads;
    report.options = options;
    report.fault_spec = pmu::faultSpec(faults);
    report.result = &result;
    report.partial_seq = partial_seq;
    report.include_host_timing =
        partial_seq == 0 && !(options.flags & kJobOmitHostTiming);
    report.host_ms = host_ms;
    return jobReportJson(report);
}

JobIngest::JobIngest(trace::ByteSource &source,
                     std::uint64_t total_bytes,
                     const JobOptions &options)
    : reader_(source, total_bytes)
{
    job_.options = options;
}

bool
JobIngest::readHeader()
{
    if (header_ready_ || failed())
        return header_ready_;
    if (!reader_.readHeader()) {
        if (!reader_.error().empty())
            error_ = "trace rejected: " + reader_.error();
        return false;  // else the header is still incomplete
    }
    job_.trace = reader_.name();
    job_.nthreads = reader_.nthreads();

    // Resolve the fault spec exactly like `hdrd_sim --replay`: an
    // explicit override wins, else the trace's recorded spec unless
    // the client opted out.
    std::string spec(job_.options.fault_spec.data());
    if (spec.empty() && !(job_.options.flags & kJobIgnoreTraceFaults))
        spec = reader_.faultSpec();
    std::string err;
    if (!spec.empty() && spec != "none"
        && !pmu::resolveFaultSpec(spec, job_.faults, err)) {
        error_ = "trace carries unusable fault spec: " + err;
        return false;
    }
    header_ready_ = true;
    return true;
}

bool
JobIngest::decode(const RecordSink &sink)
{
    if (!header_ready_ || failed())
        return !failed();
    trace::TraceRecord batch[kBatch];
    while (!reader_.done()) {
        const std::size_t got = reader_.next(batch, kBatch);
        if (got > 0)
            sink(batch, got);
        if (!reader_.error().empty()) {
            error_ = "trace rejected: " + reader_.error();
            return false;
        }
        if (got == 0)
            break;  // the next record's bytes are not in yet
    }
    return true;
}

JobAnswer
runJob(runtime::Simulator &engine, const runtime::SimConfig &base,
       const Job &job, runtime::Program &program,
       runtime::RunObserver *observer)
{
    engine.reconfigure(job.simConfig(base));
    const auto t_start = std::chrono::steady_clock::now();
    const runtime::RunResult result = engine.run(program, observer);
    const std::chrono::duration<double, std::milli> host_ms =
        std::chrono::steady_clock::now() - t_start;
    if (!result.completed())
        return {false, jsonError(result.error)};
    return {true, job.reportJson(result, 0, host_ms.count())};
}

} // namespace hdrd::service
