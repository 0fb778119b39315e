/**
 * @file
 * The daemon's job contract, shared by buffered jobs (SUBMIT /
 * SUBMIT_JOB: a pooled, reused engine over pure TraceProgram bodies)
 * and streamed jobs (SUBMIT_STREAM: the session's own engine thread,
 * running while the trace uploads). Each decision that defines a job
 * lives here once: header validation and fault-spec resolution plus
 * the record-decode loop (JobIngest), the JobOptions -> SimConfig
 * mapping (Job::simConfig), the run (runJob) and the report
 * (Job::reportJson). A run that cannot complete — a deadlock or a
 * sync-op misuse in the trace, a cancelled job — is a per-job ERROR.
 */

#ifndef HDRD_SERVICE_JOB_HH
#define HDRD_SERVICE_JOB_HH

#include <cstdint>
#include <functional>
#include <string>

#include "pmu/faults.hh"
#include "runtime/simulator.hh"
#include "service/protocol.hh"
#include "trace/trace_io.hh"

namespace hdrd::service
{

/** What the client's options and the trace header fix about a job. */
struct Job
{
    JobOptions options;

    /** Program name from the trace header. */
    std::string trace;
    std::uint32_t nthreads = 0;

    /** The resolved fault model (pass-through when clean). */
    pmu::FaultConfig faults;

    /** The engine configuration: @p base overlaid with the options. */
    runtime::SimConfig simConfig(const runtime::SimConfig &base) const;

    /**
     * The report of @p result: hdrd-report-v1 when @p partial_seq is
     * 0 (host timing included unless the client opted out), else
     * partial snapshot @p partial_seq.
     */
    std::string reportJson(const runtime::RunResult &result,
                           std::uint64_t partial_seq = 0,
                           double host_ms = 0.0) const;
};

/**
 * Incremental decoder of one job's TRC2 body: validates the header
 * (and resolves the job's fault spec) as soon as its bytes are in,
 * then hands whole records to a sink batch by batch. A dry source is
 * a stall, resumed by the next call, until endOfStream(). A body of
 * known length is checked against its header and decoded to exactly
 * that length, so the source may also hold the bytes that follow it.
 */
class JobIngest
{
  public:
    using RecordSink =
        std::function<void(const trace::TraceRecord *, std::size_t)>;

    /**
     * @param total_bytes body length, or TraceReader::kUnknownSize
     *        for a streamed body
     */
    JobIngest(trace::ByteSource &source, std::uint64_t total_bytes,
              const JobOptions &options);

    /**
     * @return true once the header is accepted (job() is valid);
     *         false while starved or once failed().
     */
    bool readHeader();

    /**
     * Decode every whole record the source holds.
     * @return false once the trace is refused (see error()).
     */
    bool decode(const RecordSink &sink);

    /** No further bytes will arrive. */
    void endOfStream() { reader_.endOfStream(); }

    /** Every declared record was decoded. */
    bool done() const { return reader_.done(); }

    bool headerReady() const { return header_ready_; }
    bool failed() const { return !error_.empty(); }
    const std::string &error() const { return error_; }
    const Job &job() const { return job_; }
    std::uint64_t recordCount() const { return reader_.recordCount(); }

  private:
    trace::TraceReader reader_;
    bool header_ready_ = false;
    std::string error_;
    Job job_;
};

/** A job's answer: a REPORT payload, or an ERROR payload when !ok. */
struct JobAnswer
{
    bool ok = false;
    std::string json;
};

/**
 * Run @p program as @p job on @p engine, reconfigured over @p base.
 * A run that does not complete answers an ERROR with its message.
 */
JobAnswer runJob(runtime::Simulator &engine,
                 const runtime::SimConfig &base, const Job &job,
                 runtime::Program &program,
                 runtime::RunObserver *observer = nullptr);

} // namespace hdrd::service

#endif // HDRD_SERVICE_JOB_HH
