/**
 * @file
 * The streaming analysis subsystem: incremental trace ingestion with
 * live partial reports.
 *
 * A StreamSession turns a job from "buffer the whole trace, then
 * analyze" into a pull-based pipeline. The network plane feeds raw
 * TRC2 bytes as they arrive (feed()); the session parses them
 * incrementally with the streaming trace::TraceReader into bounded
 * per-thread operation queues; a dedicated engine thread runs the
 * Simulator over a Program whose thread bodies block-pop those
 * queues. Analysis therefore overlaps ingestion, and the session's
 * resident footprint is bounded by the credit window instead of the
 * trace length.
 *
 * Flow control is cumulative byte credit: the client may have sent at
 * most `granted` bytes in total, and the grant advances as the engine
 * consumes records, keeping buffered-but-unanalyzed bytes near
 * buffer_cap. When the engine starves on a thread whose records the
 * exhausted window is holding back (a heavily skewed thread
 * interleaving in the uploaded image), the session issues an
 * emergency grant beyond the cap rather than deadlocking — the
 * memory cap is firm for well-interleaved traces and soft against
 * adversarial ones.
 *
 * Determinism: the simulator's schedule is a pure function of
 * (trace, config); thread bodies blocking inside next() only delay
 * the host, never reorder the simulated interleaving, and
 * nextIsPure() == false opts out of the (behavior-neutral) prefetch
 * path. Final streamed reports are byte-identical to the buffered
 * path's, and every partial snapshot is emitted at a deterministic
 * executed-op count, so partial N of a job is byte-stable too.
 *
 * Thread model: feed()/end()/abort() are called by the owning I/O
 * shard thread and never block. Callbacks fire on either the feeding
 * thread (credit) or the engine thread (credit, partials, the final
 * report) and must be non-blocking and thread-safe — hdrd_served's
 * implementations only post completions to a shard inbox.
 */

#ifndef HDRD_STREAM_STREAM_SESSION_HH
#define HDRD_STREAM_STREAM_SESSION_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hh"
#include "runtime/op.hh"
#include "runtime/simulator.hh"
#include "service/job.hh"
#include "service/protocol.hh"
#include "trace/trace_io.hh"

namespace hdrd::service
{
class Metrics;
}

namespace hdrd::stream
{

/** Everything a StreamSession is parameterized by. */
struct StreamConfig
{
    /** Analysis options, exactly as for a buffered SUBMIT_JOB. */
    service::JobOptions options;

    /** Daemon-wide base configuration the options overlay. */
    runtime::SimConfig base;

    /** Target bound on buffered-but-unanalyzed bytes. */
    std::uint64_t buffer_cap = 4ull << 20;

    /** Granularity of credit advances (bytes per CREDIT frame). */
    std::uint64_t credit_quantum = 256 * 1024;

    /** Executed ops between partial reports (0 = no partials). */
    std::uint64_t partial_interval = 1ull << 20;

    /** Observability registry (nullptr = unmonitored). */
    service::Metrics *metrics = nullptr;
};

/**
 * Session event sinks. See the file comment for threading rules; any
 * callback may be empty.
 */
struct StreamCallbacks
{
    /** New cumulative byte grant for the uploader. */
    std::function<void(std::uint64_t granted_total)> on_credit;

    /** A finalized hdrd-report-partial-v1 snapshot. */
    std::function<void(std::uint64_t seq, const std::string &json)>
        on_partial;

    /**
     * Terminal event, fired exactly once: the final hdrd-report-v1
     * (ok) or an error JSON (rejected trace, truncation, abort).
     */
    std::function<void(bool ok, const std::string &json)> on_done;
};

/**
 * One live streaming analysis job. Create, start(), then feed bytes
 * until end(); abort() (idempotent) cancels from any state. The
 * destructor aborts and joins the engine thread.
 */
class StreamSession
{
  public:
    StreamSession(StreamConfig config, StreamCallbacks callbacks);

    /** Aborts if still running and joins the engine thread. */
    ~StreamSession();

    StreamSession(const StreamSession &) = delete;
    StreamSession &operator=(const StreamSession &) = delete;

    /** Issue the initial credit grant and launch the engine. */
    void start();

    /**
     * Ingest @p len trace bytes (chunk boundaries arbitrary). Never
     * blocks: bytes beyond parseable records buffer internally.
     * @return false with @p err set on a protocol violation (credit
     *         overrun, data after end()); trace-level problems travel
     *         through on_done instead.
     */
    bool feed(const char *data, std::size_t len, std::string &err);

    /** No further bytes: finish parsing, let the engine drain. */
    void end();

    /**
     * Cancel from any state (client hangup, daemon shutdown). The
     * engine unwinds through the simulator's cancellation path and
     * on_done reports the abort; safe to call repeatedly and after
     * completion.
     */
    void abort();

    /** True once on_done has fired (the engine is about to exit). */
    bool finished() const
    {
        return finished_.load(std::memory_order_acquire);
    }

    /** Block until the engine thread exits (cheap after finished()). */
    void joinEngine();

    /** Cumulative grant so far (tests; racy snapshot). */
    std::uint64_t grantedBytes();

  private:
    class EngineProgram;
    class EngineBody;

    void engineMain();

    /** Engine-side blocking pop of thread @p tid's next operation. */
    bool popOp(ThreadId tid, runtime::Op &op);

    /** Pump the reader over buffered bytes; mutex_ held. */
    void drainLocked();

    /** Poison the session and cancel the engine; mutex_ held. */
    void failLocked(const std::string &message);

    /** Account @p n consumed bytes toward credit; mutex_ held. */
    void noteConsumedLocked(std::uint64_t n);

    /** Advance the grant if a quantum freed up; mutex_ held.
     *  @return the new cumulative grant to announce, or 0. */
    std::uint64_t maybeGrantLocked();

    void fireCredit(std::uint64_t granted_total);

    /** Fire on_done exactly once and settle the gauges. */
    void finish(bool ok, const std::string &json);

    StreamConfig config_;
    StreamCallbacks callbacks_;

    std::mutex mutex_;
    std::condition_variable cv_;

    /** Raw received-but-unparsed bytes (consumed from the front). */
    trace::ByteQueue buf_;

    service::JobIngest ingest_{buf_, trace::TraceReader::kUnknownSize,
                               config_.options};

    /** Parsed-but-unexecuted operations, per thread. */
    std::vector<std::deque<runtime::Op>> queues_;

    // --- credit accounting (bytes, cumulative) ---
    std::uint64_t received_ = 0;
    std::uint64_t granted_ = 0;
    std::uint64_t consumed_bytes_ = 0;

    /** Net stream.buffered_bytes gauge contribution outstanding. */
    std::int64_t net_gauge_ = 0;
    std::int64_t gauge_pending_ = 0;

    // --- parse / lifecycle state (mutex_) ---
    bool ended_ = false;

    /** No more operations will ever be queued (end or failure). */
    bool input_done_ = false;

    bool failed_ = false;
    std::string error_;

    /** The job, copied off ingest_ for the engine thread. */
    service::Job job_;

    std::atomic<bool> cancel_{false};
    std::atomic<bool> finished_{false};

    std::uint64_t partial_seq_ = 0;

    std::thread engine_;
};

} // namespace hdrd::stream

#endif // HDRD_STREAM_STREAM_SESSION_HH
