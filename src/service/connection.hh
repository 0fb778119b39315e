/**
 * @file
 * The per-connection protocol state machine of the epoll I/O plane.
 *
 * A Connection owns one non-blocking client socket and parses HDS1
 * frames incrementally from whatever bytes have arrived: frame
 * header, job prefix (options, and the job id for pipelined
 * SUBMIT_JOB frames), then the trace body, which streams straight
 * into the incremental trace::TraceReader in chunks — the TRC2
 * header is validated as soon as its bytes are in, records are
 * decoded batch-by-batch as they arrive, and the daemon never holds
 * a complete trace image in a socket buffer. The reader knows the
 * body's length from the frame, so it stops at the trace's last byte
 * even when the next pipelined frame is already buffered behind it.
 *
 * Writes are asymmetric: responses go to an outbound queue flushed
 * opportunistically and on EPOLLOUT, so a slow or stalled reader can
 * never block the shard thread (it just accumulates its own bounded
 * backlog of at most max-pipeline responses).
 *
 * Flow control is interest-mask based, not thread-blocking:
 *  - a classic SUBMIT pauses reading until its response is queued
 *    (sequential request/response semantics, exactly HDS1.0);
 *  - pipelined SUBMIT_JOB frames keep reading until the per-
 *    connection in-flight cap, then reading pauses and TCP
 *    backpressure holds the client until completions free slots.
 *
 * The Connection runs entirely on its shard thread; the only
 * cross-thread artifact is the liveness token workers check before
 * running a job whose client has hung up.
 */

#ifndef HDRD_SERVICE_CONNECTION_HH
#define HDRD_SERVICE_CONNECTION_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "service/job.hh"
#include "service/protocol.hh"
#include "trace/trace_io.hh"

namespace hdrd::stream
{
class StreamSession;
}

namespace hdrd::service
{

class Server;

/** Verdict of a streaming-submission open (HDS1.2). */
struct StreamOpenOutcome
{
    /** The live session to feed; null when refused. */
    std::shared_ptr<stream::StreamSession> session;

    /** Refused for capacity (JOB_BUSY) rather than error. */
    bool busy = false;

    /** Refusal payload (busy or error JSON) when session is null. */
    std::string refusal_json;
};

class Connection
{
  public:
    /**
     * Adopt @p fd (set non-blocking by the caller).
     * @param id the shard-unique tag used in the event loop
     */
    Connection(int fd, std::uint64_t id, Server &server);

    /** Closes the socket and invalidates the liveness token. */
    ~Connection();

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    int fd() const { return fd_; }
    std::uint64_t id() const { return id_; }

    /**
     * Socket readable: pull one chunk and run the state machine.
     * @return false when the connection must be dropped (peer close
     *         or fatal I/O error).
     */
    bool onReadable();

    /** Socket writable: flush the outbound queue. */
    bool onWritable();

    /**
     * Deliver a completed job's response (shard thread, from the
     * completion inbox). Unpauses sequential/pipelined reading and
     * resumes parsing any already-buffered frames.
     * @param counted true for worker-pool jobs occupying an
     *        in-flight slot; false for streaming-session events
     *        (CREDIT, JOB_PARTIAL, and stream finals), which never
     *        counted against the pipeline cap
     * @param base kReport or kError (mapped to the job-keyed type
     *        when the submit was pipelined), or an already-keyed
     *        HDS1.2 type (kCredit/kJobPartial/kAttachReply) passed
     *        through verbatim
     * @return false when the connection must be dropped.
     */
    bool deliver(bool counted, bool keyed, std::uint64_t job_id,
                 FrameType base, std::string body);

    /** Current epoll interest mask (EPOLLIN/EPOLLOUT bits). */
    std::uint32_t interest() const;

    /** Interest mask last synced into the event loop (by the shard). */
    std::uint32_t lastInterest() const { return last_interest_; }
    void setLastInterest(std::uint32_t m) { last_interest_ = m; }

    /** A queued protocol error has flushed; time to close. */
    bool wantClose() const
    {
        return closing_ && outbox_.empty();
    }

    /** Nothing in flight, nothing buffered out (drain may close). */
    bool idle() const
    {
        return in_flight_ == 0 && outbox_.empty();
    }

    /**
     * Liveness token shared with dispatched jobs: cleared when the
     * connection dies so workers skip abandoned work.
     */
    std::shared_ptr<std::atomic<bool>> token() const
    {
        return token_;
    }

  private:
    enum class RxState
    {
        kFrameHeader,   ///< accumulating the 16-byte frame header
        kControl,       ///< PING/STATS/HELLO and stream control
        kJobPrefix,     ///< job id (keyed) + JobOptions
        kTrace,         ///< streaming the TRC2 body into the reader
        kStreamData,    ///< forwarding SUBMIT_DATA into a session
        kDrain,         ///< discarding a rejected payload remainder
    };

    /** One state-machine step's verdict. */
    enum class Step
    {
        kMore,      ///< progressed; run the machine again
        kBlocked,   ///< needs more input (or is flow-paused)
        kFatal,     ///< unrecoverable; drop the connection now
    };

    /** Bytes of the current trace body not yet consumed. */
    std::uint64_t traceLeft() const
    {
        return trace_total_ - (rx_.consumed() - trace_start_);
    }

    /** True while reading is paused by flow control. */
    bool rxPaused() const;

    /** Run the state machine over the buffered bytes. */
    bool pump();

    Step handleFrameHeader();
    Step handleControl();
    Step handleJobPrefix();
    Step handleTrace();
    Step handleStreamData();
    Step handleDrain();

    /** Completed trace: dispatch the job. */
    Step finishTrace();

    /** The ingest refused the trace: answer its error. */
    Step rejectTrace();

    /**
     * Queue an ERROR (job-keyed when applicable), then discard
     * @p leftover payload bytes to keep framing; an implausibly
     * large leftover closes the connection instead.
     */
    Step rejectJob(const std::string &message,
                   std::uint64_t leftover);

    /**
     * Done with this frame: discard its @p leftover payload bytes,
     * then parse the next one (close instead past the drain cap).
     */
    Step finishFrame(std::uint64_t leftover = 0);

    /** Queue a fatal protocol error and close once it flushes. */
    void protocolError(const std::string &message);

    void queueFrame(FrameType type, const std::string &payload);

    /** Write as much of the outbox as the socket accepts. */
    bool flushOut();

    /** Reset per-job parse fields for the next frame. */
    void resetFrame();

    int fd_;
    std::uint64_t id_;
    Server &server_;
    std::shared_ptr<std::atomic<bool>> token_;

    // --- inbound ---
    trace::ByteQueue rx_;
    RxState state_ = RxState::kFrameHeader;
    FrameHeader header_{};

    /** Control-frame fields. */
    std::size_t control_need_ = 0;

    /** Submit-frame fields. */
    bool keyed_ = false;
    bool job_id_valid_ = false;
    std::uint64_t job_id_ = 0;
    JobOptions options_{};
    std::size_t prefix_need_ = 0;

    /**
     * Trace-streaming fields (the ingest reads straight off rx_, and
     * never more than trace_total_ bytes of it).
     */
    std::optional<JobIngest> ingest_;
    std::uint64_t trace_total_ = 0;
    std::uint64_t trace_start_ = 0;
    std::vector<std::vector<runtime::Op>> building_;
    std::chrono::steady_clock::time_point job_started_{};

    /** Drain fields. */
    std::uint64_t drain_left_ = 0;

    /**
     * Live streaming sessions this connection is uploading, keyed by
     * wire job id; entries retire when the final response delivers.
     * The destructor aborts whatever is still running, so a client
     * that hangs up mid-stream reclaims its session promptly.
     */
    std::map<std::uint64_t,
             std::shared_ptr<stream::StreamSession>> streams_;

    /** Target of the SUBMIT_DATA frame currently being forwarded. */
    std::shared_ptr<stream::StreamSession> data_stream_;
    std::uint64_t stream_data_left_ = 0;
    bool stream_id_parsed_ = false;

    /** Sequential SUBMIT awaiting its response. */
    bool sequential_wait_ = false;

    std::uint32_t in_flight_ = 0;
    bool closing_ = false;

    /** A write hit a fatal error; the connection is unusable. */
    bool dead_ = false;

    // --- outbound ---
    struct OutBuf
    {
        std::string bytes;
        std::size_t off = 0;
    };
    std::deque<OutBuf> outbox_;

    std::uint32_t last_interest_ = 0;
};

} // namespace hdrd::service

#endif // HDRD_SERVICE_CONNECTION_HH
