#include "service/connection.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "service/metrics.hh"
#include "service/server.hh"
#include "stream/stream_session.hh"
#include "trace/trace_format.hh"

namespace hdrd::service
{

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * Largest rejected-payload remainder worth discarding to keep the
 * connection; anything bigger closes it (same policy as HDS1.0).
 */
constexpr std::uint64_t kDrainCap = 16ULL << 20;

/** Socket bytes pulled per readiness event. */
constexpr std::size_t kReadChunk = 64 * 1024;

} // namespace

Connection::Connection(int fd, std::uint64_t id,
                       Server &server)
    : fd_(fd), id_(id), server_(server),
      token_(std::make_shared<std::atomic<bool>>(true))
{
}

Connection::~Connection()
{
    token_->store(false, std::memory_order_release);
    // Streaming uploads die with their uploader: the engine unwinds
    // through the simulator's cancellation path and the session's
    // buffered bytes are released.
    for (auto &entry : streams_)
        entry.second->abort();
    if (fd_ >= 0)
        ::close(fd_);
}

bool
Connection::rxPaused() const
{
    const std::uint32_t cap =
        std::max<std::uint32_t>(1, server_.maxPipeline());
    // Unflushed responses count against the cap: a client that
    // pipelines but never reads stalls its own connection instead of
    // growing the daemon's outbound queue without bound.
    return sequential_wait_
        || in_flight_ + outbox_.size() >= cap;
}

std::uint32_t
Connection::interest() const
{
    std::uint32_t mask = 0;
    if (!closing_ && !rxPaused())
        mask |= EPOLLIN;
    if (!outbox_.empty())
        mask |= EPOLLOUT;
    // A zero mask is legal: EPOLLHUP/EPOLLERR still get reported, so
    // a fully flow-paused connection cannot wedge its shard.
    return mask;
}

bool
Connection::onReadable()
{
    if (dead_)
        return false;
    if (closing_ || rxPaused())
        return true;

    char *dst = rx_.reserve(kReadChunk);
    ssize_t got;
    do {
        got = ::read(fd_, dst, kReadChunk);
    } while (got < 0 && errno == EINTR);
    const int read_errno = errno;
    rx_.commit(got > 0 ? static_cast<std::size_t>(got) : 0);
    if (got < 0)
        return read_errno == EAGAIN || read_errno == EWOULDBLOCK;
    if (got == 0)
        return false;  // peer closed
    return pump();
}

bool
Connection::onWritable()
{
    return flushOut();
}

bool
Connection::deliver(bool counted, bool keyed, std::uint64_t job_id,
                    FrameType base, std::string body)
{
    if (counted && in_flight_ > 0)
        --in_flight_;
    if (keyed) {
        FrameType type = base;
        if (base == FrameType::kReport)
            type = FrameType::kJobReport;
        else if (base == FrameType::kError)
            type = FrameType::kJobError;
        queueFrame(type, jobPayload(job_id, body));
        if (!counted
            && (base == FrameType::kReport
                || base == FrameType::kError)) {
            // A streaming session's final answer retires its id.
            streams_.erase(job_id);
        }
    } else {
        sequential_wait_ = false;
        queueFrame(base, body);
    }
    if (dead_)
        return false;
    // The response may have unpaused reading; frames the client sent
    // ahead can already be buffered.
    return pump();
}

bool
Connection::pump()
{
    for (;;) {
        if (dead_)
            return false;
        if (closing_ || rxPaused())
            return true;
        Step step = Step::kBlocked;
        switch (state_) {
          case RxState::kFrameHeader:
            step = handleFrameHeader();
            break;
          case RxState::kControl:
            step = handleControl();
            break;
          case RxState::kJobPrefix:
            step = handleJobPrefix();
            break;
          case RxState::kTrace:
            step = handleTrace();
            break;
          case RxState::kStreamData:
            step = handleStreamData();
            break;
          case RxState::kDrain:
            step = handleDrain();
            break;
        }
        if (step == Step::kFatal)
            return false;
        if (step == Step::kBlocked)
            return true;
    }
}

Connection::Step
Connection::handleFrameHeader()
{
    if (rx_.size() < sizeof(FrameHeader))
        return Step::kBlocked;
    std::memcpy(&header_, rx_.data(), sizeof(header_));
    rx_.consume(sizeof(header_));

    if (header_.magic != kFrameMagic) {
        protocolError("bad frame magic");
        return Step::kMore;
    }
    if (!validFrameType(header_.type)) {
        protocolError("unknown frame type "
                      + std::to_string(header_.type));
        return Step::kMore;
    }
    if (header_.length > kMaxFrameLength) {
        protocolError("frame length " + std::to_string(header_.length)
                      + " exceeds protocol limit");
        return Step::kMore;
    }
    server_.metrics().counter("server.frames_received").add();

    switch (static_cast<FrameType>(header_.type)) {
      case FrameType::kPing:
      case FrameType::kStats:
      case FrameType::kHello:
        // HELLO carries a u32 client minor version; the others are
        // empty (any payload is tolerated and discarded).
        control_need_ =
            static_cast<FrameType>(header_.type) == FrameType::kHello
            ? static_cast<std::size_t>(
                  std::min<std::uint64_t>(header_.length, 4))
            : 0;
        state_ = RxState::kControl;
        return Step::kMore;

      case FrameType::kSubmit:
      case FrameType::kSubmitJob:
        keyed_ = static_cast<FrameType>(header_.type)
            == FrameType::kSubmitJob;
        job_id_valid_ = false;
        prefix_need_ = sizeof(JobOptions)
            + (keyed_ ? sizeof(std::uint64_t) : 0);
        if (header_.length < prefix_need_)
            return rejectJob("submit payload too short for job "
                             "options",
                             header_.length);
        job_started_ = Clock::now();
        state_ = RxState::kJobPrefix;
        return Step::kMore;

      case FrameType::kSubmitStream:
      case FrameType::kAttach: {
        // Small fixed-shape control frames; the trace itself arrives
        // later as SUBMIT_DATA, so an oversized payload here is a
        // protocol violation, not a big upload.
        constexpr std::uint64_t cap = sizeof(std::uint64_t)
            + sizeof(std::uint32_t) + kMaxSessionName
            + sizeof(JobOptions);
        if (header_.length > cap) {
            protocolError("oversized stream control frame");
            return Step::kMore;
        }
        control_need_ = static_cast<std::size_t>(header_.length);
        state_ = RxState::kControl;
        return Step::kMore;
      }

      case FrameType::kSubmitEnd:
        if (header_.length < sizeof(std::uint64_t)) {
            protocolError("short SUBMIT_END frame");
            return Step::kMore;
        }
        control_need_ = sizeof(std::uint64_t);
        state_ = RxState::kControl;
        return Step::kMore;

      case FrameType::kSubmitData:
        if (header_.length < sizeof(std::uint64_t)) {
            protocolError("short SUBMIT_DATA frame");
            return Step::kMore;
        }
        stream_data_left_ = header_.length;
        stream_id_parsed_ = false;
        state_ = RxState::kStreamData;
        return Step::kMore;

      default:
        // A response frame type from a client is a protocol
        // violation; drop the connection once the error flushes.
        protocolError("unexpected response-type frame");
        return Step::kMore;
    }
}

Connection::Step
Connection::handleControl()
{
    if (rx_.size() < control_need_)
        return Step::kBlocked;
    const std::string payload(rx_.data(), control_need_);
    rx_.consume(control_need_);
    const std::uint64_t leftover = header_.length - control_need_;

    switch (static_cast<FrameType>(header_.type)) {
      case FrameType::kPing:
        queueFrame(FrameType::kPong,
                   std::string("{\"status\": \"ok\"}\n"));
        break;
      case FrameType::kStats:
        server_.metrics().counter("server.stats_requests").add();
        queueFrame(FrameType::kStatsReply, server_.statsJson());
        break;
      case FrameType::kHello:
        // The client's minor version is informational: every 1.x
        // client speaks a subset of what this server answers.
        server_.metrics().counter("server.hello_requests").add();
        queueFrame(FrameType::kHelloReply, server_.helloJson());
        break;
      case FrameType::kSubmitStream: {
        std::uint64_t job_id = 0;
        std::string name;
        JobOptions options;
        std::string err;
        if (!parseStreamOpen(payload, job_id, name, options, err)) {
            protocolError(err);
            return Step::kMore;
        }
        if (!validateJobOptions(options, err)) {
            server_.metrics().counter("server.jobs_invalid").add();
            queueFrame(FrameType::kJobError,
                       jobPayload(job_id, jsonError(err)));
        } else if (streams_.count(job_id) != 0) {
            queueFrame(FrameType::kJobError,
                       jobPayload(job_id,
                                  jsonError("stream job id already "
                                            "active on this "
                                            "connection")));
        } else {
            StreamOpenOutcome outcome =
                server_.streamOpen(*this, job_id, name, options);
            if (outcome.session == nullptr)
                queueFrame(outcome.busy ? FrameType::kJobBusy
                                        : FrameType::kJobError,
                           jobPayload(job_id, outcome.refusal_json));
            else
                streams_.emplace(job_id,
                                 std::move(outcome.session));
        }
        break;
      }

      case FrameType::kSubmitEnd: {
        std::uint64_t job_id = 0;
        std::memcpy(&job_id, payload.data(), sizeof(job_id));
        const auto it = streams_.find(job_id);
        // An unknown id is tolerated: the session may already have
        // answered (a rejected trace) and retired while the END was
        // in flight.
        if (it != streams_.end())
            it->second->end();
        break;
      }

      case FrameType::kAttach: {
        std::uint64_t follow_id = 0;
        std::string name;
        std::string err;
        if (!parseAttach(payload, follow_id, name, err)) {
            protocolError(err);
            return Step::kMore;
        }
        queueFrame(FrameType::kAttachReply,
                   jobPayload(follow_id, server_.streamAttach(
                                             *this, follow_id, name)));
        break;
      }

      default:
        break;
    }
    return finishFrame(leftover);
}

Connection::Step
Connection::handleJobPrefix()
{
    if (rx_.size() < prefix_need_)
        return Step::kBlocked;
    const char *p = rx_.data();
    if (keyed_) {
        std::memcpy(&job_id_, p, sizeof(job_id_));
        p += sizeof(job_id_);
        job_id_valid_ = true;
    }
    std::memcpy(&options_, p, sizeof(options_));
    rx_.consume(prefix_need_);
    trace_total_ = header_.length - prefix_need_;

    std::string err;
    if (!validateJobOptions(options_, err))
        return rejectJob(err, trace_total_);
    if (trace_total_ > server_.maxTraceBytes()) {
        server_.metrics().counter("server.jobs_invalid").add();
        // A body past the server limit is never worth draining.
        protocolError("trace exceeds server limit of "
                      + std::to_string(server_.maxTraceBytes())
                      + " bytes");
        return Step::kMore;
    }

    trace_start_ = rx_.consumed();
    ingest_.emplace(rx_, trace_total_, options_);
    building_.clear();
    state_ = RxState::kTrace;
    return Step::kMore;
}

Connection::Step
Connection::handleTrace()
{
    // The ingest decodes only as far as this trace's bytes are
    // buffered — the header the moment it is in (a bad trace is
    // refused before one record byte is buffered), then whole
    // records as they arrive — so it never reads past the trace.
    const auto available = [this] {
        return std::min<std::uint64_t>(rx_.size(), traceLeft());
    };
    if (!ingest_->headerReady()) {
        if (!ingest_->readHeader(available()))
            return ingest_->failed() ? rejectTrace() : Step::kBlocked;
        building_.assign(ingest_->job().nthreads, {});
    }
    const bool ok = ingest_->decode(
        [this](const trace::TraceRecord *records, std::size_t n) {
            for (std::size_t i = 0; i < n; ++i)
                building_[records[i].tid].push_back(records[i].toOp());
        },
        available());
    if (!ok)
        return rejectTrace();
    if (!ingest_->done())
        return Step::kBlocked;
    return finishTrace();
}

Connection::Step
Connection::rejectTrace()
{
    server_.metrics().counter("server.traces_rejected").add();
    return rejectJob(ingest_->error(), traceLeft());
}

Connection::Step
Connection::finishTrace()
{
    Metrics &metrics = server_.metrics();
    metrics.counter("server.trace_bytes_received").add(trace_total_);
    metrics.histogram("job.trace_read_us").recordSince(job_started_);

    const Job &job = ingest_->job();
    auto data = std::make_shared<trace::TraceData>(
        trace::TraceData::fromOps(job.trace, std::move(building_)));
    building_.clear();

    const std::optional<std::string> busy = server_.dispatchJob(
        *this, keyed_, job_id_, job, std::move(data));
    if (busy) {
        queueFrame(keyed_ ? FrameType::kJobBusy : FrameType::kBusy,
                   keyed_ ? jobPayload(job_id_, *busy) : *busy);
    } else {
        ++in_flight_;
        if (!keyed_) {
            // HDS1.0 sequential semantics: nothing further is parsed
            // until this SUBMIT's response has been queued.
            sequential_wait_ = true;
        }
    }
    return finishFrame();
}

Connection::Step
Connection::handleStreamData()
{
    if (!stream_id_parsed_) {
        if (rx_.size() < sizeof(std::uint64_t))
            return Step::kBlocked;
        std::uint64_t job_id = 0;
        std::memcpy(&job_id, rx_.data(), sizeof(job_id));
        rx_.consume(sizeof(job_id));
        stream_data_left_ -= sizeof(job_id);
        stream_id_parsed_ = true;
        const auto it = streams_.find(job_id);
        if (it == streams_.end()) {
            // The session already answered and retired (e.g. a
            // rejected trace) while the client kept uploading within
            // its credit; discard the remainder to keep framing.
            const std::uint64_t rest = stream_data_left_;
            stream_data_left_ = 0;
            return finishFrame(rest);
        }
        data_stream_ = it->second;
    }

    while (stream_data_left_ > 0) {
        const std::size_t take = static_cast<std::size_t>(
            std::min<std::uint64_t>(rx_.size(),
                                    stream_data_left_));
        if (take == 0)
            return Step::kBlocked;
        std::string err;
        if (!data_stream_->feed(rx_.data(), take, err)) {
            protocolError(err);
            return Step::kMore;
        }
        server_.metrics().counter("stream.bytes_received")
            .add(take);
        rx_.consume(take);
        stream_data_left_ -= take;
    }
    return finishFrame();
}

Connection::Step
Connection::handleDrain()
{
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(drain_left_, rx_.size()));
    rx_.consume(take);
    drain_left_ -= take;
    if (drain_left_ > 0)
        return Step::kBlocked;
    resetFrame();
    state_ = RxState::kFrameHeader;
    return Step::kMore;
}

Connection::Step
Connection::finishFrame(std::uint64_t leftover)
{
    if (dead_)
        return Step::kFatal;
    if (leftover > kDrainCap) {
        // Implausibly much to discard: answer, then hang up.
        closing_ = true;
        return Step::kMore;
    }
    drain_left_ = leftover;
    state_ = RxState::kDrain;
    return Step::kMore;
}

Connection::Step
Connection::rejectJob(const std::string &message,
                      std::uint64_t leftover)
{
    server_.metrics().counter("server.jobs_invalid").add();
    if (leftover > kDrainCap) {
        // Too much unread payload to be worth discarding.
        protocolError(message);
        return Step::kMore;
    }
    if (keyed_ && job_id_valid_)
        queueFrame(FrameType::kJobError,
                   jobPayload(job_id_, jsonError(message)));
    else
        queueFrame(FrameType::kError, jsonError(message));
    return finishFrame(leftover);
}

void
Connection::protocolError(const std::string &message)
{
    queueFrame(FrameType::kError, jsonError(message));
    closing_ = true;
}

void
Connection::queueFrame(FrameType type, const std::string &payload)
{
    FrameHeader header;
    header.type = static_cast<std::uint32_t>(type);
    header.length = payload.size();
    OutBuf buf;
    buf.bytes.reserve(sizeof(header) + payload.size());
    buf.bytes.append(reinterpret_cast<const char *>(&header),
                     sizeof(header));
    buf.bytes.append(payload);
    outbox_.push_back(std::move(buf));
    flushOut();
}

bool
Connection::flushOut()
{
    if (dead_)
        return false;
    while (!outbox_.empty()) {
        OutBuf &front = outbox_.front();
        const std::size_t left = front.bytes.size() - front.off;
        ssize_t put;
        do {
            // MSG_NOSIGNAL: a peer that vanished mid-response must
            // surface as EPIPE, not kill the embedding process.
            put = ::send(fd_, front.bytes.data() + front.off, left,
                         MSG_NOSIGNAL);
        } while (put < 0 && errno == EINTR);
        if (put < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return true;
            dead_ = true;
            return false;
        }
        front.off += static_cast<std::size_t>(put);
        if (front.off == front.bytes.size())
            outbox_.pop_front();
    }
    return true;
}

void
Connection::resetFrame()
{
    keyed_ = false;
    job_id_valid_ = false;
    job_id_ = 0;
    prefix_need_ = 0;
    control_need_ = 0;
    trace_total_ = 0;
    ingest_.reset();
    building_.clear();
    drain_left_ = 0;
    data_stream_.reset();
    stream_data_left_ = 0;
    stream_id_parsed_ = false;
}

} // namespace hdrd::service
