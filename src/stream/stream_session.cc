#include "stream/stream_session.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "runtime/program.hh"
#include "service/metrics.hh"
#include "trace/trace_format.hh"

namespace hdrd::stream
{

namespace
{

/** Flush the buffered-bytes gauge after this much consumption. */
constexpr std::int64_t kGaugeFlush = 64 * 1024;

} // namespace

/**
 * The session's face to the simulator: per-thread bodies that block
 * inside next() until ingestion catches up. nextIsPure() is false so
 * the simulator never prefetches — a body must only block when the
 * scheduler genuinely needs its thread's next operation.
 */
class StreamSession::EngineBody : public runtime::ThreadBody
{
  public:
    EngineBody(StreamSession &session, ThreadId tid)
        : session_(session), tid_(tid)
    {
    }

    bool next(runtime::Op &op) override
    {
        return session_.popOp(tid_, op);
    }

    bool nextIsPure() const override { return false; }

  private:
    StreamSession &session_;
    ThreadId tid_;
};

class StreamSession::EngineProgram : public runtime::Program
{
  public:
    explicit EngineProgram(StreamSession &session)
        : session_(session)
    {
    }

    const std::string &name() const override
    {
        return session_.job_.trace;
    }

    std::uint32_t numThreads() const override
    {
        return session_.job_.nthreads;
    }

    std::unique_ptr<runtime::ThreadBody>
    makeThread(ThreadId tid) override
    {
        return std::make_unique<EngineBody>(session_, tid);
    }

  private:
    StreamSession &session_;
};

StreamSession::StreamSession(StreamConfig config,
                             StreamCallbacks callbacks)
    : config_(std::move(config)), callbacks_(std::move(callbacks))
{
    hdrdAssert(config_.buffer_cap >= sizeof(trace::TraceHeader),
               "stream buffer cap smaller than a trace header");
    config_.credit_quantum = std::max<std::uint64_t>(
        1, std::min(config_.credit_quantum, config_.buffer_cap));
    if (config_.metrics != nullptr) {
        config_.metrics->counter("stream.sessions_opened").add();
        config_.metrics->gauge("stream.active_sessions").add();
    }
}

StreamSession::~StreamSession()
{
    abort();
    joinEngine();
}

void
StreamSession::start()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        granted_ = config_.buffer_cap;
    }
    fireCredit(config_.buffer_cap);
    engine_ = std::thread([this] { engineMain(); });
}

bool
StreamSession::feed(const char *data, std::size_t len,
                    std::string &err)
{
    std::uint64_t grant = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (failed_ || finished()) {
            // The session is unwinding or already answered (a failed
            // run ends it early); frames already in flight from the
            // client are tolerated and discarded.
            return true;
        }
        if (ended_) {
            err = "stream data after SUBMIT_END";
            return false;
        }
        if (received_ + len > granted_) {
            err = "stream credit exceeded ("
                + std::to_string(received_ + len) + " sent, "
                + std::to_string(granted_) + " granted)";
            return false;
        }
        received_ += len;
        buf_.append(data, len);
        net_gauge_ += static_cast<std::int64_t>(len);
        if (config_.metrics != nullptr)
            config_.metrics->gauge("stream.buffered_bytes")
                .add(static_cast<std::int64_t>(len));
        drainLocked();
        grant = maybeGrantLocked();
        cv_.notify_all();
    }
    if (grant != 0)
        fireCredit(grant);
    return true;
}

void
StreamSession::end()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (failed_ || ended_)
        return;
    ended_ = true;
    ingest_.endOfStream();
    drainLocked();
    cv_.notify_all();
}

void
StreamSession::abort()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (failed_ || finished_.load(std::memory_order_acquire))
        return;
    if (config_.metrics != nullptr)
        config_.metrics->counter("stream.aborts").add();
    failLocked("streaming session aborted");
}

void
StreamSession::joinEngine()
{
    if (engine_.joinable())
        engine_.join();
}

std::uint64_t
StreamSession::grantedBytes()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return granted_;
}

void
StreamSession::drainLocked()
{
    if (failed_)
        return;

    if (!ingest_.headerReady()) {
        if (!ingest_.readHeader()) {
            if (ingest_.failed())
                failLocked(ingest_.error());
            return;  // starved: resume on the next feed (or end)
        }
        // Header landed: everything the engine needs to configure
        // itself is now known.
        noteConsumedLocked(buf_.consumed());
        job_ = ingest_.job();
        queues_.resize(job_.nthreads);
        cv_.notify_all();
    }

    const bool ok = ingest_.decode(
        [this](const trace::TraceRecord *records, std::size_t n) {
            for (std::size_t i = 0; i < n; ++i)
                queues_[records[i].tid].push_back(records[i].toOp());
        });
    if (!ok) {
        failLocked(ingest_.error());
        return;
    }

    if (ingest_.done() && ended_ && !input_done_) {
        const std::size_t leftover = buf_.size();
        if (leftover > 0) {
            failLocked(std::to_string(leftover)
                       + " bytes of trailing garbage after "
                       + std::to_string(ingest_.recordCount())
                       + " records");
            return;
        }
        input_done_ = true;
        cv_.notify_all();
    }
}

void
StreamSession::failLocked(const std::string &message)
{
    if (failed_)
        return;
    failed_ = true;
    error_ = message;
    input_done_ = true;
    cancel_.store(true, std::memory_order_release);
    cv_.notify_all();
}

void
StreamSession::noteConsumedLocked(std::uint64_t n)
{
    consumed_bytes_ += n;
    gauge_pending_ += static_cast<std::int64_t>(n);
    if (gauge_pending_ >= kGaugeFlush) {
        if (config_.metrics != nullptr)
            config_.metrics->gauge("stream.buffered_bytes")
                .sub(gauge_pending_);
        net_gauge_ -= gauge_pending_;
        gauge_pending_ = 0;
    }
}

std::uint64_t
StreamSession::maybeGrantLocked()
{
    if (ended_ || failed_)
        return 0;
    const std::uint64_t want = consumed_bytes_ + config_.buffer_cap;
    if (want >= granted_ + config_.credit_quantum) {
        granted_ = want;
        return granted_;
    }
    return 0;
}

void
StreamSession::fireCredit(std::uint64_t granted_total)
{
    if (config_.metrics != nullptr)
        config_.metrics->counter("stream.credits_issued").add();
    if (callbacks_.on_credit)
        callbacks_.on_credit(granted_total);
}

bool
StreamSession::popOp(ThreadId tid, runtime::Op &op)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        if (cancel_.load(std::memory_order_relaxed))
            return false;
        std::deque<runtime::Op> &queue = queues_[tid];
        if (!queue.empty()) {
            op = queue.front();
            queue.pop_front();
            noteConsumedLocked(sizeof(trace::TraceRecord));
            const std::uint64_t grant = maybeGrantLocked();
            lock.unlock();
            if (grant != 0)
                fireCredit(grant);
            return true;
        }
        if (input_done_)
            return false;
        if (received_ >= granted_ && !ended_) {
            // The engine needs this thread's next record but the
            // client's window is exhausted — every buffered byte
            // belongs to other threads. Grant past the cap rather
            // than deadlock (see the file comment; the cap is soft
            // against adversarially skewed interleavings).
            granted_ += config_.credit_quantum;
            const std::uint64_t grant = granted_;
            if (config_.metrics != nullptr)
                config_.metrics
                    ->counter("stream.emergency_credits")
                    .add();
            lock.unlock();
            fireCredit(grant);
            lock.lock();
            continue;
        }
        cv_.wait(lock);
    }
}

void
StreamSession::engineMain()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] {
            return ingest_.headerReady() || failed_;
        });
        if (failed_) {
            const std::string message = error_;
            lock.unlock();
            finish(false, service::jsonError(message));
            return;
        }
    }

    runtime::Simulator sim(config_.base);
    EngineProgram program(*this);

    runtime::RunObserver observer;
    observer.interval_ops = config_.partial_interval;
    observer.cancel = &cancel_;
    observer.on_partial = [&](const runtime::RunResult &snapshot) {
        ++partial_seq_;
        if (config_.metrics != nullptr)
            config_.metrics->counter("stream.partials_emitted")
                .add();
        if (callbacks_.on_partial)
            callbacks_.on_partial(
                partial_seq_, job_.reportJson(snapshot, partial_seq_));
    };

    const service::JobAnswer answer = service::runJob(
        sim, config_.base, job_, program, &observer);

    std::string message;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (failed_)
            message = error_;
    }
    // A failed session (rejected bytes, abort) cancels the run; its
    // own error explains the cancellation.
    if (!message.empty())
        finish(false, service::jsonError(message));
    else
        finish(answer.ok, answer.json);
}

void
StreamSession::finish(bool ok, const std::string &json)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        input_done_ = true;
        if (config_.metrics != nullptr && net_gauge_ != 0)
            config_.metrics->gauge("stream.buffered_bytes")
                .sub(net_gauge_);
        net_gauge_ = 0;
        gauge_pending_ = 0;
    }
    if (config_.metrics != nullptr) {
        config_.metrics->gauge("stream.active_sessions").sub();
        config_.metrics
            ->counter(ok ? "stream.jobs_completed"
                         : "stream.jobs_failed")
            .add();
    }
    finished_.store(true, std::memory_order_release);
    if (callbacks_.on_done)
        callbacks_.on_done(ok, json);
}

} // namespace hdrd::stream
