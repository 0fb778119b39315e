/**
 * @file
 * Tests for the streaming analysis subsystem: StreamSession chunked
 * ingestion (final reports independent of chunk boundaries), partial
 * report byte-stability, credit flow control (including the
 * emergency-grant escape from skewed traces), abort/truncation
 * handling, and the HDS1.2 server plane end to end — streamed finals
 * byte-identical to buffered reports, ATTACH fanout, client-kill
 * session recovery with gauges settling back to zero, and poison
 * traces (deadlock, sync misuse) answered per job, buffered,
 * pipelined and streamed, without harming the daemon.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "runtime/op.hh"
#include "runtime/simulator.hh"
#include "service/client.hh"
#include "service/metrics.hh"
#include "service/protocol.hh"
#include "service/report_json.hh"
#include "service/router.hh"
#include "service/server.hh"
#include "stream/stream_session.hh"
#include "trace/trace_io.hh"
#include "trace/trace_program.hh"

using namespace hdrd;
using namespace hdrd::service;
using namespace std::chrono_literals;

namespace
{

/** A racy two-thread trace, sized so partials actually fire. */
trace::TraceData
racyTrace(int iterations)
{
    using runtime::Op;
    std::vector<std::vector<Op>> per_thread(2);
    for (int i = 0; i < iterations; ++i) {
        per_thread[0].push_back(Op::write(0x1000, 1));
        per_thread[1].push_back(Op::write(0x1000, 2));
        per_thread[0].push_back(Op::work(3));
        per_thread[1].push_back(Op::work(4));
    }
    return trace::TraceData::fromOps("racy", std::move(per_thread));
}

/** Serialized TRC2 image of @p data. */
std::string
traceImage(const trace::TraceData &data)
{
    std::ostringstream os;
    EXPECT_TRUE(data.save(os));
    return os.str();
}

/** Thread-safe capture of a session's terminal event and partials. */
struct Capture
{
    std::mutex m;
    bool fired = false;
    bool ok = false;
    std::string final_json;
    std::vector<std::string> partials;

    stream::StreamCallbacks callbacks()
    {
        stream::StreamCallbacks cb;
        cb.on_partial = [this](std::uint64_t,
                               const std::string &json) {
            std::lock_guard<std::mutex> lock(m);
            partials.push_back(json);
        };
        cb.on_done = [this](bool done_ok, const std::string &json) {
            std::lock_guard<std::mutex> lock(m);
            fired = true;
            ok = done_ok;
            final_json = json;
        };
        return cb;
    }
};

stream::StreamConfig
sessionConfig(std::uint64_t buffer_cap, std::uint64_t partial_interval)
{
    stream::StreamConfig config;
    config.options.flags = kJobOmitHostTiming;
    config.buffer_cap = buffer_cap;
    config.credit_quantum = 4096;
    config.partial_interval = partial_interval;
    return config;
}

/**
 * Feed @p image in @p chunk-byte pieces, honouring the cumulative
 * credit grant (the client contract), then end() and join.
 */
void
feedAll(stream::StreamSession &session, const std::string &image,
        std::size_t chunk)
{
    std::size_t sent = 0;
    while (sent < image.size()) {
        const std::uint64_t granted = session.grantedBytes();
        if (granted > sent) {
            const std::size_t n = std::min<std::size_t>(
                {chunk, image.size() - sent,
                 static_cast<std::size_t>(granted - sent)});
            std::string err;
            ASSERT_TRUE(session.feed(image.data() + sent, n, err))
                << err;
            sent += n;
        } else {
            std::this_thread::sleep_for(1ms);
        }
    }
    session.end();
    session.joinEngine();
}

/** Run one full streamed job; returns the captured events. */
void
runStreamed(const std::string &image, std::uint64_t buffer_cap,
            std::uint64_t partial_interval, std::size_t chunk,
            Capture &capture, service::Metrics *metrics = nullptr)
{
    stream::StreamConfig config =
        sessionConfig(buffer_cap, partial_interval);
    config.metrics = metrics;
    stream::StreamSession session(std::move(config),
                                  capture.callbacks());
    session.start();
    feedAll(session, image, chunk);
}

std::int64_t
gaugeValue(Client &client, const char *name)
{
    const Response stats = client.stats();
    EXPECT_TRUE(stats.transport_ok);
    std::int64_t value = -1;
    EXPECT_TRUE(Router::metricValue(stats.payload, name, value))
        << stats.payload;
    return value;
}

/** Poll @p name until it reads @p want (or ~5 s elapse). */
bool
awaitGauge(Client &client, const char *name, std::int64_t want)
{
    for (int i = 0; i < 500; ++i) {
        if (gaugeValue(client, name) == want)
            return true;
        std::this_thread::sleep_for(10ms);
    }
    return false;
}

} // namespace

// ---------------------------------------------------------------------
// StreamSession: chunk-boundary independence and partial stability
// ---------------------------------------------------------------------

TEST(StreamSession, FinalReportIndependentOfChunking)
{
    const std::string image = traceImage(racyTrace(400));

    // One big feed, tiny feeds, and a credit-limited window: all
    // three must produce byte-identical final reports.
    Capture whole, tiny, windowed;
    runStreamed(image, image.size() + 1024, 0, image.size(), whole);
    runStreamed(image, image.size() + 1024, 0, 7, tiny);
    runStreamed(image, 4096, 0, 1024, windowed);

    ASSERT_TRUE(whole.fired);
    ASSERT_TRUE(whole.ok) << whole.final_json;
    EXPECT_NE(whole.final_json.find("\"schema\": \"hdrd-report-v1\""),
              std::string::npos);
    EXPECT_EQ(whole.final_json.find("\"partial\""),
              std::string::npos);
    ASSERT_TRUE(tiny.fired);
    ASSERT_TRUE(tiny.ok) << tiny.final_json;
    EXPECT_EQ(tiny.final_json, whole.final_json);
    ASSERT_TRUE(windowed.fired);
    ASSERT_TRUE(windowed.ok) << windowed.final_json;
    EXPECT_EQ(windowed.final_json, whole.final_json);
}

TEST(StreamSession, PartialsAreByteStableAndMonotone)
{
    const std::string image = traceImage(racyTrace(400));

    Capture first, second;
    runStreamed(image, image.size() + 1024, 100, 512, first);
    runStreamed(image, 4096, 100, 64, second);

    ASSERT_TRUE(first.ok) << first.final_json;
    ASSERT_GE(first.partials.size(), 3u);
    // Partial emission points are deterministic executed-op counts,
    // so the whole partial sequence is byte-stable across runs with
    // different chunkings and credit windows.
    ASSERT_EQ(second.partials.size(), first.partials.size());
    for (std::size_t i = 0; i < first.partials.size(); ++i)
        EXPECT_EQ(first.partials[i], second.partials[i]) << i;

    std::uint64_t last_seq = 0;
    for (const std::string &partial : first.partials) {
        EXPECT_NE(
            partial.find("\"schema\": \"hdrd-report-partial-v1\""),
            std::string::npos)
            << partial;
        std::int64_t seq = -1;
        ASSERT_TRUE(Router::metricValue(partial, "seq", seq))
            << partial;
        EXPECT_EQ(static_cast<std::uint64_t>(seq), last_seq + 1);
        last_seq = static_cast<std::uint64_t>(seq);
        // Partials never carry host timing: byte-stability demands it.
        EXPECT_EQ(partial.find("\"host\""), std::string::npos);
    }
}

// ---------------------------------------------------------------------
// StreamSession: credit protocol edges
// ---------------------------------------------------------------------

TEST(StreamSession, CreditOverrunIsAProtocolViolation)
{
    const std::string image = traceImage(racyTrace(400));
    ASSERT_GT(image.size(), 2 * 4096u + 1);

    Capture capture;
    stream::StreamSession session(
        sessionConfig(4096, 0), capture.callbacks());
    session.start();
    // First feed blasts past any grant the session could have issued
    // (initial grant == buffer_cap; nothing consumed yet).
    std::string err;
    EXPECT_FALSE(session.feed(image.data(), image.size(), err));
    EXPECT_NE(err.find("credit"), std::string::npos) << err;
}

TEST(StreamSession, SkewedTraceCompletesViaEmergencyCredit)
{
    // TraceData::save writes thread 0's records before thread 1's,
    // so with a credit window smaller than thread 0's block, the
    // engine starves on thread 1 while the window is exhausted. The
    // session must escape with emergency grants, not deadlock.
    const std::string image = traceImage(racyTrace(400));

    service::Metrics metrics;
    Capture capture;
    runStreamed(image, 4096, 0, 1024, capture, &metrics);
    ASSERT_TRUE(capture.fired);
    ASSERT_TRUE(capture.ok) << capture.final_json;
    EXPECT_GT(metrics.counter("stream.emergency_credits").value(),
              0u);
    // Gauges settle once the session retires.
    EXPECT_EQ(metrics.gauge("stream.active_sessions").value(), 0);
    EXPECT_EQ(metrics.gauge("stream.buffered_bytes").value(), 0);
}

TEST(StreamSession, DataAfterEndRejected)
{
    const std::string image = traceImage(racyTrace(50));
    Capture capture;
    stream::StreamSession session(
        sessionConfig(image.size() + 1024, 0),
        capture.callbacks());
    session.start();
    std::string err;
    ASSERT_TRUE(session.feed(image.data(), image.size(), err));
    session.end();
    EXPECT_FALSE(session.feed("x", 1, err));
    EXPECT_NE(err.find("SUBMIT_END"), std::string::npos) << err;
    session.joinEngine();
    EXPECT_TRUE(capture.ok) << capture.final_json;
}

TEST(StreamSession, TruncatedStreamReportsError)
{
    const std::string image = traceImage(racyTrace(50));
    Capture capture;
    stream::StreamSession session(
        sessionConfig(image.size() + 1024, 0),
        capture.callbacks());
    session.start();
    // Header plus one and a half records, then EOF.
    const std::size_t cut = sizeof(trace::TraceHeader) + 32 + 16;
    std::string err;
    ASSERT_TRUE(session.feed(image.data(), cut, err)) << err;
    session.end();
    session.joinEngine();
    ASSERT_TRUE(capture.fired);
    EXPECT_FALSE(capture.ok);
    EXPECT_NE(capture.final_json.find("truncated"),
              std::string::npos)
        << capture.final_json;
}

TEST(StreamSession, AbortUnwindsAndReportsOnce)
{
    const std::string image = traceImage(racyTrace(400));
    Capture capture;
    stream::StreamSession session(
        sessionConfig(image.size() + 1024, 0),
        capture.callbacks());
    session.start();
    std::string err;
    ASSERT_TRUE(
        session.feed(image.data(), image.size() / 2, err))
        << err;
    session.abort();
    session.abort();  // idempotent
    session.joinEngine();
    ASSERT_TRUE(capture.fired);
    EXPECT_FALSE(capture.ok);
    EXPECT_NE(capture.final_json.find("abort"), std::string::npos)
        << capture.final_json;
}

// ---------------------------------------------------------------------
// Server end to end: HDS1.2 streamed submit, follow, and recovery
// ---------------------------------------------------------------------

namespace
{

struct TestServer
{
    std::string path;
    std::unique_ptr<Server> server;

    explicit TestServer(const char *tag, std::uint32_t max_streams = 8,
                        std::uint64_t partial_interval = 200)
    {
        path = std::string(::testing::TempDir()) + "hdrd_stream_"
            + tag + ".sock";
        ServerConfig config;
        config.unix_path = path;
        config.workers = 2;
        config.queue_capacity = 8;
        config.max_streams = max_streams;
        config.stream_buffer = 64 * 1024;
        config.partial_interval_ops = partial_interval;
        server = std::make_unique<Server>(std::move(config));
        std::string err;
        EXPECT_TRUE(server->start(err)) << err;
    }

    ~TestServer() { server->stop(); }
};

/** StreamSource serving @p image in @p chunk-byte pieces. */
StreamSource
chunkedSource(const std::string &image, std::size_t chunk,
              std::size_t *pos)
{
    return [&image, chunk, pos](char *dst, std::size_t max) {
        const std::size_t n = std::min(
            {chunk, max, image.size() - *pos});
        std::memcpy(dst, image.data() + *pos, n);
        *pos += n;
        return n;
    };
}

/** Raw-socket connect for protocol-level poking. */
int
rawConnect(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    return fd;
}

} // namespace

TEST(ServerStream, StreamedFinalMatchesBufferedByteForByte)
{
    TestServer ts("e2e");
    const std::string image = traceImage(racyTrace(400));

    JobOptions options;
    options.flags = kJobOmitHostTiming;

    Client buffered;
    std::string err;
    ASSERT_TRUE(buffered.connectUnix(ts.path, err)) << err;
    const Response golden = buffered.submit(options, image);
    ASSERT_TRUE(golden.isReport()) << golden.payload;

    Client streamer;
    ASSERT_TRUE(streamer.connectUnix(ts.path, err)) << err;
    std::size_t pos = 0;
    std::vector<std::string> partials;
    StreamHandlers handlers;
    handlers.on_partial = [&](const std::string &json) {
        partials.push_back(json);
    };
    const Response streamed = streamer.submitStream(
        options, "e2e", chunkedSource(image, 4096, &pos), handlers);
    ASSERT_TRUE(streamed.isReport()) << streamed.payload;
    EXPECT_EQ(streamed.payload, golden.payload);
    EXPECT_GE(partials.size(), 1u);
    for (const std::string &partial : partials)
        EXPECT_NE(
            partial.find("\"schema\": \"hdrd-report-partial-v1\""),
            std::string::npos);

    // The registry retires the session; gauges settle to zero.
    EXPECT_TRUE(awaitGauge(buffered, "stream.active_sessions", 0));
    EXPECT_TRUE(awaitGauge(buffered, "stream.buffered_bytes", 0));
}

TEST(ServerStream, FollowerTailsPartialsAndFinal)
{
    TestServer ts("follow");
    const std::string image = traceImage(racyTrace(2000));

    // The source stalls after the first chunk until released, giving
    // the follower a deterministic window to attach.
    std::mutex m;
    std::condition_variable cv;
    bool released = false;
    std::size_t pos = 0;
    StreamSource source = [&](char *dst, std::size_t max) {
        if (pos > 0) {
            std::unique_lock<std::mutex> lock(m);
            cv.wait(lock, [&] { return released; });
        }
        const std::size_t n =
            std::min({std::size_t{4096}, max, image.size() - pos});
        std::memcpy(dst, image.data() + pos, n);
        pos += n;
        return n;
    };

    JobOptions options;
    options.flags = kJobOmitHostTiming;
    Response streamed;
    std::thread streamer([&] {
        Client client;
        std::string err;
        if (!client.connectUnix(ts.path, err))
            return;
        streamed = client.submitStream(options, "live", source);
    });

    Client poller;
    std::string err;
    ASSERT_TRUE(poller.connectUnix(ts.path, err)) << err;
    ASSERT_TRUE(awaitGauge(poller, "stream.active_sessions", 1));

    std::vector<std::string> follower_partials;
    Response followed;
    std::thread follower([&] {
        Client client;
        std::string ferr;
        if (!client.connectUnix(ts.path, ferr))
            return;
        StreamHandlers handlers;
        handlers.on_partial = [&](const std::string &json) {
            follower_partials.push_back(json);
        };
        followed = client.follow("live", handlers);
    });

    // Give the ATTACH a moment to register, then open the tap.
    std::this_thread::sleep_for(100ms);
    {
        std::lock_guard<std::mutex> lock(m);
        released = true;
    }
    cv.notify_all();
    streamer.join();
    follower.join();

    ASSERT_TRUE(streamed.isReport()) << streamed.payload;
    ASSERT_TRUE(followed.isReport()) << followed.payload;
    EXPECT_EQ(followed.payload, streamed.payload);
    EXPECT_GE(follower_partials.size(), 1u);
}

TEST(ServerStream, FollowUnknownSessionIsRefused)
{
    TestServer ts("noattach");
    Client client;
    std::string err;
    ASSERT_TRUE(client.connectUnix(ts.path, err)) << err;
    const Response refusal = client.follow("no-such-session");
    ASSERT_TRUE(refusal.transport_ok);
    EXPECT_EQ(refusal.type, FrameType::kAttachReply);
    EXPECT_NE(refusal.payload.find("no live streaming session"),
              std::string::npos)
        << refusal.payload;
}

TEST(ServerStream, StreamLimitAnswersBusy)
{
    TestServer ts("limit", /*max_streams=*/1);
    const std::string image = traceImage(racyTrace(50));

    // Occupy the only slot with a raw half-open session.
    const int fd = rawConnect(ts.path);
    JobOptions options;
    options.flags = kJobOmitHostTiming;
    ASSERT_TRUE(writeFrame(fd, FrameType::kSubmitStream,
                           streamOpenPayload(1, "hog", options)));

    Client client;
    std::string err;
    ASSERT_TRUE(client.connectUnix(ts.path, err)) << err;
    ASSERT_TRUE(awaitGauge(client, "stream.active_sessions", 1));

    std::size_t pos = 0;
    const Response busy = client.submitStream(
        options, "late", chunkedSource(image, 4096, &pos));
    ASSERT_TRUE(busy.transport_ok);
    EXPECT_EQ(busy.type, FrameType::kJobBusy);
    EXPECT_NE(busy.payload.find("stream limit"), std::string::npos)
        << busy.payload;
    ::close(fd);
    EXPECT_TRUE(awaitGauge(client, "stream.active_sessions", 0));
}

TEST(ServerStream, ClientKillMidStreamLeaksNothing)
{
    TestServer ts("kill");
    const std::string image = traceImage(racyTrace(400));

    // Open a stream, push a partial prefix, then vanish without
    // SUBMIT_END — a client crash. The connection teardown must
    // abort the session and settle every gauge back to zero.
    const int fd = rawConnect(ts.path);
    JobOptions options;
    options.flags = kJobOmitHostTiming;
    ASSERT_TRUE(writeFrame(fd, FrameType::kSubmitStream,
                           streamOpenPayload(7, "doomed", options)));
    ASSERT_TRUE(writeJobFrame(
        fd, FrameType::kSubmitData, 7,
        image.substr(0, sizeof(trace::TraceHeader) + 64)));

    Client client;
    std::string err;
    ASSERT_TRUE(client.connectUnix(ts.path, err)) << err;
    ASSERT_TRUE(awaitGauge(client, "stream.active_sessions", 1));
    ::close(fd);

    EXPECT_TRUE(awaitGauge(client, "stream.active_sessions", 0));
    EXPECT_TRUE(awaitGauge(client, "stream.buffered_bytes", 0));

    // The daemon still serves buffered jobs afterwards.
    const Response after = client.submit(options, image);
    EXPECT_TRUE(after.isReport()) << after.payload;
}

TEST(ServerStream, PoisonTracesEndTheJobNotTheDaemon)
{
    using runtime::Op;
    struct Poison
    {
        const char *name;
        std::vector<std::vector<Op>> ops;
        const char *error;
    };
    const std::vector<Poison> poisons = {
        {"abba",
         {{Op::lock(1), Op::lock(2), Op::unlock(2), Op::unlock(1)},
          {Op::lock(2), Op::lock(1), Op::unlock(1), Op::unlock(2)}},
         "deadlock: no runnable thread; t0 blocked on mutex 2, t1 "
         "blocked on mutex 1"},
        {"unlock_unheld", {{Op::unlock(5)}},
         "unlock of mutex 5 not held by thread 0"},
        {"self_join", {{Op::threadJoin(0)}},
         "join of invalid thread 0 by thread 0"},
        {"barrier_mismatch",
         {{Op::barrier(1, 2)}, {Op::work(50), Op::barrier(1, 3)}},
         "inconsistent participant count at barrier 1"},
    };

    TestServer ts("poison");
    JobOptions options;
    options.flags = kJobOmitHostTiming;

    // The golden report of a good trace, computed in-process.
    const trace::TraceData good = racyTrace(100);
    const std::string good_image = traceImage(good);
    trace::TraceProgram good_program(good);
    runtime::SimConfig config;
    config.mode = static_cast<instr::ToolMode>(options.mode);
    const runtime::RunResult good_run =
        runtime::Simulator::runWith(good_program, config);
    JobReport golden;
    golden.trace = good.name();
    golden.nthreads = good.nthreads();
    golden.options = options;
    golden.result = &good_run;
    const std::string golden_json = jobReportJson(golden);

    Client client;
    std::string err;
    ASSERT_TRUE(client.connectUnix(ts.path, err)) << err;
    for (const Poison &poison : poisons) {
        SCOPED_TRACE(poison.name);
        const std::string image = traceImage(
            trace::TraceData::fromOps(poison.name, poison.ops));
        const auto expectError = [&](const Response &r) {
            ASSERT_TRUE(r.transport_ok);
            EXPECT_TRUE(r.type == FrameType::kError
                        || r.type == FrameType::kJobError);
            EXPECT_NE(r.payload.find(poison.error), std::string::npos)
                << r.payload;
        };

        expectError(client.submit(options, image));

        const std::vector<PipelineSubmission> batch = {
            {options, &image}, {options, &good_image}};
        const std::vector<Response> piped =
            client.submitPipelined(batch, 2);
        ASSERT_EQ(piped.size(), 2u);
        expectError(piped[0]);
        EXPECT_EQ(piped[1].payload, golden_json);

        Client streamer;
        ASSERT_TRUE(streamer.connectUnix(ts.path, err)) << err;
        std::size_t pos = 0;
        expectError(streamer.submitStream(
            options, poison.name, chunkedSource(image, 64, &pos)));

        // The daemon keeps serving: a good job gets the golden bytes.
        const Response after = client.submit(options, good_image);
        ASSERT_TRUE(after.isReport()) << after.payload;
        EXPECT_EQ(after.payload, golden_json);
    }
    EXPECT_TRUE(awaitGauge(client, "stream.active_sessions", 0));
    EXPECT_TRUE(awaitGauge(client, "pool.active_workers", 0));
    EXPECT_TRUE(awaitGauge(client, "stream.buffered_bytes", 0));
}
