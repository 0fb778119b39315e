/**
 * @file
 * HDS1 protocol fuzz tests: byte-mangled, truncated, and oversized
 * frames, malformed JobOptions, and torn connections must yield
 * clean protocol errors — never crashes, hangs, or stuck
 * connections. Runs under the ASan+UBSan ctest config like every
 * other unit.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "service/client.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "trace/trace_io.hh"

using namespace hdrd;
using namespace hdrd::service;

namespace
{

struct IgnoreSigpipe
{
    IgnoreSigpipe() { std::signal(SIGPIPE, SIG_IGN); }
};
const IgnoreSigpipe kIgnoreSigpipe;

std::string
sockPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "hdrd_fuzz_" + tag
        + ".sock";
}

std::string
tinyImage()
{
    using runtime::Op;
    std::vector<std::vector<Op>> per_thread(2);
    for (int i = 0; i < 40; ++i) {
        per_thread[0].push_back(Op::write(0x2000, 1));
        per_thread[1].push_back(Op::read(0x2000, 2));
        per_thread[0].push_back(Op::work(2));
        per_thread[1].push_back(Op::work(5));
    }
    const trace::TraceData data =
        trace::TraceData::fromOps("fuzz", std::move(per_thread));
    std::ostringstream os;
    EXPECT_TRUE(data.save(os));
    return os.str();
}

int
rawConnect(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    // Never let a wedged exchange hang the test binary: a stuck
    // read IS the failure we are hunting.
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return fd;
}

std::string
frameBytes(std::uint32_t type, const std::string &payload,
           const char *magic = "HDS1",
           std::uint64_t claimed_length = UINT64_MAX)
{
    FrameHeader header;
    std::memcpy(header.magic.data(), magic, 4);
    header.type = type;
    header.length = claimed_length == UINT64_MAX ? payload.size()
                                                 : claimed_length;
    std::string bytes(reinterpret_cast<const char *>(&header),
                      sizeof(header));
    bytes.append(payload);
    return bytes;
}

std::string
submitPayload(const JobOptions &options, const std::string &image)
{
    std::string payload(reinterpret_cast<const char *>(&options),
                        sizeof(options));
    payload.append(image);
    return payload;
}

/** Read one response frame; empty error string on success. */
std::string
readResponse(int fd, FrameType &type, std::string &payload)
{
    FrameHeader header;
    std::string err;
    if (!readFrameHeader(fd, header, err))
        return err.empty() ? "read failed" : err;
    if (!readPayload(fd, header.length, payload))
        return "short payload";
    type = static_cast<FrameType>(header.type);
    return "";
}

/** True when the peer has cleanly closed (EOF on a 1-byte read). */
bool
peerClosed(int fd)
{
    char byte;
    ssize_t got;
    do {
        got = ::recv(fd, &byte, 1, 0);
    } while (got < 0 && errno == EINTR);
    return got == 0;
}

JobOptions
quietOptions()
{
    JobOptions options;
    options.flags = kJobOmitHostTiming;
    return options;
}

/** Deterministic xorshift so failures replay exactly. */
struct FuzzRng
{
    std::uint64_t state;
    explicit FuzzRng(std::uint64_t seed) : state(seed ? seed : 1) {}
    std::uint64_t next()
    {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    }
};

struct FuzzServer
{
    Server server;
    std::string path;

    explicit FuzzServer(const char *tag,
                        std::uint64_t max_trace = 0)
        : server(makeConfig(tag, max_trace)), path(sockPath(tag))
    {
        std::string err;
        EXPECT_TRUE(server.start(err)) << err;
    }

    ~FuzzServer() { server.stop(); }

    static ServerConfig makeConfig(const char *tag,
                                   std::uint64_t max_trace)
    {
        ServerConfig config;
        config.unix_path = sockPath(tag);
        config.workers = 2;
        if (max_trace != 0)
            config.max_trace_bytes = max_trace;
        return config;
    }

    /** The daemon must still answer a PING after every abuse. */
    void expectAlive()
    {
        Client client;
        std::string err;
        ASSERT_TRUE(client.connectUnix(path, err)) << err;
        const Response pong = client.ping();
        ASSERT_TRUE(pong.transport_ok);
        EXPECT_EQ(pong.type, FrameType::kPong);
    }
};

void
expectErrorContaining(int fd, const std::string &needle,
                      bool expect_close)
{
    FrameType type = FrameType::kPong;
    std::string payload;
    const std::string err = readResponse(fd, type, payload);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(type, FrameType::kError);
    EXPECT_NE(payload.find(needle), std::string::npos) << payload;
    if (expect_close) {
        EXPECT_TRUE(peerClosed(fd))
            << "a protocol violation must close the connection";
    }
}

} // namespace

TEST(ServiceFuzz, BadMagicIsRefusedAndClosed)
{
    FuzzServer fixture("magic");
    const int fd = rawConnect(fixture.path);
    ASSERT_GE(fd, 0);
    const std::string frame = frameBytes(
        static_cast<std::uint32_t>(FrameType::kPing), "", "HDSX");
    ASSERT_TRUE(writeAllFd(fd, frame.data(), frame.size()));
    expectErrorContaining(fd, "bad frame magic", true);
    ::close(fd);
    fixture.expectAlive();
}

TEST(ServiceFuzz, UnknownAndResponseFrameTypesAreRefused)
{
    FuzzServer fixture("types");
    {
        const int fd = rawConnect(fixture.path);
        ASSERT_GE(fd, 0);
        const std::string frame = frameBytes(42, "");
        ASSERT_TRUE(writeAllFd(fd, frame.data(), frame.size()));
        expectErrorContaining(fd, "unknown frame type", true);
        ::close(fd);
    }
    {
        // A response type is a valid frame but not a valid request.
        const int fd = rawConnect(fixture.path);
        ASSERT_GE(fd, 0);
        const std::string frame = frameBytes(
            static_cast<std::uint32_t>(FrameType::kReport), "");
        ASSERT_TRUE(writeAllFd(fd, frame.data(), frame.size()));
        expectErrorContaining(fd, "unexpected response-type frame",
                              true);
        ::close(fd);
    }
    fixture.expectAlive();
}

TEST(ServiceFuzz, OversizedFrameLengthIsRefusedBeforeBuffering)
{
    FuzzServer fixture("huge");
    const int fd = rawConnect(fixture.path);
    ASSERT_GE(fd, 0);
    const std::string frame = frameBytes(
        static_cast<std::uint32_t>(FrameType::kSubmit), "", "HDS1",
        kMaxFrameLength + 1);
    ASSERT_TRUE(writeAllFd(fd, frame.data(), frame.size()));
    expectErrorContaining(fd, "exceeds protocol limit", true);
    ::close(fd);
    fixture.expectAlive();
}

TEST(ServiceFuzz, TraceOverServerLimitIsRefused)
{
    FuzzServer fixture("limit", 4096);
    const int fd = rawConnect(fixture.path);
    ASSERT_GE(fd, 0);
    // Claim an 8 KiB trace against a 4 KiB server cap; the refusal
    // must arrive before any trace byte is sent.
    const JobOptions options = quietOptions();
    const std::string frame = frameBytes(
        static_cast<std::uint32_t>(FrameType::kSubmit),
        std::string(reinterpret_cast<const char *>(&options),
                    sizeof(options)),
        "HDS1", sizeof(options) + 8192);
    ASSERT_TRUE(writeAllFd(fd, frame.data(), frame.size()));
    expectErrorContaining(fd, "exceeds server limit", true);
    ::close(fd);
    fixture.expectAlive();
}

TEST(ServiceFuzz, ShortSubmitPayloadKeepsConnectionUsable)
{
    FuzzServer fixture("short");
    const int fd = rawConnect(fixture.path);
    ASSERT_GE(fd, 0);
    const std::string frame = frameBytes(
        static_cast<std::uint32_t>(FrameType::kSubmit),
        std::string(10, 'x'));
    ASSERT_TRUE(writeAllFd(fd, frame.data(), frame.size()));
    expectErrorContaining(fd, "too short for job options", false);

    // Malformed input is the client's problem, not a protocol
    // violation: the same connection still serves.
    const std::string ping =
        frameBytes(static_cast<std::uint32_t>(FrameType::kPing), "");
    ASSERT_TRUE(writeAllFd(fd, ping.data(), ping.size()));
    FrameType type = FrameType::kError;
    std::string payload;
    ASSERT_EQ(readResponse(fd, type, payload), "");
    EXPECT_EQ(type, FrameType::kPong);
    ::close(fd);
}

TEST(ServiceFuzz, MalformedJobOptionsAreRejectedFieldByField)
{
    FuzzServer fixture("options");
    const std::string image = tinyImage();

    struct Case
    {
        const char *what;
        JobOptions options;
    };
    std::vector<Case> cases;
    cases.push_back({"version", quietOptions()});
    cases.back().options.version = 9;
    cases.push_back({"mode", quietOptions()});
    cases.back().options.mode = 77;
    cases.push_back({"detector", quietOptions()});
    cases.back().options.detector = 5;
    cases.push_back({"granule", quietOptions()});
    cases.back().options.granule_shift = 40;
    cases.push_back({"cores", quietOptions()});
    cases.back().options.cores = 0;
    cases.push_back({"fault spec", quietOptions()});
    std::strcpy(cases.back().options.fault_spec.data(),
                "not-a-fault-spec!!!");

    Client client;
    std::string err;
    ASSERT_TRUE(client.connectUnix(fixture.path, err)) << err;
    for (const Case &c : cases) {
        const Response resp = client.submit(c.options, image);
        ASSERT_TRUE(resp.transport_ok) << c.what;
        EXPECT_EQ(resp.type, FrameType::kError) << c.what;
        EXPECT_NE(resp.payload.find("\"status\": \"error\""),
                  std::string::npos)
            << c.what << ": " << resp.payload;
    }
    // The connection survived six rejects.
    EXPECT_TRUE(client.ping().transport_ok);
}

TEST(ServiceFuzz, TruncatedFramesNeverWedgeTheServer)
{
    FuzzServer fixture("trunc");
    const std::string image = tinyImage();
    const std::string whole = frameBytes(
        static_cast<std::uint32_t>(FrameType::kSubmit),
        submitPayload(quietOptions(), image));

    // Cut the stream at awkward places: inside the header, inside
    // the options block, inside the trace header, inside records.
    const std::size_t cuts[] = {3, 9, 16, 16 + 60, 16 + 168,
                                16 + 168 + 40, whole.size() - 5};
    for (const std::size_t cut : cuts) {
        const int fd = rawConnect(fixture.path);
        ASSERT_GE(fd, 0);
        ASSERT_TRUE(writeAllFd(fd, whole.data(), cut));
        ::close(fd);
    }
    fixture.expectAlive();
}

TEST(ServiceFuzz, TruncatedJobIdYieldsPlainError)
{
    FuzzServer fixture("jobid");
    const int fd = rawConnect(fixture.path);
    ASSERT_GE(fd, 0);
    // SUBMIT_JOB whose payload cannot even hold the 8-byte job id:
    // the reject cannot be job-keyed, so it must be a plain ERROR.
    const std::string frame = frameBytes(
        static_cast<std::uint32_t>(FrameType::kSubmitJob),
        std::string(4, 'y'));
    ASSERT_TRUE(writeAllFd(fd, frame.data(), frame.size()));
    FrameType type = FrameType::kPong;
    std::string payload;
    ASSERT_EQ(readResponse(fd, type, payload), "");
    EXPECT_EQ(type, FrameType::kError);
    ::close(fd);
    fixture.expectAlive();
}

TEST(ServiceFuzz, SeededByteManglingNeverCrashesOrWedges)
{
    FuzzServer fixture("mangle");
    const std::string image = tinyImage();
    const std::string whole = frameBytes(
        static_cast<std::uint32_t>(FrameType::kSubmit),
        submitPayload(quietOptions(), image));

    FuzzRng rng(0x48445244); // "HDRD"
    for (int iter = 0; iter < 48; ++iter) {
        std::string mangled = whole;
        const int flips = 1 + static_cast<int>(rng.next() % 4);
        for (int f = 0; f < flips; ++f) {
            const std::size_t at = rng.next() % mangled.size();
            mangled[at] = static_cast<char>(rng.next());
        }
        const int fd = rawConnect(fixture.path);
        ASSERT_GE(fd, 0) << "iteration " << iter;
        // The server may close mid-write on a header mangle; EPIPE
        // here is fine, a crash or wedge is not.
        writeAllFd(fd, mangled.data(), mangled.size());
        // Drain whatever response exists (report, error, or EOF —
        // all legal; only a wedge or a crash fails).
        FrameType type = FrameType::kError;
        std::string payload;
        readResponse(fd, type, payload);
        ::close(fd);
        if (iter % 8 == 7)
            fixture.expectAlive();
    }
    fixture.expectAlive();
}

TEST(ServiceFuzz, MangledPipelinedFramesKeepKeyedResponsesSane)
{
    FuzzServer fixture("pmangle");
    const std::string image = tinyImage();

    FuzzRng rng(0x31534448); // "HDS1"
    for (int iter = 0; iter < 16; ++iter) {
        const std::uint64_t job_id = 7000 + iter;
        std::string payload;
        payload.append(reinterpret_cast<const char *>(&job_id),
                       sizeof(job_id));
        payload.append(submitPayload(quietOptions(), image));
        // Mangle strictly after the job id so the reject stays
        // correlatable.
        const std::size_t at = sizeof(job_id)
            + rng.next() % (payload.size() - sizeof(job_id));
        payload[at] = static_cast<char>(rng.next());

        const int fd = rawConnect(fixture.path);
        ASSERT_GE(fd, 0);
        ASSERT_TRUE(writeFrame(fd, FrameType::kSubmitJob, payload));
        FrameType type = FrameType::kError;
        std::string body;
        const std::string err = readResponse(fd, type, body);
        if (err.empty() && isJobKeyed(type)) {
            std::uint64_t echoed = 0;
            std::string json;
            ASSERT_TRUE(splitJobPayload(body, echoed, json));
            EXPECT_EQ(echoed, job_id)
                << "keyed response for the wrong job";
        }
        ::close(fd);
    }
    fixture.expectAlive();
}

TEST(ServiceFuzz, MidHelloDisconnectLeavesServerServing)
{
    FuzzServer fixture("hello_cut");

    // Cut the connection at every interesting point inside a HELLO
    // exchange: mid-header, after the header with the payload
    // promised but never sent, and mid-payload.
    const std::string whole = frameBytes(
        static_cast<std::uint32_t>(FrameType::kHello),
        std::string(4, '\x01'));
    const std::size_t cuts[] = {1, sizeof(FrameHeader) - 3,
                                sizeof(FrameHeader),
                                sizeof(FrameHeader) + 2};
    for (const std::size_t cut : cuts) {
        const int fd = rawConnect(fixture.path);
        ASSERT_GE(fd, 0);
        ASSERT_TRUE(writeAllFd(fd, whole.data(), cut));
        ::close(fd);
        fixture.expectAlive();
    }
}

TEST(ServiceFuzz, HelloVersionSkewIsAnsweredNotFatal)
{
    FuzzServer fixture("hello_skew");

    // The minor version is informational (every 1.x client speaks a
    // subset), so a from-the-future minor, an empty payload, a short
    // payload, and an oversized one must all get a HELLO_REPLY on a
    // connection that keeps serving.
    std::vector<std::string> payloads;
    payloads.push_back([] {
        std::string p(4, '\0');
        const std::uint32_t minor = 0xffffffffu;
        std::memcpy(p.data(), &minor, sizeof(minor));
        return p;
    }());
    payloads.push_back("");                    // no minor at all
    payloads.push_back(std::string(2, '\x07'));  // truncated minor
    payloads.push_back(std::string(64, '\x5a')); // trailing junk

    for (const std::string &payload : payloads) {
        const int fd = rawConnect(fixture.path);
        ASSERT_GE(fd, 0);
        const std::string frame = frameBytes(
            static_cast<std::uint32_t>(FrameType::kHello), payload);
        ASSERT_TRUE(writeAllFd(fd, frame.data(), frame.size()));

        FrameType type = FrameType::kError;
        std::string body;
        ASSERT_EQ(readResponse(fd, type, body), "");
        EXPECT_EQ(type, FrameType::kHelloReply);
        EXPECT_NE(body.find("\"protocol\": \"HDS1.2\""),
                  std::string::npos)
            << body;

        // Still a working connection: pipelined submits go through.
        const std::uint64_t job_id = 99;
        ASSERT_TRUE(writeFrame(
            fd, FrameType::kSubmitJob,
            jobPayload(job_id,
                       submitPayload(quietOptions(), tinyImage()))));
        ASSERT_EQ(readResponse(fd, type, body), "");
        ASSERT_EQ(type, FrameType::kJobReport);
        std::uint64_t echoed = 0;
        std::string json;
        ASSERT_TRUE(splitJobPayload(body, echoed, json));
        EXPECT_EQ(echoed, job_id);
        ::close(fd);
    }
    fixture.expectAlive();
}
