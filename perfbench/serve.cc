/**
 * @file
 * The serve phase of every run: one client process drives an
 * hdrd_served daemon (2 workers, 1 I/O shard) over two connections.
 * It starts after the engine phase has ended, so no daemon runs while
 * the engine is timed.
 *
 *   - Connection A is a closed loop of buffered HDS1.1 SUBMIT_JOB
 *     frames with at most 4 in flight, cycling through short traces
 *     recorded from the phoenix/parsec registry.
 *   - Connection B streams one longer registry trace over HDS1.2,
 *     one session after another.
 *
 * The phase is the same in every workload.
 *
 * Every report, buffered or streamed, must be byte-identical to the
 * in-process jobReportJson of the same trace and options. Those
 * in-process runs happen after the daemon has stopped, and double as
 * the per-layer decode/engine/serialize timings.
 */

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hh"
#include "common/rng.hh"
#include "pmu/faults.hh"
#include "runtime/simulator.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/report_json.hh"
#include "trace/trace_io.hh"
#include "trace/trace_program.hh"
#include "workloads/registry.hh"

namespace perfbench
{

namespace
{

namespace svc = hdrd::service;

/** Registry scale of the buffered jobs' traces. */
constexpr double kJobScale = 0.05;

/**
 * The streamed trace: one registry workload at a larger scale (about
 * 34 MB, 150 ms a job). Streamed `stream.shared_mix` jobs were slower
 * by a fifth in some runs than in others, more than any rescaling
 * took out; these stay within a tenth.
 */
constexpr const char *kStreamWorkload = "stream.scan";
constexpr double kStreamScale = 0.1875;

constexpr std::size_t kWindow = 4;
constexpr std::size_t kMinJobs = 200;  ///< 10 samples beyond p95
constexpr std::size_t kMinStreams = 5;
constexpr double kSliceS = 1.0;  ///< see the timed window
constexpr std::uint32_t kWorkers = 2;

struct Trace
{
    std::string name;
    std::string bytes;
};

/** Record @p name at @p scale through a native run; return the file. */
Trace
recordTrace(const std::string &name, double scale, std::uint64_t seed,
            const std::string &dir)
{
    const auto *info = hdrd::workloads::findWorkload(name);
    hdrd::workloads::WorkloadParams params;
    params.nthreads = 4;
    params.scale = scale;
    params.seed = seed + 41;
    auto program = info->factory(params);

    const std::string path = dir + "/" + name + ".trc";
    {
        hdrd::trace::TraceWriter writer(path, program->name(),
                                        program->numThreads());
        hdrd::trace::RecordingProgram recording(*program, writer);
        hdrd::runtime::SimConfig config;
        config.mode = hdrd::instr::ToolMode::kNative;
        config.mem.ncores = 4;
        config.seed = seed;
        hdrd::runtime::Simulator::runWith(recording, config);
        writer.finalize();
    }
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    std::remove(path.c_str());
    return Trace{name, bytes.str()};
}

/** The daemon as a child process; killed if still alive at scope exit. */
class Daemon
{
  public:
    Daemon() = default;
    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            int status = 0;
            ::waitpid(pid_, &status, 0);
        }
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    bool start(const std::string &binary, std::vector<std::string> args,
               const std::string &log, std::string &err)
    {
        args.insert(args.begin(), binary);
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        const pid_t pid = ::fork();
        if (pid < 0) {
            err = std::string("fork: ") + std::strerror(errno);
            return false;
        }
        if (pid == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            const int fd =
                ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
            }
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        pid_ = pid;
        return true;
    }

    /** Poll PING until the daemon answers; no fixed sleeps. */
    bool waitReady(const std::string &socket, std::string &err)
    {
        const auto t0 = Clock::now();
        while (secondsSince(t0) < 20.0) {
            svc::Client client;
            std::string cerr;
            if (client.connectUnix(socket, cerr)) {
                const svc::Response r = client.ping();
                if (r.transport_ok && r.type == svc::FrameType::kPong)
                    return true;
            }
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                err = "daemon exited during start-up";
                return false;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        err = "daemon not ready after 20 s";
        return false;
    }

    /** SIGTERM and wait; @return the exit status (-1 if signalled). */
    int stop()
    {
        if (pid_ <= 0)
            return -1;
        ::kill(pid_, SIGTERM);
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    int pid() const { return pid_; }

  private:
    pid_t pid_ = -1;
};

/** utime + stime of @p pid in ms. */
double
cpuMs(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    std::getline(in, line);
    const std::size_t paren = line.rfind(')');
    if (paren == std::string::npos)
        return 0.0;
    std::istringstream fields(line.substr(paren + 2));
    std::vector<std::string> f;
    std::string tok;
    while (fields >> tok)
        f.push_back(tok);
    if (f.size() < 13)
        return 0.0;
    // After "pid (comm) ": state is field 3, utime 14, stime 15.
    const double ticks = std::stod(f[11]) + std::stod(f[12]);
    return 1000.0 * ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/** `"key": <number>` inside the @p section object of a STATS reply. */
double
statNumber(const std::string &json, const std::string &section,
           const std::string &key, const std::string &field = "")
{
    std::size_t at = json.find("\"" + section + "\"");
    if (at == std::string::npos)
        return 0.0;
    at = json.find("\"" + key + "\": ", at);
    if (at == std::string::npos)
        return 0.0;
    at += key.size() + 4;
    if (!field.empty()) {
        at = json.find("\"" + field + "\": ", at);
        if (at == std::string::npos)
            return 0.0;
        at += field.size() + 4;
    }
    return std::strtod(json.c_str() + at, nullptr);
}

double
histSum(const std::string &json, const std::string &key)
{
    return statNumber(json, "histograms", key, "mean")
        * statNumber(json, "histograms", key, "count");
}

/**
 * One pipelined HDS1.1 connection with per-job timestamps: the
 * client-observed latency of a job runs from its SUBMIT_JOB write to
 * its keyed response read, which Client::submitPipelined does not
 * expose. Frames go through the service's public framing functions.
 */
class PipeConn
{
  public:
    PipeConn() = default;
    ~PipeConn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    PipeConn(const PipeConn &) = delete;
    PipeConn &operator=(const PipeConn &) = delete;

    bool connect(const std::string &path, std::string &err)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (fd_ < 0 || path.size() >= sizeof(addr.sun_path)) {
            err = "socket";
            return false;
        }
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr))
            != 0) {
            err = std::string("connect: ") + std::strerror(errno);
            return false;
        }
        std::string hello(sizeof(std::uint32_t), '\0');
        const std::uint32_t minor = svc::kProtocolMinor;
        std::memcpy(hello.data(), &minor, sizeof(minor));
        svc::FrameHeader header;
        std::string body;
        if (!svc::writeFrame(fd_, svc::FrameType::kHello, hello)
            || !svc::readFrameHeader(fd_, header, err)
            || !svc::readPayload(fd_, header.length, body)
            || header.type
                != static_cast<std::uint32_t>(svc::FrameType::kHelloReply)) {
            err = "HELLO failed: " + err;
            return false;
        }
        return true;
    }

    bool send(std::uint64_t job_id, const svc::JobOptions &options,
              const std::string &trace)
    {
        std::string payload;
        payload.reserve(sizeof(job_id) + sizeof(options) + trace.size());
        payload.append(reinterpret_cast<const char *>(&job_id),
                       sizeof(job_id));
        payload.append(reinterpret_cast<const char *>(&options),
                       sizeof(options));
        payload.append(trace);
        return svc::writeFrame(fd_, svc::FrameType::kSubmitJob, payload);
    }

    bool recv(std::uint64_t &job_id, svc::FrameType &type,
              std::string &body)
    {
        svc::FrameHeader header;
        std::string err;
        std::string payload;
        if (!svc::readFrameHeader(fd_, header, err)
            || !svc::readPayload(fd_, header.length, payload))
            return false;
        type = static_cast<svc::FrameType>(header.type);
        return svc::isJobKeyed(type)
            && svc::splitJobPayload(payload, job_id, body);
    }

  private:
    int fd_ = -1;
};

/** Distinct report payloads per trace, with how many jobs sent each. */
using Seen = std::vector<std::map<std::string, std::size_t>>;

struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;
    std::vector<std::string> failures;
};

struct BufferedOut
{
    Tally tally;
    std::vector<double> lat_ms;
    std::vector<double> lat_traced, lat_plain;
    Clock::time_point end;
};

/** Closed loop with kWindow jobs in flight until the deadline. */
void
bufferedLoop(const std::string &socket, const std::vector<Trace> &traces,
             const svc::JobOptions &options, std::uint64_t seed,
             Clock::time_point deadline, std::size_t min_jobs,
             std::uint32_t parent, Seen &seen, BufferedOut &out)
{
    Tracer &tracer = Tracer::instance();
    tracer.adopt(parent);
    ScopedSpan root("client.buffered");
    PipeConn conn;
    std::string err;
    if (!conn.connect(socket, err)) {
        ++out.tally.attempted;
        out.tally.failures.push_back("buffered connection: " + err);
        return;
    }
    hdrd::Rng rng(seed ^ 0x5eedULL);
    struct InFlight
    {
        std::size_t trace;
        Clock::time_point sent;
    };
    std::map<std::uint64_t, InFlight> in_flight;
    std::vector<std::size_t> order(traces.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::size_t next_trace = order.size();
    std::uint64_t next_id = 0;
    const auto hard_stop = deadline + std::chrono::seconds(60);
    for (;;) {
        const auto now = Clock::now();
        const bool more = now < hard_stop
            && (now < deadline || out.tally.ok + in_flight.size() < min_jobs);
        while (more && in_flight.size() < kWindow) {
            // Every trace once per pass, in a fresh seeded order, so
            // each run sends the same job mix.
            if (next_trace == order.size()) {
                next_trace = 0;
                for (std::size_t i = order.size() - 1; i > 0; --i)
                    std::swap(order[i], order[rng.nextBounded(i + 1)]);
            }
            const std::size_t t = order[next_trace++];
            const std::uint64_t id = next_id++;
            const auto sent = Clock::now();
            ++out.tally.attempted;
            if (!conn.send(id, options, traces[t].bytes)) {
                out.tally.failures.push_back("transport: send failed");
                in_flight.clear();
                break;
            }
            in_flight[id] = InFlight{t, sent};
        }
        if (in_flight.empty())
            break;
        std::uint64_t id = 0;
        svc::FrameType type = svc::FrameType::kError;
        std::string body;
        if (!conn.recv(id, type, body) || in_flight.count(id) == 0) {
            for (std::size_t i = 0; i < in_flight.size(); ++i)
                out.tally.failures.push_back("transport: receive failed");
            break;
        }
        const auto done = Clock::now();
        const InFlight job = in_flight[id];
        in_flight.erase(id);
        if (type == svc::FrameType::kJobReport) {
            ++out.tally.ok;
            const double ms = msBetween(job.sent, done);
            out.lat_ms.push_back(ms);
            ++seen[job.trace][body];
            // Every other job carries a span, so traced and untraced
            // jobs interleave and their gap is the tracing overhead.
            if (tracer.enabled()) {
                if (id % 2 == 0) {
                    tracer.add("service.job", job.sent, done, root.id(), id);
                    out.lat_traced.push_back(ms);
                } else {
                    out.lat_plain.push_back(ms);
                }
            }
        } else {
            out.tally.failures.push_back(
                (type == svc::FrameType::kJobBusy ? "BUSY: " : "ERROR: ")
                + body);
        }
    }
    out.end = Clock::now();
}

struct StreamOut
{
    Tally tally;
    std::vector<double> first_partial_ms, job_ms, upload_ms, credit_waits;
};

/** One streaming session after another until the deadline. */
void
streamLoop(const std::string &socket, const Trace &trace,
           const svc::JobOptions &options, Clock::time_point deadline,
           std::size_t min_streams, std::uint32_t parent,
           std::map<std::string, std::size_t> &seen, StreamOut &out)
{
    Tracer::instance().adopt(parent);
    ScopedSpan root("client.stream");
    svc::Client client;
    std::string err;
    if (!client.connectUnix(socket, err)
        || client.hello().type != svc::FrameType::kHelloReply) {
        ++out.tally.attempted;
        out.tally.failures.push_back("stream connection: " + err);
        return;
    }
    const auto hard_stop = deadline + std::chrono::seconds(60);
    for (std::uint64_t n = 0;; ++n) {
        const auto now = Clock::now();
        if (now >= hard_stop
            || (now >= deadline && out.job_ms.size() >= min_streams))
            break;
        ++out.tally.attempted;
        ScopedSpan session("service.stream", n);
        const auto t0 = Clock::now();
        Clock::time_point first_partial{}, upload_end{};
        bool got_partial = false, uploaded = false;
        std::size_t pos = 0;
        std::uint64_t granted = 0;
        double waits = 0;
        svc::StreamHandlers handlers;
        handlers.on_partial = [&](const std::string &) {
            if (!got_partial) {
                got_partial = true;
                first_partial = Clock::now();
            }
        };
        handlers.on_credit = [&](std::uint64_t g) { granted = g; };
        const auto source = [&](char *dst, std::size_t max) {
            const std::size_t k = std::min(max, trace.bytes.size() - pos);
            std::memcpy(dst, trace.bytes.data() + pos, k);
            pos += k;
            if (k == 0 && !uploaded) {
                uploaded = true;
                upload_end = Clock::now();
            } else if (k > 0 && pos == granted && pos < trace.bytes.size()) {
                ++waits;  // window spent: the upload now waits for CREDIT
            }
            return k;
        };
        // Session names stay unique across calls: the daemon may still
        // hold a finished session's name when the next loop starts.
        static std::atomic<std::uint64_t> sessions{0};
        const svc::Response r = client.submitStream(
            options, "perfbench-" + std::to_string(::getpid()) + "-"
                + std::to_string(sessions++),
            source, handlers);
        const auto t1 = Clock::now();
        if (!r.transport_ok) {
            out.tally.failures.push_back("transport: stream session");
            break;
        }
        if (r.type != svc::FrameType::kJobReport) {
            out.tally.failures.push_back("stream: " + r.payload);
            continue;
        }
        ++out.tally.ok;
        ++seen[r.payload];
        out.job_ms.push_back(msBetween(t0, t1));
        if (got_partial)
            out.first_partial_ms.push_back(msBetween(t0, first_partial));
        else
            out.tally.failures.push_back("stream: no JOB_PARTIAL");
        if (uploaded) {
            out.upload_ms.push_back(msBetween(t0, upload_end));
            Tracer::instance().add("stream.upload", t0, upload_end,
                                   session.id(), n);
        }
        out.credit_waits.push_back(waits);
    }
}

/** Shared sim config of a job: the daemon's mapping of JobOptions. */
hdrd::runtime::SimConfig
jobConfig(const svc::JobOptions &options)
{
    hdrd::runtime::SimConfig config;
    config.mode = static_cast<hdrd::instr::ToolMode>(options.mode);
    config.detector =
        static_cast<hdrd::runtime::DetectorKind>(options.detector);
    config.gating.hitm_counter.sample_after = options.sav;
    config.granule_shift = options.granule_shift;
    config.mem.ncores = options.cores;
    config.seed = options.seed;
    return config;
}

struct InProcess
{
    std::vector<std::string> expected;
    double decode_mb_per_s = 0.0;
    std::vector<double> job_ms;
    std::vector<double> serialize_us;
};

/** Decode, run and serialize every trace in-process, three passes. */
InProcess
runInProcess(const std::vector<Trace> &traces,
             const svc::JobOptions &options, Result &result)
{
    InProcess out;
    out.expected.resize(traces.size());
    const hdrd::runtime::SimConfig config = jobConfig(options);
    hdrd::runtime::Simulator engine(config);
    std::vector<std::vector<double>> decode_s(traces.size());
    std::size_t bytes = 0;
    for (int pass = 0; pass < 3; ++pass) {
        for (std::size_t i = 0; i < traces.size(); ++i) {
            std::unique_ptr<hdrd::trace::TraceData> data;
            {
                ScopedSpan s("trace.decode", i);
                const auto t0 = Clock::now();
                std::istringstream in(traces[i].bytes);
                hdrd::trace::IstreamSource source(in);
                hdrd::trace::TraceReader reader(source,
                                                traces[i].bytes.size());
                if (!reader.readHeader()) {
                    result.fail("in-process decode: " + reader.error());
                    continue;
                }
                data = std::make_unique<hdrd::trace::TraceData>(
                    hdrd::trace::TraceData::fromReader(reader));
                decode_s[i].push_back(secondsSince(t0));
            }
            if (!data->ok()) {
                result.fail("in-process decode: " + data->error());
                continue;
            }
            if (pass == 0)
                bytes += traces[i].bytes.size();
            const std::string name = data->name();
            const std::uint32_t nthreads = data->nthreads();
            hdrd::runtime::RunResult run;
            {
                ScopedSpan s("runtime.run.job", i);
                const auto t0 = Clock::now();
                engine.reconfigure(config);
                hdrd::trace::TraceProgram program(std::move(*data));
                run = engine.run(program);
                out.job_ms.push_back(msBetween(t0, Clock::now()));
            }
            svc::JobReport report;
            report.trace = name;
            report.nthreads = nthreads;
            report.options = options;
            report.fault_spec = hdrd::pmu::faultSpec(config.faults);
            report.result = &run;
            std::string json;
            {
                ScopedSpan s("report.serialize", i);
                const auto t0 = Clock::now();
                json = svc::jobReportJson(report);
                out.serialize_us.push_back(msBetween(t0, Clock::now())
                                           * 1000.0);
            }
            if (pass == 0)
                out.expected[i] = std::move(json);
            else if (json != out.expected[i])
                result.fail("in-process report of " + traces[i].name
                            + " differs between passes");
        }
    }
    double decode_total = 0.0;
    for (const auto &v : decode_s)
        decode_total += median(v);
    out.decode_mb_per_s =
        decode_total > 0.0 ? static_cast<double>(bytes) / decode_total / 1e6
                           : 0.0;
    return out;
}

} // namespace

void
runServePhase(const Options &opt, double seconds, Result &result)
{
    const std::string trace_dir = opt.work_dir + "/traces";
    ::mkdir(trace_dir.c_str(), 0755);
    const std::string socket = opt.work_dir + "/served.sock";
    const std::string log = opt.work_dir + "/served.log";
    const std::vector<std::string> args = {
        "--socket=" + socket,       "--workers=" + std::to_string(kWorkers),
        "--io-shards=1",            "--queue=64",
        "--partial-interval=65536",
    };

    svc::JobOptions options;
    options.mode = 2;  // demand-driven, the paper's regime
    options.seed = opt.seed;
    options.flags = svc::kJobOmitHostTiming;

    // Set-up, kSetupReps times: record the traces, start the daemon,
    // poll it ready. The last set-up's daemon and traces are kept.
    // Set-up time is rescaled to reference-host time like the engine's.
    constexpr int kSetupReps = 5;
    std::vector<Trace> traces;  // buffered jobs, then the stream trace
    auto daemon = std::make_unique<Daemon>();
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (rep > 0 && daemon->stop() != 0)
            result.fail("daemon did not exit cleanly after set-up");
        daemon = std::make_unique<Daemon>();
        traces.clear();
        ::unlink(socket.c_str());
        const double host = kCalibRefMs / calibrate();
        const auto t0 = Clock::now();
        for (const auto &info : hdrd::workloads::allWorkloads()) {
            if (info.suite == "phoenix" || info.suite == "parsec")
                traces.push_back(
                    recordTrace(info.name, kJobScale, opt.seed, trace_dir));
        }
        traces.push_back(
            recordTrace(kStreamWorkload, kStreamScale, opt.seed, trace_dir));
        std::string err;
        if (!daemon->start(opt.served, args, log, err)
            || !daemon->waitReady(socket, err)) {
            result.fail("daemon start: " + err);
            return;
        }
        setup_s.push_back(secondsSince(t0) * host);
    }
    const Trace &stream_trace = traces.back();
    const std::vector<Trace> jobs(traces.begin(), traces.end() - 1);
    std::size_t job_bytes = 0;
    for (const Trace &t : jobs)
        job_bytes += t.bytes.size();
    std::printf("# %zu buffered traces (%.1f MB), stream trace %s "
                "(%.1f MB)\n",
                jobs.size(), static_cast<double>(job_bytes) / 1e6,
                stream_trace.name.c_str(),
                static_cast<double>(stream_trace.bytes.size()) / 1e6);

    Tracer &tracer = Tracer::instance();
    tracer.setEnabled(opt.trace);
    const auto t_measure = Clock::now();
    ScopedSpan measure("bench.measure");
    Seen seen(jobs.size());
    std::map<std::string, std::size_t> stream_seen;

    // Warm-up: one pass of buffered jobs and one stream, so the
    // workers' engines have grown their storage before timing.
    {
        ScopedSpan s("serve.warmup");
        BufferedOut warm_b;
        StreamOut warm_s;
        std::thread a(bufferedLoop, socket, std::cref(jobs),
                      std::cref(options), opt.seed, Clock::now(),
                      jobs.size(), s.id(), std::ref(seen), std::ref(warm_b));
        streamLoop(socket, stream_trace, options, Clock::now(), 1, s.id(),
                   stream_seen, warm_s);
        a.join();
        for (const Tally *t : {&warm_b.tally, &warm_s.tally}) {
            result.attempted += t->attempted;
            for (const std::string &f : t->failures)
                result.fail(f);
        }
    }

    svc::Client stats_client;
    std::string err;
    if (!stats_client.connectUnix(socket, err)) {
        result.fail("stats connection: " + err);
        return;
    }
    const std::string stats0 = stats_client.stats().payload;
    const double cpu0 = cpuMs(daemon->pid());
    resetPeakRssOf(daemon->pid());

    // The timed window leaves 15% of the run for the in-process
    // pass that checks every report. It is cut into slices of
    // kSliceS; both loops drain at the end of each, and the host
    // calibration kernel runs in the gap, with the daemon idle, on as
    // many threads as the host has cores, since the loops keep them
    // all busy. Each slice's times are rescaled by it into
    // reference-host time, as the engine's rounds are (see
    // calibrateMemory()).
    BufferedOut buffered;
    StreamOut streamed;
    std::vector<double> lat_ref, first_partial_ref, stream_ref, calib_ms;
    double buffered_s = 0.0, buffered_ref_s = 0.0, slices_s = 0.0;
    const auto t_window = Clock::now();
    const double window_end = seconds * 0.85 - secondsSince(t_measure);
    const int cores =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    {
        ScopedSpan s("serve.window");
        for (std::uint64_t slice = 0;; ++slice) {
            const double elapsed = secondsSince(t_window);
            if (elapsed >= window_end && lat_ref.size() >= kMinJobs
                && stream_ref.size() >= kMinStreams)
                break;
            if (elapsed > std::max(window_end, 60.0)) {
                result.fail("too few jobs or streams in 60 s");
                break;
            }
            std::vector<double> kernel;
            {
                ScopedSpan c("host.calibrate");
                for (int k = 0; k < 5; ++k)
                    kernel.push_back(calibrateMemory(cores));
            }
            calib_ms.push_back(median(kernel));
            const double host = kMemCalibRefMs / calib_ms.back();
            const std::size_t lat0 = buffered.lat_ms.size();
            const std::size_t stream0 = streamed.job_ms.size();
            const std::size_t partial0 = streamed.first_partial_ms.size();
            const auto t_slice = Clock::now();
            const auto deadline = t_slice
                + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(kSliceS));
            {
                ScopedSpan sl("serve.slice", slice);
                std::thread a(bufferedLoop, socket, std::cref(jobs),
                              std::cref(options), opt.seed + 1 + slice,
                              deadline, 0, sl.id(), std::ref(seen),
                              std::ref(buffered));
                std::thread b(streamLoop, socket, std::cref(stream_trace),
                              std::cref(options), deadline, 0, sl.id(),
                              std::ref(stream_seen), std::ref(streamed));
                a.join();
                b.join();
            }
            slices_s += secondsSince(t_slice);
            const double took =
                std::chrono::duration<double>(buffered.end - t_slice)
                    .count();
            buffered_s += took;
            buffered_ref_s += took * host;
            for (std::size_t i = lat0; i < buffered.lat_ms.size(); ++i)
                lat_ref.push_back(buffered.lat_ms[i] * host);
            for (std::size_t i = stream0; i < streamed.job_ms.size(); ++i)
                stream_ref.push_back(streamed.job_ms[i] * host);
            for (std::size_t i = partial0;
                 i < streamed.first_partial_ms.size(); ++i)
                first_partial_ref.push_back(streamed.first_partial_ms[i]
                                            * host);
        }
    }

    std::string stats1;
    double cpu1 = 0.0, served_rss_mb = 0.0;
    {
        ScopedSpan s("service.stats");
        stats1 = stats_client.stats().payload;
        cpu1 = cpuMs(daemon->pid());
        served_rss_mb =
            static_cast<double>(peakRssKbOf(daemon->pid())) / 1024.0;
        stats_client.close();
    }
    {
        ScopedSpan s("served.stop");
        if (daemon->stop() != 0)
            result.fail("daemon did not exit cleanly");
    }
    for (const Tally *t : {&buffered.tally, &streamed.tally}) {
        result.attempted += t->attempted;
        for (const std::string &f : t->failures)
            result.fail(f);
    }

    const InProcess inproc = runInProcess(traces, options, result);
    {
        ScopedSpan s("check.compare");
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            for (const auto &[payload, count] : seen[i]) {
                for (std::size_t k = 0;
                     payload != inproc.expected[i] && k < count; ++k)
                    result.fail("buffered report of " + jobs[i].name
                                + " differs from in-process");
            }
        }
        for (const auto &[payload, count] : stream_seen) {
            for (std::size_t k = 0;
                 payload != inproc.expected.back() && k < count; ++k)
                result.fail("streamed report differs from in-process");
        }
    }

    const std::size_t n_jobs = buffered.lat_ms.size();
    std::printf("# serve raw wall-clock: %.4f jobs/s, p50 %.4f ms, p95 "
                "%.4f ms, first partial %.4f ms, stream %.4f ms\n",
                static_cast<double>(n_jobs) / buffered_s,
                median(buffered.lat_ms),
                tailQuantile(buffered.lat_ms, 0.95),
                median(streamed.first_partial_ms), median(streamed.job_ms));
    const double p50 = median(lat_ref);
    const double p95 = tailQuantile(lat_ref, 0.95);
    if (p95 < 0.0)
        result.fail("too few buffered jobs for p95");
    result.end_to_end.insert(result.end_to_end.end(), {
        {"jobs_per_s", "jobs/s",
         static_cast<double>(n_jobs) / buffered_ref_s, n_jobs},
        {"job_p50_ms", "ms", p50, n_jobs},
        {"job_p95_ms", "ms", p95, n_jobs},
        {"stream_first_partial_ms", "ms", median(first_partial_ref),
         first_partial_ref.size()},
        {"stream_job_ms", "ms", median(stream_ref), stream_ref.size()},
        {"served_rss_mb", "MiB", served_rss_mb, 1},
    });

    const double completed =
        static_cast<double>(buffered.tally.ok + streamed.tally.ok);
    const double hist_n = statNumber(stats1, "histograms", "job.exec_us",
                                     "count");
    const auto n_hist = static_cast<std::size_t>(hist_n);
    std::vector<double> job_ms(inproc.job_ms.begin(),
                               inproc.job_ms.end());
    result.per_layer.insert(result.per_layer.end(), {
        {"trace.decode_mb_per_s", "MB/s", inproc.decode_mb_per_s, 3},
        {"service.trace_read_ms.p50", "ms",
         statNumber(stats1, "histograms", "job.trace_read_us", "p50") / 1e3,
         static_cast<std::size_t>(
             statNumber(stats1, "histograms", "job.trace_read_us", "count"))},
        {"service.queue_wait_ms.p50", "ms",
         statNumber(stats1, "histograms", "job.queue_wait_us", "p50") / 1e3,
         n_hist},
        {"service.queue_wait_ms.p90", "ms",
         statNumber(stats1, "histograms", "job.queue_wait_us", "p90") / 1e3,
         n_hist},
        {"service.exec_ms.p50", "ms",
         statNumber(stats1, "histograms", "job.exec_us", "p50") / 1e3,
         n_hist},
        {"runtime.job_ms.p50", "ms", median(job_ms), job_ms.size()},
        {"report.serialize_us.p50", "us", median(inproc.serialize_us),
         inproc.serialize_us.size()},
        {"service.wire_ms.p50", "ms",
         median(buffered.lat_ms)
             - statNumber(stats1, "histograms", "job.total_us", "p50") / 1e3,
         n_jobs},
        {"served.cpu_ms_per_job", "ms",
         completed > 0.0 ? (cpu1 - cpu0) / completed : 0.0,
         static_cast<std::size_t>(completed)},
        {"service.busy_ratio", "ratio",
         (histSum(stats1, "job.exec_us") - histSum(stats0, "job.exec_us"))
             / (kWorkers * slices_s * 1e6),
         n_hist},
        {"stream.upload_ms", "ms", median(streamed.upload_ms),
         streamed.upload_ms.size()},
        {"stream.credit_waits", "count", median(streamed.credit_waits),
         streamed.credit_waits.size()},
        {"stream.emergency_credits", "count",
         statNumber(stats1, "counters", "stream.emergency_credits")
             - statNumber(stats0, "counters", "stream.emergency_credits"),
         streamed.job_ms.size()},
        {"setup.serve_s", "s", median(setup_s), setup_s.size()},
        {"host.serve_calib_ms", "ms", median(calib_ms), calib_ms.size()},
    });
    if (opt.trace) {
        const double plain = median(buffered.lat_plain);
        result.per_layer.push_back(
            {"trace.serve_overhead_pct", "%",
             plain > 0.0 ? 100.0 * (median(buffered.lat_traced) / plain - 1.0)
                         : 0.0,
             buffered.lat_traced.size()});
    }
}

} // namespace perfbench
