#include "service/client.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "trace/trace_io.hh"

namespace hdrd::service
{

namespace
{

/** Minimal field extraction: "retry_after_ms": N. */
std::uint64_t
parseRetryAfter(const std::string &json)
{
    std::int64_t ms = 0;
    jsonNumber(json, "retry_after_ms", ms);
    return static_cast<std::uint64_t>(ms);
}

} // namespace

std::string
serverStateLine(const std::string &stats_json)
{
    std::int64_t draining = 0;
    if (!jsonNumber(stats_json, "server.draining", draining))
        return "";
    return draining != 0 ? "state: DRAINING\n" : "state: RUNNING\n";
}

Client::~Client()
{
    close();
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
Client::connectUnix(const std::string &path, std::string &err)
{
    close();
    last_errno_ = 0;
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) {
        err = "socket path too long: " + path;
        return false;
    }
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
        last_errno_ = errno;
        err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        last_errno_ = errno;
        err = "cannot connect to " + path + ": "
            + std::strerror(errno);
        close();
        return false;
    }
    return true;
}

bool
Client::connectTcp(std::uint16_t port, std::string &err)
{
    return connectTcp("127.0.0.1", port, err);
}

bool
Client::connectTcp(const std::string &host, std::uint16_t port,
                   std::string &err)
{
    close();
    last_errno_ = 0;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    const std::string numeric =
        host == "localhost" ? "127.0.0.1" : host;
    if (::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
        err = "not a numeric IPv4 host: " + host;
        return false;
    }
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        last_errno_ = errno;
        err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        last_errno_ = errno;
        err = "cannot connect to " + numeric + ":"
            + std::to_string(port) + ": " + std::strerror(errno);
        close();
        return false;
    }
    return true;
}

bool
Client::setTimeouts(std::uint64_t timeout_ms)
{
    if (fd_ < 0)
        return false;
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
    tv.tv_usec =
        static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
    return ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv,
                        sizeof(tv)) == 0
        && ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv,
                        sizeof(tv)) == 0;
}

Response
Client::roundTrip(FrameType type, const std::string &payload)
{
    Response response;
    if (fd_ < 0)
        return response;
    errno = 0;
    if (!writeFrame(fd_, type, payload)) {
        last_errno_ = response.transport_errno = errno;
        return response;
    }

    FrameHeader header;
    std::string err;
    if (!readFrameHeader(fd_, header, err)) {
        last_errno_ = response.transport_errno = errno;
        return response;
    }
    if (!readPayload(fd_, header.length, response.payload)) {
        last_errno_ = response.transport_errno = errno;
        return response;
    }
    response.transport_ok = true;
    response.type = static_cast<FrameType>(header.type);
    if (response.isBusy())
        response.retry_after_ms = parseRetryAfter(response.payload);
    return response;
}

Response
Client::submit(const JobOptions &options,
               const std::string &trace_bytes)
{
    std::string payload;
    payload.reserve(sizeof(options) + trace_bytes.size());
    payload.append(reinterpret_cast<const char *>(&options),
                   sizeof(options));
    payload.append(trace_bytes);
    return roundTrip(FrameType::kSubmit, payload);
}

Response
Client::submitFile(const JobOptions &options,
                   const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        Response response;
        response.payload = "cannot open " + path;
        return response;
    }
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return submit(options, bytes.str());
}

Response
Client::stats()
{
    return roundTrip(FrameType::kStats, "");
}

Response
Client::ping()
{
    return roundTrip(FrameType::kPing, "");
}

Response
Client::hello()
{
    std::string payload(sizeof(std::uint32_t), '\0');
    const std::uint32_t minor = kProtocolMinor;
    std::memcpy(payload.data(), &minor, sizeof(minor));
    return roundTrip(FrameType::kHello, payload);
}

bool
Client::sendJob(std::uint64_t job_id, const JobOptions &options,
                const std::string &trace_bytes)
{
    std::string payload;
    payload.reserve(sizeof(job_id) + sizeof(options)
                    + trace_bytes.size());
    payload.append(reinterpret_cast<const char *>(&job_id),
                   sizeof(job_id));
    payload.append(reinterpret_cast<const char *>(&options),
                   sizeof(options));
    payload.append(trace_bytes);
    return writeFrame(fd_, FrameType::kSubmitJob, payload);
}

bool
Client::readJobResponse(std::uint64_t &job_id, Response &response)
{
    FrameHeader header;
    std::string err;
    errno = 0;
    if (!readFrameHeader(fd_, header, err)) {
        last_errno_ = response.transport_errno = errno;
        return false;
    }
    std::string payload;
    if (!readPayload(fd_, header.length, payload)) {
        last_errno_ = response.transport_errno = errno;
        return false;
    }
    const auto type = static_cast<FrameType>(header.type);
    if (!isJobKeyed(type)) {
        // A sequential-type response mid-pipeline is a protocol
        // violation (or an HDS1.0 server's ERROR + close).
        response.transport_ok = true;
        response.type = type;
        response.payload = std::move(payload);
        job_id = 0;
        return false;
    }
    if (!splitJobPayload(payload, job_id, response.payload))
        return false;
    response.transport_ok = true;
    response.type = type;
    if (response.isBusy())
        response.retry_after_ms = parseRetryAfter(response.payload);
    return true;
}

bool
Client::setNonBlocking(bool on)
{
    if (fd_ < 0)
        return false;
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags < 0)
        return false;
    const int want = on ? (flags | O_NONBLOCK)
                        : (flags & ~O_NONBLOCK);
    return ::fcntl(fd_, F_SETFL, want) == 0;
}

Response
Client::submitStream(const JobOptions &options,
                     const std::string &name,
                     const StreamSource &source,
                     const StreamHandlers &handlers)
{
    Response response;
    if (fd_ < 0 || !source)
        return response;
    // One stream per exchange; the wire id only has to be unique on
    // this connection.
    const std::uint64_t job_id = 1;

    errno = 0;
    if (!writeFrame(fd_, FrameType::kSubmitStream,
                    streamOpenPayload(job_id, name, options))) {
        last_errno_ = response.transport_errno = errno;
        return response;
    }
    if (!setNonBlocking(true)) {
        last_errno_ = response.transport_errno = errno;
        close();
        return response;
    }

    // From here both directions are non-blocking: the server may
    // stall its reads (credit spent, a partial still unflushed to
    // us) at any moment, so the client must keep consuming frames
    // while it has data queued — a blocking write here is how the
    // classic two-sided pipe deadlock happens.
    constexpr std::size_t kChunk = 64 * 1024;
    trace::ByteQueue rx;
    trace::ByteQueue tx;
    std::uint64_t granted = 0;
    std::uint64_t sent = 0;
    bool eof = false;
    bool done = false;
    bool failed = false;
    std::vector<char> chunk(kChunk);

    const auto fail = [&](int err) {
        last_errno_ = response.transport_errno = err;
        failed = done = true;
    };
    const auto appendFrame = [&tx](FrameType type,
                                   std::uint64_t id,
                                   const char *data,
                                   std::size_t n) {
        FrameHeader header;
        header.type = static_cast<std::uint32_t>(type);
        header.length = sizeof(id) + n;
        tx.append(reinterpret_cast<const char *>(&header),
                  sizeof(header));
        tx.append(reinterpret_cast<const char *>(&id), sizeof(id));
        if (n > 0)
            tx.append(data, n);
    };
    const auto handleFrame = [&](FrameType type,
                                 std::string payload) {
        std::uint64_t id = 0;
        std::string body;
        if (isJobKeyed(type)
            && !splitJobPayload(payload, id, body)) {
            fail(EPROTO);
            return;
        }
        switch (type) {
        case FrameType::kCredit: {
            std::uint64_t grant = 0;
            if (!parseCreditBody(body, grant)) {
                fail(EPROTO);
                return;
            }
            granted = std::max(granted, grant);
            if (handlers.on_credit)
                handlers.on_credit(granted);
            return;
        }
        case FrameType::kJobPartial:
            if (handlers.on_partial)
                handlers.on_partial(body);
            return;
        case FrameType::kJobReport:
        case FrameType::kJobBusy:
        case FrameType::kJobError:
            response.transport_ok = true;
            response.type = type;
            response.payload = std::move(body);
            if (response.isBusy())
                response.retry_after_ms =
                    parseRetryAfter(response.payload);
            done = true;
            return;
        case FrameType::kError:
            // Unkeyed protocol error (or an HDS1.0/1.1 server that
            // does not speak SUBMIT_STREAM at all).
            response.transport_ok = true;
            response.type = type;
            response.payload = std::move(payload);
            done = true;
            return;
        default:
            fail(EPROTO);
        }
    };

    while (!done) {
        // Top up the outbound buffer within the credit window.
        if (tx.size() == 0 && !eof) {
            if (sent < granted) {
                const std::size_t want = static_cast<std::size_t>(
                    std::min<std::uint64_t>(kChunk,
                                            granted - sent));
                const std::size_t got =
                    source(chunk.data(), want);
                if (got == 0) {
                    eof = true;
                    appendFrame(FrameType::kSubmitEnd, job_id,
                                nullptr, 0);
                } else {
                    sent += got;
                    appendFrame(FrameType::kSubmitData, job_id,
                                chunk.data(), got);
                }
            }
        }

        pollfd pfd{fd_, POLLIN, 0};
        if (tx.size() > 0)
            pfd.events |= POLLOUT;
        const int rc = ::poll(&pfd, 1, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            fail(errno);
            break;
        }
        if (pfd.revents & (POLLERR | POLLNVAL)) {
            fail(ECONNRESET);
            break;
        }

        if ((pfd.revents & POLLOUT) && tx.size() > 0) {
            const ssize_t n =
                ::send(fd_, tx.data(), tx.size(), MSG_NOSIGNAL);
            if (n < 0) {
                if (errno != EAGAIN && errno != EWOULDBLOCK
                    && errno != EINTR) {
                    fail(errno);
                    break;
                }
            } else {
                tx.consume(static_cast<std::size_t>(n));
            }
        }

        if (pfd.revents & (POLLIN | POLLHUP)) {
            const ssize_t n = ::recv(fd_, rx.reserve(kChunk), kChunk, 0);
            const int err = errno;
            rx.commit(n > 0 ? static_cast<std::size_t>(n) : 0);
            if (n == 0) {
                fail(ECONNRESET);
                break;
            }
            if (n < 0 && err != EAGAIN && err != EWOULDBLOCK
                && err != EINTR) {
                fail(err);
                break;
            }

            // Parse every complete frame buffered so far.
            while (!done && rx.size() >= sizeof(FrameHeader)) {
                FrameHeader header;
                std::memcpy(&header, rx.data(), sizeof(header));
                if (header.magic != kFrameMagic
                    || !validFrameType(header.type)
                    || header.length > kMaxFrameLength) {
                    fail(EPROTO);
                    break;
                }
                if (rx.size() < sizeof(header) + header.length)
                    break;
                std::string payload(
                    rx.data() + sizeof(header),
                    static_cast<std::size_t>(header.length));
                rx.consume(sizeof(header)
                           + static_cast<std::size_t>(header.length));
                handleFrame(static_cast<FrameType>(header.type),
                            std::move(payload));
            }
        }
    }

    setNonBlocking(false);
    if (failed || !response.transport_ok)
        close();
    return response;
}

Response
Client::follow(const std::string &name,
               const StreamHandlers &handlers)
{
    Response response;
    if (fd_ < 0)
        return response;
    const std::uint64_t follow_id = 1;

    errno = 0;
    if (!writeFrame(fd_, FrameType::kAttach,
                    attachPayload(follow_id, name))) {
        last_errno_ = response.transport_errno = errno;
        return response;
    }

    // Attach-side is read-only, so plain blocking reads suffice.
    for (;;) {
        FrameHeader header;
        std::string err;
        errno = 0;
        if (!readFrameHeader(fd_, header, err)) {
            last_errno_ = response.transport_errno = errno;
            return response;
        }
        std::string payload;
        if (!readPayload(fd_, header.length, payload)) {
            last_errno_ = response.transport_errno = errno;
            return response;
        }
        const auto type = static_cast<FrameType>(header.type);
        if (!isJobKeyed(type)) {
            // An HDS1.0/1.1 server answers ATTACH with a plain
            // ERROR frame; surface it verbatim.
            response.transport_ok = true;
            response.type = type;
            response.payload = std::move(payload);
            return response;
        }
        std::uint64_t id = 0;
        std::string body;
        if (!splitJobPayload(payload, id, body))
            return response;
        switch (type) {
        case FrameType::kAttachReply:
            if (body.find("\"status\": \"ok\"")
                == std::string::npos) {
                response.transport_ok = true;
                response.type = type;
                response.payload = std::move(body);
                return response;
            }
            break;
        case FrameType::kJobPartial:
            if (handlers.on_partial)
                handlers.on_partial(body);
            break;
        default:
            response.transport_ok = true;
            response.type = type;
            response.payload = std::move(body);
            if (response.isBusy())
                response.retry_after_ms =
                    parseRetryAfter(response.payload);
            return response;
        }
    }
}

std::vector<Response>
Client::submitPipelined(const std::vector<PipelineSubmission> &jobs,
                        std::size_t window)
{
    std::vector<Response> responses(jobs.size());
    if (fd_ < 0 || jobs.empty())
        return responses;
    window = std::max<std::size_t>(1, window);

    std::size_t next_send = 0;
    std::size_t outstanding = 0;
    std::size_t received = 0;
    while (received < jobs.size()) {
        // Fill the window, then trade one response per new frame.
        while (next_send < jobs.size() && outstanding < window) {
            const PipelineSubmission &job = jobs[next_send];
            errno = 0;
            if (!sendJob(next_send, job.options,
                         job.trace_bytes
                             ? *job.trace_bytes
                             : std::string())) {
                last_errno_ = errno;
                close();
                return responses;
            }
            ++next_send;
            ++outstanding;
        }
        std::uint64_t job_id = 0;
        Response response;
        if (!readJobResponse(job_id, response)
            || job_id >= jobs.size()) {
            close();
            return responses;
        }
        responses[job_id] = std::move(response);
        --outstanding;
        ++received;
    }
    return responses;
}

} // namespace hdrd::service
