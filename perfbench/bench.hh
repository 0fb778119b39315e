/**
 * @file
 * Shared pieces of the hdrd benchmark driver: options, metrics,
 * statistics, the host/build stamp, and the span tracer.
 *
 * The driver measures every layer from outside, by timing calls into
 * the library's public functions; nothing here reaches into the
 * engine or the daemon.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** The workload seed every reference value is stored for. */
constexpr std::uint64_t kDefaultSeed = 1;

/** Command-line options (see usage() in main.cc). */
struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;

    /** Measuring time of the whole run, split between the phases. */
    double seconds = 0.0;
    bool trace = false;

    /** hdrd_served binary. */
    std::string served;

    /** Scratch directory for traces, sockets and span dumps. */
    std::string work_dir;
};

/** One reported number. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;

    /** Samples the value was computed from. */
    std::size_t samples = 0;
};

/** Everything the two phases of a run hand back to main(). */
struct Result
{
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** One line per failed check (printed, never silently dropped). */
    std::vector<std::string> failures;

    void fail(std::string what)
    {
        ++failed;
        failures.push_back(std::move(what));
    }
};

/** The workloads: each names the engine phase's program. */
constexpr const char *kWorkloads[] = {"scan", "shared"};

/**
 * The two phases of every run, in this order: the in-process engine
 * on the workload's program, then the daemon. Each measures for about
 * @p seconds and appends its metrics to @p result; each reports its
 * set-up time as the per-layer metric `setup.<phase>_s`, and main()
 * reports their sum as `setup_s`.
 */
void runEnginePhase(const Options &opt, double seconds, Result &result);
void runServePhase(const Options &opt, double seconds, Result &result);

double secondsSince(Clock::time_point t0);
double msBetween(Clock::time_point t0, Clock::time_point t1);

/** Median (0 for an empty sample). */
double median(std::vector<double> v);

/**
 * The @p q quantile (0..1) by linear interpolation, or a negative
 * value when fewer than ten samples lie beyond it (above it for
 * q > 0.5, below it otherwise): a tail figure is only reported when
 * it rests on at least ten observations.
 */
double tailQuantile(std::vector<double> v, double q);

/** FNV-1a 64-bit. */
std::uint64_t fnv1a(const std::string &s);

/** Process peak RSS (VmHWM) of @p pid in KiB (0 = self). */
std::uint64_t peakRssKbOf(int pid);

/** Reset @p pid's VmHWM watermark (0 = self). */
bool resetPeakRssOf(int pid);

/** Hand freed heap back to the OS before a watermark reset. */
void trimHeap();

/**
 * Host-speed calibration: a fixed compute kernel (xorshift over a
 * 16 KiB table, 10^6 steps) that no change to the library can touch.
 * @return its wall time in ms. Engine rounds are rescaled by
 * kCalibRefMs / calibrate(), measured right before them, into
 * reference-host time: the host runs slower in phases of seconds to
 * minutes, and the rescaling takes most of that drift out.
 */
double calibrate();

/** The kernel's time on the reference host in a fast phase. */
constexpr double kCalibRefMs = 6.0;

/**
 * Host-speed calibration for the serve phase, whose loops keep every
 * core busy and move megabytes per job: on @p threads threads at
 * once, 2 * 10^5 xorshift-indexed read-modify-writes over a 4 MiB
 * table per thread, so the kernel runs out of the shared L3 as the
 * daemon does. @return the median thread's wall time in ms. Serve
 * slices are rescaled by kMemCalibRefMs / calibrateMemory().
 */
double calibrateMemory(int threads);

/** calibrateMemory()'s time on the reference host in a fast phase. */
constexpr double kMemCalibRefMs = 0.8;

/** One-line JSON host/build stamp. */
std::string hostStamp();

/**
 * Span recorder: (name, start, end, parent, job id) per span, kept
 * in per-thread memory and written out once when the run ends.
 * Disabled spans cost one relaxed atomic load.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name = "";
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        std::uint32_t id = 0;
        std::uint32_t parent = 0;
        std::uint64_t job = 0;
    };

    /** Handle of an open span (id 0 = not recorded). */
    struct Open
    {
        std::uint32_t id = 0;
        std::uint32_t index = 0;
        std::uint32_t saved_parent = 0;
    };

    static Tracer &instance();

    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Open a span under the calling thread's innermost open span. */
    Open open(const char *name, std::uint64_t job = 0);
    void close(const Open &span);

    /** Record a finished span with an explicit parent. */
    std::uint32_t add(const char *name, Clock::time_point start,
                      Clock::time_point end, std::uint32_t parent,
                      std::uint64_t job = 0);

    /** Make @p parent the calling thread's current parent span. */
    void adopt(std::uint32_t parent);

    /**
     * Print each layer's self time (duration minus the union of its
     * children) aggregated by span name, and the share of the root
     * span that no child covers; write every span to @p path as one
     * JSON object per line. @return the unaccounted share in percent
     * (negative when nothing was recorded).
     */
    double report(const std::string &path, std::size_t &span_count);

  private:
    struct Buffer
    {
        std::vector<Span> spans;
    };

    Buffer &local();
    std::int64_t ns(Clock::time_point t) const;

    std::atomic<bool> enabled_{false};
    std::atomic<std::uint32_t> next_id_{1};
    const Clock::time_point epoch_ = Clock::now();

    std::mutex buffers_mutex_;
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

/** RAII span on the calling thread. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name, std::uint64_t job = 0)
        : open_(Tracer::instance().open(name, job))
    {
    }
    ~ScopedSpan() { Tracer::instance().close(open_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint32_t id() const { return open_.id; }

  private:
    Tracer::Open open_;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
