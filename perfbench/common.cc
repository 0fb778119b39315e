#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <unordered_map>

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <unistd.h>

#include "detect/clock_simd.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
msBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
tailQuantile(std::vector<double> v, double q)
{
    const double beyond =
        static_cast<double>(v.size()) * std::min(q, 1.0 - q);
    if (v.empty() || beyond < 10.0)
        return -1.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

namespace
{

std::string
procPath(int pid, const char *leaf)
{
    return pid == 0 ? std::string("/proc/self/") + leaf
                    : "/proc/" + std::to_string(pid) + "/" + leaf;
}

/** First line of @p path starting with @p key, minus the key. */
std::string
fieldOf(const std::string &path, const char *key)
{
    std::ifstream in(path);
    std::string line;
    const std::size_t n = std::strlen(key);
    while (std::getline(in, line)) {
        if (line.compare(0, n, key) == 0)
            return line.substr(n);
    }
    return "";
}

std::string
trim(const std::string &s)
{
    const std::size_t b = s.find_first_not_of(" \t:");
    const std::size_t e = s.find_last_not_of(" \t\n");
    return b == std::string::npos ? "" : s.substr(b, e - b + 1);
}

} // namespace

std::uint64_t
peakRssKbOf(int pid)
{
    const std::string v = fieldOf(procPath(pid, "status"), "VmHWM:");
    return v.empty() ? 0 : std::strtoull(v.c_str(), nullptr, 10);
}

bool
resetPeakRssOf(int pid)
{
    std::ofstream out(procPath(pid, "clear_refs"));
    out << "5";
    out.flush();
    return static_cast<bool>(out);
}

void
trimHeap()
{
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
}

namespace
{

std::uint64_t g_calib_table[2048];
volatile std::uint64_t g_calib_sink;

} // namespace

double
calibrate()
{
    std::uint64_t x = 88172645463325252ULL;
    const auto t0 = Clock::now();
    for (int i = 0; i < 1000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint64_t &w = g_calib_table[x & 2047];
        w = (w & 1) != 0 ? w + (x >> 40) : w ^ x;
    }
    const double ms = msBetween(t0, Clock::now());
    g_calib_sink = g_calib_table[x & 2047];
    return ms;
}

double
calibrateMemory(int threads)
{
    // One table per thread, allocated and touched once, so later
    // calls time memory accesses and not page faults.
    static std::vector<std::vector<std::uint64_t>> tables;
    while (tables.size() < static_cast<std::size_t>(threads))
        tables.emplace_back(std::size_t{1} << 19, 1);
    std::vector<double> ms(threads);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&ms, t] {
            std::vector<std::uint64_t> &table = tables[t];
            const std::size_t mask = table.size() - 1;
            std::uint64_t x = 88172645463325252ULL + t;
            const auto t0 = Clock::now();
            for (int i = 0; i < 200000; ++i) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                table[x & mask] += x;
            }
            ms[t] = msBetween(t0, Clock::now());
            g_calib_sink = table[x & mask];
        });
    }
    for (std::thread &t : pool)
        t.join();
    return median(ms);
}

std::string
hostStamp()
{
    std::string thp = "unknown";
    {
        std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
        std::string line;
        if (std::getline(in, line)) {
            const std::size_t b = line.find('[');
            const std::size_t e = line.find(']');
            if (b != std::string::npos && e != std::string::npos)
                thp = line.substr(b + 1, e - b - 1);
        }
    }
    std::string cpu = trim(fieldOf("/proc/cpuinfo", "model name"));
    for (char &c : cpu) {
        if (c == '"' || c == '\\')
            c = ' ';
    }
    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
#if defined(__clang__)
    const std::string compiler = std::string("clang-") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc-") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    std::ostringstream os;
    os << "{\"nproc\": " << nproc << ", \"cpu\": \"" << cpu
       << "\", \"build\": \"" << PERFBENCH_BUILD_TYPE
       << "\", \"compiler\": \"" << compiler
       << "\", \"clock_simd\": \"" << hdrd::detect::simd::activeLevel()
       << "\", \"thp\": \"" << thp << "\"}";
    return os.str();
}

// ---------------------------------------------------------------------
// Tracer

namespace
{

thread_local std::uint32_t t_parent = 0;

} // namespace

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

Tracer::Buffer &
Tracer::local()
{
    thread_local Buffer *buffer = nullptr;
    if (buffer == nullptr) {
        auto owned = std::make_unique<Buffer>();
        owned->spans.reserve(1 << 12);
        buffer = owned.get();
        std::lock_guard<std::mutex> lock(buffers_mutex_);
        buffers_.push_back(std::move(owned));
    }
    return *buffer;
}

std::int64_t
Tracer::ns(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
}

Tracer::Open
Tracer::open(const char *name, std::uint64_t job)
{
    if (!enabled())
        return {};
    Buffer &b = local();
    Open o;
    o.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    o.index = static_cast<std::uint32_t>(b.spans.size());
    o.saved_parent = t_parent;
    b.spans.push_back(Span{name, ns(Clock::now()), 0, o.id, t_parent, job});
    t_parent = o.id;
    return o;
}

void
Tracer::close(const Open &span)
{
    if (span.id == 0)
        return;
    local().spans[span.index].end_ns = ns(Clock::now());
    t_parent = span.saved_parent;
}

std::uint32_t
Tracer::add(const char *name, Clock::time_point start,
            Clock::time_point end, std::uint32_t parent,
            std::uint64_t job)
{
    if (!enabled())
        return 0;
    const std::uint32_t id =
        next_id_.fetch_add(1, std::memory_order_relaxed);
    local().spans.push_back(Span{name, ns(start), ns(end), id, parent, job});
    return id;
}

void
Tracer::adopt(std::uint32_t parent)
{
    t_parent = parent;
}

double
Tracer::report(const std::string &path, std::size_t &span_count)
{
    std::vector<Span> all;
    {
        std::lock_guard<std::mutex> lock(buffers_mutex_);
        for (const auto &b : buffers_)
            all.insert(all.end(), b->spans.begin(), b->spans.end());
    }
    span_count = all.size();
    if (all.empty())
        return -1.0;

    std::unordered_map<std::uint32_t, std::size_t> index;
    std::unordered_map<std::uint32_t, std::vector<std::size_t>> children;
    for (std::size_t i = 0; i < all.size(); ++i) {
        index[all[i].id] = i;
        children[all[i].parent].push_back(i);
    }

    struct Agg
    {
        std::size_t count = 0;
        double total_ms = 0.0;
        double self_ms = 0.0;
    };
    std::map<std::string, Agg> by_name;
    double root_ms = 0.0;
    double root_self_ms = 0.0;
    for (const Span &s : all) {
        const std::int64_t end = std::max(s.end_ns, s.start_ns);
        std::vector<std::pair<std::int64_t, std::int64_t>> cover;
        for (const std::size_t c : children[s.id]) {
            const std::int64_t a = std::max(all[c].start_ns, s.start_ns);
            const std::int64_t z = std::min(all[c].end_ns, end);
            if (z > a)
                cover.emplace_back(a, z);
        }
        std::sort(cover.begin(), cover.end());
        std::int64_t covered = 0;
        std::int64_t run_a = 0;
        std::int64_t run_z = -1;
        for (const auto &[a, z] : cover) {
            if (a > run_z) {
                covered += std::max<std::int64_t>(0, run_z - run_a);
                run_a = a;
                run_z = z;
            } else {
                run_z = std::max(run_z, z);
            }
        }
        covered += std::max<std::int64_t>(0, run_z - run_a);
        const double dur_ms = static_cast<double>(end - s.start_ns) / 1e6;
        const double self_ms =
            static_cast<double>(end - s.start_ns - covered) / 1e6;
        Agg &agg = by_name[s.name];
        ++agg.count;
        agg.total_ms += dur_ms;
        agg.self_ms += self_ms;
        if (s.parent == 0 || index.find(s.parent) == index.end()) {
            root_ms += dur_ms;
            root_self_ms += self_ms;
        }
    }

    std::vector<std::pair<std::string, Agg>> rows(by_name.begin(),
                                                  by_name.end());
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second.self_ms > b.second.self_ms;
    });
    std::printf("# layer self times (%zu spans; self = duration minus "
                "the union of child spans; threads overlap, so shares "
                "can sum past 100%%)\n",
                all.size());
    std::printf("#   %-28s %8s %12s %12s %7s\n", "span", "count",
                "total_ms", "self_ms", "self%");
    for (const auto &[name, agg] : rows) {
        std::printf("#   %-28s %8zu %12.3f %12.3f %6.1f%%\n", name.c_str(),
                    agg.count, agg.total_ms, agg.self_ms,
                    root_ms > 0.0 ? 100.0 * agg.self_ms / root_ms : 0.0);
    }
    const double unaccounted =
        root_ms > 0.0 ? 100.0 * root_self_ms / root_ms : 0.0;
    std::printf("# unaccounted: %.3f ms of %.3f ms root time (%.2f%%) "
                "lies in no layer span\n",
                root_self_ms, root_ms, unaccounted);

    std::ofstream out(path, std::ios::trunc);
    for (const Span &s : all) {
        out << "{\"name\": \"" << s.name << "\", \"start_ns\": "
            << s.start_ns << ", \"end_ns\": " << s.end_ns
            << ", \"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"job\": " << s.job << "}\n";
    }
    if (out)
        std::printf("# spans written to %s\n", path.c_str());
    return unaccounted;
}

} // namespace perfbench
