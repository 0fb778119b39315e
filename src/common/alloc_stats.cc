#include "common/alloc_stats.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace hdrd
{

// Weak no-op fallbacks: the interposer TU (tools/alloc_interpose.cc)
// provides strong definitions when linked into a binary directly,
// and strong object-file symbols beat weak archive members.
__attribute__((weak)) AllocCounters
threadAllocCounters()
{
    return {};
}

__attribute__((weak)) AllocCounters
processAllocCounters()
{
    return {};
}

__attribute__((weak)) bool
allocTrackingActive()
{
    return false;
}

std::uint64_t
peakRssKb()
{
    // VmHWM tracks the same high-water mark getrusage reports but
    // resets with /proc/self/clear_refs, which is what lets the
    // bench attribute a peak to one cell instead of the whole run.
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof line, f) != nullptr) {
            if (std::strncmp(line, "VmHWM:", 6) == 0) {
                std::fclose(f);
                return std::strtoull(line + 6, nullptr, 10);
            }
        }
        std::fclose(f);
    }
    struct rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    // Linux reports ru_maxrss in KiB already.
    return static_cast<std::uint64_t>(ru.ru_maxrss);
}

bool
resetPeakRss()
{
    // Freed-but-retained heap would floor the fresh watermark: hand
    // it back to the OS first.
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr)
        return false;
    const bool wrote = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && wrote;
}

} // namespace hdrd
