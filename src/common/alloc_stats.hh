/**
 * @file
 * Thread-local allocation counters and peak-RSS reporting for the
 * benchmark tools.
 *
 * The memory round's whole point is taking the allocator out of the
 * detector's steady state, so the benchmark must be able to see
 * allocator traffic. Counting happens in an *interposer* translation
 * unit (tools/alloc_interpose.cc) that overrides global operator
 * new/delete and is linked only into binaries that want it; the
 * library carries weak no-op fallbacks, so ordinary builds pay
 * nothing and report the counters as untracked.
 */

#ifndef HDRD_COMMON_ALLOC_STATS_HH
#define HDRD_COMMON_ALLOC_STATS_HH

#include <cstdint>

namespace hdrd
{

/** Allocation totals for one thread since it started. */
struct AllocCounters
{
    /** Calls into operator new (all flavours). */
    std::uint64_t count = 0;

    /** Sum of requested sizes, in bytes. */
    std::uint64_t bytes = 0;
};

/**
 * Snapshot of the calling thread's allocation counters. All-zero
 * (and meaningless) unless allocTrackingActive().
 */
AllocCounters threadAllocCounters();

/**
 * Exact process-wide allocation totals: the sum over every thread
 * that ever allocated, live or exited. Each thread counts into its
 * own cache line with no atomics; exited threads fold their totals
 * into a retired accumulator on the way out. The sum is exact
 * whenever allocating threads are quiescent (joined, or between ops
 * in a single-worker bench), which is the only time the bench reads
 * it. All-zero unless allocTrackingActive().
 */
AllocCounters processAllocCounters();

/** True when the interposer TU is linked in and counting. */
bool allocTrackingActive();

/**
 * Process peak resident set size in KiB: VmHWM from
 * /proc/self/status when available (resettable), getrusage
 * otherwise, 0 if unknown.
 */
std::uint64_t peakRssKb();

/**
 * Reset the kernel's peak-RSS watermark (write "5" to
 * /proc/self/clear_refs) so peakRssKb() measures the high-water mark
 * of just the work that follows. Trims the allocator first, so heap
 * an earlier, bigger measurement freed does not floor the new one.
 * @return false when unsupported.
 */
bool resetPeakRss();

} // namespace hdrd

#endif // HDRD_COMMON_ALLOC_STATS_HH
