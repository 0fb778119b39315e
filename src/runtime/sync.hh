/**
 * @file
 * Simulated synchronization objects: mutexes and barriers.
 *
 * SyncObjects models blocking semantics and wake timing only; the
 * happens-before consequences of these operations are applied by the
 * simulator through detect::SyncClocks.
 */

#ifndef HDRD_RUNTIME_SYNC_HH
#define HDRD_RUNTIME_SYNC_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace hdrd::runtime
{

/** A thread released from a block, and when it may resume. */
struct Wakeup
{
    ThreadId tid = kInvalidThread;
    Cycle when = 0;
};

/**
 * Mutexes and barriers, keyed by workload-chosen 64-bit ids.
 */
class SyncObjects
{
  public:
    /**
     * Attempt to acquire mutex @p id for @p tid at time @p now.
     * On failure the thread is queued as a waiter and must block.
     * @return true when the lock was taken.
     */
    bool tryLock(ThreadId tid, std::uint64_t id, Cycle now);

    /**
     * Release mutex @p id. Ownership passes to the oldest waiter, who
     * is returned for waking; the mutex frees when no one waits.
     * @pre @p tid owns the mutex.
     */
    std::optional<Wakeup> unlock(ThreadId tid, std::uint64_t id,
                                 Cycle now);

    /** Owner of mutex @p id (kInvalidThread when free). */
    ThreadId owner(std::uint64_t id) const;

    /**
     * Arrive at barrier @p id expecting @p expected participants.
     * The final arriver releases everyone.
     * @return when the barrier opens: every participant (including
     *         the final arriver) with the release time — the max
     *         arrival time across participants; nullopt while filling.
     */
    std::optional<std::vector<Wakeup>> arriveBarrier(
        ThreadId tid, std::uint64_t id, std::uint32_t expected,
        Cycle now);

    /**
     * Why arriveBarrier(@p tid, @p id, @p expected) would break the
     * barrier's rules — a participant count that disagrees with the
     * filling generation's, or a second arrival in one generation —
     * or nullptr when the arrival is valid.
     */
    const char *barrierMisuse(ThreadId tid, std::uint64_t id,
                              std::uint32_t expected) const;

    /** Threads currently parked at barrier @p id. */
    std::vector<ThreadId> barrierWaiters(std::uint64_t id) const;

    /**
     * Reader-writer lock operations. Writer-preference: new readers
     * queue behind any waiting writer. Like mutexes, grants hand off
     * at unlock time and the woken thread's retried lock op succeeds.
     */
    bool tryRdLock(ThreadId tid, std::uint64_t id, Cycle now);
    bool tryWrLock(ThreadId tid, std::uint64_t id, Cycle now);

    /** @return threads granted the lock (to wake), if any. */
    std::vector<Wakeup> rdUnlock(ThreadId tid, std::uint64_t id,
                                 Cycle now);
    std::vector<Wakeup> wrUnlock(ThreadId tid, std::uint64_t id,
                                 Cycle now);

    /** Current write holder of rwlock @p id (kInvalidThread if none). */
    ThreadId rwWriter(std::uint64_t id) const;

    /** Current read holders of rwlock @p id. */
    std::size_t rwReaders(std::uint64_t id) const;

    /** True when @p tid holds rwlock @p id for reading. */
    bool rdHolds(ThreadId tid, std::uint64_t id) const;

    /**
     * One atomic RMW executed on atomic cell @p key at time @p now.
     * @return waiters whose thresholds are now satisfied.
     */
    std::vector<Wakeup> onAtomicRmw(std::uint64_t key, Cycle now);

    /**
     * Would an atomic wait for @p threshold RMWs on @p key pass now?
     */
    bool atomicSatisfied(std::uint64_t key,
                         std::uint64_t threshold) const;

    /** Park @p waiter until @p key has seen @p threshold RMWs. */
    void addAtomicWaiter(ThreadId waiter, std::uint64_t key,
                         std::uint64_t threshold);

    /** RMWs observed on atomic cell @p key (tests). */
    std::uint64_t atomicCount(std::uint64_t key) const;

    /**
     * Record that @p waiter blocks until thread @p target finishes.
     */
    void addJoinWaiter(ThreadId waiter, ThreadId target);

    /**
     * Thread @p target finished at @p now: collect every join waiter.
     */
    std::vector<Wakeup> onThreadFinished(ThreadId target, Cycle now);

    /** Any thread blocked on any object (deadlock diagnostics). */
    bool anyWaiters() const;

    /**
     * The object @p tid is blocked on, e.g. "mutex 2" or "join of
     * thread 3"; empty when it waits on nothing (deadlock reports).
     */
    std::string blockedOn(ThreadId tid) const;

  private:
    struct Mutex
    {
        ThreadId owner = kInvalidThread;
        std::deque<ThreadId> waiters;
    };

    struct Barrier
    {
        std::uint32_t expected = 0;
        std::vector<ThreadId> arrived;
        Cycle max_arrival = 0;
    };

    struct AtomicCell
    {
        std::uint64_t rmw_count = 0;
        std::vector<std::pair<ThreadId, std::uint64_t>> waiters;
    };

    struct RwLock
    {
        ThreadId writer = kInvalidThread;
        std::vector<ThreadId> readers;

        /** FIFO of (tid, wants_write). */
        std::deque<std::pair<ThreadId, bool>> waiters;

        bool queued(ThreadId tid) const;
    };

    /** Grant as much of @p lock's queue as semantics allow. */
    static std::vector<Wakeup> grantRw(RwLock &lock, Cycle now);

    std::unordered_map<std::uint64_t, Mutex> mutexes_;
    std::unordered_map<std::uint64_t, RwLock> rwlocks_;
    std::unordered_map<std::uint64_t, Barrier> barriers_;
    std::unordered_map<std::uint64_t, AtomicCell> atomics_;
    std::unordered_map<ThreadId, std::vector<ThreadId>> join_waiters_;
};

} // namespace hdrd::runtime

#endif // HDRD_RUNTIME_SYNC_HH
