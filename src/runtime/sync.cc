#include "runtime/sync.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hdrd::runtime
{

bool
SyncObjects::tryLock(ThreadId tid, std::uint64_t id, Cycle now)
{
    (void)now;
    Mutex &mutex = mutexes_[id];
    if (mutex.owner == kInvalidThread) {
        mutex.owner = tid;
        return true;
    }
    // Direct handoff: unlock() transfers ownership to the oldest
    // waiter before it retries its lock op, so "already mine" means
    // the retry succeeds.
    if (mutex.owner == tid)
        return true;
    // Queue once: a blocked thread retries the same op after waking,
    // at which point ownership was already handed to it.
    if (std::find(mutex.waiters.begin(), mutex.waiters.end(), tid)
            == mutex.waiters.end()) {
        mutex.waiters.push_back(tid);
    }
    return false;
}

std::optional<Wakeup>
SyncObjects::unlock(ThreadId tid, std::uint64_t id, Cycle now)
{
    auto it = mutexes_.find(id);
    hdrdAssert(it != mutexes_.end() && it->second.owner == tid,
               "unlock of mutex ", id, " not owned by thread ", tid);
    Mutex &mutex = it->second;
    if (mutex.waiters.empty()) {
        mutex.owner = kInvalidThread;
        return std::nullopt;
    }
    // Direct handoff to the oldest waiter.
    const ThreadId next = mutex.waiters.front();
    mutex.waiters.pop_front();
    mutex.owner = next;
    return Wakeup{next, now};
}

ThreadId
SyncObjects::owner(std::uint64_t id) const
{
    auto it = mutexes_.find(id);
    return it == mutexes_.end() ? kInvalidThread : it->second.owner;
}

std::optional<std::vector<Wakeup>>
SyncObjects::arriveBarrier(ThreadId tid, std::uint64_t id,
                           std::uint32_t expected, Cycle now)
{
    hdrdAssert(expected >= 1, "barrier needs at least one participant");
    if (const char *why = barrierMisuse(tid, id, expected))
        panic(why, " (thread ", tid, ", barrier ", id, ")");
    Barrier &barrier = barriers_[id];
    if (barrier.arrived.empty())
        barrier.expected = expected;
    barrier.arrived.push_back(tid);
    barrier.max_arrival = std::max(barrier.max_arrival, now);

    if (barrier.arrived.size() < barrier.expected)
        return std::nullopt;

    // Open: release every participant (including the final arriver,
    // whose clock may lag slower cores') at the max arrival time, then
    // reset for the next generation.
    std::vector<Wakeup> woken;
    for (ThreadId waiter : barrier.arrived)
        woken.push_back(Wakeup{waiter, barrier.max_arrival});
    barrier.arrived.clear();
    barrier.max_arrival = 0;
    return woken;
}

const char *
SyncObjects::barrierMisuse(ThreadId tid, std::uint64_t id,
                           std::uint32_t expected) const
{
    const auto it = barriers_.find(id);
    if (it == barriers_.end() || it->second.arrived.empty())
        return nullptr;  // a fresh generation takes any count
    const Barrier &barrier = it->second;
    if (barrier.expected != expected)
        return "inconsistent participant count";
    if (std::find(barrier.arrived.begin(), barrier.arrived.end(), tid)
        != barrier.arrived.end())
        return "thread arrived twice in one generation";
    return nullptr;
}

std::vector<ThreadId>
SyncObjects::barrierWaiters(std::uint64_t id) const
{
    auto it = barriers_.find(id);
    return it == barriers_.end() ? std::vector<ThreadId>{}
                                 : it->second.arrived;
}

bool
SyncObjects::RwLock::queued(ThreadId tid) const
{
    for (const auto &[waiter, wants_write] : waiters) {
        if (waiter == tid)
            return true;
    }
    return false;
}

std::vector<Wakeup>
SyncObjects::grantRw(RwLock &lock, Cycle now)
{
    std::vector<Wakeup> woken;
    for (;;) {
        if (lock.waiters.empty())
            break;
        const auto [tid, wants_write] = lock.waiters.front();
        if (wants_write) {
            // A writer goes next only when the lock is fully free,
            // and then nothing else is granted.
            if (lock.writer == kInvalidThread
                && lock.readers.empty()) {
                lock.waiters.pop_front();
                lock.writer = tid;
                woken.push_back(Wakeup{tid, now});
            }
            break;
        }
        // Readers are granted while no writer holds the lock; keep
        // draining consecutive readers.
        if (lock.writer != kInvalidThread)
            break;
        lock.waiters.pop_front();
        lock.readers.push_back(tid);
        woken.push_back(Wakeup{tid, now});
    }
    return woken;
}

bool
SyncObjects::tryRdLock(ThreadId tid, std::uint64_t id, Cycle now)
{
    (void)now;
    RwLock &lock = rwlocks_[id];
    // Handoff: the unlock path may have admitted us already.
    if (std::find(lock.readers.begin(), lock.readers.end(), tid)
            != lock.readers.end()) {
        return true;
    }
    // Writer-preference: queue behind any waiting writer.
    if (lock.writer == kInvalidThread && lock.waiters.empty()) {
        lock.readers.push_back(tid);
        return true;
    }
    if (!lock.queued(tid))
        lock.waiters.emplace_back(tid, false);
    return false;
}

bool
SyncObjects::tryWrLock(ThreadId tid, std::uint64_t id, Cycle now)
{
    (void)now;
    RwLock &lock = rwlocks_[id];
    if (lock.writer == tid)
        return true;  // handoff grant
    if (lock.writer == kInvalidThread && lock.readers.empty()
        && lock.waiters.empty()) {
        lock.writer = tid;
        return true;
    }
    if (!lock.queued(tid))
        lock.waiters.emplace_back(tid, true);
    return false;
}

std::vector<Wakeup>
SyncObjects::rdUnlock(ThreadId tid, std::uint64_t id, Cycle now)
{
    auto it = rwlocks_.find(id);
    hdrdAssert(it != rwlocks_.end(), "rd-unlock of unknown rwlock ",
               id);
    RwLock &lock = it->second;
    auto pos =
        std::find(lock.readers.begin(), lock.readers.end(), tid);
    hdrdAssert(pos != lock.readers.end(),
               "rd-unlock of rwlock ", id, " not read-held by thread ",
               tid);
    lock.readers.erase(pos);
    return grantRw(lock, now);
}

std::vector<Wakeup>
SyncObjects::wrUnlock(ThreadId tid, std::uint64_t id, Cycle now)
{
    auto it = rwlocks_.find(id);
    hdrdAssert(it != rwlocks_.end() && it->second.writer == tid,
               "wr-unlock of rwlock ", id,
               " not write-held by thread ", tid);
    it->second.writer = kInvalidThread;
    return grantRw(it->second, now);
}

ThreadId
SyncObjects::rwWriter(std::uint64_t id) const
{
    auto it = rwlocks_.find(id);
    return it == rwlocks_.end() ? kInvalidThread : it->second.writer;
}

std::size_t
SyncObjects::rwReaders(std::uint64_t id) const
{
    auto it = rwlocks_.find(id);
    return it == rwlocks_.end() ? 0 : it->second.readers.size();
}

bool
SyncObjects::rdHolds(ThreadId tid, std::uint64_t id) const
{
    const auto it = rwlocks_.find(id);
    return it != rwlocks_.end()
        && std::count(it->second.readers.begin(),
                      it->second.readers.end(), tid) != 0;
}

std::vector<Wakeup>
SyncObjects::onAtomicRmw(std::uint64_t key, Cycle now)
{
    AtomicCell &cell = atomics_[key];
    ++cell.rmw_count;
    std::vector<Wakeup> woken;
    auto it = cell.waiters.begin();
    while (it != cell.waiters.end()) {
        if (it->second <= cell.rmw_count) {
            woken.push_back(Wakeup{it->first, now});
            it = cell.waiters.erase(it);
        } else {
            ++it;
        }
    }
    return woken;
}

bool
SyncObjects::atomicSatisfied(std::uint64_t key,
                             std::uint64_t threshold) const
{
    auto it = atomics_.find(key);
    const std::uint64_t count =
        it == atomics_.end() ? 0 : it->second.rmw_count;
    return count >= threshold;
}

void
SyncObjects::addAtomicWaiter(ThreadId waiter, std::uint64_t key,
                             std::uint64_t threshold)
{
    AtomicCell &cell = atomics_[key];
    for (const auto &[tid, th] : cell.waiters) {
        if (tid == waiter)
            return;  // retried while already parked
    }
    cell.waiters.emplace_back(waiter, threshold);
}

std::uint64_t
SyncObjects::atomicCount(std::uint64_t key) const
{
    auto it = atomics_.find(key);
    return it == atomics_.end() ? 0 : it->second.rmw_count;
}

void
SyncObjects::addJoinWaiter(ThreadId waiter, ThreadId target)
{
    join_waiters_[target].push_back(waiter);
}

std::vector<Wakeup>
SyncObjects::onThreadFinished(ThreadId target, Cycle now)
{
    std::vector<Wakeup> woken;
    auto it = join_waiters_.find(target);
    if (it == join_waiters_.end())
        return woken;
    for (ThreadId waiter : it->second)
        woken.push_back(Wakeup{waiter, now});
    join_waiters_.erase(it);
    return woken;
}

bool
SyncObjects::anyWaiters() const
{
    for (const auto &[id, mutex] : mutexes_) {
        if (!mutex.waiters.empty())
            return true;
    }
    for (const auto &[id, barrier] : barriers_) {
        if (!barrier.arrived.empty())
            return true;
    }
    for (const auto &[key, cell] : atomics_) {
        if (!cell.waiters.empty())
            return true;
    }
    for (const auto &[id, lock] : rwlocks_) {
        if (!lock.waiters.empty())
            return true;
    }
    return !join_waiters_.empty();
}

std::string
SyncObjects::blockedOn(ThreadId tid) const
{
    const auto has = [tid](const auto &threads) {
        return std::find(threads.begin(), threads.end(), tid)
            != threads.end();
    };
    for (const auto &[id, mutex] : mutexes_) {
        if (has(mutex.waiters))
            return "mutex " + std::to_string(id);
    }
    for (const auto &[id, lock] : rwlocks_) {
        if (lock.queued(tid))
            return "rwlock " + std::to_string(id);
    }
    for (const auto &[id, barrier] : barriers_) {
        if (has(barrier.arrived))
            return "barrier " + std::to_string(id);
    }
    for (const auto &[key, cell] : atomics_) {
        for (const auto &[waiter, threshold] : cell.waiters) {
            if (waiter == tid)
                return "atomic cell " + std::to_string(key);
        }
    }
    for (const auto &[target, waiters] : join_waiters_) {
        if (has(waiters))
            return "join of thread " + std::to_string(target);
    }
    return "";
}

} // namespace hdrd::runtime
