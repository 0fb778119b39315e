#include "detect/lockset.hh"

#include <algorithm>
#include <iterator>

#include "common/logging.hh"
#include "detect/epoch.hh"

namespace hdrd::detect
{

std::size_t
LocksetTable::SetHash::operator()(
    const std::vector<std::uint64_t> &s) const
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint64_t lock : s) {
        h ^= lock;
        h *= 0x100000001b3ULL;
    }
    return static_cast<std::size_t>(h ^ (h >> 29));
}

void
LocksetTable::clear()
{
    index_.clear();
    sets_.clear();
    meets_.clear();
    sets_.push_back(&index_.emplace().first->first);
}

std::uint32_t
LocksetTable::intern(const std::vector<std::uint64_t> &locks)
{
    scratch_.assign(locks.begin(), locks.end());
    std::sort(scratch_.begin(), scratch_.end());
    const auto it = index_.find(scratch_);
    if (it != index_.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(sets_.size());
    sets_.push_back(&index_.emplace(scratch_, id).first->first);
    return id;
}

std::uint32_t
LocksetTable::meet(std::uint32_t a, std::uint32_t b)
{
    if (a > b)
        std::swap(a, b);
    const std::uint64_t key = (std::uint64_t{a} << 32) | b;
    if (const auto it = meets_.find(key); it != meets_.end())
        return it->second;
    std::vector<std::uint64_t> common;
    std::set_intersection(sets_[a]->begin(), sets_[a]->end(),
                          sets_[b]->begin(), sets_[b]->end(),
                          std::back_inserter(common));
    const std::uint32_t id = intern(common);
    if (meets_.size() >= kMaxMeets)
        meets_.clear();
    meets_.emplace(key, id);
    return id;
}

LocksetDetector::LocksetDetector(ReportSink &sink,
                                 std::uint32_t granule_shift)
    : sink_(sink), granule_shift_(granule_shift),
      owned_(std::make_unique<LocksetShadow>()), shadow_(owned_.get())
{
}

LocksetDetector::LocksetDetector(ReportSink &sink,
                                 LocksetShadow &shadow,
                                 std::uint32_t granule_shift)
    : sink_(sink), granule_shift_(granule_shift), shadow_(&shadow)
{
    shadow_->clear();
}

LocksetDetector::ThreadLocks &
LocksetDetector::threadLocks(ThreadId tid)
{
    hdrdAssert(tid <= Epoch::kMaxTaggableTid, "lockset thread id ", tid,
               " out of range");
    if (tid >= threads_.size()) {
        threads_.resize(tid + 1);
        ids_.resize(tid + 1, {LocksetTable::kEmpty, LocksetTable::kEmpty});
    }
    return threads_[tid];
}

void
LocksetDetector::refreshIds(ThreadId tid)
{
    const ThreadLocks &t = threads_[tid];
    ids_[tid] = {sets_.intern(t.held), sets_.intern(t.write_held)};
}

void
LocksetDetector::onLock(ThreadId tid, std::uint64_t lock_id,
                        bool write_mode)
{
    ThreadLocks &t = threadLocks(tid);
    const auto add = [lock_id](std::vector<std::uint64_t> &locks) {
        if (std::find(locks.begin(), locks.end(), lock_id)
                != locks.end()) {
            return false;
        }
        locks.push_back(lock_id);
        return true;
    };
    bool changed = add(t.held);
    if (write_mode)
        changed |= add(t.write_held);
    if (changed)
        refreshIds(tid);
}

void
LocksetDetector::onUnlock(ThreadId tid, std::uint64_t lock_id)
{
    ThreadLocks &t = threadLocks(tid);
    const std::size_t removed = std::erase(t.held, lock_id)
        + std::erase(t.write_held, lock_id);
    if (removed != 0)
        refreshIds(tid);
}

std::vector<std::uint64_t>
LocksetDetector::heldLocks(ThreadId tid) const
{
    return tid < threads_.size() ? threads_[tid].held
                                 : std::vector<std::uint64_t>{};
}

AccessOutcome
LocksetDetector::onAccess(ThreadId tid, Addr addr, bool write,
                          SiteId site)
{
    using State = LocksetRecord::State;

    AccessOutcome outcome;
    const std::uint64_t g = addr >> granule_shift_;
    LocksetRecord &slot = shadow_->record(g);
    LocksetRecord rec = slot;
    const std::uint32_t locks = modeLocks(tid, write);

    switch (rec.state()) {
      case State::kVirgin:
        rec.setState(State::kExclusive);
        rec.lockset = locks;
        ++vars_;
        break;

      case State::kExclusive:
        if (rec.last_tid == tid) {
            // Track the owner's lockset so the eventual transition
            // intersects both sides (sharper than original Eraser,
            // which seeded C(v) from the second thread only and
            // needed a third access to notice a two-lock mismatch).
            rec.lockset = locks;
            break;
        }
        outcome.inter_thread = true;
        rec.lockset = sets_.intersect(rec.lockset, locks);
        rec.setState((write || rec.lastWasWrite())
                         ? State::kSharedModified
                         : State::kShared);
        break;

      case State::kShared:
        outcome.inter_thread = rec.last_tid != tid;
        rec.lockset = sets_.intersect(rec.lockset, locks);
        if (write)
            rec.setState(State::kSharedModified);
        break;

      case State::kSharedModified:
        outcome.inter_thread = rec.last_tid != tid;
        rec.lockset = sets_.intersect(rec.lockset, locks);
        break;
    }

    if (rec.reported()) {
        // No further report can name this variable, so its last site
        // is dead: skip the cold-column store.
    } else if (rec.state() == State::kSharedModified
               && rec.lockset == LocksetTable::kEmpty) {
        rec.bits |= LocksetRecord::kReported;
        outcome.race = true;
        sink_.report(RaceReport{
            .addr = addr,
            .type = write
                ? (rec.lastWasWrite() ? RaceType::kWriteWrite
                                      : RaceType::kReadWrite)
                : RaceType::kWriteRead,
            .first_tid = rec.last_tid,
            .first_site = shadow_->sites().get(g),
            .second_tid = tid,
            .second_site = site,
        });
    } else {
        shadow_->sites().set(g, site);
    }

    rec.last_tid = static_cast<std::uint16_t>(tid);
    rec.bits = static_cast<std::uint8_t>(
        (rec.bits & ~LocksetRecord::kLastWasWrite)
        | (write ? LocksetRecord::kLastWasWrite : 0));
    // Store-avoiding: an owner re-touching its own granule leaves the
    // record unchanged and the shadow line clean.
    if (!(rec == slot))
        slot = rec;
    return outcome;
}

} // namespace hdrd::detect
