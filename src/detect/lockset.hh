/**
 * @file
 * An Eraser-style lockset race detector.
 *
 * The contemporary alternative to happens-before detection: every
 * shared variable must be consistently protected by at least one
 * lock. Cheaper than vector clocks and insensitive to scheduling, but
 * famously reports false positives on programs synchronized by
 * anything other than locks (barriers, fork/join, atomics) — the
 * comparison `bench/abl6_lockset` quantifies exactly that against
 * FastTrack on this repository's workloads.
 *
 * One deliberate strengthening over the original Eraser: when a
 * variable leaves Exclusive via a *read* after the owner wrote it,
 * the state goes to Shared-Modified rather than Shared (Eraser's
 * read-shared shortcut silently forgave W->R patterns; later lockset
 * tools, like this one, check them).
 *
 * Layout. Per-granule state is one 8-byte LocksetRecord in a radix
 * page table: the interned candidate-lockset id, the last accessing
 * thread, the Eraser state and two flags. The Exclusive owner is not
 * stored — while a variable is Exclusive it always equals the last
 * thread. The last access's static site, read only to attribute a
 * report, lives in a cold 16-bit SiteSlots<1> column.
 *
 * Locksets are interned as in Eraser's lockset-index table: each
 * distinct sorted set is stored once in a LocksetTable and named by a
 * 32-bit id, 0 being the empty set. A thread's held and write-held
 * ids are recomputed only on lock and unlock; intersections are
 * memoized on the id pair. An access thus costs one radix lookup and
 * an id compare in the common case.
 *
 * The record and site storage (LocksetShadow) can be borrowed from a
 * long-lived engine, which retires it in O(1) per run and recycles
 * its pages; the intern table and per-thread lock state belong to the
 * detector and so last exactly one run.
 */

#ifndef HDRD_DETECT_LOCKSET_HH
#define HDRD_DETECT_LOCKSET_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/radix_table.hh"
#include "detect/detector.hh"
#include "detect/report.hh"
#include "detect/site_table.hh"

namespace hdrd::detect
{

/**
 * Interned locksets: sorted lock-id sets stored once, named by dense
 * 32-bit ids, with memoized pairwise intersection.
 */
class LocksetTable
{
  public:
    /** Id of the empty set. */
    static constexpr std::uint32_t kEmpty = 0;

    LocksetTable() { clear(); }

    /** Id of the set of @p locks (any order, no duplicates). */
    std::uint32_t intern(const std::vector<std::uint64_t> &locks);

    /** The sorted locks of set @p id. */
    const std::vector<std::uint64_t> &locks(std::uint32_t id) const
    {
        return *sets_[id];
    }

    /** Id of the intersection of sets @p a and @p b. */
    std::uint32_t intersect(std::uint32_t a, std::uint32_t b)
    {
        if (a == b)
            return a;
        if (a == kEmpty || b == kEmpty)
            return kEmpty;
        return meet(a, b);
    }

    /** Distinct sets interned so far, the empty set included. */
    std::size_t size() const { return sets_.size(); }

    /** Intersections currently memoized (at most kMaxMeets). */
    std::size_t memoizedMeets() const { return meets_.size(); }

    /**
     * Memo capacity. The memo is a cache over stable ids, so it is
     * dropped whole when full: a run that meets every per-bucket
     * lockset with every other (one fresh pair per shared variable)
     * would otherwise grow it by one entry per variable.
     */
    static constexpr std::size_t kMaxMeets = std::size_t{1} << 16;

    /** Forget every set but the empty one, and every memoized meet. */
    void clear();

  private:
    struct SetHash
    {
        std::size_t operator()(const std::vector<std::uint64_t> &s) const;
    };

    /** Memoized intersection of two distinct non-empty sets. */
    std::uint32_t meet(std::uint32_t a, std::uint32_t b);

    /** Set -> id; the keys are the only copy of each set. */
    std::unordered_map<std::vector<std::uint64_t>, std::uint32_t, SetHash>
        index_;

    /** Id -> set, pointing at index_'s (node-stable) keys. */
    std::vector<const std::vector<std::uint64_t> *> sets_;

    /** (min id, max id) -> intersection id. */
    std::unordered_map<std::uint64_t, std::uint32_t> meets_;

    /** Sort buffer for intern(), kept to avoid reallocating. */
    std::vector<std::uint64_t> scratch_;
};

/** Eraser per-granule state, packed to 8 bytes. */
struct LocksetRecord
{
    /** Eraser variable states. */
    enum State : std::uint8_t
    {
        kVirgin = 0,
        kExclusive,       ///< touched by exactly one thread so far
        kShared,          ///< read by several threads, never written
                          ///< since becoming shared
        kSharedModified,  ///< written while shared: must stay locked
    };

    static constexpr std::uint8_t kStateMask = 0x3;
    static constexpr std::uint8_t kLastWasWrite = 0x4;

    /** Set once the variable has reported: one report per variable. */
    static constexpr std::uint8_t kReported = 0x8;

    /** Interned candidate lockset (LocksetTable id; 0 = empty). */
    std::uint32_t lockset = LocksetTable::kEmpty;

    /** Last accessing thread; the owner while kExclusive. */
    std::uint16_t last_tid = 0;

    /** State | kLastWasWrite | kReported. */
    std::uint8_t bits = 0;

    std::uint8_t spare = 0;

    State state() const { return static_cast<State>(bits & kStateMask); }

    void setState(State s)
    {
        bits = static_cast<std::uint8_t>((bits & ~kStateMask) | s);
    }

    bool lastWasWrite() const { return (bits & kLastWasWrite) != 0; }
    bool reported() const { return (bits & kReported) != 0; }

    bool operator==(const LocksetRecord &) const = default;
};

static_assert(sizeof(LocksetRecord) == 8,
              "LocksetRecord must stay an 8-byte hot record");

/**
 * Per-granule lockset storage: the hot records plus the cold
 * last-access sites. Engines keep one alive across runs.
 */
class LocksetShadow
{
  public:
    LocksetRecord &record(std::uint64_t g) { return records_.get(g); }

    SiteSlots<1> &sites() { return sites_; }

    /** Retire every record and site in O(1), keeping storage. */
    void clear()
    {
        records_.reset();
        sites_.reset();
    }

  private:
    /** 512-granule pages (4 KiB of records). */
    RadixTable<LocksetRecord, 9> records_;
    SiteSlots<1> sites_;
};

/**
 * Eraser's state machine over interned candidate locksets.
 *
 * Thread ids must not exceed Epoch::kMaxTaggableTid (the last thread
 * is stored in 16 bits), which SyncClocks already enforces for runs.
 */
class LocksetDetector : public Detector
{
  public:
    /**
     * @param sink race report collector
     * @param granule_shift log2 bytes of the detection granule
     */
    explicit LocksetDetector(ReportSink &sink,
                             std::uint32_t granule_shift = 3);

    /**
     * Borrow @p shadow instead of owning one. Its previous contents
     * are retired on construction; it must outlive this detector.
     */
    LocksetDetector(ReportSink &sink, LocksetShadow &shadow,
                    std::uint32_t granule_shift);

    AccessOutcome onAccess(ThreadId tid, Addr addr, bool write,
                           SiteId site) override;

    void onLock(ThreadId tid, std::uint64_t lock_id,
                bool write_mode = true) override;
    void onUnlock(ThreadId tid, std::uint64_t lock_id) override;

    void clearShadow() override
    {
        shadow_->clear();
        vars_ = 0;
    }

    const char *name() const override { return "lockset"; }

    /** Locks currently held by @p tid, in acquisition order (tests). */
    std::vector<std::uint64_t> heldLocks(ThreadId tid) const;

    /** Number of tracked variables (tests). */
    std::size_t trackedVars() const { return vars_; }

  private:
    struct ThreadLocks
    {
        std::vector<std::uint64_t> held;  ///< acquisition order
        std::vector<std::uint64_t> write_held;
    };

    /**
     * Interned locks protecting an access by @p tid: all held locks
     * for reads, only write-mode holds for writes (Eraser's rwlock
     * rule).
     */
    std::uint32_t modeLocks(ThreadId tid, bool write) const
    {
        return tid < ids_.size() ? ids_[tid][write] : LocksetTable::kEmpty;
    }

    ThreadLocks &threadLocks(ThreadId tid);

    /** Re-intern @p tid's held and write-held sets. */
    void refreshIds(ThreadId tid);

    ReportSink &sink_;
    std::uint32_t granule_shift_;
    std::unique_ptr<LocksetShadow> owned_;
    LocksetShadow *shadow_;
    LocksetTable sets_;
    std::vector<ThreadLocks> threads_;

    /** Per thread: {held id, write-held id}, indexed by `write`. */
    std::vector<std::array<std::uint32_t, 2>> ids_;

    std::size_t vars_ = 0;
};

} // namespace hdrd::detect

#endif // HDRD_DETECT_LOCKSET_HH
