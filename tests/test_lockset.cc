/**
 * @file
 * Tests for the Eraser-style lockset detector: the state machine,
 * candidate-set refinement, and its characteristic strengths
 * (schedule insensitivity) and weaknesses (false positives on
 * non-lock synchronization) versus happens-before detection. A
 * differential property test drives the packed, interned detector
 * and a plain vector/hash-map Eraser reference with the same random
 * lock and access sequences.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "detect/epoch.hh"
#include "detect/lockset.hh"
#include "instr/cost_model.hh"
#include "runtime/simulator.hh"
#include "workloads/registry.hh"
#include "workloads/synthetic.hh"

using namespace hdrd;
using namespace hdrd::detect;
using namespace hdrd::runtime;
using namespace hdrd::workloads;
using instr::ToolMode;

namespace
{

constexpr Addr kX = 0x1000;

/**
 * Reference Eraser: per-variable candidate vectors in a hash map,
 * per-thread held-lock vectors, every report recorded. Deliberately
 * the simplest correct form of the state machine LocksetDetector
 * implements over packed records and interned sets.
 */
class RefEraser
{
  public:
    explicit RefEraser(std::uint32_t granule_shift)
        : granule_shift_(granule_shift)
    {
    }

    void onLock(ThreadId tid, std::uint64_t lock, bool write_mode)
    {
        addUnique(held_[tid], lock);
        if (write_mode)
            addUnique(write_held_[tid], lock);
    }

    void onUnlock(ThreadId tid, std::uint64_t lock)
    {
        std::erase(held_[tid], lock);
        std::erase(write_held_[tid], lock);
    }

    std::vector<std::uint64_t> heldLocks(ThreadId tid) const
    {
        const auto it = held_.find(tid);
        return it == held_.end() ? std::vector<std::uint64_t>{}
                                 : it->second;
    }

    std::size_t trackedVars() const { return vars_.size(); }
    void clearShadow() { vars_.clear(); }

    /** @return the access's outcome; a race lands in @p report. */
    AccessOutcome onAccess(ThreadId tid, Addr addr, bool write,
                           SiteId site, RaceReport &report)
    {
        AccessOutcome outcome;
        Var &var = vars_[addr >> granule_shift_];
        const std::vector<std::uint64_t> &locks =
            write ? write_held_[tid] : held_[tid];
        const auto refine = [&] {
            std::erase_if(var.candidates, [&](std::uint64_t lock) {
                return std::find(locks.begin(), locks.end(), lock)
                    == locks.end();
            });
        };
        switch (var.state) {
          case kVirgin:
            var.state = kExclusive;
            var.owner = tid;
            var.candidates = locks;
            break;
          case kExclusive:
            if (var.owner == tid) {
                var.candidates = locks;
                break;
            }
            outcome.inter_thread = true;
            refine();
            var.state = (write || var.last_was_write) ? kSharedModified
                                                      : kShared;
            break;
          case kShared:
            outcome.inter_thread = var.last_tid != tid;
            refine();
            if (write)
                var.state = kSharedModified;
            break;
          case kSharedModified:
            outcome.inter_thread = var.last_tid != tid;
            refine();
            break;
        }
        if (var.state == kSharedModified && var.candidates.empty()
            && !var.reported) {
            var.reported = true;
            outcome.race = true;
            report = RaceReport{
                .addr = addr,
                .type = write ? (var.last_was_write
                                     ? RaceType::kWriteWrite
                                     : RaceType::kReadWrite)
                              : RaceType::kWriteRead,
                .first_tid = var.last_tid,
                .first_site = var.last_site,
                .second_tid = tid,
                .second_site = site,
            };
        }
        var.last_tid = tid;
        var.last_site = site;
        var.last_was_write = write;
        return outcome;
    }

  private:
    enum State
    {
        kVirgin,
        kExclusive,
        kShared,
        kSharedModified,
    };

    struct Var
    {
        State state = kVirgin;
        ThreadId owner = kInvalidThread;
        std::vector<std::uint64_t> candidates;
        ThreadId last_tid = kInvalidThread;
        SiteId last_site = kInvalidSite;
        bool last_was_write = false;
        bool reported = false;
    };

    static void addUnique(std::vector<std::uint64_t> &v,
                          std::uint64_t lock)
    {
        if (std::find(v.begin(), v.end(), lock) == v.end())
            v.push_back(lock);
    }

    std::uint32_t granule_shift_;
    std::unordered_map<std::uint64_t, Var> vars_;
    std::unordered_map<ThreadId, std::vector<std::uint64_t>> held_;
    std::unordered_map<ThreadId, std::vector<std::uint64_t>>
        write_held_;
};

bool
sameReport(const RaceReport &a, const RaceReport &b)
{
    return a.addr == b.addr && a.type == b.type
        && a.first_tid == b.first_tid && a.first_site == b.first_site
        && a.second_tid == b.second_tid
        && a.second_site == b.second_site;
}

} // namespace

TEST(Lockset, HeldLockTracking)
{
    ReportSink sink;
    LocksetDetector detector(sink);
    detector.onLock(0, 7);
    detector.onLock(0, 8);
    detector.onLock(0, 7);  // re-acquire is idempotent
    EXPECT_EQ(detector.heldLocks(0).size(), 2u);
    detector.onUnlock(0, 7);
    ASSERT_EQ(detector.heldLocks(0).size(), 1u);
    EXPECT_EQ(detector.heldLocks(0)[0], 8u);
    EXPECT_TRUE(detector.heldLocks(1).empty());
}

TEST(Lockset, SingleThreadNeverReports)
{
    ReportSink sink;
    LocksetDetector detector(sink);
    for (int i = 0; i < 10; ++i) {
        detector.onAccess(0, kX, true, 1);
        detector.onAccess(0, kX, false, 2);
    }
    EXPECT_EQ(sink.uniqueCount(), 0u);
}

TEST(Lockset, ConsistentLockingIsClean)
{
    ReportSink sink;
    LocksetDetector detector(sink);
    for (ThreadId t = 0; t < 3; ++t) {
        detector.onLock(t, 5);
        detector.onAccess(t, kX, true, t);
        detector.onUnlock(t, 5);
    }
    EXPECT_EQ(sink.uniqueCount(), 0u);
}

TEST(Lockset, UnlockedSharedWriteReports)
{
    ReportSink sink;
    LocksetDetector detector(sink);
    detector.onAccess(0, kX, true, 1);
    const auto out = detector.onAccess(1, kX, true, 2);
    EXPECT_TRUE(out.race);
    EXPECT_TRUE(out.inter_thread);
    EXPECT_EQ(sink.uniqueCount(), 1u);
}

TEST(Lockset, InconsistentLocksReport)
{
    ReportSink sink;
    LocksetDetector detector(sink);
    detector.onLock(0, 5);
    detector.onAccess(0, kX, true, 1);
    detector.onUnlock(0, 5);
    detector.onLock(1, 6);  // different lock!
    const auto out = detector.onAccess(1, kX, true, 2);
    detector.onUnlock(1, 6);
    EXPECT_TRUE(out.race);
}

TEST(Lockset, CandidateSetNarrowsToCommonLock)
{
    ReportSink sink;
    LocksetDetector detector(sink);
    // Thread 0 holds {5, 6}; thread 1 holds {6, 7}: common lock 6
    // keeps the variable protected.
    detector.onLock(0, 5);
    detector.onLock(0, 6);
    detector.onAccess(0, kX, true, 1);
    detector.onUnlock(0, 5);
    detector.onUnlock(0, 6);
    detector.onLock(1, 6);
    detector.onLock(1, 7);
    EXPECT_FALSE(detector.onAccess(1, kX, true, 2).race);
    detector.onUnlock(1, 6);
    detector.onUnlock(1, 7);
    // A third thread without lock 6 empties the candidate set.
    detector.onLock(2, 7);
    EXPECT_TRUE(detector.onAccess(2, kX, true, 3).race);
}

TEST(Lockset, ReadSharedNeverWrittenIsClean)
{
    ReportSink sink;
    LocksetDetector detector(sink);
    detector.onAccess(0, kX, false, 1);
    detector.onAccess(1, kX, false, 2);
    detector.onAccess(2, kX, false, 3);
    EXPECT_EQ(sink.uniqueCount(), 0u);
}

TEST(Lockset, ReportsOncePerVariable)
{
    ReportSink sink;
    LocksetDetector detector(sink);
    detector.onAccess(0, kX, true, 1);
    detector.onAccess(1, kX, true, 2);
    detector.onAccess(0, kX, true, 1);
    detector.onAccess(1, kX, true, 2);
    EXPECT_EQ(sink.dynamicCount(), 1u);
}

TEST(Lockset, SchedulInsensitiveFindsRaceEvenWhenSerialized)
{
    // The lockset pitch: unlike happens-before, it flags the missing
    // lock even if the threads never actually interleave — here
    // thread 1 runs entirely "after" thread 0 with no sync at all.
    ReportSink sink;
    LocksetDetector detector(sink);
    for (int i = 0; i < 5; ++i)
        detector.onAccess(0, kX, true, 1);
    EXPECT_TRUE(detector.onAccess(1, kX, true, 2).race);
}

TEST(Lockset, ThroughSimulatorCleanOnLockedCounter)
{
    const auto *info = findWorkload("micro.locked_counter");
    WorkloadParams params;
    params.scale = 0.1;
    auto prog = info->factory(params);
    SimConfig config;
    config.mode = ToolMode::kContinuous;
    config.detector = DetectorKind::kLockset;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_EQ(result.reports.uniqueCount(), 0u);
}

TEST(Lockset, ThroughSimulatorFindsRacyCounter)
{
    const auto *info = findWorkload("micro.racy_counter");
    WorkloadParams params;
    params.scale = 0.1;
    auto prog = info->factory(params);
    SimConfig config;
    config.mode = ToolMode::kContinuous;
    config.detector = DetectorKind::kLockset;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_GT(result.reports.uniqueCount(), 0u);
}

TEST(Lockset, FalsePositiveOnBarrierSynchronizedProgram)
{
    // Barrier-phased writes are perfectly race-free, but no lock is
    // ever held: Eraser's classic false positive. FastTrack on the
    // identical program is clean.
    auto build = [] {
        Builder b("phased", 2);
        const Region word = b.alloc(8);
        b.sweep(0, word, 10, 1.0);
        b.barrierAll(1);
        b.sweep(1, word, 10, 1.0);
        b.barrierAll(2);
        return b.build();
    };

    SimConfig lockset_cfg;
    lockset_cfg.mode = ToolMode::kContinuous;
    lockset_cfg.detector = DetectorKind::kLockset;
    auto p1 = build();
    const auto lockset = Simulator::runWith(*p1, lockset_cfg);
    EXPECT_GT(lockset.reports.uniqueCount(), 0u);  // false positive!

    SimConfig ft_cfg;
    ft_cfg.mode = ToolMode::kContinuous;
    auto p2 = build();
    const auto fasttrack = Simulator::runWith(*p2, ft_cfg);
    EXPECT_EQ(fasttrack.reports.uniqueCount(), 0u);
}

TEST(Lockset, FalsePositiveOnAtomicPublish)
{
    // Atomics order the handoff (FastTrack: clean) but hold no lock
    // (lockset: report).
    const auto *info = findWorkload("micro.atomic_publish");
    WorkloadParams params;
    params.scale = 0.05;

    SimConfig lockset_cfg;
    lockset_cfg.mode = ToolMode::kContinuous;
    lockset_cfg.detector = DetectorKind::kLockset;
    auto p1 = info->factory(params);
    const auto lockset = Simulator::runWith(*p1, lockset_cfg);
    EXPECT_GT(lockset.reports.uniqueCount(), 0u);

    SimConfig ft_cfg;
    ft_cfg.mode = ToolMode::kContinuous;
    auto p2 = info->factory(params);
    const auto fasttrack = Simulator::runWith(*p2, ft_cfg);
    EXPECT_EQ(fasttrack.reports.uniqueCount(), 0u);
}

TEST(Lockset, WorksUnderDemandGating)
{
    const auto *info = findWorkload("micro.racy_counter");
    WorkloadParams params;
    params.scale = 0.1;
    auto prog = info->factory(params);
    SimConfig config;
    config.mode = ToolMode::kDemand;
    config.detector = DetectorKind::kLockset;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_GT(result.reports.uniqueCount(), 0u);
    EXPECT_LT(result.analyzed_accesses, result.mem_accesses);
}

TEST(Lockset, NameAndTrackedVars)
{
    ReportSink sink;
    LocksetDetector detector(sink);
    EXPECT_STREQ(detector.name(), "lockset");
    detector.onAccess(0, 0x1000, false, 1);
    detector.onAccess(0, 0x2000, false, 1);
    EXPECT_EQ(detector.trackedVars(), 2u);
    detector.clearShadow();
    EXPECT_EQ(detector.trackedVars(), 0u);
}

TEST(Lockset, MatchesReferenceEraserOnRandomSequences)
{
    // Thread ids up to the taggable maximum (the record keeps 16
    // bits), lock ids in both the mutex and the (1 << 62)-tagged
    // rwlock key space, and sites at and beyond the 16-bit slot's
    // sentinels so the exact overflow path runs too.
    const ThreadId kTids[] = {0, 1, 2, 3, 0x1234,
                              Epoch::kMaxTaggableTid};
    const SiteId kSites[] = {0, 1, 7, 0xFFFD, 0xFFFE, 0xFFFF,
                             0x10000, 0xDEADBEEF, kInvalidSite};
    constexpr std::uint64_t kRw = std::uint64_t{1} << 62;
    std::size_t races = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        const std::uint32_t shift = seed % 3 == 0 ? 0 : 3;
        const std::uint64_t nlocks = 1 + rng.nextBounded(40);
        const std::uint64_t ngranules = 1 + rng.nextBounded(64);
        ReportSink sink;
        LocksetDetector detector(sink, shift);
        RefEraser ref(shift);
        for (int round = 0; round < 3; ++round) {
            for (int step = 0; step < 3000; ++step) {
                const ThreadId tid = kTids[rng.nextBounded(std::size(kTids))];
                const std::uint64_t roll = rng.nextBounded(100);
                if (roll < 20) {
                    const bool rw = rng.nextBounded(2) == 0;
                    const std::uint64_t lock =
                        (rw ? kRw : 0) | rng.nextBounded(nlocks);
                    const bool write_mode = !rw || rng.nextBounded(2) == 0;
                    detector.onLock(tid, lock, write_mode);
                    ref.onLock(tid, lock, write_mode);
                    continue;
                }
                if (roll < 40) {
                    const std::uint64_t lock =
                        (rng.nextBounded(2) == 0 ? kRw : 0)
                        | rng.nextBounded(nlocks);
                    detector.onUnlock(tid, lock);
                    ref.onUnlock(tid, lock);
                    continue;
                }
                // Mostly a small shared pool; now and then a key far
                // past the radix directory ceiling.
                Addr addr =
                    rng.nextBounded(ngranules) * 8 + rng.nextBounded(8);
                if (rng.nextBounded(50) == 0)
                    addr |= Addr{1} << 60;
                const bool write = rng.nextBounded(2) == 0;
                const SiteId site = kSites[rng.nextBounded(std::size(kSites))];
                sink.clear();  // every race must surface, not deduped
                RaceReport want;
                const AccessOutcome got =
                    detector.onAccess(tid, addr, write, site);
                const AccessOutcome exp =
                    ref.onAccess(tid, addr, write, site, want);
                ASSERT_EQ(got.race, exp.race) << "step " << step;
                ASSERT_EQ(got.inter_thread, exp.inter_thread)
                    << "step " << step;
                ASSERT_EQ(sink.uniqueCount(), exp.race ? 1u : 0u);
                if (exp.race) {
                    ++races;
                    EXPECT_TRUE(sameReport(sink.reports()[0], want))
                        << "step " << step << ": got "
                        << sink.reports()[0] << ", want " << want;
                }
            }
            for (const ThreadId tid : kTids)
                ASSERT_EQ(detector.heldLocks(tid), ref.heldLocks(tid));
            ASSERT_EQ(detector.trackedVars(), ref.trackedVars());
            detector.clearShadow();
            ref.clearShadow();
            ASSERT_EQ(detector.trackedVars(), 0u);
        }
    }
    EXPECT_GT(races, 100u);  // the sequences do reach the report path
}

TEST(Lockset, InternTableStoresEachSetOnceAndMemoizesMeets)
{
    LocksetTable table;
    EXPECT_EQ(table.size(), 1u);  // the empty set
    EXPECT_EQ(table.intern({}), LocksetTable::kEmpty);
    const std::uint32_t ab = table.intern({2, 1});
    EXPECT_EQ(table.intern({1, 2}), ab);
    EXPECT_EQ(table.locks(ab), (std::vector<std::uint64_t>{1, 2}));
    const std::uint32_t bc = table.intern({3, 2});
    const std::uint32_t b = table.intersect(ab, bc);
    EXPECT_EQ(table.locks(b), (std::vector<std::uint64_t>{2}));
    EXPECT_EQ(table.intersect(bc, ab), b);
    EXPECT_EQ(table.intersect(ab, ab), ab);
    EXPECT_EQ(table.intersect(ab, LocksetTable::kEmpty),
              LocksetTable::kEmpty);
    EXPECT_EQ(table.intersect(table.intern({1}), table.intern({3})),
              LocksetTable::kEmpty);
    EXPECT_EQ(table.size(), 6u);  // {}, {1,2}, {2,3}, {2}, {1}, {3}
    table.clear();
    EXPECT_EQ(table.size(), 1u);
    EXPECT_EQ(table.intern({5}), 1u);
}

TEST(Lockset, MeetMemoStaysBoundedAndExact)
{
    // {G, B_i} for many bucket locks B_i under one common lock G:
    // every pair meets to {G}, a fresh memo entry per pair.
    LocksetTable table;
    constexpr std::uint64_t kG = 1;
    constexpr std::uint64_t kBuckets = 400;
    std::vector<std::uint32_t> ids;
    for (std::uint64_t b = 0; b < kBuckets; ++b)
        ids.push_back(table.intern({kG, 100 + b}));
    const std::uint32_t g = table.intern({kG});
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        for (std::size_t j = i + 1; j < ids.size(); ++j, ++pairs) {
            ASSERT_EQ(table.intersect(ids[i], ids[j]), g);
            ASSERT_LE(table.memoizedMeets(), LocksetTable::kMaxMeets);
        }
    }
    EXPECT_GT(pairs, LocksetTable::kMaxMeets);
    // Dropping the memo keeps every id, so later meets still agree.
    EXPECT_EQ(table.intersect(ids[0], ids[1]), g);
    EXPECT_EQ(table.size(), kBuckets + 2);
}

TEST(Lockset, EngineReusesShadowAcrossRuns)
{
    // Back-to-back runs on one engine recycle the lockset pages and
    // still report exactly what a fresh engine does.
    const auto *info = findWorkload("micro.racy_counter");
    WorkloadParams params;
    params.scale = 0.1;
    SimConfig config;
    config.mode = ToolMode::kContinuous;
    config.detector = DetectorKind::kLockset;
    auto fresh_prog = info->factory(params);
    const auto fresh = Simulator::runWith(*fresh_prog, config);
    Simulator engine(config);
    for (int run = 0; run < 3; ++run) {
        auto prog = info->factory(params);
        const auto again = engine.run(*prog);
        ASSERT_EQ(again.reports.uniqueCount(),
                  fresh.reports.uniqueCount());
        for (std::size_t i = 0; i < fresh.reports.uniqueCount(); ++i) {
            EXPECT_TRUE(sameReport(again.reports.reports()[i],
                                   fresh.reports.reports()[i]));
        }
    }
}
