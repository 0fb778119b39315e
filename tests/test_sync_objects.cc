/**
 * @file
 * Unit tests for simulated mutexes, barriers, and join waiters.
 */

#include <gtest/gtest.h>

#include "runtime/sync.hh"

using namespace hdrd;
using namespace hdrd::runtime;

TEST(Mutex, FirstLockSucceeds)
{
    SyncObjects sync;
    EXPECT_TRUE(sync.tryLock(0, 1, 100));
    EXPECT_EQ(sync.owner(1), 0u);
}

TEST(Mutex, SecondLockBlocks)
{
    SyncObjects sync;
    sync.tryLock(0, 1, 100);
    EXPECT_FALSE(sync.tryLock(1, 1, 110));
    EXPECT_EQ(sync.owner(1), 0u);
}

TEST(Mutex, UnlockWithNoWaitersFrees)
{
    SyncObjects sync;
    sync.tryLock(0, 1, 100);
    EXPECT_FALSE(sync.unlock(0, 1, 120).has_value());
    EXPECT_EQ(sync.owner(1), kInvalidThread);
    EXPECT_TRUE(sync.tryLock(2, 1, 130));
}

TEST(Mutex, UnlockHandsOffToOldestWaiter)
{
    SyncObjects sync;
    sync.tryLock(0, 1, 100);
    sync.tryLock(1, 1, 105);
    sync.tryLock(2, 1, 106);
    const auto wake = sync.unlock(0, 1, 150);
    ASSERT_TRUE(wake.has_value());
    EXPECT_EQ(wake->tid, 1u);
    EXPECT_EQ(wake->when, 150u);
    EXPECT_EQ(sync.owner(1), 1u);
    // The woken thread's retried lock succeeds via handoff.
    EXPECT_TRUE(sync.tryLock(1, 1, 151));
    // Next unlock passes to thread 2.
    const auto wake2 = sync.unlock(1, 1, 200);
    ASSERT_TRUE(wake2.has_value());
    EXPECT_EQ(wake2->tid, 2u);
}

TEST(Mutex, WaiterQueuedOnce)
{
    SyncObjects sync;
    sync.tryLock(0, 1, 100);
    sync.tryLock(1, 1, 105);
    sync.tryLock(1, 1, 106);  // retry while still blocked
    sync.unlock(0, 1, 150);
    // Only one handoff to thread 1; afterwards nothing queued.
    const auto wake = sync.unlock(1, 1, 160);
    EXPECT_FALSE(wake.has_value());
}

TEST(Mutex, IndependentLocks)
{
    SyncObjects sync;
    EXPECT_TRUE(sync.tryLock(0, 1, 100));
    EXPECT_TRUE(sync.tryLock(1, 2, 100));
    EXPECT_EQ(sync.owner(1), 0u);
    EXPECT_EQ(sync.owner(2), 1u);
}

TEST(MutexDeath, UnlockingUnownedPanics)
{
    SyncObjects sync;
    sync.tryLock(0, 1, 100);
    EXPECT_DEATH(sync.unlock(1, 1, 110), "not owned");
}

TEST(Barrier, FillsThenReleasesEveryone)
{
    SyncObjects sync;
    EXPECT_FALSE(sync.arriveBarrier(0, 9, 3, 100).has_value());
    EXPECT_FALSE(sync.arriveBarrier(1, 9, 3, 200).has_value());
    const auto released = sync.arriveBarrier(2, 9, 3, 150);
    ASSERT_TRUE(released.has_value());
    ASSERT_EQ(released->size(), 3u);
    // Release time is the max arrival time for everyone.
    for (const auto &w : *released)
        EXPECT_EQ(w.when, 200u);
}

TEST(Barrier, ReusableAcrossGenerations)
{
    SyncObjects sync;
    sync.arriveBarrier(0, 9, 2, 10);
    ASSERT_TRUE(sync.arriveBarrier(1, 9, 2, 20).has_value());
    // Second generation works identically.
    EXPECT_FALSE(sync.arriveBarrier(1, 9, 2, 30).has_value());
    const auto released = sync.arriveBarrier(0, 9, 2, 40);
    ASSERT_TRUE(released.has_value());
    EXPECT_EQ((*released)[0].when, 40u);
}

TEST(Barrier, WaitersVisible)
{
    SyncObjects sync;
    sync.arriveBarrier(0, 9, 3, 10);
    sync.arriveBarrier(2, 9, 3, 12);
    const auto waiters = sync.barrierWaiters(9);
    ASSERT_EQ(waiters.size(), 2u);
    EXPECT_EQ(waiters[0], 0u);
    EXPECT_EQ(waiters[1], 2u);
}

TEST(BarrierDeath, DoubleArrivalPanics)
{
    SyncObjects sync;
    sync.arriveBarrier(0, 9, 3, 10);
    EXPECT_DEATH(sync.arriveBarrier(0, 9, 3, 11), "twice");
}

TEST(BarrierDeath, InconsistentCountPanics)
{
    SyncObjects sync;
    sync.arriveBarrier(0, 9, 3, 10);
    EXPECT_DEATH(sync.arriveBarrier(1, 9, 4, 11), "inconsistent");
}

TEST(Join, WaitersWokenOnFinish)
{
    SyncObjects sync;
    sync.addJoinWaiter(0, 5);
    sync.addJoinWaiter(3, 5);
    const auto woken = sync.onThreadFinished(5, 777);
    ASSERT_EQ(woken.size(), 2u);
    EXPECT_EQ(woken[0].tid, 0u);
    EXPECT_EQ(woken[1].tid, 3u);
    EXPECT_EQ(woken[0].when, 777u);
    // Second finish is a no-op.
    EXPECT_TRUE(sync.onThreadFinished(5, 800).empty());
}

TEST(Join, FinishWithNoWaitersIsEmpty)
{
    SyncObjects sync;
    EXPECT_TRUE(sync.onThreadFinished(7, 100).empty());
}

TEST(SyncObjects, AnyWaitersReflectsState)
{
    SyncObjects sync;
    EXPECT_FALSE(sync.anyWaiters());
    sync.tryLock(0, 1, 10);
    EXPECT_FALSE(sync.anyWaiters());
    sync.tryLock(1, 1, 11);
    EXPECT_TRUE(sync.anyWaiters());
    sync.unlock(0, 1, 20);
    EXPECT_FALSE(sync.anyWaiters());
    sync.arriveBarrier(0, 9, 2, 30);
    EXPECT_TRUE(sync.anyWaiters());
}

TEST(SyncObjects, BlockedOnNamesTheObject)
{
    SyncObjects sync;
    sync.tryLock(0, 1, 10);
    sync.tryLock(1, 1, 11);
    sync.tryWrLock(0, 2, 12);
    sync.tryRdLock(2, 2, 13);
    sync.arriveBarrier(3, 9, 2, 14);
    sync.addAtomicWaiter(4, 5, 1);
    sync.addJoinWaiter(5, 0);
    EXPECT_EQ(sync.blockedOn(0), "");
    EXPECT_EQ(sync.blockedOn(1), "mutex 1");
    EXPECT_EQ(sync.blockedOn(2), "rwlock 2");
    EXPECT_EQ(sync.blockedOn(3), "barrier 9");
    EXPECT_EQ(sync.blockedOn(4), "atomic cell 5");
    EXPECT_EQ(sync.blockedOn(5), "join of thread 0");
}

TEST(SyncObjects, MisuseIsVisibleBeforeTheOp)
{
    SyncObjects sync;
    EXPECT_EQ(sync.barrierMisuse(0, 9, 3), nullptr);  // fresh barrier
    sync.arriveBarrier(0, 9, 3, 10);
    EXPECT_EQ(sync.barrierMisuse(1, 9, 3), nullptr);
    EXPECT_STREQ(sync.barrierMisuse(1, 9, 4),
                 "inconsistent participant count");
    EXPECT_NE(sync.barrierMisuse(0, 9, 3), nullptr);  // second arrival

    sync.tryRdLock(0, 2, 20);
    EXPECT_TRUE(sync.rdHolds(0, 2));
    EXPECT_FALSE(sync.rdHolds(1, 2));
    EXPECT_FALSE(sync.rdHolds(0, 3));
}
