/**
 * @file
 * Tests for atomic RMW operations and futex-style atomic waits:
 * happens-before semantics, protocol behaviour, detector treatment,
 * and the lock-free micro workloads built on them.
 */

#include <gtest/gtest.h>

#include "instr/cost_model.hh"
#include "runtime/simulator.hh"
#include "runtime/sync.hh"
#include "workloads/registry.hh"
#include "workloads/synthetic.hh"

using namespace hdrd;
using namespace hdrd::runtime;
using namespace hdrd::workloads;
using instr::ToolMode;

TEST(AtomicOps, FactoryAndClassification)
{
    const Op rmw = Op::atomicRmw(0x1000, 7);
    EXPECT_EQ(rmw.type, OpType::kAtomicRmw);
    EXPECT_EQ(rmw.addr, 0x1000u);
    EXPECT_EQ(rmw.site, 7u);
    EXPECT_FALSE(rmw.isMemAccess());
    EXPECT_TRUE(rmw.isSync());

    const Op wait = Op::atomicWait(0x1000, 3);
    EXPECT_EQ(wait.type, OpType::kAtomicWait);
    EXPECT_EQ(wait.arg, 3u);
    EXPECT_TRUE(wait.isSync());
    EXPECT_STREQ(opTypeName(OpType::kAtomicRmw), "atomic_rmw");
    EXPECT_STREQ(opTypeName(OpType::kAtomicWait), "atomic_wait");
}

TEST(AtomicOps, SyncObjectsCountAndWake)
{
    SyncObjects sync;
    EXPECT_EQ(sync.atomicCount(5), 0u);
    EXPECT_TRUE(sync.atomicSatisfied(5, 0));
    EXPECT_FALSE(sync.atomicSatisfied(5, 1));

    sync.addAtomicWaiter(3, 5, 2);
    sync.addAtomicWaiter(3, 5, 2);  // idempotent retry
    EXPECT_TRUE(sync.anyWaiters());

    EXPECT_TRUE(sync.onAtomicRmw(5, 100).empty());  // count 1 < 2
    const auto woken = sync.onAtomicRmw(5, 200);
    ASSERT_EQ(woken.size(), 1u);
    EXPECT_EQ(woken[0].tid, 3u);
    EXPECT_EQ(woken[0].when, 200u);
    EXPECT_EQ(sync.atomicCount(5), 2u);
    EXPECT_FALSE(sync.anyWaiters());
}

TEST(AtomicOps, BuilderEmitsAtomicSweep)
{
    Builder b("t", 1);
    const Region word = b.alloc(8);
    b.atomicSweep(0, word, 3);
    b.atomicWait(0, word, 9);
    auto prog = b.build();
    auto body = prog->makeThread(0);
    Op op;
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(body->next(op));
        EXPECT_EQ(op.type, OpType::kAtomicRmw);
        EXPECT_EQ(op.addr, word.base);
    }
    ASSERT_TRUE(body->next(op));
    EXPECT_EQ(op.type, OpType::kAtomicWait);
    EXPECT_EQ(op.arg, 9u);
    EXPECT_FALSE(body->next(op));
}

TEST(AtomicOps, AtomicCounterIsRaceFree)
{
    const auto *info = findWorkload("micro.lockfree_counter");
    WorkloadParams params;
    params.scale = 0.1;
    auto prog = info->factory(params);
    SimConfig config;
    config.mode = ToolMode::kContinuous;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_EQ(result.reports.uniqueCount(), 0u);
    EXPECT_GT(result.atomic_ops, 0u);
}

TEST(AtomicOps, AtomicPublishIsRaceFreeUnsafeIsNot)
{
    WorkloadParams params;
    params.scale = 0.1;
    SimConfig config;
    config.mode = ToolMode::kContinuous;

    auto safe =
        findWorkload("micro.atomic_publish")->factory(params);
    const auto safe_result = Simulator::runWith(*safe, config);
    EXPECT_EQ(safe_result.reports.uniqueCount(), 0u);

    auto unsafe =
        findWorkload("micro.unsafe_publish")->factory(params);
    const auto unsafe_result = Simulator::runWith(*unsafe, config);
    EXPECT_GT(unsafe_result.reports.uniqueCount(), 0u);
}

TEST(AtomicOps, AtomicPublishRaceFreeUnderDemandToo)
{
    WorkloadParams params;
    params.scale = 0.1;
    SimConfig config;
    config.mode = ToolMode::kDemand;
    auto prog = findWorkload("micro.atomic_publish")->factory(params);
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_EQ(result.reports.uniqueCount(), 0u);
}

TEST(AtomicOps, RmwIsHitmInvisibleToLoadEvent)
{
    // Two threads trading an atomic counter: protocol HITMs galore,
    // but none visible to the load-only event — atomics share the
    // W->W blind spot.
    Builder b("atomic_pingpong", 2);
    const Region word = b.alloc(8);
    b.atomicSweep(0, word, 200);
    b.atomicSweep(1, word, 200);
    auto prog = b.build();
    SimConfig config;
    config.mode = ToolMode::kNative;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_GT(result.hitm_transfers, 0u);
    EXPECT_EQ(result.hitm_loads, 0u);
    const auto hitm_any = result.pmu_totals[static_cast<std::size_t>(
        pmu::EventType::kHitmAny)];
    EXPECT_GT(hitm_any, 0u);
}

TEST(AtomicOps, WaitBlocksUntilThresholdMet)
{
    // Thread 1 waits for 3 RMWs; thread 0 performs them amid other
    // work. If the wait released early, thread 1's read of the data
    // word would race with thread 0's writes.
    Builder b("wait_threshold", 2);
    const Region flag = b.alloc(8);
    const Region data = b.alloc(64);
    // Thread 0: write data, one RMW, write data, two RMWs.
    b.sweep(0, data, 8, 1.0);
    b.atomicSweep(0, flag, 1);
    b.sweep(0, data, 8, 1.0);
    b.atomicSweep(0, flag, 2);
    // Thread 1: wait for all 3 RMWs, then read data.
    b.atomicWait(1, flag, 3);
    b.sweep(1, data, 8, 0.0);
    auto prog = b.build();
    SimConfig config;
    config.mode = ToolMode::kContinuous;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_EQ(result.reports.uniqueCount(), 0u);
}

TEST(AtomicOps, WaitAlreadySatisfiedPassesImmediately)
{
    Builder b("wait_ready", 2);
    const Region flag = b.alloc(8);
    b.atomicSweep(0, flag, 5);
    // Thread 1 starts with private filler so the RMWs land first,
    // then waits for just one.
    b.compute(1, 2000, 20);
    b.atomicWait(1, flag, 1);
    auto prog = b.build();
    SimConfig config;
    config.mode = ToolMode::kNative;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_GT(result.total_ops, 0u);  // completed: no deadlock
}

TEST(AtomicOps, WaitWithoutRmwDeadlocks)
{
    Builder b("wait_forever", 2);
    const Region flag = b.alloc(8);
    b.compute(0, 10, 10);
    b.atomicWait(1, flag, 1);  // nobody ever RMWs
    auto prog = b.build();
    SimConfig config;
    config.mode = ToolMode::kNative;
    const RunResult result = Simulator::runWith(*prog, config);
    EXPECT_EQ(result.status, RunStatus::kDeadlock);
    EXPECT_NE(result.error.find("t1 blocked on atomic cell"),
              std::string::npos)
        << result.error;
}

TEST(AtomicOps, AtomicsCountedSeparatelyFromDataAccesses)
{
    Builder b("counting", 1);
    const Region word = b.alloc(8);
    const Region data = b.alloc(64);
    b.atomicSweep(0, word, 10);
    b.sweep(0, data, 20, 0.5);
    auto prog = b.build();
    SimConfig config;
    config.mode = ToolMode::kContinuous;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_EQ(result.atomic_ops, 10u);
    EXPECT_EQ(result.mem_accesses, 20u);
    EXPECT_EQ(result.analyzed_accesses, 20u);  // atomics not analyzed
    EXPECT_EQ(result.sync_ops, 10u);
}
