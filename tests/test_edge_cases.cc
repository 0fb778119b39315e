/**
 * @file
 * Edge-case coverage across modules: partial barriers, odd thread
 * counts, PMU re-arming, writeback paths, extreme configurations.
 */

#include <gtest/gtest.h>

#include "instr/cost_model.hh"
#include "mem/hierarchy.hh"
#include "pmu/pmu.hh"
#include "runtime/simulator.hh"
#include "workloads/registry.hh"
#include "workloads/synthetic.hh"

using namespace hdrd;
using namespace hdrd::runtime;
using namespace hdrd::workloads;
using instr::ToolMode;

// ---------------------------------------------------------------
// Partial barriers through the simulator.
// ---------------------------------------------------------------

TEST(PartialBarrier, SubsetBarrierOrdersOnlyParticipants)
{
    // Threads 0 and 1 share a word ordered by a 2-party barrier;
    // thread 2 never participates and stays independent (and
    // race-free on its own data).
    Builder b("subset", 3);
    const Region word = b.alloc(8);
    const Region other = b.alloc(8);

    b.sweep(0, word, 10, 1.0);
    b.barrier(0, 77, 2);
    b.barrier(1, 77, 2);
    b.sweep(1, word, 10, 1.0);  // ordered after thread 0's writes
    b.sweep(2, other, 50, 1.0); // independent

    auto prog = b.build();
    SimConfig config;
    config.mode = ToolMode::kContinuous;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_EQ(result.reports.uniqueCount(), 0u);
}

TEST(PartialBarrier, NonParticipantIsNotOrdered)
{
    // Same structure, but the *non-participant* touches the word:
    // the 2-party barrier gives it no ordering, so it races.
    Builder b("subset_racy", 3);
    const Region word = b.alloc(8);

    b.sweep(0, word, 10, 1.0);
    b.barrier(0, 77, 2);
    b.barrier(1, 77, 2);
    b.sweep(2, word, 10, 1.0);  // thread 2 never synchronized!

    auto prog = b.build();
    SimConfig config;
    config.mode = ToolMode::kContinuous;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_GT(result.reports.uniqueCount(), 0u);
}

TEST(PartialBarrier, TwoIndependentBarrierGroups)
{
    Builder b("groups", 4);
    const Region a = b.alloc(8);
    const Region c = b.alloc(8);
    // Group {0,1} orders on barrier 1; group {2,3} on barrier 2.
    b.sweep(0, a, 5, 1.0);
    b.barrier(0, 1, 2);
    b.barrier(1, 1, 2);
    b.sweep(1, a, 5, 1.0);
    b.sweep(2, c, 5, 1.0);
    b.barrier(2, 2, 2);
    b.barrier(3, 2, 2);
    b.sweep(3, c, 5, 1.0);
    auto prog = b.build();
    SimConfig config;
    config.mode = ToolMode::kContinuous;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_EQ(result.reports.uniqueCount(), 0u);
}

// ---------------------------------------------------------------
// Suite workloads at unusual thread counts.
// ---------------------------------------------------------------

class ThreadCountSweep
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(ThreadCountSweep, SuiteWorkloadsStayRaceFree)
{
    const std::uint32_t threads = GetParam();
    for (const char *name :
         {"phoenix.kmeans", "phoenix.histogram", "parsec.dedup",
          "parsec.fluidanimate", "parsec.x264",
          "parsec.streamcluster", "micro.rw_cache"}) {
        const auto *info = findWorkload(name);
        WorkloadParams params;
        params.nthreads = threads;
        params.scale = 0.03;
        auto prog = info->factory(params);
        SimConfig config;
        config.mode = ToolMode::kContinuous;
        const auto result = Simulator::runWith(*prog, config);
        EXPECT_EQ(result.reports.uniqueCount(), 0u)
            << name << " with " << threads << " threads";
        EXPECT_GT(result.total_ops, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, ThreadCountSweep,
                         ::testing::Values(1u, 2u, 3u, 6u, 8u));

// ---------------------------------------------------------------
// PMU re-arming and mixed events.
// ---------------------------------------------------------------

TEST(PmuEdge, RearmingMidSkidRestartsCleanly)
{
    pmu::Pmu pmu(1);
    int interrupts = 0;
    pmu.setOverflowHandler([&](CoreId, pmu::EventType) {
        ++interrupts;
    });
    pmu.armAll({.event = pmu::EventType::kHitmLoad,
                .sample_after = 1,
                .skid = 5});
    pmu.recordEvent(0, pmu::EventType::kHitmLoad);  // enters skid
    pmu.retireOp(0);
    // Re-arm mid-skid (what a disable->enable flip does).
    pmu.armAll({.event = pmu::EventType::kHitmLoad,
                .sample_after = 1,
                .skid = 0});
    for (int i = 0; i < 10; ++i)
        pmu.retireOp(0);
    EXPECT_EQ(interrupts, 0);  // pending overflow was dropped
    pmu.recordEvent(0, pmu::EventType::kHitmLoad);
    pmu.retireOp(0);
    EXPECT_EQ(interrupts, 1);
}

TEST(PmuEdge, PerCoreArmIsIndependent)
{
    pmu::Pmu pmu(2);
    int interrupts = 0;
    pmu.setOverflowHandler([&](CoreId, pmu::EventType) {
        ++interrupts;
    });
    pmu.arm(0, {.event = pmu::EventType::kHitmLoad,
                .sample_after = 1,
                .skid = 0});
    EXPECT_TRUE(pmu.armed(0));
    EXPECT_FALSE(pmu.armed(1));
    pmu.recordEvent(1, pmu::EventType::kHitmLoad);
    pmu.retireOp(1);
    EXPECT_EQ(interrupts, 0);
    pmu.recordEvent(0, pmu::EventType::kHitmLoad);
    pmu.retireOp(0);
    EXPECT_EQ(interrupts, 1);
    pmu.disarm(0);
    EXPECT_FALSE(pmu.armed(0));
}

TEST(PmuEdge, HitmAnySupersetsHitmLoad)
{
    // Mixed load/store sharing: kHitmAny counts at least as many
    // events as kHitmLoad.
    Builder b("mixed", 2);
    const Region word = b.alloc(8);
    b.sweep(0, word, 200, 0.5);
    b.sweep(1, word, 200, 0.5);
    auto prog = b.build();
    SimConfig config;
    config.mode = ToolMode::kNative;
    const auto r = Simulator::runWith(*prog, config);
    const auto any = r.pmu_totals[static_cast<std::size_t>(
        pmu::EventType::kHitmAny)];
    const auto load = r.pmu_totals[static_cast<std::size_t>(
        pmu::EventType::kHitmLoad)];
    EXPECT_GE(any, load);
    EXPECT_GT(load, 0u);
    EXPECT_GT(any, load);  // stores HITM too in this mix
}

// ---------------------------------------------------------------
// Hierarchy writeback / refetch paths.
// ---------------------------------------------------------------

TEST(HierarchyEdge, RefetchAfterWritebackIsL3HitExclusive)
{
    mem::HierarchyConfig cfg;
    cfg.ncores = 2;
    cfg.l1 = {.size_bytes = 256, .assoc = 2, .line_bytes = 64};
    cfg.l2 = {.size_bytes = 1024, .assoc = 4, .line_bytes = 64};
    cfg.l3 = {.size_bytes = 65536, .assoc = 8, .line_bytes = 64};
    mem::Hierarchy h(cfg);

    // Fill L2 set 0 with M lines until one is written back.
    // L2: 4 sets; set-0 lines at stride 256: 0x0, 0x100, ...
    for (int i = 0; i < 5; ++i)
        h.access(0, static_cast<Addr>(i) * 256, true);
    EXPECT_EQ(h.privateState(0, 0x0), mem::Mesi::kInvalid);
    ASSERT_TRUE(h.inL3(0x0));
    // Refetch the evicted line: L3 hit; read -> Exclusive again.
    const auto r = h.access(0, 0x0, false);
    EXPECT_EQ(r.where, mem::HitWhere::kL3);
    EXPECT_EQ(h.privateState(0, 0x0), mem::Mesi::kExclusive);
    h.checkInvariants();
}

TEST(HierarchyEdge, UpgradeStatCounted)
{
    mem::HierarchyConfig cfg;
    cfg.ncores = 2;
    mem::Hierarchy h(cfg);
    h.access(0, 0x1000, false);
    h.access(1, 0x1000, false);  // both Shared
    h.access(0, 0x1000, true);   // S->M upgrade
    EXPECT_EQ(h.stats().upgrades, 1u);
    EXPECT_EQ(h.stats().invalidations, 1u);
}

// ---------------------------------------------------------------
// Extreme configurations.
// ---------------------------------------------------------------

TEST(ExtremeConfig, SingleCoreManyThreads)
{
    // Everything on one core: no HITMs possible at all, demand-hitm
    // is completely blind (the SMT caveat taken to its limit).
    const auto *info = findWorkload("micro.racy_counter");
    WorkloadParams params;
    params.scale = 0.05;
    auto prog = info->factory(params);
    SimConfig config;
    config.mode = ToolMode::kDemand;
    config.mem.ncores = 1;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_EQ(result.hitm_loads, 0u);
    EXPECT_EQ(result.reports.uniqueCount(), 0u);
}

TEST(ExtremeConfig, ZeroCostToolStillDetects)
{
    auto params = WorkloadParams{};
    params.scale = 0.05;
    const auto *info = findWorkload("micro.racy_counter");
    auto prog = info->factory(params);
    SimConfig config;
    config.mode = ToolMode::kContinuous;
    config.cost.analysis_read = 0;
    config.cost.analysis_write = 0;
    config.cost.analysis_sync = 0;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_GT(result.reports.uniqueCount(), 0u);
}

TEST(ExtremeConfig, HugeSkidStillDelivers)
{
    auto params = WorkloadParams{};
    params.scale = 0.2;
    const auto *info = findWorkload("micro.racy_counter");
    auto prog = info->factory(params);
    SimConfig config;
    config.mode = ToolMode::kDemand;
    config.gating.hitm_counter.skid = 2000;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_GT(result.interrupts, 0u);
    EXPECT_GT(result.reports.uniqueCount(), 0u);
}

TEST(ExtremeConfig, WatchdogNeverQuietKeepsAnalysisOn)
{
    auto params = WorkloadParams{};
    params.scale = 0.05;
    const auto *info = findWorkload("phoenix.histogram");
    auto prog = info->factory(params);
    SimConfig config;
    config.mode = ToolMode::kDemand;
    // Threshold below zero: no window can ever be quiet.
    config.gating.watchdog.sharing_threshold = -1.0;
    const auto result = Simulator::runWith(*prog, config);
    EXPECT_EQ(result.disables, 0u);
}

TEST(ExtremeConfig, InstantWatchdogThrashesSafely)
{
    auto params = WorkloadParams{};
    params.scale = 0.05;
    const auto *info = findWorkload("micro.racy_burst");
    auto prog = info->factory(params);
    SimConfig config;
    config.mode = ToolMode::kDemand;
    config.gating.watchdog.window = 1;
    config.gating.watchdog.quiet_windows = 1;
    config.gating.watchdog.min_enabled_accesses = 1;
    config.gating.watchdog.sharing_threshold = 2.0;  // all quiet
    const auto result = Simulator::runWith(*prog, config);
    // Immediately disables after every enable; still terminates and
    // still samples something.
    EXPECT_GT(result.enables, 1u);
    EXPECT_EQ(result.enables, result.disables);
}
