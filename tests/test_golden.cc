/**
 * @file
 * Golden determinism suite: the engine's observable behaviour is
 * frozen as one hash per (workload, mode, policy, seed) cell.
 *
 * Every cell runs a registry workload to completion and hashes the
 * full RunResult::dump() text (every counter, race count, PMU total
 * and latency percentile). The expected hashes live in
 * golden_hashes.inc, captured from the pre-optimization engine —
 * so any engine change that alters a schedule, a race report, or a
 * single counter anywhere fails here with the exact cell named.
 *
 * A second table, golden_lockset_hashes.inc, freezes the lockset
 * baseline the same way: every registry workload in continuous and
 * demand-hitm mode, seed 1. Each lockset cell runs twice on one
 * long-lived Simulator per host worker, so the engine-owned lockset
 * shadow is recycled across runs and workloads, and both runs must
 * hash identically.
 *
 * A third table, kFrozenBlocks, freezes what the golden suite does
 * not reach: the gated dump blocks (run.status/run.error of a failed
 * run, run.fault.*, run.failsafe.*) and the hdrd-report-v1 JSON of
 * a job, final and partial, including the report's "faults" block.
 *
 * Regenerate (only when behaviour is *supposed* to change):
 *   ./tests/test_golden --emit-golden > ../tests/golden_hashes.inc
 *   ./tests/test_golden --emit-golden-lockset \
 *       > ../tests/golden_lockset_hashes.inc
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "instr/cost_model.hh"
#include "pmu/faults.hh"
#include "runtime/simulator.hh"
#include "service/job.hh"
#include "workloads/registry.hh"
#include "workloads/synthetic.hh"

using namespace hdrd;

namespace
{

struct GoldenCell
{
    const char *workload;
    const char *mode;    ///< native | continuous | demand-hitm
    const char *policy;  ///< earliest | random | rr | jitter
    std::uint64_t seed;
    std::uint64_t hash;  ///< FNV-1a of RunResult::dump(); 0 = unknown
};

const GoldenCell kGolden[] = {
#include "golden_hashes.inc"
};

const GoldenCell kGoldenLockset[] = {
#include "golden_lockset_hashes.inc"
};

/** FNV-1a 64-bit. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** The frozen cell enumeration; order defines golden_hashes.inc. */
std::vector<GoldenCell>
enumerateCells()
{
    static const char *kModes[] = {"native", "continuous",
                                   "demand-hitm"};
    std::vector<GoldenCell> cells;
    for (const auto &info : workloads::allWorkloads()) {
        // Core matrix: 3 modes x 2 seeds, earliest-first scheduling.
        // Seed 2 additionally tracks ground-truth sharing so the
        // gt_map path is frozen too.
        for (const char *mode : kModes) {
            for (std::uint64_t seed : {1, 2}) {
                cells.push_back(
                    {info.name.c_str(), mode, "earliest", seed, 0});
            }
        }
        // Scheduler-policy sweep: freeze the alternative policies'
        // exact interleavings (and their RNG draw sequences).
        cells.push_back(
            {info.name.c_str(), "continuous", "random", 3, 0});
        cells.push_back({info.name.c_str(), "continuous", "rr", 3, 0});
        cells.push_back(
            {info.name.c_str(), "continuous", "jitter", 4, 0});
    }
    return cells;
}

/** Lockset cells; order defines golden_lockset_hashes.inc. */
std::vector<GoldenCell>
enumerateLocksetCells()
{
    std::vector<GoldenCell> cells;
    for (const auto &info : workloads::allWorkloads()) {
        for (const char *mode : {"continuous", "demand-hitm"})
            cells.push_back({info.name.c_str(), mode, "earliest", 1, 0});
    }
    return cells;
}

runtime::SimConfig
cellConfig(const GoldenCell &cell, runtime::DetectorKind detector)
{
    runtime::SimConfig config;
    if (std::strcmp(cell.mode, "native") == 0)
        config.mode = instr::ToolMode::kNative;
    else if (std::strcmp(cell.mode, "continuous") == 0)
        config.mode = instr::ToolMode::kContinuous;
    else
        config.mode = instr::ToolMode::kDemand;
    config.detector = detector;
    config.gating.strategy = demand::Strategy::kDemandHitm;
    config.seed = cell.seed;
    config.track_ground_truth = cell.seed == 2;
    if (std::strcmp(cell.policy, "random") == 0)
        config.sched_policy = runtime::SchedPolicy::kRandom;
    else if (std::strcmp(cell.policy, "rr") == 0)
        config.sched_policy = runtime::SchedPolicy::kRoundRobin;
    else if (std::strcmp(cell.policy, "jitter") == 0)
        config.sched_jitter = 0.3;
    return config;
}

/** Hash of one run of @p cell on @p sim (reconfigured for it). */
std::uint64_t
runCell(runtime::Simulator &sim, const GoldenCell &cell,
        runtime::DetectorKind detector)
{
    const auto *info = workloads::findWorkload(cell.workload);
    if (info == nullptr)
        return 0;

    workloads::WorkloadParams params;
    params.nthreads = 4;
    params.scale = 0.05;
    params.seed = cell.seed + 41;

    auto program = info->factory(params);
    sim.reconfigure(cellConfig(cell, detector));
    const auto result = sim.run(*program);
    std::ostringstream os;
    result.dump(os);
    return fnv1a(os.str());
}

/**
 * Run every cell across a small host worker pool. FastTrack cells
 * each get a fresh engine; lockset cells run twice on the worker's
 * long-lived engine and hash 0 unless both runs agree.
 */
std::vector<std::uint64_t>
runAllCells(const std::vector<GoldenCell> &cells,
            runtime::DetectorKind detector)
{
    const bool reuse = detector == runtime::DetectorKind::kLockset;
    std::vector<std::uint64_t> hashes(cells.size(), 0);
    const unsigned nworkers = std::max(
        1u, std::min(8u, std::thread::hardware_concurrency()));
    std::vector<std::thread> pool;
    pool.reserve(nworkers);
    for (unsigned w = 0; w < nworkers; ++w) {
        pool.emplace_back([&, w]() {
            runtime::Simulator engine{runtime::SimConfig{}};
            for (std::size_t i = w; i < cells.size(); i += nworkers) {
                if (reuse) {
                    const std::uint64_t first =
                        runCell(engine, cells[i], detector);
                    const std::uint64_t second =
                        runCell(engine, cells[i], detector);
                    hashes[i] = first == second ? first : 0;
                } else {
                    runtime::Simulator fresh{runtime::SimConfig{}};
                    hashes[i] = runCell(fresh, cells[i], detector);
                }
            }
        });
    }
    for (auto &t : pool)
        t.join();
    return hashes;
}

/** Compare a fresh run of @p cells against the frozen @p golden. */
void
expectMatchesGolden(const std::vector<GoldenCell> &cells,
                    const GoldenCell *golden, std::size_t ngolden,
                    runtime::DetectorKind detector)
{
    ASSERT_EQ(cells.size(), ngolden)
        << "cell enumeration changed; regenerate the golden table";
    const auto hashes = runAllCells(cells, detector);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_STREQ(cells[i].workload, golden[i].workload);
        EXPECT_STREQ(cells[i].mode, golden[i].mode);
        EXPECT_STREQ(cells[i].policy, golden[i].policy);
        EXPECT_EQ(hashes[i], golden[i].hash)
            << "behaviour diverged: " << cells[i].workload << " mode="
            << cells[i].mode << " policy=" << cells[i].policy
            << " seed=" << cells[i].seed;
    }
}

/** Print @p cells' hashes in the .inc table format. */
void
emitGolden(const std::vector<GoldenCell> &cells,
           runtime::DetectorKind detector)
{
    const auto hashes = runAllCells(cells, detector);
    for (std::size_t c = 0; c < cells.size(); ++c) {
        std::printf("{\"%s\", \"%s\", \"%s\", %llu, "
                    "0x%016llxULL},\n",
                    cells[c].workload, cells[c].mode, cells[c].policy,
                    static_cast<unsigned long long>(cells[c].seed),
                    static_cast<unsigned long long>(hashes[c]));
    }
}

/** Hashes of one run's outputs; every partial is taken at op 400. */
struct FrozenBlocks
{
    const char *run;
    std::uint64_t dump;            ///< final RunResult::dump()
    std::uint64_t report;          ///< final Job::reportJson()
    std::uint64_t partial_report;  ///< first partial's reportJson()
};

const FrozenBlocks kFrozenBlocks[] = {
    {"demand-faults-failsafe", 0xbaa8b0a161f03fa2ULL,
     0x42c498a3b884732fULL, 0x84db1f9a8c1d1ab4ULL},
    {"deadlock", 0x3aa4338d7e8d092aULL, 0xbd9b863abe9100faULL,
     0x942b6c3fdfcce62bULL},
    {"plain", 0x094b69e34d37e83fULL, 0xd73216b22d682572ULL,
     0x6429ba8601f341b3ULL},
};

/** Two threads racing on a shared region, then an ABBA deadlock. */
std::unique_ptr<runtime::Program>
deadlockProgram()
{
    workloads::Builder b("abba", 2);
    const workloads::Region shared = b.alloc(512);
    for (ThreadId t = 0; t < 2; ++t)
        b.sweep(t, shared, 300, 0.5);
    b.lockOp(0, 1);
    b.lockOp(0, 2);
    b.unlockOp(0, 2);
    b.unlockOp(0, 1);
    b.lockOp(1, 2);
    b.lockOp(1, 1);
    b.unlockOp(1, 1);
    b.unlockOp(1, 2);
    return b.build();
}

/** Run @p name's job and hash its dump and reports. */
FrozenBlocks
runFrozen(const char *name)
{
    service::Job job;
    job.options.flags = service::kJobOmitHostTiming;
    job.options.seed = 7;
    std::unique_ptr<runtime::Program> program;
    runtime::SimConfig base;
    if (std::strcmp(name, "deadlock") == 0) {
        job.options.mode =
            static_cast<std::uint32_t>(instr::ToolMode::kContinuous);
        program = deadlockProgram();
    } else {
        workloads::WorkloadParams params;
        params.nthreads = 4;
        params.scale = 0.05;
        params.seed = 42;
        const bool demand =
            std::strcmp(name, "demand-faults-failsafe") == 0;
        program = workloads::findWorkload(
            demand ? "micro.racy_counter" : "micro.ping_pong")
                      ->factory(params);
        job.options.mode = static_cast<std::uint32_t>(
            demand ? instr::ToolMode::kDemand
                   : instr::ToolMode::kContinuous);
        if (demand) {
            std::string err;
            EXPECT_TRUE(pmu::resolveFaultSpec("storm", job.faults, err))
                << err;
            demand::GatingConfig &g = base.gating;
            g.pebs_precise_capture = true;
            g.pebs_staleness = 2;
            g.failsafe.escalation = true;
            g.failsafe.enable_holdoff = 32;
            g.failsafe.health_window = 500;
            g.failsafe.trip_windows = 1;
            g.failsafe.recover_windows = 2;
        }
    }
    job.trace = program->name();
    job.nthreads = program->numThreads();

    std::string partial;
    runtime::RunObserver observer;
    observer.interval_ops = 400;
    observer.on_partial = [&](const runtime::RunResult &snapshot) {
        if (partial.empty())
            partial = job.reportJson(snapshot, 1);
    };
    runtime::Simulator engine(job.simConfig(base));
    const runtime::RunResult result = engine.run(*program, &observer);
    std::ostringstream dump;
    result.dump(dump);
    EXPECT_FALSE(partial.empty()) << name;
    return {name, fnv1a(dump.str()), fnv1a(job.reportJson(result)),
            fnv1a(partial)};
}

} // namespace

TEST(Golden, DumpHashesMatchFrozenEngineBehaviour)
{
    expectMatchesGolden(enumerateCells(), kGolden, std::size(kGolden),
                        runtime::DetectorKind::kFastTrack);
}

TEST(Golden, LocksetDumpHashesMatchFrozenBehaviourOnReusedEngine)
{
    expectMatchesGolden(enumerateLocksetCells(), kGoldenLockset,
                        std::size(kGoldenLockset),
                        runtime::DetectorKind::kLockset);
}

TEST(Golden, GatedBlocksAndReportsMatchFrozenBytes)
{
    for (const FrozenBlocks &want : kFrozenBlocks) {
        const FrozenBlocks got = runFrozen(want.run);
        EXPECT_EQ(got.dump, want.dump) << want.run << " dump";
        EXPECT_EQ(got.report, want.report) << want.run << " report";
        EXPECT_EQ(got.partial_report, want.partial_report)
            << want.run << " partial report";
    }
}

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--emit-golden") == 0) {
            emitGolden(enumerateCells(),
                       runtime::DetectorKind::kFastTrack);
            return 0;
        }
        if (std::strcmp(argv[i], "--emit-golden-lockset") == 0) {
            emitGolden(enumerateLocksetCells(),
                       runtime::DetectorKind::kLockset);
            return 0;
        }
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
