/**
 * @file
 * The Simulator: executes a Program on the modelled platform under a
 * chosen analysis regime and reports what happened.
 *
 * This is the integration point of every substrate:
 *   - runtime: threads, scheduler, sync objects;
 *   - mem: the MESI hierarchy that generates HITM events;
 *   - pmu: counters sampling those events, delivering interrupts;
 *   - detect: always-on sync clocks + demand-gated per-access analysis;
 *   - demand: the enable/disable state machine;
 *   - instr: the cycle cost model that turns regimes into slowdowns.
 */

#ifndef HDRD_RUNTIME_SIMULATOR_HH
#define HDRD_RUNTIME_SIMULATOR_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "common/types.hh"
#include "demand/controller.hh"
#include "demand/strategy.hh"
#include "detect/report.hh"
#include "detect/shadow.hh"
#include "instr/cost_model.hh"
#include "mem/hierarchy.hh"
#include "pmu/event.hh"
#include "pmu/faults.hh"
#include "runtime/scheduler.hh"

namespace hdrd::runtime
{

class Program;

/** Ground-truth inter-thread sharing counts (word granularity). */
struct GroundTruthStats
{
    /** Reads of data last written by another thread. */
    std::uint64_t wr = 0;

    /** Writes over data last written by another thread. */
    std::uint64_t ww = 0;

    /** Writes to data read by another thread since its last write. */
    std::uint64_t rw = 0;

    /** Accesses participating in any inter-thread sharing. */
    std::uint64_t shared_accesses = 0;
};

/** Which per-access race-detection algorithm runs behind the gate. */
enum class DetectorKind : std::uint8_t
{
    kFastTrack = 0,  ///< epoch-adaptive (Inspector/FastTrack class)
    kNaiveHb,        ///< full-vector-clock DJIT+ (reference oracle)
    kLockset,        ///< Eraser-style lockset (baseline comparison)
};

/** Simulation configuration: platform, regime, gating, bookkeeping. */
struct SimConfig
{
    mem::HierarchyConfig mem;
    instr::CostModel cost;
    instr::ToolMode mode = instr::ToolMode::kContinuous;
    demand::GatingConfig gating;

    /**
     * Hardware-signal fault injection (default: pass-through). When
     * no fault is configured the model is never consulted and the
     * run is byte-identical to a fault-free build.
     */
    pmu::FaultConfig faults;

    /** Detection algorithm used for analyzed accesses. */
    DetectorKind detector = DetectorKind::kFastTrack;

    /** log2 bytes of the race-detection granule. */
    std::uint32_t granule_shift = 3;

    /** Seed for every random decision in the run. */
    std::uint64_t seed = 1;

    /** Probability of a random scheduler pick (0 = deterministic). */
    double sched_jitter = 0.0;

    /** Base interleaving policy (seeded; see SchedPolicy). */
    SchedPolicy sched_policy = SchedPolicy::kEarliestFirst;

    /**
     * Track ground-truth sharing per access. Costs memory proportional
     * to the touched word count; forced on by the oracle strategy.
     */
    bool track_ground_truth = false;

    /** Run hierarchy invariant checks every N accesses (0 = never). */
    std::uint64_t invariant_check_interval = 0;

    /**
     * Threads mapped per core: 1 pins thread t to core t mod ncores;
     * 2 models SMT siblings sharing a private cache (no HITMs between
     * them — one of the paper's accuracy caveats).
     */
    std::uint32_t threads_per_core = 1;
};

/**
 * How a run ended. Anything but kCompleted is an input-dependent
 * failure (or a cancellation): the result's counters then describe
 * a prefix of the run, and RunResult::error says what went wrong.
 */
enum class RunStatus : std::uint8_t
{
    kCompleted = 0,
    kDeadlock,    ///< no runnable thread, but not all finished
    kSyncMisuse,  ///< unlock of an unheld lock, bad barrier/create/join
    kCancelled,   ///< RunObserver::cancel fired
};

/** Printable name for a RunStatus. */
const char *runStatusName(RunStatus status);

/** Everything measured during one run. */
struct RunResult
{
    /** How the run ended; dumped only when not kCompleted. */
    RunStatus status = RunStatus::kCompleted;

    /** What went wrong (empty for a completed run). */
    std::string error;

    /** The program ran to completion. */
    bool completed() const { return status == RunStatus::kCompleted; }

    /** Wall time: max over per-core cycle clocks. */
    Cycle wall_cycles = 0;

    std::uint64_t total_ops = 0;
    std::uint64_t mem_accesses = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t sync_ops = 0;
    std::uint64_t work_ops = 0;

    /** Atomic RMW operations (ordered, never analyzed as data). */
    std::uint64_t atomic_ops = 0;

    /** Accesses that ran through the race detector. */
    std::uint64_t analyzed_accesses = 0;

    /** Demand-driven transitions and interrupts. */
    std::uint64_t enables = 0;
    std::uint64_t disables = 0;
    std::uint64_t interrupts = 0;

    /** Triggering accesses retroactively analyzed via PEBS capture. */
    std::uint64_t pebs_captures = 0;

    /** PEBS captures skipped by the staleness bound. */
    std::uint64_t pebs_stale = 0;

    /**
     * Fault-injection accounting; dumped only when faults_active so
     * fault-free runs keep the frozen golden dump format.
     */
    bool faults_active = false;
    pmu::FaultStats faults;
    std::uint64_t interrupts_suppressed = 0;

    /** Failsafe/hysteresis accounting; dumped when failsafe_active. */
    bool failsafe_active = false;
    demand::FailsafeMode failsafe_mode = demand::FailsafeMode::kDemand;
    std::uint64_t escalations = 0;
    std::uint64_t deescalations = 0;
    std::uint64_t ignored_interrupts = 0;

    /** Hierarchy-level sharing events. */
    std::uint64_t hitm_loads = 0;
    std::uint64_t hitm_transfers = 0;
    std::uint64_t private_writebacks = 0;

    /** Free-running PMU totals per event type. */
    std::array<std::uint64_t, pmu::kNumEventTypes> pmu_totals{};

    GroundTruthStats gt;

    /** Distribution of memory-access service latencies. */
    Log2Histogram mem_latency;

    /** Race reports (site-pair deduplicated). */
    detect::ReportSink reports;

    /** Enable/disable transition history with access indices. */
    std::vector<demand::Transition> transitions;

    /** Fraction of data accesses analyzed. */
    double analyzedFraction() const
    {
        return mem_accesses == 0
            ? 0.0
            : static_cast<double>(analyzed_accesses)
                / static_cast<double>(mem_accesses);
    }

    /** Fraction of data accesses participating in sharing. */
    double sharingFraction() const
    {
        return mem_accesses == 0
            ? 0.0
            : static_cast<double>(gt.shared_accesses)
                / static_cast<double>(mem_accesses);
    }

    /**
     * Machine-readable "key value" dump of every measurement (one
     * per line), gem5-stats style.
     */
    void dump(std::ostream &os) const;
};

/**
 * Optional observation hooks for a run in flight (streaming jobs).
 *
 * Partials: every @p interval_ops executed operations the simulator
 * snapshots the accumulated RunResult, finalizes the copy exactly
 * like the end-of-run result, and hands it to @p on_partial. The
 * trigger counts executed ops — a pure function of (program, config)
 * — so partial N of a given job is byte-stable across runs, and each
 * snapshot is a prefix-consistent view of the final result (race
 * reports appear in discovery order; a partial's list is a prefix of
 * the final list).
 *
 * Cancellation: @p cancel is polled each iteration. A cancelled run
 * ends with RunStatus::kCancelled — also when it was cancelled while
 * every thread is blocked (a streaming session aborted mid-upload,
 * whose threads wait for records that will never come), which would
 * otherwise end as a deadlock.
 */
struct RunObserver
{
    /** Emit a partial snapshot every N executed ops (0 = never). */
    std::uint64_t interval_ops = 0;

    /** Called with each finalized partial snapshot. */
    std::function<void(const RunResult &)> on_partial;

    /** When set and true, the run unwinds at the next check. */
    const std::atomic<bool> *cancel = nullptr;
};

/**
 * Executes Programs under a fixed SimConfig. Logically stateless
 * between runs: every run() builds a fresh platform. The FastTrack
 * shadow memory is the one piece of *storage* that persists — each
 * run borrows it after a recycling reset, so a long-lived engine
 * (one per service worker) reuses chunk pages and pooled clocks
 * across jobs instead of rebuilding them from the allocator.
 */
class Simulator
{
  public:
    explicit Simulator(const SimConfig &config);

    /**
     * Execute @p program and report. A program that deadlocks or
     * misuses a sync op ends the run with that RunStatus instead of
     * aborting the process (programs may be untrusted traces), so
     * callers check RunResult::completed(). Internally
     * dispatches to a per-ToolMode specialization of the main loop
     * so regime checks constant-fold out of the access path.
     * @param observer optional partial-report/cancel hooks; null
     *        keeps the loop on its unobserved fast path.
     */
    RunResult run(Program &program, RunObserver *observer = nullptr);

    /** Configuration in force. */
    const SimConfig &config() const { return config_; }

    /**
     * Re-arm this engine with a new configuration between runs.
     * run() builds the platform fresh each time, so a long-lived
     * engine (one per hdrd_served worker) serves back-to-back jobs
     * with different regimes/seeds with no state bleeding across
     * them — same validation as construction.
     */
    void reconfigure(const SimConfig &config);

    /** One-shot convenience wrapper. */
    static RunResult runWith(Program &program, const SimConfig &config)
    {
        Simulator sim(config);
        return sim.run(program);
    }

  private:
    /** The main loop, specialized per analysis regime. */
    template <instr::ToolMode kMode>
    RunResult runImpl(Program &program, RunObserver *observer);

    SimConfig config_;

    /** Persistent FastTrack shadow scratch, recycled per run. */
    detect::ShadowMemory ft_shadow_;
};

} // namespace hdrd::runtime

#endif // HDRD_RUNTIME_SIMULATOR_HH
