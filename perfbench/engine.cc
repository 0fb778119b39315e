/**
 * @file
 * The engine phase of every run: the in-process engine on the
 * workload's program (`stream.scan` or `stream.shared_mix`).
 *
 * Four analysis modes run on one reused Simulator each: native (no
 * detector), continuous FastTrack, demand-gated FastTrack (HITM
 * sampling), and continuous lockset. Every rep builds a fresh
 * Program; the modes are interleaved round-robin inside every round
 * so minute-scale host drift hits all of them alike. Each round starts
 * with the host calibration kernel, and the round's rep times are
 * rescaled by it into reference-host time; each throughput is taken
 * at the fast decile of those rescaled reps. The per-layer figures
 * come from mode subtraction over the same rounds plus standalone
 * replays of the workload's access stream through the cache
 * hierarchy and the PMU.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <sstream>
#include <vector>

#include "bench.hh"
#include "mem/hierarchy.hh"
#include "pmu/pmu.hh"
#include "runtime/program.hh"
#include "runtime/simulator.hh"
#include "workloads/registry.hh"

namespace perfbench
{

namespace
{

using hdrd::instr::ToolMode;
using hdrd::runtime::DetectorKind;

struct ModeSpec
{
    const char *name;
    const char *span;
    ToolMode mode;
    DetectorKind detector;
};

constexpr ModeSpec kModes[] = {
    {"native", "runtime.run.native", ToolMode::kNative,
     DetectorKind::kFastTrack},
    {"lockset", "runtime.run.lockset", ToolMode::kContinuous,
     DetectorKind::kLockset},
    {"continuous", "runtime.run.continuous", ToolMode::kContinuous,
     DetectorKind::kFastTrack},
    {"demand", "runtime.run.demand", ToolMode::kDemand,
     DetectorKind::kFastTrack},
};
enum ModeIndex { kNative = 0, kLockset, kContinuous, kDemand, kNumModes };

struct EngineSpec
{
    const char *workload;
    const char *registry_name;
    double scale;
};

constexpr EngineSpec kSpecs[] = {
    {"scan", "stream.scan", 0.0625},
    {"shared", "stream.shared_mix", 0.25},
};

/** Simulated statistics every rep of one mode must reproduce. */
struct Fingerprint
{
    std::uint64_t ops = 0;
    std::uint64_t accesses = 0;
    std::uint64_t cycles = 0;
    std::uint64_t races = 0;
    std::uint64_t dump_hash = 0;

    bool operator==(const Fingerprint &) const = default;
};

/** Reference fingerprints for kDefaultSeed, frozen with the benchmark. */
struct Reference
{
    const char *workload;
    const char *mode;
    Fingerprint fp;
};

#include "reference.inc"

Fingerprint
fingerprint(const hdrd::runtime::RunResult &r)
{
    std::ostringstream os;
    r.dump(os);
    return Fingerprint{r.total_ops, r.mem_accesses, r.wall_cycles,
                       r.reports.uniqueCount(), fnv1a(os.str())};
}

std::string
describe(const Fingerprint &fp)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "ops=%llu accesses=%llu cycles=%llu races=%llu "
                  "dump=%016llx",
                  static_cast<unsigned long long>(fp.ops),
                  static_cast<unsigned long long>(fp.accesses),
                  static_cast<unsigned long long>(fp.cycles),
                  static_cast<unsigned long long>(fp.races),
                  static_cast<unsigned long long>(fp.dump_hash));
    return buf;
}

hdrd::runtime::SimConfig
configFor(const ModeSpec &mode, std::uint64_t seed)
{
    hdrd::runtime::SimConfig config;
    config.mode = mode.mode;
    config.detector = mode.detector;
    config.gating.strategy = hdrd::demand::Strategy::kDemandHitm;
    config.mem.ncores = 4;
    config.seed = seed;
    return config;
}

/** One data access of the captured stream. */
struct Access
{
    hdrd::Addr addr;
    std::uint32_t core;
    bool write;
};

/** Tees every data access a thread issues into a shared vector. */
class CaptureBody : public hdrd::runtime::ThreadBody
{
  public:
    CaptureBody(std::unique_ptr<hdrd::runtime::ThreadBody> inner,
                std::uint32_t core, std::vector<Access> &out)
        : inner_(std::move(inner)), core_(core), out_(out)
    {
    }

    bool next(hdrd::runtime::Op &op) override
    {
        if (!inner_->next(op))
            return false;
        if (op.type == hdrd::runtime::OpType::kRead
            || op.type == hdrd::runtime::OpType::kWrite) {
            out_.push_back(Access{op.addr, core_,
                                  op.type == hdrd::runtime::OpType::kWrite});
        }
        return true;
    }

    // Not pure: the simulator must fetch ops in execution order so the
    // captured stream is the order the hierarchy saw.
    bool nextIsPure() const override { return false; }

  private:
    std::unique_ptr<hdrd::runtime::ThreadBody> inner_;
    std::uint32_t core_;
    std::vector<Access> &out_;
};

class CaptureProgram : public hdrd::runtime::Program
{
  public:
    CaptureProgram(hdrd::runtime::Program &inner, std::uint32_t ncores,
                   std::vector<Access> &out)
        : inner_(inner), ncores_(ncores), out_(out)
    {
    }

    const std::string &name() const override { return inner_.name(); }
    std::uint32_t numThreads() const override
    {
        return inner_.numThreads();
    }
    bool implicitStart() const override { return inner_.implicitStart(); }
    std::unique_ptr<hdrd::runtime::ThreadBody>
    makeThread(hdrd::ThreadId tid) override
    {
        // threads_per_core == 1: thread t runs on core t mod ncores.
        return std::make_unique<CaptureBody>(inner_.makeThread(tid),
                                             tid % ncores_, out_);
    }

  private:
    hdrd::runtime::Program &inner_;
    std::uint32_t ncores_;
    std::vector<Access> &out_;
};

/** The simulator's per-access PMU event set for one access result. */
hdrd::pmu::EventMask
eventsOf(const hdrd::mem::AccessResult &res)
{
    using hdrd::pmu::EventType;
    using hdrd::pmu::eventBit;
    static constexpr hdrd::pmu::EventMask kMissEvents[] = {
        0,
        eventBit(EventType::kL1Miss),
        eventBit(EventType::kL1Miss) | eventBit(EventType::kL2Miss),
        eventBit(EventType::kL1Miss) | eventBit(EventType::kL2Miss),
        eventBit(EventType::kL1Miss) | eventBit(EventType::kL2Miss)
            | eventBit(EventType::kL3Miss),
    };
    hdrd::pmu::EventMask events =
        eventBit(res.write ? EventType::kStores : EventType::kLoads)
        | kMissEvents[static_cast<std::size_t>(res.where)];
    if (res.hitm_load)
        events |= eventBit(EventType::kHitmLoad);
    if (res.hitm)
        events |= eventBit(EventType::kHitmAny);
    if (res.invalidations > 0)
        events |= eventBit(EventType::kInvalidationsSent);
    return events;
}

/** ns per access of the mem and pmu replays (median of 3 each). */
struct ReplayCost
{
    double mem_ns = 0.0;
    double pmu_ns = 0.0;
    std::size_t accesses = 0;
};

ReplayCost
replayLayers(const EngineSpec &spec,
             const hdrd::workloads::WorkloadParams &params,
             hdrd::runtime::Simulator &native, const Fingerprint &expect,
             Result &result)
{
    ScopedSpan span("bench.replay");
    const auto *info = hdrd::workloads::findWorkload(spec.registry_name);
    const hdrd::runtime::SimConfig config = native.config();

    std::vector<Access> stream;
    {
        ScopedSpan capture("runtime.capture");
        auto program = info->factory(params);
        CaptureProgram tee(*program, config.mem.ncores, stream);
        ++result.attempted;
        if (fingerprint(native.run(tee)) != expect)
            result.fail("capture run differs from the native reference");
    }

    ReplayCost cost;
    cost.accesses = stream.size();
    const double host = kCalibRefMs / calibrate();
    std::vector<hdrd::pmu::EventMask> masks(stream.size());
    std::vector<std::uint32_t> invals(stream.size());
    std::vector<double> mem_ns, pmu_ns;
    std::uint64_t sink = 0;
    for (int rep = 0; rep < 3; ++rep) {
        {
            ScopedSpan s("mem.replay");
            hdrd::mem::Hierarchy hier(config.mem);
            const auto t0 = Clock::now();
            for (std::size_t i = 0; i < stream.size(); ++i) {
                const auto res =
                    hier.access(stream[i].core, stream[i].addr,
                                stream[i].write);
                masks[i] = eventsOf(res);
                invals[i] = res.invalidations;
            }
            mem_ns.push_back(msBetween(t0, Clock::now()) * 1e6
                             / static_cast<double>(stream.size()));
        }
        {
            ScopedSpan s("pmu.replay");
            hdrd::pmu::Pmu pmu(config.mem.ncores);
            pmu.armAll(config.gating.hitm_counter);
            const auto t0 = Clock::now();
            for (std::size_t i = 0; i < stream.size(); ++i) {
                sink += pmu.recordAccess(stream[i].core, masks[i],
                                         invals[i]);
            }
            pmu_ns.push_back(msBetween(t0, Clock::now()) * 1e6
                             / static_cast<double>(stream.size()));
        }
    }
    std::printf("# replayed %zu accesses (%llu sampled)\n", stream.size(),
                static_cast<unsigned long long>(sink));
    cost.mem_ns = median(mem_ns) * host;
    cost.pmu_ns = median(pmu_ns) * host;
    return cost;
}

} // namespace

void
runEnginePhase(const Options &opt, double seconds, Result &result)
{
    const EngineSpec *spec = nullptr;
    for (const EngineSpec &s : kSpecs) {
        if (opt.workload == s.workload)
            spec = &s;
    }
    const auto *info = hdrd::workloads::findWorkload(spec->registry_name);
    hdrd::workloads::WorkloadParams params;
    params.nthreads = 4;
    params.scale = spec->scale;
    params.seed = opt.seed + 41;  // hdrd_sim's program-seed convention

    std::array<std::unique_ptr<hdrd::runtime::Simulator>, kNumModes> sims;
    std::array<Fingerprint, kNumModes> first{};
    std::array<std::vector<double>, kNumModes> rss_mb;
    std::vector<double> setup_s, build_ms;
    hdrd::runtime::RunResult demand_run;

    // Checks one rep of mode m against that mode's first rep.
    auto check = [&](int m, const hdrd::runtime::RunResult &r,
                     const std::string &what) {
        ++result.attempted;
        const Fingerprint fp = fingerprint(r);
        if (fp != first[m]) {
            result.fail(std::string(kModes[m].name) + " " + what
                        + " differs: " + describe(fp));
        }
    };
    // Starts mode m's engine: a fresh Simulator and its first rep.
    auto startEngine = [&](int m) {
        sims[m] = std::make_unique<hdrd::runtime::Simulator>(
            configFor(kModes[m], opt.seed));
        const auto tb = Clock::now();
        auto program = info->factory(params);
        build_ms.push_back(msBetween(tb, Clock::now()));
        return sims[m]->run(*program);
    };

    // Set-up, kSetupReps times: build each mode's engine and run its
    // first rep, which allocates the detector's storage. Each mode's
    // peak-RSS watermark is taken with only that mode's engine alive,
    // so no mode's storage shows in another's figure. Set-up time is
    // the sum of the four starts, rescaled to reference-host time like
    // the reps; tearing the engines down is not part of it.
    constexpr int kSetupReps = 15;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const double host = kCalibRefMs / calibrate();
        double took = 0.0;
        for (int m = 0; m < kNumModes; ++m) {
            for (auto &sim : sims)
                sim.reset();
            trimHeap();
            resetPeakRssOf(0);
            const auto t0 = Clock::now();
            hdrd::runtime::RunResult r = startEngine(m);
            took += secondsSince(t0);
            rss_mb[m].push_back(static_cast<double>(peakRssKbOf(0))
                                / 1024.0);
            if (rep == 0) {
                ++result.attempted;
                first[m] = fingerprint(r);
                if (m == kDemand)
                    demand_run = std::move(r);
            } else {
                check(m, r, "set-up rep");
            }
        }
        setup_s.push_back(took * host);
    }
    // The engines the timed rounds reuse, started once more now that
    // no RSS watermark is being taken.
    for (int m = 0; m < kNumModes; ++m) {
        if (!sims[m])
            check(m, startEngine(m), "engine start");
    }

    if (opt.seed == kDefaultSeed) {
        for (int m = 0; m < kNumModes; ++m) {
            const Reference *ref = nullptr;
            for (const Reference &r : kReference) {
                if (opt.workload == r.workload
                    && std::string(kModes[m].name) == r.mode)
                    ref = &r;
            }
            if (ref == nullptr) {
                result.fail(std::string("no reference for ")
                            + kModes[m].name);
                std::printf("# reference {\"%s\", \"%s\", {%lluu, %lluu, "
                            "%lluu, %lluu, 0x%016llxu}},\n",
                            opt.workload.c_str(), kModes[m].name,
                            (unsigned long long)first[m].ops,
                            (unsigned long long)first[m].accesses,
                            (unsigned long long)first[m].cycles,
                            (unsigned long long)first[m].races,
                            (unsigned long long)first[m].dump_hash);
            } else if (ref->fp != first[m]) {
                result.fail(std::string(kModes[m].name)
                            + " differs from the stored reference: "
                            + describe(first[m]) + " vs "
                            + describe(ref->fp));
            }
        }
    }

    // Measurement. In a traced run the tracer records every other
    // round, so traced and untraced rounds interleave and their
    // difference is the tracing overhead.
    const auto t_measure = Clock::now();
    Tracer &tracer = Tracer::instance();
    ReplayCost replay;
    if (opt.trace) {
        tracer.setEnabled(true);
        replay = replayLayers(*spec, params, *sims[kNative], first[kNative],
                              result);
    }

    // secs holds rep times in reference-host seconds (see calibrate()),
    // raw the wall times they were rescaled from.
    std::array<std::vector<double>, kNumModes> secs, raw;
    std::vector<double> round_traced, round_plain, calib_ms;
    // At least 100 rounds, so the fast decile rests on 10 reps; past
    // the time budget only until then, and never past 60 seconds.
    constexpr int kMinRounds = 100;
    double longest_round = 0.0;
    for (int round = 0;; ++round) {
        const double elapsed = secondsSince(t_measure);
        if (round >= kMinRounds && seconds - elapsed < longest_round)
            break;
        if (elapsed > std::max(seconds, 60.0))
            break;
        const bool traced = opt.trace && round % 2 == 0;
        tracer.setEnabled(traced);
        const auto t_round = Clock::now();
        {
            ScopedSpan round_span("engine.round", round);
            double host = 0.0;
            {
                ScopedSpan s("host.calibrate");
                const double ms = calibrate();
                calib_ms.push_back(ms);
                host = kCalibRefMs / ms;
            }
            for (int m = 0; m < kNumModes; ++m) {
                std::unique_ptr<hdrd::runtime::Program> program;
                {
                    ScopedSpan s("workloads.build");
                    const auto tb = Clock::now();
                    program = info->factory(params);
                    build_ms.push_back(msBetween(tb, Clock::now()));
                }
                hdrd::runtime::RunResult r;
                {
                    ScopedSpan s(kModes[m].span);
                    const auto t0 = Clock::now();
                    r = sims[m]->run(*program);
                    raw[m].push_back(secondsSince(t0));
                    secs[m].push_back(raw[m].back() * host);
                }
                ScopedSpan s("check.dump");
                check(m, r, "round " + std::to_string(round));
            }
        }
        const double took = secondsSince(t_round);
        longest_round = std::max(longest_round, took);
        (traced ? round_traced : round_plain).push_back(took);
    }
    tracer.setEnabled(false);

    const auto ops = static_cast<double>(first[kNative].ops);
    const auto accesses = static_cast<double>(first[kNative].accesses);
    const std::size_t rounds = secs[kNative].size();
    // Throughput at the fast decile of rescaled rep times. Host speed
    // drifts in phases of seconds to minutes; rescaling by the round's
    // calibration removes most of it, and the fast decile is steadier
    // than the median against what remains (see README.md, "Noise").
    auto fastMops = [&](const std::vector<double> &times) {
        const double fast = tailQuantile(times, 0.1);
        return fast > 0.0 ? ops / fast / 1e6 : 0.0;
    };
    for (int m = 0; m < kNumModes; ++m) {
        std::printf("# %-10s raw wall-clock fast-decile %.4f Mops/s, "
                    "median %.4f Mops/s\n",
                    kModes[m].name, fastMops(raw[m]),
                    ops / median(raw[m]) / 1e6);
    }
    auto mops = [&](int m) {
        const double v = fastMops(secs[m]);
        if (v == 0.0) {
            result.fail(std::string(kModes[m].name)
                        + ": fewer than 100 reps for the fast decile");
        }
        return v;
    };
    // Mode subtraction, paired within each round.
    auto minusNative = [&](int m, double per) {
        std::vector<double> v;
        for (std::size_t i = 0; i < rounds; ++i)
            v.push_back((secs[m][i] - secs[kNative][i]) * 1e9 / per);
        return median(v);
    };

    result.end_to_end.insert(result.end_to_end.end(), {
        {"continuous_mops", "Mops/s", mops(kContinuous), rounds},
        {"demand_mops", "Mops/s", mops(kDemand), rounds},
        {"lockset_mops", "Mops/s", mops(kLockset), rounds},
        {"continuous_rss_mb", "MiB", median(rss_mb[kContinuous]),
         rss_mb[kContinuous].size()},
        {"lockset_rss_mb", "MiB", median(rss_mb[kLockset]),
         rss_mb[kLockset].size()},
    });

    // The same throughputs at the median rescaled rep: too unsteady
    // across runs for a bound (see README.md, "Noise"), but a cost that
    // hits only some reps, which the fast decile skips, moves it.
    auto medianMops = [&](int m) { return ops / median(secs[m]) / 1e6; };
    const double native_ns = median(secs[kNative]) * 1e9 / ops;
    const double accesses_demand =
        static_cast<double>(demand_run.mem_accesses);
    result.per_layer.insert(result.per_layer.end(), {
        {"runtime.native_ns_per_op", "ns", native_ns, rounds},
        {"detect.ft_ns_per_access", "ns",
         minusNative(kContinuous, accesses), rounds},
        {"detect.lockset_ns_per_access", "ns",
         minusNative(kLockset, accesses), rounds},
        {"demand.ns_per_op", "ns", minusNative(kDemand, ops), rounds},
        {"detect.ft_shadow_mb", "MiB",
         median(rss_mb[kContinuous]) - median(rss_mb[kNative]),
         rss_mb[kNative].size()},
        {"detect.lockset_shadow_mb", "MiB",
         median(rss_mb[kLockset]) - median(rss_mb[kNative]),
         rss_mb[kNative].size()},
        {"workloads.build_ms", "ms", median(build_ms), build_ms.size()},
        {"sim.ops", "count", ops, 1},
        {"sim.mem_accesses", "count", accesses, 1},
        {"mem.hitm_per_kaccess", "count",
         accesses_demand > 0.0
             ? 1000.0 * static_cast<double>(demand_run.hitm_loads)
                 / accesses_demand
             : 0.0,
         1},
        {"pmu.interrupts", "count",
         static_cast<double>(demand_run.interrupts), 1},
        {"demand.enables", "count", static_cast<double>(demand_run.enables),
         1},
        {"demand.analyzed_fraction", "ratio",
         demand_run.analyzedFraction(), 1},
        {"host.calib_ms", "ms", median(calib_ms), calib_ms.size()},
        {"median.continuous_mops", "Mops/s", medianMops(kContinuous), rounds},
        {"median.demand_mops", "Mops/s", medianMops(kDemand), rounds},
        {"median.lockset_mops", "Mops/s", medianMops(kLockset), rounds},
        {"setup.engine_s", "s", median(setup_s), setup_s.size()},
    });
    if (opt.trace) {
        const double per_op = replay.accesses > 0
            ? (replay.mem_ns + replay.pmu_ns)
                * static_cast<double>(replay.accesses) / ops
            : 0.0;
        result.per_layer.push_back({"mem.access_ns", "ns", replay.mem_ns, 3});
        result.per_layer.push_back({"pmu.record_ns", "ns", replay.pmu_ns, 3});
        result.per_layer.push_back(
            {"runtime.rest_ns_per_op", "ns", native_ns - per_op, rounds});
        const double plain = median(round_plain);
        result.per_layer.push_back(
            {"trace.engine_overhead_pct", "%",
             plain > 0.0 ? 100.0 * (median(round_traced) / plain - 1.0)
                         : 0.0,
             round_traced.size()});
    }
}

} // namespace perfbench
