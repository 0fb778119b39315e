/**
 * @file
 * The simulated three-level cache hierarchy and its MESI protocol.
 *
 * This is the substrate that makes the paper's hardware sharing
 * indicator exist: when a core's demand access finds the line Modified
 * in another core's private cache, the transfer is a "HITM". Loads
 * that HITM are what the modelled PEBS event counts — stores that HITM
 * are protocol-visible but *not* PMU-visible, reproducing the paper's
 * W->R-only observability.
 */

#ifndef HDRD_MEM_HIERARCHY_HH
#define HDRD_MEM_HIERARCHY_HH

#include <cstdint>
#include <memory>

#include "common/histogram.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/coherence.hh"

namespace hdrd::mem
{

/** Access latencies in cycles for each service point. */
struct LatencyModel
{
    Cycle l1_hit = 2;
    Cycle l2_hit = 10;
    Cycle l3_hit = 35;
    Cycle memory = 200;

    /** Modified-line cache-to-cache transfer (the HITM path). */
    Cycle hitm_transfer = 70;

    /** S->M upgrade (invalidation round-trip). */
    Cycle upgrade = 40;
};

/** Where an access was ultimately serviced from. */
enum class HitWhere : std::uint8_t
{
    kL1 = 0,
    kL2,
    kL3,
    kRemoteCache,  ///< cache-to-cache from another core's private cache
    kMemory,
};

/** Printable name for a HitWhere. */
const char *hitWhereName(HitWhere where);

/** Everything a single access did to the hierarchy. */
struct AccessResult
{
    HitWhere where = HitWhere::kL1;

    /** The access was a store. */
    bool write = false;

    /** Protocol-level HITM: data came from a remote Modified line. */
    bool hitm = false;

    /**
     * PMU-visible HITM: a *load* that hit a remote Modified line.
     * This is the event the demand-driven detector samples on.
     */
    bool hitm_load = false;

    /** Remote copies invalidated by this access. */
    std::uint32_t invalidations = 0;

    /** The access was an S->M upgrade of a locally resident line. */
    bool upgrade = false;

    /** A Modified line was written back out of a private L2. */
    bool private_writeback = false;

    /** Service latency in cycles. */
    Cycle latency = 0;
};

/** Configuration for the whole hierarchy. */
struct HierarchyConfig
{
    std::uint32_t ncores = 4;
    CacheGeometry l1{.size_bytes = 32 * 1024, .assoc = 8,
                     .line_bytes = 64};
    CacheGeometry l2{.size_bytes = 256 * 1024, .assoc = 8,
                     .line_bytes = 64};
    CacheGeometry l3{.size_bytes = 8 * 1024 * 1024, .assoc = 16,
                     .line_bytes = 64};
    LatencyModel latency;
};

/** Hierarchy event counts. */
struct HierarchyStats
{
    std::uint64_t accesses = 0;
    std::uint64_t writes = 0;
    std::uint64_t l1_hits = 0;
    std::uint64_t l2_hits = 0;
    std::uint64_t l3_hits = 0;
    std::uint64_t mem_fetches = 0;

    /** Write hits that had to gain ownership (E/S -> M). */
    std::uint64_t upgrades = 0;

    /** Remote private copies invalidated. */
    std::uint64_t invalidations = 0;

    /** Misses served from another core's modified line; the loads
     *  among them are what HITM events count. */
    std::uint64_t hitm_transfers = 0;
    std::uint64_t hitm_loads = 0;

    /** Evictions; dirty private lines written back; private copies
     *  dropped to keep the L3 inclusive. */
    std::uint64_t l2_evictions = 0;
    std::uint64_t private_writebacks = 0;
    std::uint64_t l3_evictions = 0;
    std::uint64_t back_invalidations = 0;
};

/**
 * Three-level MESI hierarchy: private L1+L2 per core, shared inclusive
 * L3, flat memory behind it.
 *
 * Tags-only simulation: no data is stored, only coherence metadata.
 * The single public entry point is access(); everything else exists
 * for tests and statistics.
 */
class Hierarchy
{
  public:
    explicit Hierarchy(const HierarchyConfig &config);

    /**
     * Perform one demand access.
     *
     * Lives in the header so the simulator's per-op loop inlines the
     * (dominant) private-cache hit path; misses tail-call out of line
     * into serviceMiss().
     *
     * @param core requesting core
     * @param addr byte address
     * @param write true for a store, false for a load
     * @return what happened (service point, HITM, latency, ...)
     */
    /**
     * Pure host-side hint: start pulling the private tag sets
     * @p core will scan when it next accesses @p addr. No simulated
     * state changes; safe to call speculatively.
     */
    void prefetchAccess(CoreId core, Addr addr) const
    {
        privates_.prefetchSets(core, l3_.lineAddr(addr));
    }

    AccessResult access(CoreId core, Addr addr, bool write)
    {
        hdrdAssert(core < config_.ncores,
                   "access from unknown core ", core);
        const Addr line = l3_.lineAddr(addr);
        const LatencyModel &lat = config_.latency;

        ++stats_.accesses;
        if (write)
            ++stats_.writes;

        // Probe L1 first: a hit reaches the backing L2 line through
        // the slot link recorded at fill time, so the (dominant)
        // L1-hit path scans one tag array instead of two. Probe
        // order is invisible — probes have no side effects, and
        // inclusion means an L1 hit implies the L2 copy the old
        // L2-first probe would have found.
        // Pull the L2 tag set while the L1 probe runs: the workloads'
        // L1 miss rates make the L2 scan the common next step, and on
        // an L1 hit the slot link lands in the same set anyway.
        privates_.prefetchL2Set(core, line);
        CacheLine *l1_line = privates_.probeL1(core, line);
        CacheLine *l2_line = l1_line != nullptr
            ? privates_.l2LineOf(core, l1_line)
            : privates_.probeL2(core, line);
        if (l2_line != nullptr) {
            AccessResult result;
            result.write = write;
            const bool in_l1 = l1_line != nullptr;
            result.where = in_l1 ? HitWhere::kL1 : HitWhere::kL2;
            result.latency = in_l1 ? lat.l1_hit : lat.l2_hit;
            ++(in_l1 ? stats_.l1_hits : stats_.l2_hits);
            if (in_l1)
                privates_.touchLines(core, l1_line, l2_line);

            if (write && l2_line->state != Mesi::kModified)
                upgradeForWrite(core, line, l1_line, l2_line, result);
            // Fill after any upgrade so the L1 copy lands with the
            // final state (identical to fill-then-upgrade).
            if (!in_l1)
                privates_.fillL1From(core, line, l2_line);
            latency_hist_.add(result.latency);
            return result;
        }

        AccessResult result = serviceMiss(core, line, write);
        result.write = write;
        latency_hist_.add(result.latency);
        return result;
    }

    /** Line address for a byte address. */
    Addr lineAddr(Addr addr) const;

    /** MESI state of @p addr's line in @p core's private caches. */
    Mesi privateState(CoreId core, Addr addr) const;

    /** True when @p addr's line is resident in the shared L3. */
    bool inL3(Addr addr) const;

    /** Configuration in force. */
    const HierarchyConfig &config() const { return config_; }

    /** Event counts since construction. */
    const HierarchyStats &stats() const { return stats_; }

    /** Distribution of per-access service latencies. */
    const Log2Histogram &latencyHistogram() const
    {
        return latency_hist_;
    }

    /** Check global MESI invariants; panics on violation (tests). */
    void checkInvariants() const;

    /** Drop all cached state everywhere. */
    void flushAll();

  private:
    /** Service a private-hierarchy miss; fills privates on return. */
    AccessResult serviceMiss(CoreId core, Addr line_addr, bool write);

    /** Hit-path write upgrade (E->M silent, S->M invalidating). */
    void upgradeForWrite(CoreId core, Addr line, CacheLine *l1_line,
                         CacheLine *l2_line, AccessResult &result);

    /** Insert into L3, back-invalidating inclusion victims. */
    void insertL3(Addr line_addr);

    HierarchyConfig config_;
    PrivateCaches privates_;
    Cache l3_;
    HierarchyStats stats_;
    Log2Histogram latency_hist_;

    /** Reused remote-holder buffer (no per-access allocation). */
    std::vector<CoreId> holders_scratch_;
};

} // namespace hdrd::mem

#endif // HDRD_MEM_HIERARCHY_HH
