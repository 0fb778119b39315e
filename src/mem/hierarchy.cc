#include "mem/hierarchy.hh"

#include "common/logging.hh"

namespace hdrd::mem
{

const char *
hitWhereName(HitWhere where)
{
    switch (where) {
      case HitWhere::kL1:
        return "L1";
      case HitWhere::kL2:
        return "L2";
      case HitWhere::kL3:
        return "L3";
      case HitWhere::kRemoteCache:
        return "remote";
      case HitWhere::kMemory:
        return "memory";
    }
    return "?";
}

Hierarchy::Hierarchy(const HierarchyConfig &config)
    : config_(config),
      privates_(config.ncores, config.l1, config.l2),
      l3_(config.l3, "l3")
{
    if (config.l3.line_bytes != config.l1.line_bytes)
        fatal("L3 line size must match L1/L2 line size");
    if (config.ncores == 0)
        fatal("Hierarchy needs at least one core");

    holders_scratch_.reserve(config.ncores);
}

Addr
Hierarchy::lineAddr(Addr addr) const
{
    return l3_.lineAddr(addr);
}

void
Hierarchy::upgradeForWrite(CoreId core, Addr line, CacheLine *l1_line,
                           CacheLine *l2_line, AccessResult &result)
{
    const LatencyModel &lat = config_.latency;
    switch (l2_line->state) {
      case Mesi::kExclusive:
        // Silent E->M upgrade, no bus traffic.
        l2_line->state = Mesi::kModified;
        if (l1_line != nullptr)
            l1_line->state = Mesi::kModified;
        privates_.noteState(core, line, Mesi::kModified);
        break;
      case Mesi::kShared: {
        // S->M upgrade: invalidate every remote copy.
        privates_.remoteHoldersInto(line, core, holders_scratch_);
        for (CoreId h : holders_scratch_) {
            privates_.invalidate(h, line);
            ++result.invalidations;
        }
        l2_line->state = Mesi::kModified;
        if (l1_line != nullptr)
            l1_line->state = Mesi::kModified;
        privates_.noteState(core, line, Mesi::kModified);
        result.upgrade = true;
        result.latency += lat.upgrade;
        ++stats_.upgrades;
        stats_.invalidations += result.invalidations;
        break;
      }
      case Mesi::kModified:
      case Mesi::kInvalid:
        panic("unreachable: hit-path upgrade from state ",
              mesiName(l2_line->state));
    }
}

Mesi
Hierarchy::privateState(CoreId core, Addr addr) const
{
    return privates_.state(core, lineAddr(addr));
}

bool
Hierarchy::inL3(Addr addr) const
{
    return l3_.probe(lineAddr(addr)) != nullptr;
}

AccessResult
Hierarchy::serviceMiss(CoreId core, Addr line, bool write)
{
    const LatencyModel &lat = config_.latency;
    AccessResult result;
    Mesi new_state;

    // Every miss outcome probes the L3 set, and the tail insert scans
    // the requester's L2 set: start both host loads now so they
    // overlap the directory decode.
    l3_.prefetchSet(line);
    privates_.l2(core).prefetchSet(line);

    // One sweep of the remote L2s yields both the Modified owner and
    // the holder list (the pre-change path probed every core twice).
    const auto owner =
        privates_.snapshotRemote(line, core, holders_scratch_);
    if (owner) {
        // The line is Modified in another core's private caches:
        // cache-to-cache transfer, the HITM event.
        hdrdAssert(*owner != core, "owner cannot be the requester here");
        result.where = HitWhere::kRemoteCache;
        result.hitm = true;
        result.hitm_load = !write;
        result.latency = lat.hitm_transfer;
        ++stats_.hitm_transfers;
        if (!write)
            ++stats_.hitm_loads;
        if (write) {
            privates_.invalidate(*owner, line);
            result.invalidations = 1;
            ++stats_.invalidations;
            new_state = Mesi::kModified;
        } else {
            // M->S at the owner; dirty data written back to L3.
            privates_.setState(*owner, line, Mesi::kShared);
            new_state = Mesi::kShared;
        }
        CacheLine *l3_line = l3_.probe(line);
        hdrdAssert(l3_line != nullptr,
                   "inclusion violated: owned line missing from L3");
        l3_.touchLine(l3_line);
    } else {
        if (!holders_scratch_.empty()) {
            // Clean remote copies; data serviced by the inclusive L3.
            result.where = HitWhere::kL3;
            result.latency = lat.l3_hit;
            ++stats_.l3_hits;
            if (write) {
                for (CoreId h : holders_scratch_) {
                    privates_.invalidate(h, line);
                    ++result.invalidations;
                }
                stats_.invalidations += result.invalidations;
                new_state = Mesi::kModified;
            } else {
                for (CoreId h : holders_scratch_) {
                    if (privates_.state(h, line) == Mesi::kExclusive)
                        privates_.setState(h, line, Mesi::kShared);
                }
                new_state = Mesi::kShared;
            }
            CacheLine *l3_line = l3_.probe(line);
            hdrdAssert(l3_line != nullptr,
                       "inclusion violated: held line missing from L3");
            l3_.touchLine(l3_line);
        } else if (CacheLine *l3_line = l3_.probe(line)) {
            // No private copy anywhere; L3 has it.
            result.where = HitWhere::kL3;
            result.latency = lat.l3_hit;
            ++stats_.l3_hits;
            l3_.touchLine(l3_line);
            new_state = write ? Mesi::kModified : Mesi::kExclusive;
        } else {
            // Fetch from memory, fill L3 first (inclusive).
            result.where = HitWhere::kMemory;
            result.latency = lat.memory;
            ++stats_.mem_fetches;
            insertL3(line);
            new_state = write ? Mesi::kModified : Mesi::kExclusive;
        }
    }

    const auto ins = privates_.insert(core, line, new_state);
    if (ins.l2_victim)
        ++stats_.l2_evictions;
    if (ins.writeback) {
        // A Modified line left the private hierarchy: any later
        // consumer will be serviced by L3 with no HITM — the paper's
        // eviction-induced sharing-indicator miss.
        result.private_writeback = true;
        ++stats_.private_writebacks;
    }
    return result;
}

void
Hierarchy::insertL3(Addr line)
{
    auto evict = l3_.insert(line, Mesi::kExclusive);
    if (!evict)
        return;
    ++stats_.l3_evictions;
    // Inclusive L3: the victim must leave every private cache.
    for (CoreId c = 0; c < config_.ncores; ++c) {
        if (privates_.dropLine(c, evict->line_addr))
            ++stats_.back_invalidations;
    }
}

void
Hierarchy::checkInvariants() const
{
    for (CoreId c = 0; c < config_.ncores; ++c) {
        for (const auto &[line, state] : privates_.l2(c)
                 .residentEntries()) {
            // Inclusion in L3.
            hdrdAssert(l3_.probe(line) != nullptr,
                       "private line missing from inclusive L3");
            // Presence directory mirrors the tag array.
            hdrdAssert(privates_.dirState(c, line) == state,
                       "presence directory out of sync with L2");
            // Single-writer: M/E lines have no other valid copy.
            if (state == Mesi::kModified || state == Mesi::kExclusive) {
                for (CoreId o = 0; o < config_.ncores; ++o) {
                    if (o == c)
                        continue;
                    hdrdAssert(privates_.state(o, line)
                                   == Mesi::kInvalid,
                               "M/E line also valid on another core");
                }
            }
        }
        // L1 subset of L2 with matching state.
        for (const auto &[line, state] : privates_.l1(c)
                 .residentEntries()) {
            hdrdAssert(privates_.state(c, line) == state,
                       "L1/L2 state mismatch or inclusion violation");
        }
    }
}

void
Hierarchy::flushAll()
{
    privates_.flushAll();
    l3_.flush();
}

} // namespace hdrd::mem
