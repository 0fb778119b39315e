/**
 * @file
 * Cold per-granule site slots: the static sites a detector needs only
 * to attribute race reports, kept out of its hot shadow record.
 *
 * Each slot is 16 bits per granule; the rare site id that does not
 * fit (trace replays can carry arbitrary 32-bit sites) spills to an
 * exact overflow map behind a sentinel. FastTrack keeps two slots per
 * granule (last write, last read) in a SiteTable; the lockset detector
 * keeps one (last access) in a SiteSlots<1>.
 */

#ifndef HDRD_DETECT_SITE_TABLE_HH
#define HDRD_DETECT_SITE_TABLE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "common/radix_table.hh"
#include "common/types.hh"

namespace hdrd::detect
{

/**
 * @tparam kSlots site slots per granule, stored side by side so one
 *         radix lookup serves all of a granule's slots.
 */
template <std::size_t kSlots>
class SiteSlots
{
  public:
    /** Site in @p slot of granule @p g (kInvalidSite if none). */
    SiteId get(std::uint64_t g, std::size_t slot = 0) const
    {
        const Packed *p = table_.peek(g);
        return p == nullptr ? kInvalidSite
                            : unpack(p->slot[slot], big_[slot], g);
    }

    void set(std::uint64_t g, SiteId site, std::size_t slot = 0)
    {
        pack(table_.get(g).slot[slot], big_[slot], g, site);
    }

    /** Retire every entry in O(1), keeping storage for recycling. */
    void reset()
    {
        table_.reset();
        for (Overflow &big : big_) {
            if (!big.empty())
                big.clear();
        }
    }

  private:
    /** "no site recorded" (maps to kInvalidSite). */
    static constexpr std::uint16_t kNone = 0xFFFF;

    /** Sentinel: the exact value lives in the overflow map. */
    static constexpr std::uint16_t kBig = 0xFFFE;

    struct Packed
    {
        std::array<std::uint16_t, kSlots> slot;
        Packed() { slot.fill(kNone); }
    };

    using Overflow = std::unordered_map<std::uint64_t, SiteId>;

    static SiteId unpack(std::uint16_t slot, const Overflow &big,
                         std::uint64_t g)
    {
        if (slot == kNone)
            return kInvalidSite;
        if (slot != kBig)
            return slot;
        const auto it = big.find(g);
        return it == big.end() ? kInvalidSite : it->second;
    }

    static void pack(std::uint16_t &slot, Overflow &big,
                     std::uint64_t g, SiteId site)
    {
        if (site < kBig) {
            // Common case, store-avoiding: a sweep re-recording its
            // own site must not dirty the cold line (the rewrite is
            // ~every slow-path access; the dirty eviction is what
            // costs at cache-spilling scale).
            const auto want = static_cast<std::uint16_t>(site);
            if (slot == want)
                return;
            if (slot == kBig)
                big.erase(g);
            slot = want;
            return;
        }
        if (site == kInvalidSite) {
            if (slot == kNone)
                return;
            if (slot == kBig)
                big.erase(g);
            slot = kNone;
            return;
        }
        slot = kBig;
        big[g] = site;
    }

    /** 512-granule pages, the same chunking as the hot shadows. */
    RadixTable<Packed, 9> table_;

    /** Exact values behind kBig sentinels, one map per slot. */
    std::array<Overflow, kSlots> big_;
};

/**
 * FastTrack's cold sites: the last write and the last read of each
 * granule, packed to 4 bytes per granule.
 */
class SiteTable : public SiteSlots<2>
{
  public:
    /** Site for the last write to granule @p g (kInvalidSite if none). */
    SiteId writeSite(std::uint64_t g) const { return get(g, kWrite); }

    /** Site for the last read of granule @p g (kInvalidSite if none). */
    SiteId readSite(std::uint64_t g) const { return get(g, kRead); }

    void setWriteSite(std::uint64_t g, SiteId site)
    {
        set(g, site, kWrite);
    }

    void setReadSite(std::uint64_t g, SiteId site)
    {
        set(g, site, kRead);
    }

  private:
    static constexpr std::size_t kWrite = 0;
    static constexpr std::size_t kRead = 1;
};

} // namespace hdrd::detect

#endif // HDRD_DETECT_SITE_TABLE_HH
