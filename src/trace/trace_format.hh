/**
 * @file
 * The on-disk trace format: a fixed-size header followed by
 * fixed-width little-endian records, one per operation.
 *
 * Traces capture each thread's operation stream (not the
 * interleaving: the scheduler re-derives that on replay, so one trace
 * can be replayed under any platform/regime configuration). The
 * format favours dead-simple parsing and validation over density.
 */

#ifndef HDRD_TRACE_TRACE_FORMAT_HH
#define HDRD_TRACE_TRACE_FORMAT_HH

#include <array>
#include <cstdint>

#include "common/types.hh"
#include "runtime/op.hh"

namespace hdrd::trace
{

/** Version-1 file magic: "HDRDTRC" plus the format version byte. */
constexpr std::array<char, 8> kMagicV1 = {'H', 'D', 'R', 'D',
                                          'T', 'R', 'C', '1'};

/** Current (version-2) file magic. */
constexpr std::array<char, 8> kMagic = {'H', 'D', 'R', 'D',
                                        'T', 'R', 'C', '2'};

/**
 * The version-1 header layout. Still accepted by the loader (v1
 * traces carry no run metadata, so their fault spec reads "none").
 */
struct TraceHeaderV1
{
    std::array<char, 8> magic = kMagicV1;

    /** Thread count of the recorded program. */
    std::uint32_t nthreads = 0;

    /** Alignment padding, spelled out so images carry no junk. */
    std::uint32_t reserved = 0;

    /** Total records that follow. */
    std::uint64_t record_count = 0;

    /** Program name, NUL-padded. */
    std::array<char, 64> name{};
};

static_assert(sizeof(TraceHeaderV1) == 88, "v1 layout drifted");

/**
 * Fixed-size trace header (version 2): the v1 fields plus the fault
 * profile the run was recorded under, as a canonical inline spec
 * ("none" for a clean run), so replays of faulted runs can reapply
 * the exact same signal degradation.
 */
struct TraceHeader
{
    std::array<char, 8> magic = kMagic;

    /** Thread count of the recorded program. */
    std::uint32_t nthreads = 0;

    /** Alignment padding, spelled out so images carry no junk. */
    std::uint32_t reserved = 0;

    /** Total records that follow. */
    std::uint64_t record_count = 0;

    /** Program name, NUL-padded. */
    std::array<char, 64> name{};

    /** Canonical fault spec of the recording run, NUL-padded. */
    std::array<char, 128> fault_spec{};
};

static_assert(sizeof(TraceHeader) == 216, "header layout drifted");

/** One operation record. */
struct TraceRecord
{
    /** Executing thread. */
    std::uint32_t tid = 0;

    /** runtime::OpType as a byte. */
    std::uint8_t type = 0;

    std::uint8_t pad[3] = {0, 0, 0};

    /** Op fields, verbatim. */
    std::uint64_t addr = 0;
    std::uint64_t arg = 0;
    std::uint32_t arg2 = 0;
    std::uint32_t site = 0;

    /** Convert to a runtime Op (type must be pre-validated). */
    runtime::Op toOp() const
    {
        runtime::Op op;
        op.type = static_cast<runtime::OpType>(type);
        op.addr = addr;
        op.arg = arg;
        op.arg2 = arg2;
        op.site = site;
        return op;
    }

    /** Build from a runtime Op. */
    static TraceRecord
    fromOp(ThreadId tid, const runtime::Op &op)
    {
        TraceRecord record;
        record.tid = tid;
        record.type = static_cast<std::uint8_t>(op.type);
        record.addr = op.addr;
        record.arg = op.arg;
        record.arg2 = op.arg2;
        record.site = op.site;
        return record;
    }
};

static_assert(sizeof(TraceRecord) == 32, "record layout drifted");

/** Highest valid OpType byte (for record validation). */
constexpr std::uint8_t kMaxOpType =
    static_cast<std::uint8_t>(runtime::OpType::kWrUnlock);

/**
 * Most cycles one kWork record may ask for. A trace holds at most
 * 2^25 records (the service's max_trace_bytes), so the simulated
 * clocks stay far below 2^64 and cannot wrap.
 */
constexpr std::uint64_t kMaxWorkCycles = 1ull << 32;

} // namespace hdrd::trace

#endif // HDRD_TRACE_TRACE_FORMAT_HH
