/**
 * @file
 * The hdrd-report-v1 JSON race report.
 *
 * One writer shared by hdrd_served (REPORT reply payloads) and
 * `hdrd_sim --report-json`, so the CI smoke job can literally diff
 * the daemon's output against the one-shot CLI's. Every field except
 * the optional "host" block is a deterministic function of (trace,
 * analysis config): the same trace yields a byte-identical report
 * whether it was analyzed by 1 worker or 16, in any submission
 * order.
 */

#ifndef HDRD_SERVICE_REPORT_JSON_HH
#define HDRD_SERVICE_REPORT_JSON_HH

#include <cstdint>
#include <string>

#include "runtime/simulator.hh"
#include "service/protocol.hh"

namespace hdrd::service
{

/** Everything the report serializes. */
struct JobReport
{
    /** Program name from the trace header. */
    std::string trace;

    std::uint32_t nthreads = 0;

    /** Analysis configuration the job ran under. */
    JobOptions options;

    /** Canonical fault spec actually applied ("none" when clean). */
    std::string fault_spec = "none";

    /** The run's measurements (deterministic). */
    const runtime::RunResult *result = nullptr;

    /** Append the nondeterministic "host" timing block. */
    bool include_host_timing = false;
    double host_ms = 0.0;

    /**
     * Partial-snapshot sequence number; 0 serializes the final
     * hdrd-report-v1 form. When nonzero the schema string becomes
     * hdrd-report-partial-v1 and a "partial" block records the
     * sequence number — every other field keeps the final report's
     * layout, so partial N is a prefix-consistent preview a reader
     * can diff structurally against the final report.
     */
    std::uint64_t partial_seq = 0;
};

/**
 * Serialize @p report (2-space indented, stable key order): the
 * REPORT frame payload.
 */
std::string jobReportJson(const JobReport &report);

/** Printable name for a JobOptions::detector value. */
const char *detectorName(std::uint32_t detector);

} // namespace hdrd::service

#endif // HDRD_SERVICE_REPORT_JSON_HH
