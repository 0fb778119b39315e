#include "service/report_json.hh"

#include <cstdio>
#include <sstream>
#include <variant>

#include "common/logging.hh"
#include "detect/report.hh"
#include "instr/cost_model.hh"

namespace hdrd::service
{

namespace
{

std::string
hexAddr(std::uint64_t addr)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(addr));
    return buf;
}

} // namespace

std::string
jobReportJson(const JobReport &report)
{
    hdrdAssert(report.result != nullptr,
               "job report needs a run result");
    const runtime::RunResult &r = *report.result;
    std::ostringstream os;

    if (report.partial_seq == 0) {
        os << "{\n  \"schema\": \"hdrd-report-v1\",\n";
    } else {
        os << "{\n  \"schema\": \"hdrd-report-partial-v1\",\n"
           << "  \"partial\": {\"seq\": " << report.partial_seq
           << ", \"ops\": " << r.total_ops << "},\n";
    }
    os << "  \"trace\": \"" << report.trace << "\",\n"
       << "  \"nthreads\": " << report.nthreads << ",\n";

    const JobOptions &o = report.options;
    os << "  \"config\": {\n"
       << "    \"mode\": \""
       << instr::toolModeName(
              static_cast<instr::ToolMode>(o.mode)) << "\",\n"
       << "    \"detector\": \""
       << runtime::detectorName(
              static_cast<runtime::DetectorKind>(o.detector))
       << "\",\n"
       << "    \"seed\": " << o.seed << ",\n"
       << "    \"granule_shift\": " << o.granule_shift << ",\n"
       << "    \"cores\": " << o.cores << ",\n"
       << "    \"sav\": " << o.sav << ",\n"
       << "    \"faults\": \"" << report.fault_spec << "\"\n"
       << "  },\n";

    os << "  \"sim\": {";
    const char *sep = "";
    for (const runtime::RunCounter &c : runtime::runCounters()) {
        if (c.in_report) {
            os << sep << "\n    \"" << c.name << "\": ";
            std::visit([&os](auto v) { os << v; }, c.get(r));
            sep = ",";
        }
    }
    os << "\n  },\n";

    // Not in registry order (skid_rms comes last): its own key list.
    if (r.faults_active) {
        os << "  \"faults\": {\n"
           << "    \"samples_seen\": " << r.faults.samples_seen
           << ",\n"
           << "    \"dropped\": " << r.faults.dropped() << ",\n"
           << "    \"coalesced\": " << r.faults.coalesced << ",\n"
           << "    \"throttled\": " << r.faults.throttled << ",\n"
           << "    \"delivered\": " << r.faults.delivered << ",\n"
           << "    \"skid_rms\": " << jsonFixed(r.faults.skidRms())
           << "\n  },\n";
    }

    os << "  \"races\": {\n"
       << "    \"unique\": " << r.reports.uniqueCount() << ",\n"
       << "    \"dynamic\": " << r.reports.dynamicCount() << ",\n"
       << "    \"reports\": [";
    sep = "";
    for (const detect::RaceReport &race : r.reports.reports()) {
        os << sep << "\n      {\"addr\": \"" << hexAddr(race.addr)
           << "\", \"type\": \"" << detect::raceTypeName(race.type)
           << "\", \"first_tid\": " << race.first_tid
           << ", \"first_site\": " << race.first_site
           << ", \"second_tid\": " << race.second_tid
           << ", \"second_site\": " << race.second_site << "}";
        sep = ",";
    }
    os << (r.reports.uniqueCount() == 0 ? "" : "\n    ")
       << "]\n  }";

    if (report.include_host_timing) {
        os << ",\n  \"host\": {\"wall_ms\": "
           << jsonFixed(report.host_ms) << "}";
    }
    os << "\n}\n";
    return os.str();
}

} // namespace hdrd::service
