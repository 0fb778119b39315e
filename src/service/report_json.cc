#include "service/report_json.hh"

#include <cstdio>
#include <sstream>

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

const char *
detectorName(std::uint32_t detector)
{
    switch (detector) {
      case 0: return "fasttrack";
      case 1: return "naive";
      case 2: return "lockset";
    }
    return "unknown";
}

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
       << "    \"detector\": \"" << detectorName(o.detector)
       << "\",\n"
       << "    \"seed\": " << o.seed << ",\n"
       << "    \"granule_shift\": " << o.granule_shift << ",\n"
       << "    \"cores\": " << o.cores << ",\n"
       << "    \"sav\": " << o.sav << ",\n"
       << "    \"faults\": \"" << report.fault_spec << "\"\n"
       << "  },\n";

    os << "  \"sim\": {\n"
       << "    \"wall_cycles\": " << r.wall_cycles << ",\n"
       << "    \"total_ops\": " << r.total_ops << ",\n"
       << "    \"mem_accesses\": " << r.mem_accesses << ",\n"
       << "    \"sync_ops\": " << r.sync_ops << ",\n"
       << "    \"atomic_ops\": " << r.atomic_ops << ",\n"
       << "    \"analyzed_accesses\": " << r.analyzed_accesses
       << ",\n"
       << "    \"enables\": " << r.enables << ",\n"
       << "    \"interrupts\": " << r.interrupts << ",\n"
       << "    \"pebs_captures\": " << r.pebs_captures << ",\n"
       << "    \"hitm_loads\": " << r.hitm_loads << ",\n"
       << "    \"hitm_transfers\": " << r.hitm_transfers << "\n"
       << "  },\n";

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
    const char *sep = "";
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
