#include "service/metrics.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "service/protocol.hh"

namespace hdrd::service
{

Counter &
Metrics::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Metrics::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

LatencyHistogram &
Metrics::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<LatencyHistogram>();
    return *slot;
}

void
Metrics::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\n  \"schema\": \"hdrd-metrics-v1\",\n";

    os << "  \"counters\": {";
    const char *sep = "";
    for (const auto &[name, counter] : counters_) {
        os << sep << "\n    \"" << name << "\": "
           << counter->value();
        sep = ",";
    }
    os << (counters_.empty() ? "" : "\n  ") << "},\n";

    os << "  \"gauges\": {";
    sep = "";
    for (const auto &[name, gauge] : gauges_) {
        os << sep << "\n    \"" << name << "\": " << gauge->value();
        sep = ",";
    }
    os << (gauges_.empty() ? "" : "\n  ") << "},\n";

    os << "  \"histograms\": {";
    sep = "";
    for (const auto &[name, histogram] : histograms_) {
        const Log2Histogram h = histogram->snapshot();
        os << sep << "\n    \"" << name << "\": {"
           << "\"count\": " << h.count()
           << ", \"mean\": " << jsonFixed(h.mean())
           << ", \"min\": " << h.min()
           << ", \"max\": " << h.max()
           << ", \"p50\": " << jsonFixed(h.percentile(50.0))
           << ", \"p90\": " << jsonFixed(h.percentile(90.0))
           << ", \"p99\": " << jsonFixed(h.percentile(99.0))
           << "}";
        sep = ",";
    }
    os << (histograms_.empty() ? "" : "\n  ") << "}\n}\n";
}

std::string
Metrics::toJson() const
{
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

bool
Metrics::dumpToFile(const std::string &path) const
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os)
            return false;
        writeJson(os);
        if (!os)
            return false;
    }
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

} // namespace hdrd::service
