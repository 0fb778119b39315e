/**
 * @file
 * The service observability plane: a thread-safe registry of named
 * counters, gauges, and latency histograms.
 *
 * One registry instance is shared by everything that serves jobs —
 * hdrd_served wires it into its accept loop, worker pool, and
 * per-job timing, exposes it over the STATS request, and snapshots
 * it to disk with --metrics-dump; hdrd_bench feeds the same core so
 * bench runs and the daemon report through one schema
 * ("hdrd-metrics-v1").
 *
 * Handles returned by counter()/gauge()/histogram() are stable for
 * the registry's lifetime; hot paths update through them without
 * touching the registration mutex.
 */

#ifndef HDRD_SERVICE_METRICS_HH
#define HDRD_SERVICE_METRICS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

#include "common/histogram.hh"

namespace hdrd::service
{

/** Monotonically increasing event count. */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Instantaneous signed level (queue depth, active connections). */
class Gauge
{
  public:
    void set(std::int64_t v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    void add(std::int64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    void sub(std::int64_t n = 1)
    {
        value_.fetch_sub(n, std::memory_order_relaxed);
    }

    std::int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> value_{0};
};

/**
 * Mutex-guarded Log2Histogram for latency-style samples
 * (microseconds by convention; the unit is part of the metric name).
 */
class LatencyHistogram
{
  public:
    void record(std::uint64_t value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        histogram_.add(value);
    }

    /** Record the microseconds from @p start to now. */
    void recordSince(std::chrono::steady_clock::time_point start)
    {
        record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count()));
    }

    /** Copy-out snapshot for consistent reads. */
    Log2Histogram snapshot() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return histogram_;
    }

  private:
    mutable std::mutex mutex_;
    Log2Histogram histogram_;
};

/**
 * The registry. Metric names are dot-separated lowercase
 * ("jobs.completed", "job.exec_us"); JSON output is sorted by name,
 * so two snapshots of identical states are byte-identical.
 */
class Metrics
{
  public:
    /** Find-or-create; the handle stays valid until destruction. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    LatencyHistogram &histogram(const std::string &name);

    /**
     * Serialize every metric as an "hdrd-metrics-v1" JSON object.
     * Histograms report count/mean/min/max and p50/p90/p99.
     */
    void writeJson(std::ostream &os) const;

    /** writeJson() to a string (the STATS reply payload). */
    std::string toJson() const;

    /**
     * Atomically replace @p path with the current snapshot (write to
     * "<path>.tmp", then rename). @return false on I/O failure.
     */
    bool dumpToFile(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<LatencyHistogram>>
        histograms_;
};

} // namespace hdrd::service

#endif // HDRD_SERVICE_METRICS_HH
