/**
 * @file
 * Unit tests for the fleet layer: endpoint parsing, consistent-hash
 * placement, STATS load scoring, the BUSY retry hint, cluster
 * report/metrics merging, and live failover against in-process
 * daemons.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/program.hh"
#include "service/client.hh"
#include "service/cluster.hh"
#include "service/router.hh"
#include "service/server.hh"
#include "trace/trace_io.hh"

using namespace hdrd;
using namespace hdrd::service;

namespace
{

Endpoint
ep(const std::string &spec)
{
    Endpoint out;
    std::string err;
    EXPECT_TRUE(Endpoint::parse(spec, out, err)) << err;
    return out;
}

trace::TraceData
tinyTrace()
{
    using runtime::Op;
    std::vector<std::vector<Op>> per_thread(2);
    for (int i = 0; i < 50; ++i) {
        per_thread[0].push_back(Op::write(0x1000, 1));
        per_thread[1].push_back(Op::write(0x1000, 2));
        per_thread[0].push_back(Op::work(3));
        per_thread[1].push_back(Op::work(4));
    }
    return trace::TraceData::fromOps("tiny", std::move(per_thread));
}

std::string
traceBytes(const trace::TraceData &data)
{
    std::ostringstream os;
    EXPECT_TRUE(data.save(os));
    return os.str();
}

/** A fake hdrd-report-v1 document with just the sort-relevant keys. */
std::string
fakeReport(const std::string &trace, int unique, int dynamic)
{
    return "{\n  \"schema\": \"hdrd-report-v1\",\n  \"trace\": \""
        + trace + "\",\n  \"races\": {\n    \"unique\": "
        + std::to_string(unique) + ",\n    \"dynamic\": "
        + std::to_string(dynamic) + "\n  }\n}\n";
}

} // namespace

// ---------------------------------------------------------------------
// Endpoint parsing
// ---------------------------------------------------------------------

TEST(Endpoint, ParseForms)
{
    EXPECT_EQ(ep("unix:/tmp/a.sock").unix_path, "/tmp/a.sock");
    EXPECT_EQ(ep("/tmp/b.sock").unix_path, "/tmp/b.sock");
    EXPECT_EQ(ep("bare.sock").unix_path, "bare.sock");

    const Endpoint port = ep("9400");
    EXPECT_TRUE(port.unix_path.empty());
    EXPECT_EQ(port.host, "127.0.0.1");
    EXPECT_EQ(port.port, 9400);

    const Endpoint hostport = ep("10.0.0.7:9401");
    EXPECT_EQ(hostport.host, "10.0.0.7");
    EXPECT_EQ(hostport.port, 9401);
    EXPECT_EQ(hostport.name(), "10.0.0.7:9401");
    EXPECT_EQ(ep("unix:/x").name(), "unix:/x");
}

TEST(Endpoint, ParseRejectsMalformed)
{
    Endpoint out;
    std::string err;
    EXPECT_FALSE(Endpoint::parse("", out, err));
    EXPECT_FALSE(Endpoint::parse("unix:", out, err));
    EXPECT_FALSE(Endpoint::parse("host:notaport", out, err));
    EXPECT_FALSE(Endpoint::parse("host:0", out, err));
    EXPECT_FALSE(Endpoint::parse("host:99999", out, err));
}

// ---------------------------------------------------------------------
// Consistent-hash placement
// ---------------------------------------------------------------------

TEST(Router, PlacementIsDeterministicAndCoversEveryEndpoint)
{
    RouterConfig config;
    const std::vector<Endpoint> fleet = {ep("/tmp/a.sock"),
                                         ep("/tmp/b.sock"),
                                         ep("/tmp/c.sock")};
    Router router(fleet, config);
    Router again(fleet, config);

    std::vector<int> hits(3, 0);
    for (int i = 0; i < 300; ++i) {
        const std::string key = "trace_" + std::to_string(i);
        const int at = router.placeStatic(key);
        ASSERT_GE(at, 0);
        ASSERT_LT(at, 3);
        EXPECT_EQ(at, again.placeStatic(key));
        EXPECT_EQ(at, router.placeStatic(key));  // stable per key
        ++hits[static_cast<std::size_t>(at)];
    }
    for (int h : hits)
        EXPECT_GT(h, 0) << "an endpoint got no keys";
}

TEST(Router, RemovingAnEndpointOnlyMovesItsKeys)
{
    RouterConfig config;
    Router three({ep("/tmp/a.sock"), ep("/tmp/b.sock"),
                  ep("/tmp/c.sock")},
                 config);
    Router two({ep("/tmp/a.sock"), ep("/tmp/b.sock")}, config);

    // Keys placed on surviving endpoints must not move when the
    // third daemon leaves the fleet — the consistent-hash property
    // that keeps per-daemon caches warm.
    for (int i = 0; i < 300; ++i) {
        const std::string key = "trace_" + std::to_string(i);
        const int at3 = three.placeStatic(key);
        if (at3 < 2) {
            EXPECT_EQ(two.placeStatic(key), at3) << key;
        }
    }
}

TEST(Router, PlaceSkipsDeadEndpoints)
{
    RouterConfig config;
    config.dead_retry_ms = 60000;  // stays dead for the whole test
    Router router({ep("/tmp/hdrd_no_such_a.sock"),
                   ep("/tmp/hdrd_no_such_b.sock")},
                  config);

    EXPECT_FALSE(router.probe(0));  // connect refused -> dead
    for (int i = 0; i < 50; ++i) {
        const int at =
            router.place("trace_" + std::to_string(i));
        EXPECT_EQ(at, 1) << "placed on a known-dead daemon";
    }
    EXPECT_FALSE(router.probe(1));
    EXPECT_EQ(router.place("anything"), -1);
}

// ---------------------------------------------------------------------
// Eviction: the re-probe leak fix
// ---------------------------------------------------------------------

TEST(Router, EvictionAfterConsecutiveFailures)
{
    RouterConfig config;
    config.dead_retry_ms = 1;  // every probe really dials
    config.evict_after = 3;
    Router router({ep("/tmp/hdrd_rt_evict_a.sock"),
                   ep("/tmp/hdrd_rt_evict_b.sock")},
                  config);

    // Two failures: dead but still in the live ring.
    EXPECT_FALSE(router.probe(0));
    EXPECT_FALSE(router.probe(0));
    EXPECT_FALSE(router.evicted(0));

    // The third consecutive failure evicts its vnodes.
    EXPECT_FALSE(router.probe(0));
    EXPECT_TRUE(router.evicted(0));
    EXPECT_FALSE(router.evicted(1));

    // Every key now lands on the survivor via the live ring.
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(router.place("k" + std::to_string(i)), 1);

    // placeStatic still answers from the full static ring: eviction
    // must not disturb the cross-run stable placement contract.
    Router fresh({ep("/tmp/hdrd_rt_evict_a.sock"),
                  ep("/tmp/hdrd_rt_evict_b.sock")},
                 RouterConfig{});
    for (int i = 0; i < 50; ++i) {
        const std::string key = "k" + std::to_string(i);
        EXPECT_EQ(router.placeStatic(key), fresh.placeStatic(key));
    }
}

TEST(Router, LastSurvivorIsNeverEvicted)
{
    RouterConfig config;
    config.dead_retry_ms = 1;
    config.evict_after = 2;
    Router router({ep("/tmp/hdrd_rt_last_a.sock"),
                   ep("/tmp/hdrd_rt_last_b.sock")},
                  config);

    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(router.probe(0));
    EXPECT_TRUE(router.evicted(0));

    // Endpoint 1 keeps failing too, but as the last live endpoint it
    // must stay in the ring — an all-evicted fleet could never heal.
    for (int i = 0; i < 6; ++i)
        EXPECT_FALSE(router.probe(1));
    EXPECT_FALSE(router.evicted(1));
}

TEST(Router, ProbeSuccessReadmitsEvictedEndpoint)
{
    const std::string dir(::testing::TempDir());
    const std::string sock = dir + "hdrd_rt_revive.sock";

    RouterConfig config;
    config.dead_retry_ms = 1;
    config.evict_after = 1;
    Router router({ep(sock), ep(dir + "hdrd_rt_revive_b.sock")},
                  config);

    // Daemon not up yet: first failure evicts immediately.
    EXPECT_FALSE(router.probe(0));
    EXPECT_TRUE(router.evicted(0));

    // Bring the daemon up; an explicit probe re-admits its vnodes.
    ServerConfig server_config;
    server_config.unix_path = sock;
    server_config.workers = 1;
    Server server(std::move(server_config));
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    EXPECT_TRUE(router.probe(0));
    EXPECT_FALSE(router.evicted(0));

    // Placement spreads across both endpoints again (endpoint 1 is
    // still unprobed/alive-by-default, so both are eligible).
    bool saw_zero = false;
    for (int i = 0; i < 100 && !saw_zero; ++i)
        saw_zero = router.place("k" + std::to_string(i)) == 0;
    EXPECT_TRUE(saw_zero);
    server.stop();
}

// ---------------------------------------------------------------------
// STATS load scoring
// ---------------------------------------------------------------------

TEST(Router, MetricValueAndLoadScore)
{
    const std::string stats =
        "{\n  \"schema\": \"hdrd-metrics-v1\",\n  \"gauges\": {\n"
        "    \"pool.active_workers\": 2,\n"
        "    \"pool.queue_depth\": 6,\n"
        "    \"pool.workers\": 4,\n"
        "    \"server.draining\": 0\n  }\n}\n";
    std::int64_t value = 0;
    ASSERT_TRUE(Router::metricValue(stats, "pool.queue_depth",
                                    value));
    EXPECT_EQ(value, 6);
    EXPECT_FALSE(Router::metricValue(stats, "absent", value));

    EXPECT_EQ(Router::loadScore(stats), (6 + 2) * 1000 / 4);

    // Busier daemon scores strictly higher.
    const std::string busier =
        "{\"gauges\": {\n    \"pool.active_workers\": 4,\n"
        "    \"pool.queue_depth\": 16,\n"
        "    \"pool.workers\": 4\n}}";
    EXPECT_GT(Router::loadScore(busier), Router::loadScore(stats));

    // Draining daemons never place.
    const std::string draining =
        "{\"gauges\": {\n    \"pool.queue_depth\": 0,\n"
        "    \"pool.workers\": 4,\n"
        "    \"server.draining\": 1\n}}";
    EXPECT_GT(Router::loadScore(draining),
              Router::loadScore(busier));
}

// ---------------------------------------------------------------------
// BUSY retry hint (Server::retryAfterHintMs)
// ---------------------------------------------------------------------

TEST(RetryAfterHint, MonotoneInQueueDepthAndMeanExec)
{
    // Deepening queue must never tell a client to come back sooner.
    for (const double mean : {0.0, 0.5, 2.0, 40.0, 900.0}) {
        std::uint64_t last = 0;
        for (std::size_t depth = 0; depth < 300; ++depth) {
            const std::uint64_t hint =
                Server::retryAfterHintMs(mean, depth);
            EXPECT_GE(hint, last)
                << "mean=" << mean << " depth=" << depth;
            EXPECT_GE(hint, 10u);
            EXPECT_LE(hint, 5000u);
            last = hint;
        }
    }
    // And the same in the observed mean service time.
    for (const std::size_t depth : {0u, 3u, 50u}) {
        std::uint64_t last = 0;
        for (double mean = 0.25; mean < 1000.0; mean *= 2.0) {
            const std::uint64_t hint =
                Server::retryAfterHintMs(mean, depth);
            EXPECT_GE(hint, last);
            last = hint;
        }
    }
}

TEST(RetryAfterHint, ClampsAndPrior)
{
    EXPECT_EQ(Server::retryAfterHintMs(0.001, 0), 10u);
    EXPECT_EQ(Server::retryAfterHintMs(1e9, 1), 5000u);
    // Before any job completes the mean is unknown (<= 0): a 50 ms
    // prior, not a degenerate 10 ms floor at every depth.
    EXPECT_EQ(Server::retryAfterHintMs(0.0, 0), 50u);
    EXPECT_EQ(Server::retryAfterHintMs(-1.0, 3), 200u);
}

// ---------------------------------------------------------------------
// Cluster report merging
// ---------------------------------------------------------------------

TEST(Cluster, TraceNameAndSplit)
{
    const std::string report = fakeReport("alpha", 1, 2);
    EXPECT_EQ(reportTraceName(report), "alpha");
    EXPECT_EQ(reportTraceName("{}"), "");

    const std::string agg = "{\n\"schema\": "
        "\"hdrd-report-agg-v1\",\n\"jobs\": [\n"
        + fakeReport("a", 1, 1) + ",\n" + fakeReport("b", 2, 2)
        + "]\n}\n";
    std::vector<std::string> reports;
    std::string err;
    ASSERT_TRUE(splitAggregate(agg, reports, err)) << err;
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_EQ(reportTraceName(reports[0]), "a");
    EXPECT_EQ(reportTraceName(reports[1]), "b");

    EXPECT_FALSE(splitAggregate("{\"nope\": 1}", reports, err));
    EXPECT_FALSE(splitAggregate("{\"jobs\": [ {", reports, err));
}

TEST(Cluster, ClusterBytesAreOrderIndependent)
{
    std::vector<std::string> reports = {
        fakeReport("c", 3, 30), fakeReport("a", 1, 10),
        fakeReport("b", 2, 20), fakeReport("a", 1, 10),  // repeat
    };
    const std::string direct = writeClusterReport(reports);

    std::mt19937 rng(7);
    for (int round = 0; round < 5; ++round) {
        std::shuffle(reports.begin(), reports.end(), rng);
        EXPECT_EQ(writeClusterReport(reports), direct);
    }
    EXPECT_NE(direct.find("\"schema\": \"hdrd-report-cluster-v1\""),
              std::string::npos);
    EXPECT_NE(direct.find("\"jobs\": 4"), std::string::npos);
    EXPECT_NE(direct.find("\"races\": {\"unique\": 7, "
                          "\"dynamic\": 70}"),
              std::string::npos)
        << direct;
    // The duplicate report is kept: a lost or doubled job must
    // change the bytes.
    std::vector<std::string> lost = {reports[0], reports[1],
                                     reports[2]};
    EXPECT_NE(writeClusterReport(lost), direct);
}

TEST(Cluster, MergeIsAssociative)
{
    // Two per-daemon agg docs merged together == one fleet cluster
    // doc written directly from all four reports.
    const std::vector<std::string> daemon_a = {
        fakeReport("a", 1, 10), fakeReport("c", 3, 30)};
    const std::vector<std::string> daemon_b = {
        fakeReport("b", 2, 20), fakeReport("d", 4, 40)};

    const std::string cluster_a = writeClusterReport(daemon_a);
    const std::string cluster_b = writeClusterReport(daemon_b);

    std::vector<std::string> merged, part;
    std::string err;
    ASSERT_TRUE(splitAggregate(cluster_a, part, err)) << err;
    merged.insert(merged.end(), part.begin(), part.end());
    ASSERT_TRUE(splitAggregate(cluster_b, part, err)) << err;
    merged.insert(merged.end(), part.begin(), part.end());

    std::vector<std::string> all = daemon_a;
    all.insert(all.end(), daemon_b.begin(), daemon_b.end());
    EXPECT_EQ(writeClusterReport(merged),
              writeClusterReport(all));
}

TEST(Cluster, MergeMetricsSums)
{
    const std::string a =
        "{\n  \"schema\": \"hdrd-metrics-v1\",\n"
        "  \"counters\": {\n    \"jobs\": 3,\n    \"only_a\": 1\n"
        "  },\n  \"gauges\": {\n    \"depth\": 2\n  },\n"
        "  \"histograms\": {\n"
        "    \"lat\": {\"count\": 2, \"mean\": 10.000, \"min\": 5, "
        "\"max\": 15, \"p50\": 10.000}\n  }\n}\n";
    const std::string b =
        "{\n  \"schema\": \"hdrd-metrics-v1\",\n"
        "  \"counters\": {\n    \"jobs\": 4\n  },\n"
        "  \"gauges\": {\n    \"depth\": 5\n  },\n"
        "  \"histograms\": {\n"
        "    \"lat\": {\"count\": 6, \"mean\": 30.000, \"min\": 20, "
        "\"max\": 90, \"p50\": 25.000}\n  }\n}\n";

    const std::string merged = mergeMetrics({a, b});
    EXPECT_NE(
        merged.find("\"schema\": \"hdrd-metrics-cluster-v1\""),
        std::string::npos);
    EXPECT_NE(merged.find("\"daemons\": 2"), std::string::npos);
    EXPECT_NE(merged.find("\"jobs\": 7"), std::string::npos);
    EXPECT_NE(merged.find("\"only_a\": 1"), std::string::npos);
    EXPECT_NE(merged.find("\"depth\": 7"), std::string::npos);
    // count-weighted mean: (2*10 + 6*30) / 8 = 25.
    EXPECT_NE(merged.find("\"lat\": {\"count\": 8, "
                          "\"mean\": 25.000, \"min\": 5, "
                          "\"max\": 90}"),
              std::string::npos)
        << merged;
    // Deterministic bytes.
    EXPECT_EQ(mergeMetrics({a, b}), merged);
}

// ---------------------------------------------------------------------
// Live failover against in-process daemons
// ---------------------------------------------------------------------

TEST(RouterLive, BatchFailsOverWhenADaemonDies)
{
    const std::string dir(::testing::TempDir());
    const std::string sock_a = dir + "hdrd_rt_live_a.sock";
    const std::string sock_b = dir + "hdrd_rt_live_b.sock";

    auto makeServer = [](const std::string &path) {
        ServerConfig config;
        config.unix_path = path;
        config.workers = 2;
        config.queue_capacity = 16;
        return std::make_unique<Server>(std::move(config));
    };
    auto server_a = makeServer(sock_a);
    auto server_b = makeServer(sock_b);
    std::string err;
    ASSERT_TRUE(server_a->start(err)) << err;
    ASSERT_TRUE(server_b->start(err)) << err;

    const std::string image = traceBytes(tinyTrace());
    JobOptions options;
    options.flags = kJobOmitHostTiming;

    RouterConfig config;
    config.retry_seed = 42;
    config.backoff_base_ms = 1;
    config.dead_retry_ms = 1;
    // Third endpoint never existed: jobs placed there must reroute.
    Router router({ep(sock_a), ep(sock_b),
                   ep(dir + "hdrd_rt_live_gone.sock")},
                  config);

    std::vector<Router::BatchJob> jobs;
    for (int i = 0; i < 12; ++i) {
        Router::BatchJob job;
        job.key = "k" + std::to_string(i);
        job.options = options;
        job.trace = &image;
        jobs.push_back(std::move(job));
    }

    const std::vector<SubmitResult> first =
        router.submitBatch(jobs, 4);
    ASSERT_EQ(first.size(), jobs.size());
    for (const SubmitResult &r : first) {
        EXPECT_EQ(r.status, SubmitStatus::kOk) << r.payload;
        EXPECT_EQ(r.payload, first[0].payload);  // pure jobs
        EXPECT_NE(r.endpoint, 2);
    }

    // Kill daemon A; every job must land on B, exactly once each.
    server_a->stop();
    const std::vector<SubmitResult> second =
        router.submitBatch(jobs, 4);
    ASSERT_EQ(second.size(), jobs.size());
    for (const SubmitResult &r : second) {
        EXPECT_EQ(r.status, SubmitStatus::kOk) << r.payload;
        EXPECT_EQ(r.endpoint, 1);
        EXPECT_EQ(r.payload, first[0].payload);
    }

    server_b->stop();
}

TEST(RouterLive, BatchJobErrorIsFinalAndRunsOnce)
{
    // A poison trace gets a per-job ERROR; the batch path must take
    // it as final, not re-run it through the failover pass.
    const std::string dir(::testing::TempDir());
    const std::vector<std::string> socks = {
        dir + "hdrd_rt_poison_a.sock", dir + "hdrd_rt_poison_b.sock"};
    std::vector<std::unique_ptr<Server>> servers;
    for (const std::string &path : socks) {
        ServerConfig config;
        config.unix_path = path;
        config.workers = 1;
        config.queue_capacity = 4;
        servers.push_back(std::make_unique<Server>(std::move(config)));
        std::string err;
        ASSERT_TRUE(servers.back()->start(err)) << err;
    }

    std::ifstream in(std::string(HDRD_POISON_DIR) + "/unlock_unheld.trc",
                     std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream image;
    image << in.rdbuf();
    const std::string trace = image.str();

    Router router({ep(socks[0]), ep(socks[1])}, RouterConfig{});
    Router::BatchJob job;
    job.key = "poison";
    job.options.flags = kJobOmitHostTiming;
    job.trace = &trace;
    const std::vector<SubmitResult> results =
        router.submitBatch({job}, 4);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, SubmitStatus::kRejected);
    EXPECT_NE(results[0].payload.find("unlock"), std::string::npos)
        << results[0].payload;
    EXPECT_EQ(results[0].attempts, 1u);

    std::int64_t accepted = 0;
    std::int64_t failed = 0;
    for (const std::string &path : socks) {
        Client client;
        std::string err;
        ASSERT_TRUE(client.connectUnix(path, err)) << err;
        const Response stats = client.stats();
        ASSERT_TRUE(stats.transport_ok);
        std::int64_t value = 0;
        if (Router::metricValue(stats.payload, "server.jobs_accepted",
                                value))
            accepted += value;
        if (Router::metricValue(stats.payload, "server.jobs_failed",
                                value))
            failed += value;
    }
    EXPECT_EQ(accepted, 1);
    EXPECT_EQ(failed, 1);

    for (auto &server : servers)
        server->stop();
}

TEST(RouterLive, ExhaustedFleetReportsTransport)
{
    RouterConfig config;
    config.max_attempts = 3;
    config.backoff_base_ms = 1;
    config.backoff_cap_ms = 4;
    config.dead_retry_ms = 1;
    config.job_deadline_ms = 5000;
    Router router({ep("/tmp/hdrd_rt_gone_a.sock"),
                   ep("/tmp/hdrd_rt_gone_b.sock")},
                  config);

    JobOptions options;
    const SubmitResult result = router.submit("k", options, "");
    EXPECT_EQ(result.status, SubmitStatus::kTransport);
    EXPECT_EQ(result.attempts, 3u);

    Router empty({}, RouterConfig{});
    EXPECT_EQ(empty.submit("k", options, "").status,
              SubmitStatus::kNoEndpoints);
    EXPECT_EQ(empty.placeStatic("k"), -1);
}
