// Observability layer tests (ISSUE 7): Prometheus text exposition, the
// query registry lifecycle, the embedded HTTP ops server, slow-query
// logging, and the tracer's bounded ring + periodic sink flush.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "cluster/cluster.h"
#include "common/fs_util.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "obs/ops_server.h"
#include "sql/engine.h"
#include "sql/query_registry.h"
#include "sql/query_stats.h"
#include "stream/socket.h"
#include "table/table.h"

namespace sqlink {
namespace {

TEST(PrometheusTextTest, ExposesCountersGaugesAndHistograms) {
  MetricsRegistry registry;
  registry.GetCounter("sql.queries")->Add(7);
  registry.GetGauge("sql.queries_active")->Set(2);
  registry.GetHistogram("sql.query_micros")->Record(1000);
  registry.GetHistogram("sql.query_micros")->Record(3000);

  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE sqlink_sql_queries counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("sqlink_sql_queries 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sqlink_sql_queries_active gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("sqlink_sql_queries_active 2\n"), std::string::npos);
  EXPECT_NE(text.find("sqlink_sql_queries_active_max 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sqlink_sql_query_micros summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("sqlink_sql_query_micros{quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(text.find("sqlink_sql_query_micros_sum 4000\n"),
            std::string::npos);
  EXPECT_NE(text.find("sqlink_sql_query_micros_count 2\n"),
            std::string::npos);
  // Dots never leak into Prometheus names.
  EXPECT_EQ(text.find("sql.queries"), std::string::npos);
}

TEST(QErrorTest, SymmetricAndClamped) {
  EXPECT_DOUBLE_EQ(QError(100, 100), 1.0);
  EXPECT_DOUBLE_EQ(QError(100, 25), 4.0);
  EXPECT_DOUBLE_EQ(QError(25, 100), 4.0);
  // Zero-row sides clamp to one row instead of dividing by zero.
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(QError(10, 0), 10.0);
  EXPECT_DOUBLE_EQ(QError(0, 10), 10.0);
}

TEST(QueryRegistryTest, LifecycleAndFinishedRing) {
  QueryRegistry registry;
  registry.set_finished_capacity(2);

  QueryRecordPtr a = registry.Begin("SELECT 1", nullptr, 11);
  QueryRecordPtr b = registry.Begin("SELECT 2", nullptr, 0);
  EXPECT_NE(a->query_id, b->query_id);
  EXPECT_EQ(registry.active_count(), 2u);
  EXPECT_EQ(registry.Find(a->query_id), a);

  registry.Finish(a, Status::OK(), 1500, 2.5);
  EXPECT_EQ(registry.active_count(), 1u);
  EXPECT_EQ(registry.finished_count(), 1u);
  EXPECT_TRUE(a->finished);
  EXPECT_TRUE(a->ok);
  EXPECT_EQ(a->duration_micros, 1500);
  // Finished records stay findable (the ops endpoint links to them).
  EXPECT_EQ(registry.Find(a->query_id), a);

  registry.Finish(b, Status::Internal("boom"), 10, 1.0);
  EXPECT_FALSE(b->ok);
  EXPECT_NE(b->error.find("boom"), std::string::npos);
  // Most recent first.
  ASSERT_EQ(registry.finished_count(), 2u);
  EXPECT_EQ(registry.Finished()[0], b);

  // The ring evicts the oldest beyond capacity.
  QueryRecordPtr c = registry.Begin("SELECT 3", nullptr, 0);
  registry.Finish(c, Status::OK(), 1, 1.0);
  EXPECT_EQ(registry.finished_count(), 2u);
  EXPECT_EQ(registry.Find(a->query_id), nullptr);

  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"active\""), std::string::npos);
  EXPECT_NE(json.find("SELECT 3"), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"error\""), std::string::npos);
}

/// Sends `request` raw to the ops server and returns what arrives before the
/// server closes the connection or `timeout` passes, whichever is first.
std::string HttpExchange(
    int port, const std::string& request,
    std::chrono::milliseconds timeout = std::chrono::seconds(5)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  auto socket = TcpConnect("127.0.0.1", port);
  if (!socket.ok()) return "";
  if (!socket->SendAll(request).ok()) return "";
  std::string response;
  bool eof = false;
  while (!eof && std::chrono::steady_clock::now() < deadline) {
    auto n = socket->TryRecv(4096, &response, &eof);
    if (!n.ok()) break;
    if (*n == 0 && !eof) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return response;
}

/// Raw HTTP GET against the ops server; returns the full response text, or
/// what arrived within 5 s.
std::string HttpGet(int port, const std::string& path) {
  return HttpExchange(port,
                      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
}

TEST(OpsServerTest, ServesMetricsQueriesTracezAndHealth) {
  MetricsRegistry::Global().GetCounter("sql.queries")->Add(1);
  OpsServer::Options options;  // Port 0: ephemeral.
  auto server = OpsServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const int port = (*server)->port();
  ASSERT_GT(port, 0);

  const std::string health = HttpGet(port, "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string metrics = HttpGet(port, "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE sqlink_"), std::string::npos) << metrics;

  const std::string queries = HttpGet(port, "/queries");
  EXPECT_NE(queries.find("200 OK"), std::string::npos);
  EXPECT_NE(queries.find("application/json"), std::string::npos);
  EXPECT_NE(queries.find("\"active\""), std::string::npos);

  const std::string tracez = HttpGet(port, "/tracez");
  EXPECT_NE(tracez.find("200 OK"), std::string::npos);
  EXPECT_NE(tracez.find("\"traces\""), std::string::npos);

  const std::string missing = HttpGet(port, "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  (*server)->Stop();
  (*server)->Stop();  // Idempotent.
}

/// One accept thread serves the ops routes, so a peer that connects and
/// sends nothing must not hold up the next request or Stop(), and a head
/// that never ends or a request line that is not one gets a 400.
TEST(OpsServerTest, IdlePeerDoesNotStallOtherRequestsOrStop) {
  auto server = OpsServer::Start(OpsServer::Options{});
  ASSERT_TRUE(server.ok()) << server.status();
  const int port = (*server)->port();
  auto idle = TcpConnect("127.0.0.1", port);
  ASSERT_TRUE(idle.ok()) << idle.status();

  const auto asked = std::chrono::steady_clock::now();
  const std::string health = HttpGet(port, "/healthz");
  const bool served = health.find("200 OK") != std::string::npos;
  EXPECT_TRUE(served) << "no answer within 5 s behind an idle peer: "
                      << health;
  EXPECT_LT(std::chrono::steady_clock::now() - asked, std::chrono::seconds(5));

  const std::string endless = HttpExchange(port, std::string(9000, 'a'));
  EXPECT_NE(endless.find("400 Bad Request"), std::string::npos) << endless;
  const std::string garbled = HttpExchange(port, "GARBAGE\r\n\r\n");
  EXPECT_NE(garbled.find("400 Bad Request"), std::string::npos) << garbled;

  // A server stuck on the idle peer would never return from Stop().
  if (!served) idle->Close();
  auto second_idle = TcpConnect("127.0.0.1", port);
  ASSERT_TRUE(second_idle.ok()) << second_idle.status();
  const auto stopping = std::chrono::steady_clock::now();
  (*server)->Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - stopping,
            std::chrono::seconds(5));
}

TEST(OpsServerTest, StartFromEnvDisabledWhenUnset) {
  ::unsetenv("SQLINK_OPS_PORT");
  auto server = OpsServer::StartFromEnv();
  ASSERT_TRUE(server.ok());
  EXPECT_EQ(*server, nullptr);
}

class ObsEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_ = std::make_unique<ScopedTempDir>("obs_test");
    auto cluster = Cluster::Make(4, temp_->path());
    ASSERT_TRUE(cluster.ok());
    engine_ = SqlEngine::Make(*cluster, &metrics_);

    auto schema =
        Schema::Make({{"id", DataType::kInt64}, {"tag", DataType::kString}});
    auto table = engine_->MakeTable("items", schema);
    for (int64_t i = 0; i < 100; ++i) {
      table->AppendRow(static_cast<size_t>(i) % table->num_partitions(),
                       Row{Value::Int64(i), Value::String(i % 3 ? "a" : "b")});
    }
    ASSERT_TRUE(engine_->catalog()->RegisterTable(table).ok());
  }

  std::unique_ptr<ScopedTempDir> temp_;
  MetricsRegistry metrics_;
  SqlEnginePtr engine_;
};

TEST_F(ObsEngineTest, TrackedExecutionFeedsPlannerMetrics) {
  auto result = engine_->ExecuteSql("SELECT id FROM items WHERE tag = 'b'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(metrics_.GetCounter("sql.queries")->value(), 1);
  EXPECT_EQ(metrics_.GetGauge("sql.queries_active")->value(), 0);
  EXPECT_EQ(metrics_.GetGauge("sql.queries_active")->max_value(), 1);
  EXPECT_GT(metrics_.GetHistogram("sql.planner.qerror_x100")->count(), 0);
  EXPECT_GT(metrics_.GetHistogram("sql.query_micros")->count(), 0);
}

TEST_F(ObsEngineTest, SlowQueryThresholdLogsAndCounts) {
  ::setenv("SQLINK_SLOW_QUERY_MS", "0", 1);  // Everything is slow.
  auto result = engine_->ExecuteSql("SELECT COUNT(*) FROM items");
  ::unsetenv("SQLINK_SLOW_QUERY_MS");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(metrics_.GetCounter("sql.slow_queries")->value(), 1);
}

TEST_F(ObsEngineTest, SlowQueryDisabledByDefault) {
  ::unsetenv("SQLINK_SLOW_QUERY_MS");
  auto result = engine_->ExecuteSql("SELECT COUNT(*) FROM items");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(metrics_.GetCounter("sql.slow_queries")->value(), 0);
}

TEST(TracerRingTest, RetainsOnlyMostRecentSpans) {
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  const size_t original = tracer.ring_capacity();
  const bool was_enabled = tracer.enabled();
  tracer.set_enabled(true);
  tracer.set_ring_capacity(4);

  for (int i = 0; i < 10; ++i) {
    TraceSpan span("ring.span" + std::to_string(i));
  }
  EXPECT_EQ(tracer.span_count(), 4u);

  // Recent() is newest-first.
  auto recent = tracer.Recent(2);
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].name, "ring.span9");
  EXPECT_EQ(recent[1].name, "ring.span8");

  tracer.set_ring_capacity(original);
  tracer.set_enabled(was_enabled);
  tracer.Reset();
}

TEST(TracerFlushTest, SinkRewrittenBeforeProcessExit) {
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  const bool was_enabled = tracer.enabled();
  ScopedTempDir temp("trace_flush");
  const std::string sink = temp.path() + "/spans.json";

  // Flush every 2 recorded spans: a long-running process must not wait for
  // the atexit dump.
  tracer.ConfigureSink(sink, /*flush_spans=*/2, /*flush_ms=*/3600 * 1000);
  EXPECT_TRUE(tracer.enabled());
  { TraceSpan span("flush.one"); }
  { TraceSpan span("flush.two"); }

  auto written = ReadFileToString(sink);
  ASSERT_TRUE(written.ok()) << "sink not flushed before exit";
  EXPECT_NE(written->find("flush.one"), std::string::npos);
  EXPECT_NE(written->find("flush.two"), std::string::npos);

  // A third span is below the threshold again — the sink keeps the old
  // content until the next trigger.
  { TraceSpan span("flush.three"); }
  auto after = ReadFileToString(sink);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->find("flush.three"), std::string::npos);

  tracer.ConfigureSink("");
  tracer.set_enabled(was_enabled);
  tracer.Reset();
}

}  // namespace
}  // namespace sqlink
