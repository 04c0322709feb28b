// Serving-layer tests (ISSUE 8): the admission controller (capacity,
// bounded fair queue, typed kOverloaded rejections, tenant-weighted stride
// scheduling), per-query cancellation plumbing, spill budgets as
// end-to-end backpressure, the abandoned-query registry fix, /healthz
// degradation, and the query server wire protocol end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/byte_budget.h"
#include "common/cancellation.h"
#include "common/failpoint.h"
#include "common/fs_util.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "obs/ops_server.h"
#include "serving/admission.h"
#include "serving/query_server.h"
#include "sql/engine.h"
#include "sql/query_registry.h"
#include "stream/frame_log.h"
#include "stream/socket.h"
#include "stream/wire.h"

namespace sqlink {
namespace {

// ---------------------------------------------------------------------------
// Query result decoding

TEST(QueryResultMessageTest, HugeRowCountIsDataLoss) {
  QueryResultMessage result;
  result.schema = Schema::Make({{"n", DataType::kInt64}});
  std::string payload;
  EncodeSchema(*result.schema, &payload);
  PutVarint64(&payload, uint64_t{1} << 40);
  EXPECT_TRUE(QueryResultMessage::Decode(payload).status().IsDataLoss());
}

// ---------------------------------------------------------------------------
// ByteBudget

TEST(ByteBudgetTest, ChargeAndRelease) {
  ByteBudget budget(100);
  EXPECT_FALSE(budget.unlimited());
  EXPECT_TRUE(budget.TryCharge(60));
  EXPECT_TRUE(budget.TryCharge(40));
  EXPECT_EQ(budget.used(), 100);
  EXPECT_FALSE(budget.TryCharge(1));  // Exhausted: non-blocking refusal.
  budget.Release(40);
  EXPECT_TRUE(budget.TryCharge(30));
  EXPECT_EQ(budget.used(), 90);
}

TEST(ByteBudgetTest, NonPositiveCapacityIsUnlimited) {
  ByteBudget budget(0);
  EXPECT_TRUE(budget.unlimited());
  EXPECT_TRUE(budget.TryCharge(1LL << 40));
}

// ---------------------------------------------------------------------------
// Cancellation

TEST(CancellationTest, FirstCancelWinsAndCallbacksRun) {
  Cancellation cancellation;
  EXPECT_FALSE(cancellation.cancelled());
  EXPECT_TRUE(cancellation.Check().ok());

  int fired = 0;
  cancellation.OnCancel([&fired] { ++fired; });
  cancellation.Cancel(Status::Cancelled("first"));
  cancellation.Cancel(Status::Cancelled("second"));  // Loses the race.
  EXPECT_TRUE(cancellation.cancelled());
  EXPECT_EQ(fired, 1);
  EXPECT_NE(cancellation.status().ToString().find("first"),
            std::string::npos);
  EXPECT_TRUE(cancellation.Check().IsCancelled());
}

TEST(CancellationTest, LateCallbackRunsInline) {
  Cancellation cancellation;
  cancellation.Cancel(Status::Cancelled("done"));
  int fired = 0;
  const int64_t id = cancellation.OnCancel([&fired] { ++fired; });
  EXPECT_EQ(fired, 1);  // Already cancelled: runs inline.
  cancellation.RemoveCallback(id);  // id 0: no-op, must not deadlock.
}

TEST(CancellationTest, RemoveCallbackPreventsFiring) {
  Cancellation cancellation;
  int fired = 0;
  const int64_t id = cancellation.OnCancel([&fired] { ++fired; });
  cancellation.RemoveCallback(id);
  cancellation.Cancel(Status::Cancelled("x"));
  EXPECT_EQ(fired, 0);
}

// ---------------------------------------------------------------------------
// TrackedQuery: the abandoned-iterator registry fix

TEST(TrackedQueryTest, AbandonedQueryStillReachesTerminalState) {
  QueryRegistry registry;
  QueryRecordPtr record = registry.Begin("SELECT 1", nullptr, 0, "t1");
  EXPECT_EQ(record->tenant, "t1");
  {
    TrackedQuery tracked(&registry, record);
    EXPECT_EQ(registry.active_count(), 1u);
    // Dropped without Finish — e.g. an engine iterator abandoned mid-stream.
  }
  EXPECT_EQ(registry.active_count(), 0u);  // No phantom active query.
  EXPECT_TRUE(record->finished);
  EXPECT_TRUE(record->abandoned);
  EXPECT_NE(registry.ToJson().find("\"state\":\"abandoned\""),
            std::string::npos);
}

TEST(TrackedQueryTest, ExplicitFinishWinsOverDestructor) {
  QueryRegistry registry;
  QueryRecordPtr record = registry.Begin("SELECT 1", nullptr, 0);
  {
    TrackedQuery tracked(&registry, record);
    tracked.Finish(Status::OK(), 1234, 1.0);
  }
  EXPECT_TRUE(record->finished);
  EXPECT_TRUE(record->ok);
  EXPECT_FALSE(record->abandoned);
  EXPECT_EQ(record->duration_micros, 1234);
  // A second Finish is ignored (first call wins).
  registry.Finish(record, Status::Internal("late"), 9, 9.0, true);
  EXPECT_TRUE(record->ok);
  EXPECT_FALSE(record->abandoned);
}

// ---------------------------------------------------------------------------
// AdmissionController

AdmissionOptions SmallAdmission() {
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.memory_budget_bytes = 0;  // Concurrency-only unless a test opts in.
  options.queue_capacity = 64;
  options.queue_timeout_ms = 10000;
  return options;
}

TEST(AdmissionTest, ImmediateAdmitAndRelease) {
  AdmissionController controller(SmallAdmission());
  auto ticket = controller.Admit("alice");
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  EXPECT_EQ((*ticket)->tenant(), "alice");
  EXPECT_EQ((*ticket)->queue_wait_ms(), 0);
  EXPECT_EQ(controller.active(), 1);
  ticket->reset();
  EXPECT_EQ(controller.active(), 0);
}

TEST(AdmissionTest, QueueTimeoutReturnsTypedOverloaded) {
  AdmissionOptions options = SmallAdmission();
  options.queue_timeout_ms = 50;
  AdmissionController controller(options);
  auto blocker = controller.Admit("a");
  ASSERT_TRUE(blocker.ok());
  Stopwatch timer;
  auto rejected = controller.Admit("b");
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsOverloaded()) << rejected.status();
  EXPECT_NE(rejected.status().ToString().find("timeout"), std::string::npos);
  EXPECT_GE(timer.ElapsedMicros(), 50 * 1000);
}

TEST(AdmissionTest, SaturatedQueueRejectsImmediately) {
  AdmissionOptions options = SmallAdmission();
  options.queue_capacity = 0;  // No queueing at all: reject on busy.
  AdmissionController controller(options);
  auto blocker = controller.Admit("a");
  ASSERT_TRUE(blocker.ok());
  // Capacity 0 means "no queue at all": the controller always reports
  // saturation, and any admit that cannot run immediately is rejected.
  EXPECT_TRUE(controller.saturated());
  Stopwatch timer;
  auto rejected = controller.Admit("b");
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsOverloaded());
  EXPECT_NE(rejected.status().ToString().find("saturated"),
            std::string::npos);
  EXPECT_LT(timer.ElapsedMicros(), 5 * 1000 * 1000);  // No queue wait.
}

TEST(AdmissionTest, MemoryBudgetBoundsAdmissionAndCarvesSpillQuota) {
  AdmissionOptions options = SmallAdmission();
  options.max_concurrent = 8;  // Memory, not slots, is the binding limit.
  options.memory_budget_bytes = 64;
  options.per_query_mem_bytes = 32;
  options.queue_timeout_ms = 50;
  AdmissionController controller(options);
  auto first = controller.Admit("a");
  auto second = controller.Admit("a");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_NE((*first)->spill_budget(), nullptr);
  EXPECT_EQ((*first)->spill_budget()->capacity(), 32);
  auto third = controller.Admit("a");
  ASSERT_FALSE(third.ok());
  EXPECT_TRUE(third.status().IsOverloaded());
  first->reset();  // Frees 32 bytes: the next admit fits again.
  auto fourth = controller.Admit("a");
  EXPECT_TRUE(fourth.ok()) << fourth.status();
}

TEST(AdmissionTest, WeightedFairnessServesTenantsProportionally) {
  AdmissionOptions options = SmallAdmission();
  options.tenant_weights = {{"alice", 3.0}, {"bob", 1.0}};
  AdmissionController controller(options);
  auto blocker = controller.Admit("warmup");
  ASSERT_TRUE(blocker.ok());

  std::mutex mu;
  std::vector<std::string> grant_order;
  std::vector<std::thread> threads;
  auto waiter = [&](const std::string& tenant) {
    auto ticket = controller.Admit(tenant);
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    {
      std::lock_guard<std::mutex> lock(mu);
      grant_order.push_back(tenant);
    }
    ticket->reset();  // Hands the slot to the next-fairest waiter.
  };
  for (int i = 0; i < 6; ++i) threads.emplace_back(waiter, "alice");
  for (int i = 0; i < 6; ++i) threads.emplace_back(waiter, "bob");
  while (controller.queued() < 12) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  blocker->reset();  // Opens the single slot; grants proceed one at a time.
  for (std::thread& thread : threads) thread.join();

  // Stride schedule with weights 3:1 and all 12 queued up front: virtual
  // start times are alice {0, 1/3 .. 5/3}, bob {0, 1 .. 5}, so the first
  // eight grants are six alice and two bob — deterministically, regardless
  // of arrival interleaving.
  ASSERT_EQ(grant_order.size(), 12u);
  int alice_in_first_eight = 0;
  for (int i = 0; i < 8; ++i) {
    if (grant_order[static_cast<size_t>(i)] == "alice") {
      ++alice_in_first_eight;
    }
  }
  EXPECT_EQ(alice_in_first_eight, 6) << "stride schedule violated";
}

TEST(AdmissionTest, CloseRejectsWaitersAndFutureAdmits) {
  AdmissionController controller(SmallAdmission());
  auto blocker = controller.Admit("a");
  ASSERT_TRUE(blocker.ok());
  std::thread closer([&controller] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    controller.Close();
  });
  auto waiting = controller.Admit("b");
  closer.join();
  ASSERT_FALSE(waiting.ok());
  EXPECT_TRUE(waiting.status().IsOverloaded());
  auto late = controller.Admit("c");
  EXPECT_TRUE(late.status().IsOverloaded());
}

TEST(AdmissionTest, RejectFailpointInjectsOverload) {
  AdmissionController controller(SmallAdmission());
  ScopedFailpoint fault("admission.reject", "error(1)");
  ASSERT_TRUE(fault.status().ok()) << fault.status();
  auto rejected = controller.Admit("a");
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsOverloaded());
  EXPECT_NE(rejected.status().ToString().find("injected"), std::string::npos);
  auto admitted = controller.Admit("a");  // One-shot: back to normal.
  EXPECT_TRUE(admitted.ok());
}

TEST(AdmissionTest, FromEnvParsesTenantQuota) {
  ::setenv("SQLINK_TENANT_QUOTA", "alice=3, bob=1.5,junk,neg=-2", 1);
  ::setenv("SQLINK_MAX_CONCURRENT_QUERIES", "3", 1);
  AdmissionOptions options = AdmissionOptions::FromEnv();
  ::unsetenv("SQLINK_TENANT_QUOTA");
  ::unsetenv("SQLINK_MAX_CONCURRENT_QUERIES");
  EXPECT_EQ(options.max_concurrent, 3);
  ASSERT_EQ(options.tenant_weights.size(), 2u);
  EXPECT_DOUBLE_EQ(options.tenant_weights["alice"], 3.0);
  EXPECT_DOUBLE_EQ(options.tenant_weights["bob"], 1.5);
}

// ---------------------------------------------------------------------------
// Spill budget as backpressure

TEST(SpillBudgetTest, ExhaustedBudgetParksProducerInsteadOfSpilling) {
  ScopedTempDir temp("spill_budget_test");
  auto budget = std::make_shared<ByteBudget>(100);
  FrameLog::Options options;
  options.send_buffer_bytes = 64;
  options.spill_enabled = true;
  options.spill_path = temp.path() + "/q";
  options.spill_budget = budget;
  FrameLog log(options);

  const int64_t parks_before =
      MetricsRegistry::Global().GetCounter("stream.spill.budget_parks")->value();
  const std::string frame(50, 'x');  // 1 fits memory; 1 fits the 100B quota.
  std::thread producer([&log, &frame] {
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(log.Append(frame + static_cast<char>('0' + i), 1).ok());
    }
    log.Close();
  });

  // Give the producer time to hit the exhausted budget and park.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(log.state().spilled_frames, 2);  // Quota held: no unbounded spill.

  std::vector<std::string> received;
  for (;;) {
    auto read = log.Next();
    ASSERT_TRUE(read.ok()) << read.status();
    if (!read->has_value()) break;
    received.emplace_back((*read)->frame);
  }
  producer.join();

  ASSERT_EQ(received.size(), 6u);
  for (int i = 0; i < 6; ++i) {  // FIFO survives budget parking.
    EXPECT_EQ(received[static_cast<size_t>(i)].back(),
              static_cast<char>('0' + i));
  }
  EXPECT_EQ(budget->used(), 0);  // Fully returned after the drain.
  EXPECT_GT(MetricsRegistry::Global()
                .GetCounter("stream.spill.budget_parks")
                ->value(),
            parks_before);
}

TEST(SpillBudgetTest, CancelReturnsChargeAndRemovesSpillFile) {
  ScopedTempDir temp("spill_budget_cancel");
  auto budget = std::make_shared<ByteBudget>(100);
  FrameLog::Options options;
  options.send_buffer_bytes = 64;
  options.spill_enabled = true;
  options.spill_path = temp.path() + "/q";
  options.spill_budget = budget;
  FrameLog log(options);

  const std::string frame(50, 'x');
  ASSERT_TRUE(log.Append(frame, 1).ok());  // Memory.
  ASSERT_TRUE(log.Append(frame, 1).ok());  // Spill: charges 50.
  ASSERT_TRUE(log.Append(frame, 1).ok());  // Spill: charges 50 more.
  EXPECT_EQ(budget->used(), 100);
  ASSERT_TRUE(std::filesystem::exists(temp.path() + "/q.spill"));

  log.Cancel();
  EXPECT_EQ(budget->used(), 0);  // Neighbor queries get the quota back.
  EXPECT_FALSE(std::filesystem::exists(temp.path() + "/q.spill"));
  EXPECT_TRUE(log.Append(frame, 1).IsCancelled());
}

TEST(SpillBudgetTest, ChargeReturnsAtFirstSendNotAtAck) {
  ScopedTempDir temp("spill_budget_send");
  auto budget = std::make_shared<ByteBudget>(100);
  FrameLog::Options options;
  options.send_buffer_bytes = 64;
  options.spill_enabled = true;
  options.spill_path = temp.path() + "/q";
  options.spill_budget = budget;
  FrameLog log(options);

  const std::string frame(50, 'x');
  ASSERT_TRUE(log.Append(frame, 1).ok());  // Memory.
  ASSERT_TRUE(log.Append(frame, 1).ok());  // Spill: charges 50.
  EXPECT_EQ(budget->used(), 50);
  ASSERT_TRUE(log.Next().ok());  // The frame in memory: nothing to return.
  EXPECT_EQ(budget->used(), 50);
  ASSERT_TRUE(log.Next().ok());  // First send of the spilled frame.
  EXPECT_EQ(budget->used(), 0);
  // Still unacked, it stays on disk for replay without a charge.
  EXPECT_EQ(log.state().acked, 0u);
  EXPECT_EQ(log.state().in_flight_bytes, 100u);
  log.Rewind(0);
  ASSERT_TRUE(log.Next().ok());
  ASSERT_TRUE(log.Next().ok());
  EXPECT_EQ(budget->used(), 0);
}

// ---------------------------------------------------------------------------
// /healthz degradation + serving metrics

/// Raw HTTP GET against the ops server; returns the full response text.
std::string HttpGet(int port, const std::string& path) {
  auto socket = TcpConnect("127.0.0.1", port);
  if (!socket.ok()) return "";
  if (!socket
           ->SendAll("GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")
           .ok()) {
    return "";
  }
  std::string response;
  bool eof = false;
  while (!eof) {
    auto n = socket->TryRecv(4096, &response, &eof);
    if (!n.ok()) break;
    if (*n == 0 && !eof) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return response;
}

TEST(HealthzTest, SaturationFlipsHealthzTo503WithJsonReason) {
  std::atomic<bool> saturated{false};
  OpsServer::Options options;
  options.health_hook = [&saturated] {
    OpsServer::Health health;
    if (saturated.load()) {
      health.healthy = false;
      health.reason_json = "{\"reason\":\"admission queue saturated\"}";
    }
    return health;
  };
  auto server = OpsServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const int port = (*server)->port();

  const std::string healthy = HttpGet(port, "/healthz");
  EXPECT_NE(healthy.find("200 OK"), std::string::npos) << healthy;
  EXPECT_NE(healthy.find("ok"), std::string::npos);

  saturated.store(true);
  const std::string unhealthy = HttpGet(port, "/healthz");
  EXPECT_NE(unhealthy.find("503"), std::string::npos) << unhealthy;
  EXPECT_NE(unhealthy.find("application/json"), std::string::npos);
  EXPECT_NE(unhealthy.find("admission queue saturated"), std::string::npos);
}

TEST(ServingMetricsTest, AdmissionCountersReachPrometheusText) {
  AdmissionOptions options = SmallAdmission();
  AdmissionController controller(options);
  { auto ticket = controller.Admit("alice"); ASSERT_TRUE(ticket.ok()); }
  ScopedFailpoint fault("admission.reject", "error(1)");
  ASSERT_TRUE(fault.status().ok());
  auto rejected = controller.Admit("bob");
  ASSERT_FALSE(rejected.ok());

  const std::string text = MetricsRegistry::Global().ToPrometheusText();
  EXPECT_NE(text.find("sqlink_serving_admitted"), std::string::npos) << text;
  EXPECT_NE(text.find("sqlink_serving_rejected"), std::string::npos);
  EXPECT_NE(text.find("sqlink_serving_active"), std::string::npos);
  EXPECT_NE(text.find("sqlink_serving_queue_wait_ms"), std::string::npos);
  EXPECT_NE(text.find("sqlink_serving_tenant_alice_admitted"),
            std::string::npos);
  EXPECT_NE(text.find("sqlink_serving_tenant_bob_rejected"),
            std::string::npos);
  // The admission stats JSON backs the 503 body.
  const std::string stats = controller.StatsJson();
  EXPECT_NE(stats.find("\"active\":0"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"queue_capacity\":64"), std::string::npos);
}

// ---------------------------------------------------------------------------
// QueryServer end to end

class QueryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_ = std::make_unique<ScopedTempDir>("query_server_test");
    auto cluster = Cluster::Make(4, temp_->path());
    ASSERT_TRUE(cluster.ok());
    engine_ = SqlEngine::Make(*cluster);
    auto schema = Schema::Make({{"id", DataType::kInt64},
                                {"feature", DataType::kDouble}});
    auto table = engine_->MakeTable("points", schema);
    for (int64_t i = 0; i < 16384; ++i) {
      table->AppendRow(static_cast<size_t>(i) % 4,
                       Row{Value::Int64(i), Value::Double(i * 0.5)});
    }
    ASSERT_TRUE(engine_->catalog()->RegisterTable(table).ok());
  }

  std::unique_ptr<QueryServer> StartServer(QueryServer::Options options = {}) {
    options.port = 0;
    auto server = QueryServer::Start(engine_.get(), options);
    EXPECT_TRUE(server.ok()) << server.status();
    return server.ok() ? std::move(*server) : nullptr;
  }

  std::unique_ptr<ScopedTempDir> temp_;
  SqlEnginePtr engine_;
};

TEST_F(QueryServerTest, RemoteResultMatchesLocalExecution) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  const std::string sql =
      "SELECT id, feature FROM points WHERE id < 100";
  auto local = engine_->ExecuteSql(sql);
  ASSERT_TRUE(local.ok()) << local.status();
  const std::vector<Row> local_rows = (*local)->GatherRows();

  auto client = QueryClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok()) << client.status();
  auto response = client->Execute(sql, "alice");
  ASSERT_TRUE(response.ok()) << response.status();

  // Byte-identical to serial execution: same rows, same order, same values.
  ASSERT_EQ(response->rows.size(), local_rows.size());
  for (size_t i = 0; i < local_rows.size(); ++i) {
    ASSERT_EQ(response->rows[i].size(), local_rows[i].size());
    for (size_t c = 0; c < local_rows[i].size(); ++c) {
      EXPECT_EQ(response->rows[i][c].ToString(), local_rows[i][c].ToString());
    }
  }
  EXPECT_GT(response->elapsed_micros, 0);
  EXPECT_EQ(response->schema->num_fields(), 2u);
}

/// Lines of /proc/self/maps: one per memory mapping of this process.
size_t CountMappings() {
  std::ifstream maps("/proc/self/maps");
  size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

/// Finished connection threads are joined as new connections arrive. A
/// server that kept them until Stop() left each served query's thread stack
/// mapped (2 mappings per query) until the process hit vm.max_map_count.
TEST_F(QueryServerTest, SequentialQueriesDoNotAccumulateThreadStacks) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  const auto run_queries = [&](int count) {
    for (int i = 0; i < count; ++i) {
      auto client = QueryClient::Connect("127.0.0.1", server->port());
      ASSERT_TRUE(client.ok()) << client.status();
      auto response =
          client->Execute("SELECT COUNT(*) FROM points WHERE id < 10");
      ASSERT_TRUE(response.ok()) << response.status();
    }
  };
  run_queries(10);  // Warm up the allocator's arenas and stack cache.
  const size_t before = CountMappings();
  run_queries(200);
  const size_t after = CountMappings();
  EXPECT_LE(after, before + 32) << before << " -> " << after << " mappings";
}

// The server adds little to a fast query: nothing waits out a poll sleep,
// neither the submit wait nor the query's watcher, which the end of the
// query wakes. A watcher that slept 10 ms between reads made the join after
// every query wait for the rest of that sleep, so even the fastest of 20
// queries spent about 10 ms beyond its server time. Other load (parallel
// tests, sanitizers) only adds to a query's overhead, so the fastest query
// is the one that shows what the server itself waits for.
TEST_F(QueryServerTest, FastQueryIsNotHeldByTheWatcher) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  std::vector<int64_t> overhead_micros;
  for (int i = 0; i < 20; ++i) {
    Stopwatch watch;
    auto client = QueryClient::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(client.ok()) << client.status();
    auto response = client->Execute("SELECT COUNT(*) FROM points");
    ASSERT_TRUE(response.ok()) << response.status();
    overhead_micros.push_back(watch.ElapsedMicros() -
                              response->elapsed_micros);
  }
  std::sort(overhead_micros.begin(), overhead_micros.end());
  std::string sorted;
  for (const int64_t micros : overhead_micros) {
    sorted += " " + std::to_string(micros);
  }
  EXPECT_LT(overhead_micros.front(), 5000)
      << "client latency minus server time per query, us:" << sorted;
}

TEST_F(QueryServerTest, SqlErrorsTravelTyped) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  auto client = QueryClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  auto response = client->Execute("SELECT nope FROM nowhere");
  ASSERT_FALSE(response.ok());
  EXPECT_FALSE(response.status().IsOverloaded());
}

TEST_F(QueryServerTest, AdmissionRejectionIsTypedOverTheWire) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  ScopedFailpoint fault("admission.reject", "error(1)");
  ASSERT_TRUE(fault.status().ok());
  auto client = QueryClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  auto response = client->Execute("SELECT id FROM points");
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsOverloaded()) << response.status();
}

/// Submits `sql`, sends a cancel frame 30 ms in and returns the query's
/// outcome. ~20 ms per executor batch keeps the query in flight long enough
/// for the cancel frame to land mid-query. The admission slot must be free
/// by the time the result arrives.
Status CancelInFlight(QueryServer* server, const std::string& sql) {
  ScopedFailpoint pace("sql.exec.batch", "delay(20)");
  if (!pace.status().ok()) return pace.status();
  auto client = QueryClient::Connect("127.0.0.1", server->port());
  if (!client.ok()) return client.status();
  if (Status s = client->Submit(sql); !s.ok()) return s;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  if (Status s = client->Cancel(); !s.ok()) return s;
  auto response = client->Await();
  EXPECT_EQ(server->admission()->active(), 0) << sql;
  return response.ok() ? Status::OK() : response.status();
}

TEST_F(QueryServerTest, ClientCancelFrameCancelsInFlightQuery) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  const Status status = CancelInFlight(server.get(), "SELECT id FROM points");
  EXPECT_TRUE(status.IsCancelled()) << status;
  EXPECT_NE(status.ToString().find("cancelled by client"), std::string::npos);
}

// Blocking operators poll between input batches too: a cancelled DISTINCT
// or GROUP BY stops mid-input instead of running to the end.
TEST_F(QueryServerTest, ClientCancelStopsInFlightDistinct) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  const Status status =
      CancelInFlight(server.get(), "SELECT DISTINCT id FROM points");
  EXPECT_TRUE(status.IsCancelled()) << status;
}

TEST_F(QueryServerTest, ClientCancelStopsInFlightGroupBy) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  const Status status = CancelInFlight(
      server.get(), "SELECT id, COUNT(*) FROM points GROUP BY id");
  EXPECT_TRUE(status.IsCancelled()) << status;
}

TEST_F(QueryServerTest, CancelFailpointCancelsQuery) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  ScopedFailpoint pace("sql.exec.batch", "delay(20)");
  ASSERT_TRUE(pace.status().ok());
  ScopedFailpoint kill("serving.cancel_query", "error(1)");
  ASSERT_TRUE(kill.status().ok());
  auto client = QueryClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  auto response = client->Execute("SELECT id FROM points");
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsCancelled()) << response.status();
  EXPECT_NE(response.status().ToString().find("injected query cancellation"),
            std::string::npos);
  EXPECT_EQ(kill.fires(), 1);
}

TEST_F(QueryServerTest, DeadlineCancelsSlowQuery) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  ScopedFailpoint pace("sql.exec.batch", "delay(20)");
  ASSERT_TRUE(pace.status().ok());
  auto client = QueryClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  auto response =
      client->Execute("SELECT id FROM points", "", /*deadline_ms=*/40);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsCancelled()) << response.status();
  EXPECT_NE(response.status().ToString().find("deadline"), std::string::npos);
}

TEST_F(QueryServerTest, DisconnectCancelsQueryAndFreesSlot) {
  QueryServer::Options options;
  options.admission.max_concurrent = 1;  // The slot must actually free up.
  options.admission.queue_timeout_ms = 2000;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);
  {
    ScopedFailpoint pace("sql.exec.batch", "delay(20)");
    ASSERT_TRUE(pace.status().ok());
    auto client = QueryClient::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->Submit("SELECT id FROM points").ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    client->Disconnect();  // Mid-query: the watcher must notice EOF.
    Stopwatch timer;
    while (server->admission()->active() > 0 &&
           timer.ElapsedMicros() < 5 * 1000 * 1000) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(server->admission()->active(), 0) << "slot leaked";
  }
  // The freed slot serves the next query; neighbor state is undisturbed.
  auto client = QueryClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  auto response = client->Execute("SELECT id FROM points WHERE id < 10");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->rows.size(), 10u);
  EXPECT_EQ(QueryRegistry::Global().active_count(), 0u);
}

// Stop() wakes every connection thread at once: one still waiting for a
// submit frame that never comes, and a running query's watcher, whose query
// is cancelled "server shutting down" and still answered. The idle
// connection would otherwise hold Stop() for its whole 30 s submit wait.
TEST_F(QueryServerTest, StopWakesIdleConnectionsAndCancelsRunningQueries) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  ScopedFailpoint pace("sql.exec.batch", "delay(20)");
  ASSERT_TRUE(pace.status().ok());
  auto idle = TcpConnect("127.0.0.1", server->port());
  ASSERT_TRUE(idle.ok()) << idle.status();
  auto client = QueryClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(client->Submit("SELECT id FROM points").ok());
  Stopwatch admitted;
  while (server->admission()->active() == 0 &&
         admitted.ElapsedMicros() < 5 * 1000 * 1000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server->admission()->active(), 1);

  Stopwatch stop;
  server->Stop();
  EXPECT_LT(stop.ElapsedMicros(), 1000 * 1000);
  auto response = client->Await();
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsCancelled()) << response.status();
  EXPECT_NE(response.status().ToString().find("server shutting down"),
            std::string::npos)
      << response.status();
  EXPECT_EQ(server->admission()->active(), 0);
}

/// A frame header announcing a 1 GiB payload, and nothing after it.
std::string OversizedHeader(FrameType type) {
  std::string header(kFrameHeaderBytes, '\0');
  EncodeFrameHeader(header.data(), type, /*payload_len=*/1u << 30,
                    /*seq=*/0, /*channel=*/0, TraceContext{});
  return header;
}

// A submit header announcing more than the server's request-frame bound is
// refused as soon as it is in: the server neither waits for the announced
// gigabyte nor buffers it, and keeps serving.
TEST_F(QueryServerTest, OversizedSubmitHeaderIsRefusedPromptly) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  auto socket = TcpConnect("127.0.0.1", server->port());
  ASSERT_TRUE(socket.ok()) << socket.status();
  Stopwatch watch;
  ASSERT_TRUE(socket->SendAll(OversizedHeader(FrameType::kSubmitQuery)).ok());
  auto reply = RecvFrame(&*socket);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_LT(watch.ElapsedMicros(), 5'000'000);
  ASSERT_EQ(reply->type, FrameType::kError);
  const Status status = DecodeStatusPayload(reply->payload);
  EXPECT_TRUE(status.IsInvalidArgument()) << status;

  auto client = QueryClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok()) << client.status();
  auto response = client->Execute("SELECT COUNT(*) FROM points");
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->rows.size(), 1u);
  EXPECT_EQ(response->rows[0][0], Value::Int64(16384));
}

// The bound holds while a query runs: a client whose next frame header
// announces 1 GiB has its query cancelled with InvalidArgument.
TEST_F(QueryServerTest, OversizedFrameDuringQueryCancelsIt) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  ScopedFailpoint pace("sql.exec.batch", "delay(20)");
  ASSERT_TRUE(pace.status().ok());
  auto socket = TcpConnect("127.0.0.1", server->port());
  ASSERT_TRUE(socket.ok()) << socket.status();
  SubmitQueryMessage submit;
  submit.sql = "SELECT id FROM points";
  ASSERT_TRUE(
      SendFrame(&*socket, FrameType::kSubmitQuery, submit.Encode()).ok());
  // Past the submit frame, so the header reaches the query's watcher.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(socket->SendAll(OversizedHeader(FrameType::kSubmitQuery)).ok());
  auto reply = RecvFrame(&*socket);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->type, FrameType::kError);
  const Status status = DecodeStatusPayload(reply->payload);
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
  EXPECT_EQ(server->admission()->active(), 0);
}

}  // namespace
}  // namespace sqlink
