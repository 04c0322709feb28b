// Chaos suite for the serving layer (ctest -L chaos): eight concurrent
// streaming pipelines pushed through the AdmissionController while faults
// land on two of them — one pipeline loses a reader outright
// (stream.reader.kill.split<N>, recovered via §6 split reassignment) and
// one is cancelled mid-flight through the serving.cancel_query failpoint.
// The neighbors must be completely undisturbed: every non-cancelled
// pipeline delivers all 1000 rows exactly once, the cancelled pipeline
// unwinds its splits, replay windows, and spill state, the admission pool
// drains back to zero, and no .spill file survives anywhere.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/cancellation.h"
#include "common/failpoint.h"
#include "common/fs_util.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "serving/admission.h"
#include "sql/engine.h"
#include "stream/streaming_transfer.h"

namespace sqlink {
namespace {

/// Number of .spill files anywhere under `root` — a finished or aborted
/// transfer must leave zero behind.
int CountSpillFiles(const std::string& root) {
  int count = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (entry.is_regular_file() && entry.path().extension() == ".spill") {
      ++count;
    }
  }
  return count;
}

class ChaosServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_ = std::make_unique<ScopedTempDir>("chaos_serving_test");
    auto cluster = Cluster::Make(4, temp_->path());
    ASSERT_TRUE(cluster.ok());
    engine_ = SqlEngine::Make(*cluster);

    auto schema = Schema::Make({{"id", DataType::kInt64},
                                {"feature", DataType::kDouble}});
    auto table = engine_->MakeTable("points", schema);
    for (int64_t i = 0; i < 1000; ++i) {
      table->AppendRow(static_cast<size_t>(i) % 4,
                       Row{Value::Int64(i), Value::Double(i * 0.25)});
    }
    ASSERT_TRUE(engine_->catalog()->RegisterTable(table).ok());
  }

  std::unique_ptr<ScopedTempDir> temp_;
  SqlEnginePtr engine_;
};

TEST_F(ChaosServingTest, ConcurrentPipelinesSurviveReaderKillAndCancel) {
  MetricsRegistry::Global().Reset();
  constexpr int kPipelines = 8;

  AdmissionOptions admission;
  admission.max_concurrent = 4;  // Half the demand queues; fairness engages.
  admission.memory_budget_bytes = 256LL << 20;
  admission.per_query_mem_bytes = 32LL << 20;
  admission.queue_capacity = kPipelines;
  admission.queue_timeout_ms = 120000;  // Generous: rejection is not the test.
  admission.tenant_weights = {{"alice", 3.0}, {"bob", 1.0}};
  AdmissionController controller(admission);

  // Exactly one split-1 reader — of whichever pipeline reaches the 50th
  // frame first — dies mid-stream; §6 reassignment must finish its split.
  ScopedFailpoint kill("stream.reader.kill.split1", "after(49):error(1)");
  ASSERT_TRUE(kill.status().ok()) << kill.status();
  // The serving cancel signal, polled by a watcher exactly like the query
  // server's: when it fires, pipeline 7 is cancelled mid-flight.
  ScopedFailpoint cancel_fp("serving.cancel_query", "after(9):error(1)");
  ASSERT_TRUE(cancel_fp.status().ok()) << cancel_fp.status();

  Cancellation cancel_last;
  std::atomic<bool> watchers_done{false};
  std::thread watcher([&] {
    while (!watchers_done.load(std::memory_order_acquire)) {
      if (SQLINK_FAILPOINT("serving.cancel_query") !=
          FailpointOutcome::kNone) {
        cancel_last.Cancel(
            Status::Cancelled("failpoint: injected query cancellation"));
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<Status> statuses(kPipelines, Status::OK());
  std::vector<std::set<int64_t>> ids(kPipelines);
  std::vector<std::thread> pipelines;
  for (int p = 0; p < kPipelines; ++p) {
    pipelines.emplace_back([&, p] {
      const std::string tenant = p % 2 == 0 ? "alice" : "bob";
      auto ticket = controller.Admit(tenant);
      if (!ticket.ok()) {
        statuses[static_cast<size_t>(p)] = ticket.status();
        return;
      }
      StreamTransferOptions options;
      options.sink.spill_enabled = true;
      options.sink.send_buffer_bytes = 256;
      // Generous lease (TTL = heartbeat * kLeaseIntervals): 8 pipelines'
      // heartbeat threads share the machine — and under TSan everything is
      // several times slower — so a tight lease reaps healthy workers.
      // Liveness detection of the killed reader is not what's under test.
      options.heartbeat_ms = 500;
      options.query.tenant = tenant;
      options.query.spill_budget = (*ticket)->spill_budget();
      if (p == kPipelines - 1) {
        // The victim: paced so the injected cancel lands mid-flight.
        options.query.cancellation = &cancel_last;
        options.reader.consume_delay_micros_per_frame = 2000;
      }
      auto result = StreamingTransfer::Run(engine_.get(),
                                           "SELECT * FROM points", options);
      if (!result.ok()) {
        statuses[static_cast<size_t>(p)] = result.status();
        return;
      }
      for (const auto& partition : result->dataset.partitions) {
        for (const Row& row : partition) {
          ids[static_cast<size_t>(p)].insert(row[0].int64_value());
        }
      }
    });
  }
  for (std::thread& pipeline : pipelines) pipeline.join();
  watchers_done.store(true, std::memory_order_release);
  watcher.join();

  // The cancelled pipeline failed with the injected cancellation (possibly
  // surfaced through a downstream abort) — never silently succeeded.
  EXPECT_FALSE(statuses[kPipelines - 1].ok());
  EXPECT_EQ(cancel_fp.fires(), 1);
  EXPECT_EQ(kill.fires(), 1);

  // Every other pipeline — including the one whose reader was killed and
  // recovered — delivered all 1000 rows exactly once.
  int completed = 0;
  for (int p = 0; p < kPipelines - 1; ++p) {
    EXPECT_TRUE(statuses[static_cast<size_t>(p)].ok())
        << "pipeline " << p << ": " << statuses[static_cast<size_t>(p)];
    if (!statuses[static_cast<size_t>(p)].ok()) continue;
    EXPECT_EQ(ids[static_cast<size_t>(p)].size(), 1000u)
        << "pipeline " << p << " lost or duplicated rows";
    ++completed;
  }
  EXPECT_GE(completed, 6);

  // Cancelled/killed queries freed everything: no leaked admission slots,
  // no orphaned spill files anywhere in the scratch tree.
  EXPECT_EQ(controller.active(), 0);
  EXPECT_EQ(controller.queued(), 0u);
  EXPECT_EQ(CountSpillFiles(temp_->path()), 0);
}

TEST_F(ChaosServingTest, AdmissionDelayFailpointSlowsButAdmits) {
  AdmissionOptions admission;
  admission.max_concurrent = 2;
  admission.memory_budget_bytes = 0;
  AdmissionController controller(admission);
  ScopedFailpoint delay("admission.delay", "delay(30,1)");
  ASSERT_TRUE(delay.status().ok()) << delay.status();
  Stopwatch timer;
  auto ticket = controller.Admit("a");
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  EXPECT_GE(timer.ElapsedMicros(), 30 * 1000);
  EXPECT_EQ(delay.fires(), 1);
}

}  // namespace
}  // namespace sqlink
