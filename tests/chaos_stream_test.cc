// Chaos suite (ctest -L chaos): end-to-end streaming transfers under
// injected faults. Each test arms a failpoint (common/failpoint.h) at a
// different layer — dialing, mid-frame, spill disk, consumer pacing — and
// asserts the transfer still completes with every row delivered exactly
// once. The suite also tolerates faults injected from the outside via the
// FAILPOINTS env var (e.g. FAILPOINTS="stream.socket.send=error(1)"):
// control-plane RPCs retry with backoff and the data plane recovers via
// the §6 replay protocol.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "cluster/cluster.h"
#include "common/cancellation.h"
#include "common/failpoint.h"
#include "common/fs_util.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "net/conn_pool.h"
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

class ChaosStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_ = std::make_unique<ScopedTempDir>("chaos_stream_test");
    auto cluster = Cluster::Make(4, temp_->path());
    ASSERT_TRUE(cluster.ok());
    engine_ = SqlEngine::Make(*cluster);

    auto schema = Schema::Make({{"id", DataType::kInt64},
                                {"feature", DataType::kDouble}});
    auto table = engine_->MakeTable("points", schema);
    Random rng(31);
    for (int64_t i = 0; i < 1000; ++i) {
      table->AppendRow(static_cast<size_t>(i) % 4,
                       Row{Value::Int64(i), Value::Double(rng.NextDouble())});
    }
    ASSERT_TRUE(engine_->catalog()->RegisterTable(table).ok());
  }

  /// Runs the transfer and asserts exactly-once delivery of all 1000 rows.
  void ExpectCompleteTransfer(const StreamTransferOptions& options) {
    auto result =
        StreamingTransfer::Run(engine_.get(), "SELECT * FROM points", options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->dataset.TotalRows(), 1000u);
    std::set<int64_t> ids;
    for (const auto& partition : result->dataset.partitions) {
      for (const Row& row : partition) {
        EXPECT_TRUE(ids.insert(row[0].int64_value()).second)
            << "duplicate row " << row[0].int64_value();
      }
    }
    EXPECT_EQ(ids.size(), 1000u);
  }

  std::unique_ptr<ScopedTempDir> temp_;
  SqlEnginePtr engine_;
};

TEST_F(ChaosStreamTest, ConnectFailureIsRetried) {
  StreamTransferOptions options;
  // The first two dials of every reader fail; the backoff-paced retries
  // must land the connection before max_reconnects is exhausted.
  ScopedFailpoint fault("stream.reader.connect", "error(2)");
  ASSERT_TRUE(fault.status().ok()) << fault.status();
  ExpectCompleteTransfer(options);
  EXPECT_EQ(fault.fires(), 2);
}

TEST_F(ChaosStreamTest, MidFrameDisconnectRecovers) {
  StreamTransferOptions options;
  options.sink.send_buffer_bytes = 256;  // Many data frames.
  // The 4th data frame is cut in half and the socket dropped: the receiver
  // sees a mid-message disconnect, reports the failure, reconnects, and the
  // sink replays the retained log (the reader skips what it already got).
  ScopedFailpoint fault("stream.wire.send_data", "after(3):close(1)");
  ASSERT_TRUE(fault.status().ok()) << fault.status();
  ExpectCompleteTransfer(options);
  EXPECT_EQ(fault.fires(), 1);
}

TEST_F(ChaosStreamTest, SpillDiskErrorFallsBackToBackpressure) {
  StreamTransferOptions options;
  options.sink.spill_enabled = true;
  options.sink.send_buffer_bytes = 128;  // Tiny buffer: overflow is certain.
  // Slow the consumer so the producer actually overruns the send buffer.
  options.reader.consume_delay_micros_per_frame = 500;
  // Every spill attempt fails as if the scratch disk were gone; the queue
  // must degrade to blocking backpressure instead of failing the pipeline
  // or corrupting the spill file.
  ScopedFailpoint fault("stream.spill.write", "error");
  ASSERT_TRUE(fault.status().ok()) << fault.status();
  auto result =
      StreamingTransfer::Run(engine_.get(), "SELECT * FROM points", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->dataset.TotalRows(), 1000u);
  EXPECT_GT(fault.hits(), 0);            // The spill path was exercised...
  EXPECT_EQ(result->spilled_frames, 0);  // ...but nothing reached disk.
}

TEST_F(ChaosStreamTest, SpillMetricsAccountForEveryFrame) {
  MetricsRegistry::Global().Reset();
  StreamTransferOptions options;
  options.sink.spill_enabled = true;
  options.sink.send_buffer_bytes = 128;  // Tiny buffer: overflow is certain.
  options.reader.consume_delay_micros_per_frame = 500;  // Slow consumer.
  auto result =
      StreamingTransfer::Run(engine_.get(), "SELECT * FROM points", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->dataset.TotalRows(), 1000u);
  ASSERT_GT(result->spilled_frames, 0);

  // The observability layer must agree with the transfer's own accounting:
  // every spilled frame was counted, timed, and eventually drained, and the
  // depth gauge came back to zero (high-water mark shows the backlog).
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const int64_t spilled =
      metrics.GetCounter("stream.spill.spilled_frames")->value();
  EXPECT_EQ(spilled, result->spilled_frames);
  EXPECT_EQ(metrics.GetCounter("stream.spill.drained_frames")->value(),
            spilled);
  EXPECT_EQ(metrics.GetHistogram("stream.spill.write_micros")->count(),
            spilled);
  EXPECT_EQ(metrics.GetHistogram("stream.spill.read_micros")->count(),
            spilled);
  Gauge* depth = metrics.GetGauge("stream.spill.queue_depth_frames");
  EXPECT_EQ(depth->value(), 0);
  EXPECT_GT(depth->max_value(), 0);
  EXPECT_EQ(metrics.GetGauge("stream.spill.queue_depth_bytes")->value(), 0);
  EXPECT_GT(metrics.GetCounter("stream.spill.spilled_bytes")->value(), 0);

  // Wire traffic of the run is visible too.
  EXPECT_GT(metrics.GetCounter("stream.wire.frames_sent")->value(), 0);
  EXPECT_GT(metrics.GetCounter("stream.wire.bytes_received")->value(), 0);
  EXPECT_GT(metrics.GetHistogram("stream.wire.send_frame_micros")->count(), 0);
}

TEST_F(ChaosStreamTest, ReplayResumesAmongSpilledFrames) {
  MetricsRegistry::Global().Reset();
  StreamTransferOptions options;
  options.sink.spill_enabled = true;
  options.sink.send_buffer_bytes = 128;  // Unsent frames spill at append.
  options.reader.consume_delay_micros_per_frame = 500;  // Slow consumer.
  // Each reader dials late, so every sink has appended its whole split
  // before its first send: all but each log's first frame are spilled at
  // append. Split 1's slow reader then drops its channel after 100 rows,
  // past its first frame. A spilled frame stays in the spill file once
  // sent, so the reconnected reader's replay, from its last applied frame,
  // reads frames back from disk.
  ScopedFailpoint late_dial("stream.reader.connect", "delay(200)");
  ASSERT_TRUE(late_dial.status().ok()) << late_dial.status();
  ScopedFailpoint fault("stream.reader.row.split1", "after(99):error(1)");
  ASSERT_TRUE(fault.status().ok()) << fault.status();
  ExpectCompleteTransfer(options);
  EXPECT_EQ(fault.fires(), 1);
  MetricsRegistry& metrics = MetricsRegistry::Global();
  EXPECT_GT(metrics.Get("stream.spill.spilled_frames"), 0);
  EXPECT_GE(metrics.Get("transfer.frames_replayed"), 1);
  // A frame's first send from disk counts as drained; every other read
  // from the spill file is a replay.
  EXPECT_GT(metrics.GetHistogram("stream.spill.read_micros")->count(),
            metrics.Get("stream.spill.drained_frames"));
  EXPECT_EQ(CountSpillFiles(temp_->path()), 0);
}

TEST_F(ChaosStreamTest, KilledReaderSplitIsReassigned) {
  MetricsRegistry::Global().Reset();
  StreamTransferOptions options;
  options.sink.send_buffer_bytes = 256;  // Many frames per split.
  options.heartbeat_ms = 20;  // Enables split reassignment.
  // One of the four readers dies outright after 100 delivered rows — no
  // local reconnect. Its released lease must hand the split to a
  // replacement reader, which resumes from the sink's replay window with
  // the partially-applied partition truncated back to the last ack.
  ScopedFailpoint fault("stream.reader.kill.split1", "after(99):error(1)");
  ASSERT_TRUE(fault.status().ok()) << fault.status();
  ExpectCompleteTransfer(options);
  EXPECT_EQ(fault.fires(), 1);
  MetricsRegistry& metrics = MetricsRegistry::Global();
  EXPECT_GE(metrics.Get("transfer.splits_reassigned"), 1);
  EXPECT_GE(metrics.Get("transfer.frames_replayed"), 1);
  EXPECT_EQ(CountSpillFiles(temp_->path()), 0);
}

TEST_F(ChaosStreamTest, KilledReaderHoldingUnackedFramesIsReassigned) {
  MetricsRegistry::Global().Reset();
  StreamTransferOptions options;
  options.sink.send_buffer_bytes = 256;  // About 20 rows per frame.
  options.heartbeat_ms = 20;
  // Paced readers: each sender runs ahead, so frames wait in the inbox and
  // a reader commits frame after frame owing its ack (the inbox never
  // drains and the frames stay far below 1/16 of the window).
  options.reader.consume_delay_micros_per_frame = 5000;
  // The split-1 reader dies after 100 delivered rows, holding the frames
  // it applied but never acked. The replacement resumes from the sink's
  // cumulative ack, behind them: the partition is truncated back to it and
  // the frames are applied again, once.
  ScopedFailpoint fault("stream.reader.kill.split1", "after(99):error(1)");
  ASSERT_TRUE(fault.status().ok()) << fault.status();
  ExpectCompleteTransfer(options);
  EXPECT_EQ(fault.fires(), 1);
  MetricsRegistry& metrics = MetricsRegistry::Global();
  EXPECT_GE(metrics.Get("transfer.splits_reassigned"), 1);
  // Delivered rows count the dead reader's too: well over one frame of
  // them were applied past the last ack and delivered again.
  EXPECT_GT(metrics.Get("stream.reader.rows_delivered"), 1000 + 50);
  EXPECT_EQ(CountSpillFiles(temp_->path()), 0);
}

TEST_F(ChaosStreamTest, CancelBeforeTheSplitFetchEndsTheTransferPromptly) {
  // The coordinator holds the ML side's split fetch for 300 ms. The fetch
  // comes from the launcher, which starts only once every SQL worker has
  // registered; the query is cancelled while it is held. The coordinator
  // answers the fetch with its typed Cancelled, and the transfer must end
  // at once instead of retrying the fetch for 30 s.
  ScopedFailpoint hold("coordinator.get_splits", "delay(300,1)");
  ASSERT_TRUE(hold.status().ok()) << hold.status();
  Cancellation cancel;
  StreamTransferOptions options;
  options.query.cancellation = &cancel;
  std::thread canceller([&] {
    for (int ms = 0; ms < 10000 && hold.hits() == 0; ++ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    cancel.Cancel(Status::Cancelled("cancelled before the split fetch"));
  });
  Stopwatch timer;
  auto result =
      StreamingTransfer::Run(engine_.get(), "SELECT * FROM points", options);
  const int64_t elapsed_ms = timer.ElapsedMicros() / 1000;
  canceller.join();
  EXPECT_EQ(hold.fires(), 1);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status();
  EXPECT_LT(elapsed_ms, 2000);
  EXPECT_EQ(CountSpillFiles(temp_->path()), 0);
}

TEST_F(ChaosStreamTest, DelayedHeartbeatReassignsTheSplit) {
  MetricsRegistry::Global().Reset();
  StreamTransferOptions options;
  options.sink.send_buffer_bytes = 256;
  options.heartbeat_ms = 10;  // Lease TTL = 30 ms.
  // Pace consumption (~20 ms per frame) so every split is still mid-stream
  // while the lease drama plays out.
  options.reader.consume_delay_micros_per_frame = 20000;
  // Split 2's reader freezes one lease renewal far past the TTL + grace.
  // The reaper marks it Suspect then Reassignable; when the late renewal
  // finally lands, the reader learns it was fenced, stops applying, and a
  // replacement finishes the split — exactly once.
  ScopedFailpoint fault("stream.reader.heartbeat.split2",
                        "after(2):delay(150,1)");
  ASSERT_TRUE(fault.status().ok()) << fault.status();
  ExpectCompleteTransfer(options);
  EXPECT_EQ(fault.fires(), 1);
  MetricsRegistry& metrics = MetricsRegistry::Global();
  EXPECT_GE(metrics.Get("transfer.heartbeat_missed"), 1);
  EXPECT_GE(metrics.Get("transfer.splits_reassigned"), 1);
}

TEST_F(ChaosStreamTest, ExhaustedReassignmentAbortsWithTypedStatus) {
  StreamTransferOptions options;
  options.sink.spill_enabled = true;
  options.sink.send_buffer_bytes = 128;  // Dead reader ⇒ spill builds up.
  options.sink.reconnect_timeout_ms = 5000;
  options.heartbeat_ms = 20;
  options.max_split_reassignments = 1;
  // Split 1's reader dies after 10 rows — and so does its replacement. The
  // second release exhausts the budget: the coordinator broadcasts an
  // abort, every participant unwinds promptly (no waiting out the full
  // reconnect window), the error is a typed Aborted, and no spill file
  // survives anywhere under the scratch tree.
  ScopedFailpoint fault("stream.reader.kill.split1", "after(9):error(2)");
  ASSERT_TRUE(fault.status().ok()) << fault.status();
  Stopwatch timer;
  auto result =
      StreamingTransfer::Run(engine_.get(), "SELECT * FROM points", options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsAborted()) << result.status();
  EXPECT_EQ(fault.fires(), 2);
  EXPECT_LT(timer.ElapsedMicros(), 4000 * 1000);  // Abort, not timeout.
  EXPECT_EQ(CountSpillFiles(temp_->path()), 0);
}

TEST_F(ChaosStreamTest, MuxConnKilledMidTransferRecovers) {
  // Kills one shared mux connection mid-transfer. With one pooled socket
  // per peer and two splits per worker, the transfer's eight concurrent
  // channels ride shared connections; the kill fails every channel on its
  // socket at once, and each affected reader must recover via §6 replay —
  // exactly once, no spill leaks.
  SetMuxConnsPerPeerForTest(1);  // Force channels to share sockets.
  MuxConnPool::Global().ResetForTest();
  StreamTransferOptions options;
  options.splits_per_worker = 2;  // 8 channels over 4 shared connections.
  options.sink.send_buffer_bytes = 256;
  ScopedFailpoint fault("net.mux.recv", "after(40):close(1)");
  ASSERT_TRUE(fault.status().ok()) << fault.status();
  ExpectCompleteTransfer(options);
  EXPECT_EQ(fault.fires(), 1);
  EXPECT_EQ(CountSpillFiles(temp_->path()), 0);
  SetMuxConnsPerPeerForTest(0);
  MuxConnPool::Global().ResetForTest();
}

TEST_F(ChaosStreamTest, SlowConsumerDelayCompletes) {
  StreamTransferOptions options;
  options.sink.send_buffer_bytes = 256;
  // Stall the consumer on every 5th data frame. Backpressure slows the
  // sender but must never lose or reorder rows.
  ScopedFailpoint fault("stream.reader.frame", "every(5):delay(2)");
  ASSERT_TRUE(fault.status().ok()) << fault.status();
  ExpectCompleteTransfer(options);
  EXPECT_GT(fault.fires(), 0);
}

TEST_F(ChaosStreamTest, FailedSenderReportsItsErrorNotTheCancelledLog) {
  // A sender that fails cancels its frame log, so the producer's next
  // Append sees only "frame log cancelled". The sink must report the
  // sender's own status: a Cancelled status would mask it. Spill off and
  // 256-byte frames keep the producer appending (400k rows) when the 4th
  // data frame fails. Its reader gives up at once (max_reconnects = 0), so
  // the sender's reconnect wait ends with the runner's abort.
  auto schema = Schema::Make({{"id", DataType::kInt64},
                              {"feature", DataType::kDouble}});
  auto table = engine_->MakeTable("many_points", schema);
  for (int64_t i = 0; i < 400000; ++i) {
    table->AppendRow(static_cast<size_t>(i) % 4,
                     Row{Value::Int64(i), Value::Double(0.5)});
  }
  ASSERT_TRUE(engine_->catalog()->RegisterTable(table).ok());
  StreamTransferOptions options;
  options.sink.spill_enabled = false;
  options.sink.send_buffer_bytes = 256;
  options.reader.max_reconnects = 0;
  ScopedFailpoint fault("stream.wire.send_data", "after(3):error(1)");
  ASSERT_TRUE(fault.status().ok()) << fault.status();
  auto result = StreamingTransfer::Run(engine_.get(),
                                       "SELECT * FROM many_points", options);
  ASSERT_FALSE(result.ok()) << "a split was lost and the transfer succeeded";
  EXPECT_TRUE(result.status().IsAborted()) << result.status();
  EXPECT_NE(result.status().message().find("unrecovered"), std::string::npos)
      << result.status();
  EXPECT_EQ(fault.fires(), 1);
  EXPECT_EQ(CountSpillFiles(temp_->path()), 0);
}

}  // namespace
}  // namespace sqlink
