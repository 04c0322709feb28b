#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "cluster/cluster.h"
#include "common/coding.h"
#include "common/failpoint.h"
#include "common/fs_util.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/status_macros.h"
#include "common/trace.h"
#include "ml/dataset.h"
#include "net/conn_pool.h"
#include "sql/engine.h"
#include "stream/coordinator.h"
#include "stream/frame_log.h"
#include "stream/socket.h"
#include "stream/sql_stream_input_format.h"
#include "stream/streaming_transfer.h"
#include "stream/wire.h"
#include "table/row_codec.h"

namespace sqlink {
namespace {

// --- Sockets and wire format ---

TEST(SocketTest, RoundTripOverLoopback) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  std::thread server([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    std::string data;
    ASSERT_TRUE(conn->RecvExactly(5, &data).ok());
    EXPECT_EQ(data, "hello");
    ASSERT_TRUE(conn->SendAll("world!").ok());
  });
  auto client = TcpConnect("localhost", listener->port());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(client->SendAll("hello").ok());
  std::string reply;
  ASSERT_TRUE(client->RecvExactly(6, &reply).ok());
  EXPECT_EQ(reply, "world!");
  server.join();
}

TEST(SocketTest, NodeHostnamesResolveToLoopback) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] { (void)listener->Accept(); });
  auto client = TcpConnect("node2", listener->port());
  EXPECT_TRUE(client.ok()) << client.status();
  server.join();
}

TEST(SocketTest, RecvOnClosedPeerReportsClosed) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener->Accept();
    // Close immediately.
  });
  auto client = TcpConnect("localhost", listener->port());
  ASSERT_TRUE(client.ok());
  server.join();
  std::string data;
  auto status = client->RecvExactly(1, &data);
  EXPECT_TRUE(status.IsNetworkError());
}

/// A receive deadline is absolute: a peer that trickles a 33-byte header
/// one byte every 20 ms (660 ms in all) cannot stretch a 100 ms deadline,
/// however many partial reads it feeds.
TEST(SocketTest, RecvDeadlineHoldsAcrossPartialReads) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::atomic<bool> done{false};
  std::thread peer([&] {
    auto conn = TcpConnect("localhost", listener->port());
    ASSERT_TRUE(conn.ok());
    char header[kFrameHeaderBytes];
    EncodeFrameHeader(header, FrameType::kEnd, /*payload_len=*/0, /*seq=*/1,
                      /*channel=*/0, TraceContext{});
    for (size_t i = 0; i < sizeof(header) && !done.load(); ++i) {
      if (!conn->SendAll(std::string_view(header + i, 1)).ok()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  auto conn = listener->Accept();
  ASSERT_TRUE(conn.ok());
  const auto start = std::chrono::steady_clock::now();
  conn->SetRecvDeadline(start + std::chrono::milliseconds(100));
  std::string header;
  const Status status = conn->RecvExactly(kFrameHeaderBytes, &header);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  done = true;
  peer.join();
  EXPECT_TRUE(status.IsUnavailable()) << status;
  EXPECT_GE(elapsed_ms, 100);
  EXPECT_LT(elapsed_ms, 200);
}

/// ShutdownRead wakes a thread blocked in RecvFrame at once, as a peer's
/// close would, and the socket still sends.
TEST(SocketTest, ShutdownReadWakesABlockedReceiveAndKeepsSending) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  auto client = TcpConnect("localhost", listener->port());
  ASSERT_TRUE(client.ok());
  auto conn = listener->Accept();
  ASSERT_TRUE(conn.ok());
  Status recv_status = Status::OK();
  std::thread reader([&] { recv_status = RecvFrame(&*conn).status(); });
  // Let the reader block in recv(2); the peer never sends.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto start = std::chrono::steady_clock::now();
  conn->ShutdownRead();
  reader.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_TRUE(recv_status.IsNetworkError()) << recv_status;
  ASSERT_TRUE(SendFrame(&*conn, FrameType::kEnd, "sent after").ok());
  auto frame = RecvFrame(&*client);
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->type, FrameType::kEnd);
  EXPECT_EQ(frame->payload, "sent after");
}

TEST(WireTest, FrameRoundTrip) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    auto frame = RecvFrame(&*conn);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->type, FrameType::kData);
    EXPECT_EQ(frame->payload, "payload-bytes");
    ASSERT_TRUE(SendFrame(&*conn, FrameType::kEnd, "").ok());
  });
  auto client = TcpConnect("localhost", listener->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(SendFrame(&*client, FrameType::kData, "payload-bytes").ok());
  auto end = RecvFrame(&*client);
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(end->type, FrameType::kEnd);
  EXPECT_TRUE(end->payload.empty());
  server.join();
}

/// A frame header is read before its payload arrives, so the length it
/// claims must not size an allocation: a peer that claims 1 GiB, sends a
/// few bytes and hangs up leaves a small buffer and an error.
TEST(WireTest, HugeFrameLengthDoesNotAllocateAhead) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread peer([&] {
    auto conn = TcpConnect("localhost", listener->port());
    ASSERT_TRUE(conn.ok());
    char header[kFrameHeaderBytes];
    EncodeFrameHeader(header, FrameType::kData, uint32_t{1} << 30, /*seq=*/1,
                      /*channel=*/0, TraceContext{});
    ASSERT_TRUE(conn->SendAll(std::string_view(header, sizeof(header))).ok());
    ASSERT_TRUE(conn->SendAll("a few bytes").ok());
  });  // The peer's socket closes when the thread ends.
  auto conn = listener->Accept();
  ASSERT_TRUE(conn.ok());
  peer.join();
  Frame frame;
  std::string scratch;
  const Status status = RecvFrameInto(&*conn, &frame, &scratch);
  EXPECT_FALSE(status.ok());
  EXPECT_LT(frame.payload.capacity(), size_t{4} << 20);
}

/// A type byte that names no FrameType is DataLoss in the header decoder,
/// alone and behind RecvFrameInto: 0, the retired 1, 13, 17, 25, 26 and 33,
/// and everything past the last type.
TEST(WireTest, UnknownFrameTypeIsDataLoss) {
  const std::vector<uint8_t> unknown = {0, 1, 13, 17, 25, 26, 33, 35, 255};
  auto header = [](uint8_t type) {
    char bytes[kFrameHeaderBytes];
    EncodeFrameHeader(bytes, static_cast<FrameType>(type), /*payload_len=*/0,
                      /*seq=*/1, /*channel=*/0, TraceContext{});
    return std::string(bytes, sizeof(bytes));
  };
  for (uint8_t type : unknown) {
    Frame frame;
    const Result<uint32_t> decoded = DecodeFrameHeader(header(type), &frame);
    EXPECT_TRUE(decoded.status().IsDataLoss())
        << "type " << int{type} << ": " << decoded.status();
  }

  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread peer([&] {
    auto conn = TcpConnect("localhost", listener->port());
    ASSERT_TRUE(conn.ok());
    for (uint8_t type : unknown) ASSERT_TRUE(conn->SendAll(header(type)).ok());
  });
  auto conn = listener->Accept();
  ASSERT_TRUE(conn.ok());
  peer.join();
  Frame frame;
  std::string scratch;
  for (uint8_t type : unknown) {
    const Status status = RecvFrameInto(&*conn, &frame, &scratch);
    EXPECT_TRUE(status.IsDataLoss()) << "type " << int{type} << ": " << status;
  }
}

TEST(WireTest, SchemaSerializationRoundTrip) {
  Schema schema({{"age", DataType::kInt64},
                 {"gender", DataType::kString},
                 {"amount", DataType::kDouble},
                 {"flag", DataType::kBool}});
  std::string encoded;
  EncodeSchema(schema, &encoded);
  Decoder decoder(encoded);
  auto decoded = DecodeSchema(&decoder);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(**decoded, schema);
}

TEST(WireTest, HugeSchemaFieldCountIsDataLoss) {
  std::string payload;
  PutVarint64(&payload, uint64_t{1} << 40);
  Decoder decoder(payload);
  EXPECT_TRUE(DecodeSchema(&decoder).status().IsDataLoss());

  // The same count inside a coordinator registration from a TCP peer.
  RegisterSqlMessage reg;
  reg.schema = Schema::Make({});
  std::string registration = reg.Encode();
  registration.resize(registration.size() - 2);  // Field count + sink key.
  PutVarint64(&registration, uint64_t{1} << 40);
  EXPECT_TRUE(RegisterSqlMessage::Decode(registration).status().IsDataLoss());
}

TEST(WireTest, ControlMessagesRoundTrip) {
  RegisterSqlMessage reg;
  reg.worker_id = 2;
  reg.num_workers = 4;
  reg.host = "node2";
  reg.port = 12345;
  reg.command = "svm";
  reg.schema = Schema::Make({{"x", DataType::kDouble}});
  auto reg2 = RegisterSqlMessage::Decode(reg.Encode());
  ASSERT_TRUE(reg2.ok());
  EXPECT_EQ(reg2->worker_id, 2);
  EXPECT_EQ(reg2->command, reg.command);
  EXPECT_EQ(*reg2->schema, *reg.schema);

  auto ack = RegisterAckMessage::Decode(RegisterAckMessage{2, 200}.Encode());
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->splits_per_worker, 2);
  EXPECT_EQ(ack->heartbeat_ms, 200);
  // k sizes the sink's senders: zero or an absurd fan-in is refused.
  EXPECT_TRUE(RegisterAckMessage::Decode(RegisterAckMessage{0, 0}.Encode())
                  .status()
                  .IsDataLoss());
  EXPECT_TRUE(
      RegisterAckMessage::Decode(RegisterAckMessage{1 << 20, 0}.Encode())
          .status()
          .IsDataLoss());

  SplitsMessage splits;
  splits.schema = reg.schema;
  splits.splits = {{0, 0, "node0", 1111}, {1, 0, "node0", 1111},
                   {2, 1, "node1", 2222}};
  splits.heartbeat_ms = 20;
  auto splits2 = SplitsMessage::Decode(splits.Encode());
  ASSERT_TRUE(splits2.ok());
  ASSERT_EQ(splits2->splits.size(), 3u);
  EXPECT_EQ(splits2->splits[2].host, "node1");
  EXPECT_EQ(splits2->heartbeat_ms, 20);

  HelloMessage hello{7, 41};
  auto hello2 = HelloMessage::Decode(hello.Encode());
  ASSERT_TRUE(hello2.ok());
  EXPECT_EQ(hello2->split_id, 7);
  EXPECT_EQ(hello2->resume_seq, 41);

  auto report = ReportFailureMessage::Decode(ReportFailureMessage{5}.Encode());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->split_id, 5);
}

// --- Frame log: the send buffer half (unsent frames) ---

class SpillQueueTest : public ::testing::Test {
 protected:
  ScopedTempDir temp_{"spill_test"};
};

/// The frame the sender reads next, as a string; "" at the end of the log.
std::string NextFrame(FrameLog* log) {
  auto read = log->Next();
  EXPECT_TRUE(read.ok()) << read.status();
  if (!read.ok() || !read->has_value()) return "";
  return std::string((*read)->frame);
}

TEST_F(SpillQueueTest, FifoWithinMemory) {
  FrameLog::Options options;
  options.send_buffer_bytes = 1 << 20;
  options.spill_enabled = false;
  FrameLog log(options);
  ASSERT_TRUE(log.Append("a", 1).ok());
  ASSERT_TRUE(log.Append("bb", 1).ok());
  log.Close();
  EXPECT_EQ(NextFrame(&log), "a");
  EXPECT_EQ(NextFrame(&log), "bb");
  EXPECT_FALSE(log.Next()->has_value());
}

TEST_F(SpillQueueTest, SpillsWhenFullAndPreservesOrder) {
  FrameLog::Options options;
  options.send_buffer_bytes = 32;
  options.spill_enabled = true;
  options.spill_path = temp_.path() + "/spill";
  FrameLog log(options);
  // Fill memory then overflow to disk with nobody consuming.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(log.Append("frame-" + std::to_string(i), 1).ok());
  }
  EXPECT_GT(log.state().spilled_frames, 0);
  log.Close();
  for (int i = 0; i < 50; ++i) {
    auto read = log.Next();
    ASSERT_TRUE(read.ok());
    ASSERT_TRUE(read->has_value());
    EXPECT_EQ((*read)->seq, static_cast<uint64_t>(i + 1));
    EXPECT_EQ((*read)->frame, "frame-" + std::to_string(i));
  }
  EXPECT_FALSE(log.Next()->has_value());
}

TEST_F(SpillQueueTest, BackpressureBlocksProducerUntilPop) {
  FrameLog::Options options;
  options.send_buffer_bytes = 8;
  options.spill_enabled = false;
  FrameLog log(options);
  ASSERT_TRUE(log.Append(std::string(8, 'x'), 1).ok());
  std::atomic<bool> appended{false};
  std::thread producer([&] {
    ASSERT_TRUE(log.Append(std::string(8, 'y'), 1).ok());
    appended.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(appended.load());  // Blocked: no room, no spill.
  EXPECT_TRUE(log.Next()->has_value());
  producer.join();
  EXPECT_TRUE(appended.load());
}

TEST_F(SpillQueueTest, CancelUnblocksBothSides) {
  FrameLog::Options options;
  options.send_buffer_bytes = 4;
  options.spill_enabled = false;
  FrameLog log(options);
  std::thread sender([&] {
    auto result = log.Next();
    EXPECT_TRUE(result.status().IsCancelled());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  log.Cancel();
  sender.join();
  EXPECT_TRUE(log.Append("x", 1).IsCancelled());
}

TEST_F(SpillQueueTest, ConcurrentProducerConsumerWithSpill) {
  FrameLog::Options options;
  options.send_buffer_bytes = 64;
  options.spill_enabled = true;
  options.spill_path = temp_.path() + "/spill3";
  FrameLog log(options);
  constexpr int kFrames = 2000;
  std::thread producer([&] {
    for (int i = 0; i < kFrames; ++i) {
      ASSERT_TRUE(log.Append("frame-" + std::to_string(i), 1).ok());
    }
    log.Close();
  });
  int count = 0;
  for (;;) {
    auto read = log.Next();
    ASSERT_TRUE(read.ok());
    if (!read->has_value()) break;
    EXPECT_EQ((*read)->frame, "frame-" + std::to_string(count));
    ++count;
    if (count % 7 == 0) log.Ack((*read)->seq);
  }
  producer.join();
  EXPECT_EQ(count, kFrames);
}

TEST_F(SpillQueueTest, AbortLeavesNoSpillFilesBehind) {
  FrameLog::Options options;
  options.send_buffer_bytes = 32;
  options.spill_enabled = true;
  options.spill_path = temp_.path() + "/abort_spill";
  {
    FrameLog log(options);
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(log.Append(std::string(24, 'x'), 1).ok());
    }
    ASSERT_GT(log.state().spilled_frames, 0);
    EXPECT_TRUE(std::filesystem::exists(options.spill_path + ".spill"));
    // Abort mid-drain: nothing was ever sent, yet Cancel must delete the
    // on-disk backlog immediately, not wait for process exit.
    log.Cancel();
    EXPECT_FALSE(std::filesystem::exists(options.spill_path + ".spill"));
  }
  EXPECT_TRUE(std::filesystem::is_empty(temp_.path()));
}

TEST_F(SpillQueueTest, DestructorLeavesNoSpillFilesBehind) {
  FrameLog::Options options;
  options.send_buffer_bytes = 32;
  options.spill_enabled = true;
  options.spill_path = temp_.path() + "/drop_spill";
  {
    FrameLog log(options);
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(log.Append(std::string(24, 'x'), 1).ok());
    }
    ASSERT_GT(log.state().spilled_frames, 0);
    // No Cancel, no drain: destruction alone must clean the scratch dir.
  }
  EXPECT_TRUE(std::filesystem::is_empty(temp_.path()));
}

// --- Frame log: the replay half (sent, unacked frames) ---

class ReplayWindowTest : public ::testing::Test {
 protected:
  ScopedTempDir temp_{"replay_window_test"};
};

TEST_F(ReplayWindowTest, ReplaysUnackedSuffixAcrossSpill) {
  FrameLog::Options options;
  options.send_buffer_bytes = 16;  // Frames 3 to 6 spill at append.
  options.spill_enabled = true;
  options.spill_path = temp_.path() + "/window";
  FrameLog log(options);
  for (uint64_t seq = 1; seq <= 6; ++seq) {
    ASSERT_TRUE(log.Append("frame" + std::to_string(seq), /*rows=*/seq).ok());
  }
  EXPECT_EQ(log.state().spilled_frames, 4);
  for (uint64_t seq = 1; seq <= 6; ++seq) {
    EXPECT_EQ(NextFrame(&log), "frame" + std::to_string(seq));
  }
  log.Close();
  // Sent frames stay where they were, in memory or on disk, until acked.
  EXPECT_EQ(log.state().in_flight_bytes, 36u);
  log.Ack(2);
  EXPECT_EQ(log.state().acked, 2u);
  EXPECT_EQ(*log.RowsThrough(2), 3u);   // 1 + 2
  EXPECT_EQ(*log.RowsThrough(6), 21u);  // 1 + ... + 6
  // A reader resuming from frame 3 gets exactly 4, 5, 6 — in order, with
  // content intact whether the frame lived in memory or on disk.
  EXPECT_EQ(log.Rewind(3), 3u);
  std::vector<uint64_t> seqs;
  std::vector<std::string> frames;
  for (;;) {
    auto read = log.Next();
    ASSERT_TRUE(read.ok()) << read.status();
    if (!read->has_value()) break;
    EXPECT_TRUE((*read)->replay);
    seqs.push_back((*read)->seq);
    frames.emplace_back((*read)->frame);
  }
  EXPECT_EQ(seqs, (std::vector<uint64_t>{4, 5, 6}));
  EXPECT_EQ(frames, (std::vector<std::string>{"frame4", "frame5", "frame6"}));
  EXPECT_EQ(log.state().in_flight_bytes, 18u);  // Counted from the rewind.
  log.Ack(6);
  EXPECT_EQ(log.state().in_flight_bytes, 0u);
}

TEST_F(ReplayWindowTest, DestructionRemovesSpillFile) {
  {
    FrameLog::Options options;
    options.send_buffer_bytes = 8;
    options.spill_enabled = true;
    options.spill_path = temp_.path() + "/window";
    FrameLog log(options);
    for (uint64_t seq = 1; seq <= 8; ++seq) {
      ASSERT_TRUE(log.Append(std::string(64, 'w'), 1).ok());
    }
    for (uint64_t seq = 1; seq <= 8; ++seq) ASSERT_TRUE(log.Next().ok());
    ASSERT_EQ(log.state().spilled_frames, 7);
    ASSERT_TRUE(std::filesystem::exists(options.spill_path + ".spill"));
    // Never acked, never replayed: an aborted transfer drops the log.
  }
  EXPECT_TRUE(std::filesystem::is_empty(temp_.path()));
}

// --- Frame log: cursors and the one spill file ---

class FrameLogTest : public ::testing::Test {
 protected:
  ScopedTempDir temp_{"frame_log_test"};
};

TEST_F(FrameLogTest, MemoryReusedWhileOlderFramesWaitOnDisk) {
  FrameLog::Options options;
  options.send_buffer_bytes = 16;
  options.spill_enabled = true;
  options.spill_path = temp_.path() + "/spill";
  FrameLog log(options);
  ASSERT_TRUE(log.Append(std::string(10, 'a'), 1).ok());
  ASSERT_TRUE(log.Append(std::string(10, 'b'), 1).ok());  // Spills.
  EXPECT_EQ(log.state().spilled_frames, 1);
  EXPECT_EQ(NextFrame(&log), std::string(10, 'a'));
  // 'b' still waits on disk, yet the room 'a' left takes 'c' in memory:
  // sequence numbers, not the medium, keep the order.
  ASSERT_TRUE(log.Append(std::string(10, 'c'), 1).ok());
  EXPECT_EQ(log.state().spilled_frames, 1);
  EXPECT_EQ(log.state().unsent_memory_bytes, 10u);
  EXPECT_EQ(NextFrame(&log), std::string(10, 'b'));  // From disk.
  EXPECT_EQ(NextFrame(&log), std::string(10, 'c'));
}

TEST_F(FrameLogTest, AppendNeverWaitsOnAnAck) {
  // Spill off: sent frames stay in memory until acked, and the producer
  // waits only for the sender to take a frame, never for an ack — the
  // sender reads acks only between frames. The window is the sender's to
  // keep, on its channel.
  FrameLog::Options options;
  options.send_buffer_bytes = 8;
  options.spill_enabled = false;
  FrameLog log(options);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(log.Append(std::string(8, 'x'), 1).ok());
    ASSERT_TRUE(log.Next().ok());
  }
  EXPECT_EQ(log.state().acked, 0u);
  EXPECT_EQ(log.state().in_flight_bytes, 32u);
  EXPECT_EQ(log.state().unsent_memory_bytes, 0u);
}

TEST_F(FrameLogTest, RewindClampsToAckedAndSent) {
  FrameLog::Options options;
  options.spill_enabled = false;
  FrameLog log(options);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(log.Append("f", 2).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(log.Next().ok());
  log.Ack(1);
  EXPECT_EQ(log.Rewind(0), 1u);   // Below acked: the log forgot those.
  EXPECT_EQ(log.Rewind(99), 3u);  // Past sent: the reader never got them.
  EXPECT_EQ(log.Rewind(2), 2u);
  auto read = log.Next();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ((*read)->seq, 3u);
  EXPECT_TRUE((*read)->replay);
  read = log.Next();
  EXPECT_EQ((*read)->seq, 4u);
  EXPECT_FALSE((*read)->replay);
  log.Ack(99);  // Acks past sent are clamped too.
  EXPECT_EQ(log.state().acked, 4u);
  EXPECT_EQ(*log.RowsThrough(5), 10u);
  EXPECT_FALSE(log.RowsThrough(3).ok());  // Trimmed.
}

TEST_F(FrameLogTest, InFlightBytesCountFromTheResumePoint) {
  // The reader's window counts what the sender read since its last Rewind
  // and the reader has not acked. Frames at or below a reconnecting
  // reader's resume point were applied, their acks lost with the old
  // connection: they stay in the log but never count.
  FrameLog::Options options;
  options.spill_enabled = false;
  FrameLog log(options);
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(log.Append(std::string(static_cast<size_t>(i), 'x'), 1).ok());
  }
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(log.Next().ok());
  EXPECT_EQ(log.state().in_flight_bytes, 10u);  // 1 + 2 + 3 + 4.
  log.Ack(1);
  EXPECT_EQ(log.state().in_flight_bytes, 9u);
  EXPECT_EQ(log.Rewind(3), 3u);
  EXPECT_EQ(log.state().in_flight_bytes, 0u);
  ASSERT_TRUE(log.Next().ok());  // Frame 4 again, on the new connection.
  EXPECT_EQ(log.state().in_flight_bytes, 4u);
  log.Ack(3);  // Frames 2 and 3 were never sent on it.
  EXPECT_EQ(log.state().acked, 3u);
  EXPECT_EQ(log.state().in_flight_bytes, 4u);
  log.Ack(4);
  EXPECT_EQ(log.state().in_flight_bytes, 0u);
}

TEST_F(FrameLogTest, TruncatedSpillRecordHeaderIsIoError) {
  FrameLog::Options options;
  options.send_buffer_bytes = 4;
  options.spill_enabled = true;
  options.spill_path = temp_.path() + "/cut";
  FrameLog log(options);
  ASSERT_TRUE(log.Append("mem", 1).ok());
  ASSERT_TRUE(log.Append("disk", 1).ok());  // Send buffer full: spills.
  ASSERT_EQ(log.state().spilled_frames, 1);
  const std::string file = options.spill_path + ".spill";
  // Two bytes of the record's four-byte length header survive.
  std::filesystem::resize_file(file, 2);
  EXPECT_EQ(NextFrame(&log), "mem");
  auto read = log.Next();
  EXPECT_TRUE(read.status().IsIoError()) << read.status();
  log.Cancel();
  EXPECT_FALSE(std::filesystem::exists(file));
  EXPECT_TRUE(std::filesystem::is_empty(temp_.path()));
}

// --- End-to-end streaming transfer ---

class StreamingTransferTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_ = std::make_unique<ScopedTempDir>("stream_test");
    auto cluster = Cluster::Make(4, temp_->path());
    ASSERT_TRUE(cluster.ok());
    engine_ = SqlEngine::Make(*cluster);

    auto schema = Schema::Make({{"id", DataType::kInt64},
                                {"feature", DataType::kDouble},
                                {"label", DataType::kInt64}});
    auto table = engine_->MakeTable("points", schema);
    Random rng(23);
    for (int64_t i = 0; i < 1000; ++i) {
      table->AppendRow(
          static_cast<size_t>(i) % 4,
          Row{Value::Int64(i), Value::Double(rng.NextDouble()),
              Value::Int64(i % 2)});
    }
    ASSERT_TRUE(engine_->catalog()->RegisterTable(table).ok());
  }

  std::unique_ptr<ScopedTempDir> temp_;
  SqlEnginePtr engine_;
};

TEST_F(StreamingTransferTest, DeliversEveryRowExactlyOnce) {
  auto result =
      StreamingTransfer::Run(engine_.get(), "SELECT * FROM points");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->dataset.TotalRows(), 1000u);
  EXPECT_EQ(result->rows_sent, 1000);
  EXPECT_GT(result->bytes_sent, 0);
  EXPECT_EQ(result->stats.num_splits, 4);  // k=1, n=4.
  std::set<int64_t> ids;
  for (const auto& partition : result->dataset.partitions) {
    for (const Row& row : partition) {
      EXPECT_TRUE(ids.insert(row[0].int64_value()).second);
    }
  }
  EXPECT_EQ(ids.size(), 1000u);
  // Schema crossed the wire.
  EXPECT_EQ(result->dataset.schema->ToString(),
            "id:INT64, feature:DOUBLE, label:INT64");
}

TEST_F(StreamingTransferTest, FilteredQueryStreamsFilteredRows) {
  auto result = StreamingTransfer::Run(
      engine_.get(), "SELECT id, label FROM points WHERE id < 100");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->dataset.TotalRows(), 100u);
  EXPECT_EQ(result->dataset.schema->num_fields(), 2);
}

TEST_F(StreamingTransferTest, MultipleSplitsPerWorker) {
  StreamTransferOptions options;
  options.splits_per_worker = 3;  // m = 12 ML workers.
  auto result =
      StreamingTransfer::Run(engine_.get(), "SELECT * FROM points", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.num_splits, 12);
  EXPECT_EQ(result->dataset.TotalRows(), 1000u);
  // Round-robin keeps split sizes balanced.
  for (const auto& partition : result->dataset.partitions) {
    EXPECT_GT(partition.size(), 0u);
  }
}

TEST_F(StreamingTransferTest, TinyBufferForcesManyFrames) {
  Counter* pooled =
      MetricsRegistry::Global().GetCounter("stream.wire.frames_pooled");
  const int64_t pooled_before = pooled->value();
  StreamTransferOptions options;
  options.sink.send_buffer_bytes = 64;
  auto result =
      StreamingTransfer::Run(engine_.get(), "SELECT * FROM points", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->dataset.TotalRows(), 1000u);
  // The steady-state sender recycled frame buffers through the pool.
  EXPECT_GT(pooled->value(), pooled_before);
}

TEST_F(StreamingTransferTest, StreamedTrainingDataMatchesLocalQuery) {
  auto streamed =
      StreamingTransfer::Run(engine_.get(), "SELECT * FROM points");
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  auto local = engine_->ExecuteSql("SELECT * FROM points");
  ASSERT_TRUE(local.ok()) << local.status();
  ml::RowDataset rows;
  rows.schema = (*local)->schema();
  for (size_t p = 0; p < (*local)->num_partitions(); ++p) {
    rows.partitions.push_back((*local)->partition(p));
  }

  auto from_stream =
      ml::Dataset::FromRowsAutoFeatures(streamed->dataset, "label");
  auto from_local = ml::Dataset::FromRowsAutoFeatures(rows, "label");
  ASSERT_TRUE(from_stream.ok()) << from_stream.status();
  ASSERT_TRUE(from_local.ok()) << from_local.status();
  // Split i drains SQL worker i's partition in scan order (k=1), so the
  // streamed training data agrees with the local result point for point.
  EXPECT_EQ(from_stream->partitions(), from_local->partitions());
}

TEST_F(StreamingTransferTest, EdgeValuesCrossTheStreamBitExact) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<Row> edges = {
      {Value::Int64(std::numeric_limits<int64_t>::min()),
       Value::Double(std::numeric_limits<double>::quiet_NaN()),
       Value::Bool(true), Value::String("")},
      {Value::Int64(std::numeric_limits<int64_t>::max()), Value::Double(kInf),
       Value::Bool(false), Value::String(std::string("nul\0byte", 8))},
      {Value::Int64(-1), Value::Double(-kInf), Value::Null(),
       Value::String(std::string(5000, 'x'))},
      {Value::Null(), Value::Double(-0.0), Value::Bool(true), Value::Null()},
      {Value::Int64(0), Value::Double(std::numeric_limits<double>::denorm_min()),
       Value::Null(), Value::String("repeated")},
      {Value::Int64(1), Value::Null(), Value::Bool(false),
       Value::String("repeated")}};
  auto table = engine_->MakeTable(
      "edges", Schema::Make({{"id", DataType::kInt64},
                             {"n", DataType::kInt64},
                             {"x", DataType::kDouble},
                             {"flag", DataType::kBool},
                             {"s", DataType::kString}}));
  for (size_t i = 0; i < edges.size(); ++i) {
    Row row{Value::Int64(static_cast<int64_t>(i))};
    row.insert(row.end(), edges[i].begin(), edges[i].end());
    table->AppendRow(i % 4, std::move(row));
  }
  ASSERT_TRUE(engine_->catalog()->RegisterTable(table).ok());

  auto result = StreamingTransfer::Run(engine_.get(), "SELECT * FROM edges");
  ASSERT_TRUE(result.ok()) << result.status();
  std::vector<Row> got;
  for (const auto& partition : result->dataset.partitions) {
    got.insert(got.end(), partition.begin(), partition.end());
  }
  ASSERT_EQ(got.size(), edges.size());
  std::sort(got.begin(), got.end(), [](const Row& a, const Row& b) {
    return a[0].int64_value() < b[0].int64_value();
  });
  for (size_t i = 0; i < edges.size(); ++i) {
    ASSERT_EQ(got[i].size(), 1 + edges[i].size());
    for (size_t c = 0; c < edges[i].size(); ++c) {
      const Value& want = edges[i][c];
      const Value& have = got[i][1 + c];
      if (want.is_double() && have.is_double()) {
        // Bit pattern: NaN equals itself, -0.0 differs from 0.0.
        const double w = want.double_value();
        const double h = have.double_value();
        EXPECT_EQ(std::memcmp(&w, &h, sizeof(double)), 0)
            << "row " << i << " column " << c;
      } else {
        EXPECT_EQ(have, want) << "row " << i << " column " << c;
      }
    }
  }
}

TEST_F(StreamingTransferTest, IngestAndCoordinatorCountersTrackTheTransfer) {
  // The engine records into the process-wide registry, which earlier
  // transfers in this process have already bumped: compare deltas.
  MetricsRegistry& metrics = *engine_->metrics();
  MetricsRegistry& global = MetricsRegistry::Global();
  const std::map<std::string, int64_t> before = metrics.Snapshot();
  const int64_t registrations = global.Get("coordinator.register_sql.count");
  const int64_t split_requests = global.Get("coordinator.get_splits.count");
  auto result =
      StreamingTransfer::Run(engine_.get(), "SELECT * FROM points");
  ASSERT_TRUE(result.ok()) << result.status();

  auto delta = [&](const std::string& name) {
    auto it = before.find(name);
    return metrics.Get(name) - (it == before.end() ? 0 : it->second);
  };
  EXPECT_EQ(delta("ml.ingest.rows"), 1000);
  EXPECT_EQ(delta("ml.ingest.splits"), 4);
  EXPECT_EQ(delta("ml.ingest.local_splits"), result->stats.local_splits);
  // One registration per SQL worker, one split request per ML job.
  EXPECT_EQ(global.Get("coordinator.register_sql.count") - registrations, 4);
  EXPECT_EQ(global.Get("coordinator.get_splits.count") - split_requests, 1);
  // The ops endpoint exposes them under their sanitized names.
  EXPECT_NE(metrics.ToPrometheusText().find(
                "\nsqlink_ml_ingest_rows " +
                std::to_string(metrics.Get("ml.ingest.rows")) + "\n"),
            std::string::npos);
}

TEST_F(StreamingTransferTest, RecoversFromInjectedFailure) {
  // Split 1's reader drops its connection once, after 50 delivered rows.
  ScopedFailpoint fault("stream.reader.row.split1", "after(49):error(1)");
  ASSERT_TRUE(fault.status().ok()) << fault.status();
  auto result =
      StreamingTransfer::Run(engine_.get(), "SELECT * FROM points");
  ASSERT_TRUE(result.ok()) << result.status();
  // Despite the mid-stream failure, exactly-once delivery holds.
  EXPECT_EQ(result->dataset.TotalRows(), 1000u);
  std::set<int64_t> ids;
  for (const auto& partition : result->dataset.partitions) {
    for (const Row& row : partition) {
      EXPECT_TRUE(ids.insert(row[0].int64_value()).second)
          << "duplicate row " << row[0].int64_value();
    }
  }
  EXPECT_EQ(ids.size(), 1000u);
  EXPECT_GT(engine_->metrics()->Get("stream.reconnects"), 0);
  EXPECT_EQ(fault.fires(), 1);
  EXPECT_EQ(MetricsRegistry::Global().Get(
                "failpoint.stream.reader.row.split1.fired"),
            1);
}

TEST_F(StreamingTransferTest, RecoversWithMultipleSplitsPerWorker) {
  // k = 2 and a failure on a non-first split of a worker: the routing
  // (sender split_id - worker_id·k) must deliver the reconnect to the
  // right sender.
  StreamTransferOptions options;
  options.splits_per_worker = 2;
  // Split 5 = worker 2, slot 1: fails once after 30 delivered rows.
  ScopedFailpoint fault("stream.reader.row.split5", "after(29):error(1)");
  ASSERT_TRUE(fault.status().ok()) << fault.status();
  auto result =
      StreamingTransfer::Run(engine_.get(), "SELECT * FROM points", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->dataset.TotalRows(), 1000u);
  std::set<int64_t> ids;
  for (const auto& partition : result->dataset.partitions) {
    for (const Row& row : partition) {
      EXPECT_TRUE(ids.insert(row[0].int64_value()).second);
    }
  }
  EXPECT_EQ(ids.size(), 1000u);
}

TEST_F(StreamingTransferTest, ReaderGivesUpAfterMaxReconnects) {
  StreamTransferOptions options;
  options.sink.reconnect_timeout_ms = 300;  // Keep the failing run fast.
  options.reader.max_reconnects = 0;  // Gives up at the first failure.
  ScopedFailpoint fault("stream.reader.row.split0", "after(9):error(1)");
  auto result =
      StreamingTransfer::Run(engine_.get(), "SELECT * FROM points", options);
  EXPECT_FALSE(result.ok());
}

/// Recovery is no mode: a transfer with default options survives a dropped
/// reader connection inside its first frame and applies every row once.
TEST_F(StreamingTransferTest, DefaultTransferRecoversFromADroppedConnection) {
  const int64_t reconnects = engine_->metrics()->Get("stream.reconnects");
  ScopedFailpoint fault("stream.reader.row.split0", "after(9):error(1)");
  ASSERT_TRUE(fault.status().ok()) << fault.status();
  auto result = StreamingTransfer::Run(engine_.get(), "SELECT * FROM points");
  ASSERT_TRUE(result.ok()) << result.status();
  std::set<int64_t> ids;
  for (const auto& partition : result->dataset.partitions) {
    for (const Row& row : partition) {
      EXPECT_TRUE(ids.insert(row[0].int64_value()).second)
          << "duplicate row " << row[0].int64_value();
    }
  }
  EXPECT_EQ(ids.size(), 1000u);
  EXPECT_EQ(result->dataset.TotalRows(), 1000u);
  EXPECT_EQ(fault.fires(), 1);
  EXPECT_GE(engine_->metrics()->Get("stream.reconnects") - reconnects, 1);
}

TEST_F(StreamingTransferTest, BadQuerySurfacesSqlError) {
  auto result =
      StreamingTransfer::Run(engine_.get(), "SELECT nope FROM missing");
  EXPECT_FALSE(result.ok());
}

TEST_F(StreamingTransferTest, SinkSqlRendersRoundTrippableQuery) {
  StreamSinkOptions sink;
  const std::string sql = StreamingTransfer::BuildSinkSql(
      "SELECT * FROM points", "localhost", 9999, "svm", sink);
  auto stmt = ParseSelect(sql);
  ASSERT_TRUE(stmt.ok()) << sql << ": " << stmt.status();
  EXPECT_EQ(stmt->from[0].kind, TableRef::Kind::kTableFunction);
  EXPECT_EQ(stmt->from[0].name, "sql_stream_sink");
  // Planning binds the UDF's arguments without running the transfer.
  ASSERT_TRUE(RegisterStreamSinkUdf(engine_.get()).ok());
  auto plan = engine_->Plan(sql);
  EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status();
}

TEST_F(StreamingTransferTest, SinkRejectsArgumentsItDoesNotParse) {
  // The query, host, port and command, then three optional arguments: an
  // eighth or ninth (a retired heartbeat interval, say) is an error at
  // planning, not an argument silently ignored.
  ASSERT_TRUE(RegisterStreamSinkUdf(engine_.get()).ok());
  std::string sql =
      "SELECT * FROM TABLE(sql_stream_sink((SELECT * FROM points), "
      "'localhost', 9999, 'svm', 4096, 1, 1000";
  ASSERT_TRUE(engine_->Plan(sql + "))").ok());
  for (int extra = 1; extra <= 2; ++extra) {
    sql += ", 1048576";
    auto plan = engine_->Plan(sql + "))");
    EXPECT_TRUE(plan.status().IsInvalidArgument())
        << extra << " extra: " << plan.status();
  }
}

TEST_F(StreamingTransferTest, OneTraceCoversSinkCoordinatorReaderAndIngest) {
  Tracer::Global().Reset();
  Tracer::Global().set_sample_probability(1.0);
  Tracer::Global().set_enabled(true);
  auto result = StreamingTransfer::Run(engine_.get(), "SELECT * FROM points");
  Tracer::Global().set_enabled(false);
  ASSERT_TRUE(result.ok()) << result.status();

  const std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
  auto find = [&spans](const std::string& name) -> const SpanRecord* {
    for (const SpanRecord& span : spans) {
      if (span.name == name) return &span;
    }
    return nullptr;
  };
  const SpanRecord* root = find("stream.transfer");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_span_id, 0u);

  // Every stage of the pipeline — SQL executor, sink UDF, coordinator
  // handlers, ML split fetch, per-connection reader streams, ML ingest —
  // lands in the root's trace: the end-to-end invariant the wire-header
  // propagation plus ambient context exist for.
  for (const char* name :
       {"sql.execute", "sink.partition", "sink.register", "sink.send",
        "coordinator.register_sql", "coordinator.get_splits",
        "reader.get_splits", "reader.stream", "ml.ingest",
        "ml.ingest.split"}) {
    const SpanRecord* span = find(name);
    ASSERT_NE(span, nullptr) << name << " span missing";
    EXPECT_EQ(span->trace_id, root->trace_id) << name;
    EXPECT_NE(span->parent_span_id, 0u) << name;
    EXPECT_FALSE(span->error) << name;
  }

  // Cross-wire link: each reader.stream span's parent is the sink-side span
  // that sent the resume frame (a span of the same trace, recorded on the
  // SQL-worker thread).
  const SpanRecord* reader_stream = find("reader.stream");
  bool parent_found = false;
  for (const SpanRecord& span : spans) {
    if (span.span_id == reader_stream->parent_span_id) {
      parent_found = true;
      EXPECT_EQ(span.trace_id, root->trace_id);
    }
  }
  EXPECT_TRUE(parent_found) << "reader.stream parent span not recorded";

  // Thread-crossing link: per-split ingest spans are children of ml.ingest.
  const SpanRecord* ingest = find("ml.ingest");
  int split_spans = 0;
  for (const SpanRecord& span : spans) {
    if (span.name != "ml.ingest.split") continue;
    ++split_spans;
    EXPECT_EQ(span.parent_span_id, ingest->span_id);
  }
  EXPECT_EQ(split_spans, 4);  // One per split (k=1, n=4).
}

// --- Coordinator helpers ---

/// Registers SQL worker `worker_id` of `num_workers`, on host
/// "node<worker_id>" with data port `data_port`, with the coordinator at
/// `port`; returns the registration's answer.
Result<std::string> RegisterSqlWorker(int port, int worker_id,
                                      int num_workers, int data_port) {
  RegisterSqlMessage reg;
  reg.worker_id = worker_id;
  reg.num_workers = num_workers;
  reg.host = "node" + std::to_string(worker_id);
  reg.port = data_port;
  reg.command = "test";
  reg.schema = Schema::Make({{"x", DataType::kInt64}});
  return CallCoordinator("localhost", port, FrameType::kRegisterSql,
                         reg.Encode(), FrameType::kAck);
}

/// Registers the one SQL worker of a one-worker transfer with the
/// coordinator at `port`; that registration launches the ML side.
void RegisterOneSqlWorker(int port) {
  auto registered = RegisterSqlWorker(port, 0, 1, 7777);
  ASSERT_TRUE(registered.ok()) << registered.status();
}

/// Waits until the coordinator at `port`, whose splits are ready, answers a
/// split fetch with Cancelled: Stop() has begun and still serves. False if
/// that takes over 10 s.
bool WaitUntilStopping(int port) {
  for (int attempt = 0; attempt < 10000; ++attempt) {
    auto splits = CallCoordinator("localhost", port, FrameType::kGetSplits,
                                  "", FrameType::kSplits);
    if (splits.status().IsCancelled()) return true;
    if (!splits.ok()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// The coordinator's re-match of `split_id` (kReportFailure), as a reader
/// that lost its connection asks for it.
Result<MatchMessage> Rematch(int port, int split_id) {
  ASSIGN_OR_RETURN(std::string reply,
                   CallCoordinator("localhost", port, FrameType::kReportFailure,
                                   ReportFailureMessage{split_id}.Encode(),
                                   FrameType::kMatch));
  return MatchMessage::Decode(reply);
}

// --- Reader against a fake sink ---

/// One split's reader against a sink partition the test plays: the
/// process-wide mux listener hands the test the channel the reader opens.
/// The default reader_ fetched no splits, so it holds no lease, and it
/// gives up at its first failure (max_reconnects = 0): it dials the
/// coordinator (port 1, where nothing listens) only for its best-effort
/// completion report, which fails fast.
class StreamReaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto port = MuxSinkServer::Global().EnsureStarted();
    ASSERT_TRUE(port.ok()) << port.status();
    sink_port_ = *port;
    key_ = MuxSinkServer::Global().Register(
        [opened = opened_](std::shared_ptr<MuxChannel> channel,
                           const OpenChannelMessage&) {
          std::lock_guard<std::mutex> lock(opened->mu);
          opened->channel = std::move(channel);
          opened->cv.notify_all();
        });
    StreamReaderOptions options;
    options.max_reconnects = 0;
    reader_ = MakeReader(/*coordinator_port=*/1, options);
    ASSERT_NE(reader_, nullptr);
  }

  /// A reader of the split the fake sink serves.
  std::unique_ptr<ml::RecordReader> MakeReader(int coordinator_port,
                                               StreamReaderOptions options) {
    StreamSplitInfo info;
    info.host = "localhost";
    info.port = sink_port_;
    info.sink_key = key_;
    SqlStreamInputFormat format("localhost", coordinator_port, options);
    auto reader = format.CreateReader(ml::JobContext{}, StreamSplit(info),
                                      /*worker_id=*/0);
    EXPECT_TRUE(reader.ok()) << reader.status();
    return reader.ok() ? std::move(*reader) : nullptr;
  }

  void TearDown() override {
    reader_.reset();
    {
      std::lock_guard<std::mutex> lock(opened_->mu);
      if (opened_->channel != nullptr) {
        opened_->channel->Shutdown(Status::Cancelled("test done"));
      }
    }
    if (key_ != 0) MuxSinkServer::Global().Unregister(key_);
    MuxConnPool::Global().ResetForTest();
  }

  /// The sink's side of the reader's channel after a valid handshake
  /// (kResume at 0); null if the reader opened none in 10 s.
  std::shared_ptr<MuxChannel> AcceptWithHandshake() {
    std::shared_ptr<MuxChannel> channel;
    {
      std::unique_lock<std::mutex> lock(opened_->mu);
      opened_->cv.wait_for(lock, std::chrono::seconds(10),
                           [&] { return opened_->channel != nullptr; });
      channel = opened_->channel;
    }
    if (channel == nullptr) return nullptr;
    EXPECT_TRUE(
        channel->Send(FrameType::kResume, ResumeMessage{}.Encode(), 0).ok());
    return channel;
  }

  struct Opened {
    std::mutex mu;
    std::condition_variable cv;
    std::shared_ptr<MuxChannel> channel;
  };
  std::shared_ptr<Opened> opened_ = std::make_shared<Opened>();
  int sink_port_ = 0;
  uint64_t key_ = 0;
  std::unique_ptr<ml::RecordReader> reader_;
};

TEST_F(StreamReaderTest, HugeFrameRowCountIsDataLoss) {
  // After a valid handshake the fake sink sends a kData frame whose row
  // count (2^40) no payload could back. The reader must fail the split
  // with DataLoss before sizing its staging vector.
  std::thread sink([this] {
    std::shared_ptr<MuxChannel> channel = AcceptWithHandshake();
    if (channel == nullptr) return;
    std::string hostile;
    PutVarint64(&hostile, uint64_t{1} << 40);
    EXPECT_TRUE(channel->Send(FrameType::kData, hostile, 1).ok());
  });

  const Status opened_status = reader_->Open();
  EXPECT_TRUE(opened_status.ok()) << opened_status;
  if (opened_status.ok()) {
    Row row;
    const Status status = reader_->Next(&row).status();
    EXPECT_TRUE(status.IsDataLoss()) << status;
  }
  sink.join();
}

TEST_F(StreamReaderTest, AcksOnlyWhenItsInboxDrainsOrAWindowSixteenthIsOwed) {
  // The fake sink sends the handshake, 100 one-row kData frames of about
  // 4 KiB and kEnd before the reader applies a row, so at every commit the
  // reader's inbox still holds frames. It owes its cumulative kDataAck
  // then, and sends it only once the frames owed reach 1/16 of its 4 MiB
  // window (about 65 of these) or its inbox is empty: far fewer acks than
  // frames, each covering only applied frames, and every row once.
  constexpr int kFrames = 100;
  std::promise<void> all_sent;
  std::vector<uint64_t> acked;  // The sink thread's until it is joined.
  bool final_ack = false;
  std::thread sink([&] {
    std::shared_ptr<MuxChannel> channel = AcceptWithHandshake();
    if (channel == nullptr) {
      all_sent.set_value();
      return;
    }
    for (int seq = 1; seq <= kFrames; ++seq) {
      const std::string payload = RowCodec::EncodeRows(
          {Row{Value::Int64(seq), Value::String(std::string(4000, 'p'))}});
      EXPECT_TRUE(channel->Send(FrameType::kData, payload, seq).ok());
    }
    std::string end;
    PutVarint64(&end, kFrames);
    EXPECT_TRUE(channel->Send(FrameType::kEnd, end, kFrames).ok());
    all_sent.set_value();
    // Collect the reader's acks up to its final kAck (10 s at most).
    for (int ms = 0; ms < 10000 && !final_ack; ++ms) {
      Frame frame;
      bool closed = false;
      auto got = channel->TryRecv(&frame, &closed);
      if (!got.ok() || closed) break;
      if (!*got) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      if (frame.type == FrameType::kDataAck) acked.push_back(frame.seq);
      final_ack = frame.type == FrameType::kAck;
    }
  });

  const Status opened_status = reader_->Open();
  EXPECT_TRUE(opened_status.ok()) << opened_status;
  all_sent.get_future().wait();
  // Let the reader's demux thread file every sent frame into the inbox.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::vector<int64_t> ids;
  if (opened_status.ok()) {
    Row row;
    for (;;) {
      auto has = reader_->Next(&row);
      EXPECT_TRUE(has.ok()) << has.status();
      if (!has.ok() || !*has) break;
      ids.push_back(row[0].int64_value());
    }
  }
  sink.join();

  ASSERT_EQ(ids.size(), static_cast<size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) EXPECT_EQ(ids[i], i + 1);
  EXPECT_TRUE(final_ack);
  EXPECT_GE(acked.size(), 1u);
  EXPECT_LT(acked.size(), static_cast<size_t>(kFrames));
  for (size_t i = 0; i < acked.size(); ++i) {
    EXPECT_LE(acked[i], static_cast<uint64_t>(kFrames));
    if (i > 0) {
      EXPECT_GT(acked[i], acked[i - 1]);
    }
  }
}

TEST_F(StreamReaderTest, RematchAgainstAStoppingCoordinatorEndsRecovery) {
  // The reader loses its channel while its coordinator is stopping. Stop()
  // waits for the ML launcher, which runs this reader, and answers the
  // reader's re-match with Cancelled. That answer ends recovery at once:
  // one re-match, not one per reconnect the reader is allowed.
  Counter* rematches =
      MetricsRegistry::Global().GetCounter("coordinator.rematch.count");
  const int64_t rematches_before = rematches->value();
  std::mutex mu;
  std::condition_variable cv;
  bool opened = false;
  std::atomic<int> port{0};  // Set once the coordinator listens.
  Status read_status = Status::OK();
  StreamCoordinator::Options options;
  options.ml_launcher = [&](const std::string&) {
    StreamReaderOptions reader_options;
    reader_options.max_reconnects = 3;
    std::unique_ptr<ml::RecordReader> reader =
        MakeReader(port.load(), reader_options);
    if (reader == nullptr) return;
    read_status = reader->Open();
    {
      std::lock_guard<std::mutex> lock(mu);
      opened = true;
    }
    cv.notify_all();
    if (!read_status.ok()) return;
    Row row;
    read_status = reader->Next(&row).status();
  };
  auto coordinator = StreamCoordinator::Start(std::move(options));
  ASSERT_TRUE(coordinator.ok()) << coordinator.status();
  port = (*coordinator)->port();
  RegisterOneSqlWorker(port);
  std::shared_ptr<MuxChannel> channel = AcceptWithHandshake();
  ASSERT_NE(channel, nullptr);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return opened; });
  }

  const auto start = std::chrono::steady_clock::now();
  std::thread stopper([&] { (*coordinator)->Stop(); });
  const bool stopping = WaitUntilStopping(port);
  // The sink goes away; the reader's recovery re-matches.
  channel->Shutdown(Status::NetworkError("sink lost"));
  stopper.join();
  const auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_TRUE(stopping);
  EXPECT_LT(stop_ms, 2000);
  EXPECT_TRUE(read_status.IsCancelled()) << read_status;
  EXPECT_EQ(rematches->value() - rematches_before, 1);
}

// --- Coordinator-level behaviours ---

TEST(CoordinatorTest, StopAnswersTheLaunchersSplitFetchBeforeClosing) {
  // The ML launcher asks for its splits only after Stop() has begun.
  // Stop() must keep answering until the launcher returns, with a typed
  // Cancelled that ends the fetch: a fetch that met a closed listener
  // would retry its refused connects for the retry policy's 30 s budget.
  std::mutex mu;
  std::condition_variable cv;
  bool stopping = false;
  int port = 0;
  Status fetched = Status::OK();
  StreamCoordinator::Options options;
  options.ml_launcher = [&](const std::string&) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_for(lock, std::chrono::seconds(10), [&] { return stopping; });
    }
    SqlStreamInputFormat format("localhost", port);
    fetched = format.GetSplits(ml::JobContext{}).status();
  };
  auto coordinator = StreamCoordinator::Start(std::move(options));
  ASSERT_TRUE(coordinator.ok()) << coordinator.status();
  port = (*coordinator)->port();
  RegisterOneSqlWorker(port);
  const auto start = std::chrono::steady_clock::now();
  std::thread stopper([&] { (*coordinator)->Stop(); });
  const bool stopped = WaitUntilStopping(port);
  {
    std::lock_guard<std::mutex> lock(mu);
    stopping = true;
  }
  cv.notify_all();
  stopper.join();
  const auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_TRUE(stopped);
  EXPECT_LT(stop_ms, 2000);
  EXPECT_TRUE(fetched.IsCancelled()) << fetched;
}

TEST(CoordinatorTest, SplitsGroupedPerSqlWorker) {
  StreamCoordinator::Options options;
  options.splits_per_worker = 2;
  auto coordinator = StreamCoordinator::Start(std::move(options));
  ASSERT_TRUE(coordinator.ok());
  const int port = (*coordinator)->port();

  // Register two fake SQL workers.
  for (int w = 0; w < 2; ++w) {
    auto ack = RegisterSqlWorker(port, w, 2, 5000 + w);
    ASSERT_TRUE(ack.ok()) << ack.status();
  }
  // Fetch splits like an ML job would.
  auto reply = CallCoordinator("localhost", port, FrameType::kGetSplits, "",
                               FrameType::kSplits);
  ASSERT_TRUE(reply.ok()) << reply.status();
  auto splits = SplitsMessage::Decode(*reply);
  ASSERT_TRUE(splits.ok());
  ASSERT_EQ(splits->splits.size(), 4u);  // m = n*k = 2*2.
  // Grouped: splits 0,1 -> worker 0; splits 2,3 -> worker 1.
  EXPECT_EQ(splits->splits[0].sql_worker, 0);
  EXPECT_EQ(splits->splits[1].sql_worker, 0);
  EXPECT_EQ(splits->splits[2].sql_worker, 1);
  EXPECT_EQ(splits->splits[3].sql_worker, 1);
  // Locality: each split advertises its SQL worker's host.
  EXPECT_EQ(splits->splits[0].host, "node0");
  EXPECT_EQ(splits->splits[3].host, "node1");
  EXPECT_EQ((*coordinator)->registered_sql_workers(), 2);
  (*coordinator)->Stop();
}

TEST(CoordinatorTest, MatchmakingReturnsSqlEndpoint) {
  Counter* rematches =
      MetricsRegistry::Global().GetCounter("coordinator.rematch.count");
  const int64_t rematches_before = rematches->value();
  StreamCoordinator::Options options;
  auto coordinator = StreamCoordinator::Start(std::move(options));
  ASSERT_TRUE(coordinator.ok());
  RegisterOneSqlWorker((*coordinator)->port());
  auto match = Rematch((*coordinator)->port(), 0);
  ASSERT_TRUE(match.ok()) << match.status();
  EXPECT_EQ(match->host, "node0");
  EXPECT_EQ(match->port, 7777);
  EXPECT_EQ(rematches->value() - rematches_before, 1);
}

TEST(CoordinatorTest, CheckpointResumeServesMatchmaking) {
  // §6: the coordinator itself must be resilient (the paper suggests
  // ZooKeeper). Simulate a failover: checkpoint after SQL registration,
  // kill the coordinator, resume a replacement from the checkpoint, and
  // verify a reader can still be re-matched.
  std::string checkpoint;
  {
    StreamCoordinator::Options options;
    options.splits_per_worker = 2;
    auto coordinator = StreamCoordinator::Start(std::move(options));
    ASSERT_TRUE(coordinator.ok());
    auto ack = RegisterSqlWorker((*coordinator)->port(), 0, 1, 4242);
    ASSERT_TRUE(ack.ok()) << ack.status();
    checkpoint = (*coordinator)->Checkpoint();
    (*coordinator)->Stop();  // The "crash".
  }
  StreamCoordinator::Options options;
  options.splits_per_worker = 2;
  auto resumed = StreamCoordinator::Resume(std::move(options), checkpoint);
  ASSERT_TRUE(resumed.ok()) << resumed.status();

  // Splits survive the failover.
  auto reply = CallCoordinator("localhost", (*resumed)->port(),
                               FrameType::kGetSplits, "", FrameType::kSplits);
  ASSERT_TRUE(reply.ok()) << reply.status();
  auto splits = SplitsMessage::Decode(*reply);
  ASSERT_TRUE(splits.ok());
  EXPECT_EQ(splits->splits.size(), 2u);

  // Matchmaking works against the resumed coordinator.
  auto match = Rematch((*resumed)->port(), 1);
  ASSERT_TRUE(match.ok()) << match.status();
  EXPECT_EQ(match->port, 4242);
}

TEST(CoordinatorTest, BarrierTimesOutWithoutFullRegistration) {
  StreamCoordinator::Options options;
  options.barrier_timeout_ms = 200;
  auto coordinator = StreamCoordinator::Start(std::move(options));
  ASSERT_TRUE(coordinator.ok());
  // No SQL worker ever registers, so the splits barrier cannot complete;
  // a GetSplits request must fail after barrier_timeout_ms, not hang.
  auto reply = CallCoordinator("localhost", (*coordinator)->port(),
                               FrameType::kGetSplits, "", FrameType::kSplits);
  EXPECT_TRUE(reply.status().IsUnavailable()) << reply.status();
  EXPECT_NE(reply.status().message().find("timed out"), std::string::npos)
      << reply.status();
}

TEST(CoordinatorTest, ResumeRejectsCorruptCheckpoint) {
  StreamCoordinator::Options options;
  EXPECT_FALSE(StreamCoordinator::Resume(std::move(options), "garbage").ok());
}

TEST(CoordinatorTest, UnknownSplitRejected) {
  StreamCoordinator::Options options;
  options.barrier_timeout_ms = 500;
  auto coordinator = StreamCoordinator::Start(std::move(options));
  ASSERT_TRUE(coordinator.ok());
  auto ack = RegisterSqlWorker((*coordinator)->port(), 0, 1, 1);
  ASSERT_TRUE(ack.ok()) << ack.status();
  auto match = Rematch((*coordinator)->port(), 99);
  EXPECT_TRUE(match.status().IsInvalidArgument()) << match.status();
  // A frame that is no request is refused the same way.
  auto no_request = CallCoordinator("localhost", (*coordinator)->port(),
                                    FrameType::kAck, "", FrameType::kAck);
  EXPECT_TRUE(no_request.status().IsInvalidArgument()) << no_request.status();
}

/// Split ids are worker_id·k + j, so a registration must name a worker in
/// [0, num_workers): the coordinator refuses any other as InvalidArgument
/// and registers nothing.
TEST(CoordinatorTest, RegistrationOutsideTheWorkerRangeIsRefused) {
  StreamCoordinator::Options options;
  auto coordinator = StreamCoordinator::Start(std::move(options));
  ASSERT_TRUE(coordinator.ok());
  const int port = (*coordinator)->port();
  for (const auto& [worker_id, num_workers] :
       std::vector<std::pair<int, int>>{{0, 0}, {-1, 2}, {2, 2}}) {
    auto refused = RegisterSqlWorker(port, worker_id, num_workers, 7777);
    EXPECT_TRUE(refused.status().IsInvalidArgument())
        << worker_id << " of " << num_workers << ": " << refused.status();
  }
  EXPECT_EQ((*coordinator)->registered_sql_workers(), 0);
  auto registered = RegisterSqlWorker(port, 1, 2, 7777);
  EXPECT_TRUE(registered.ok()) << registered.status();
}

/// The drop failpoints close the connection with the request unanswered,
/// before its handler runs: the caller sees a transient NetworkError, and
/// its retry is answered.
TEST(CoordinatorTest, DropFailpointsLeaveTheRequestUnanswered) {
  StreamCoordinator::Options options;
  auto coordinator = StreamCoordinator::Start(std::move(options));
  ASSERT_TRUE(coordinator.ok());
  const int port = (*coordinator)->port();
  {
    ScopedFailpoint drop("coordinator.register_sql", "error(1)");
    auto dropped = RegisterSqlWorker(port, 0, 1, 7777);
    EXPECT_TRUE(dropped.status().IsNetworkError()) << dropped.status();
    EXPECT_EQ((*coordinator)->registered_sql_workers(), 0);
    auto retried = RegisterSqlWorker(port, 0, 1, 7777);
    EXPECT_TRUE(retried.ok()) << retried.status();
  }
  {
    ScopedFailpoint drop("coordinator.get_splits", "error(1)");
    auto fetch = [port] {
      return CallCoordinator("localhost", port, FrameType::kGetSplits, "",
                             FrameType::kSplits);
    };
    auto dropped = fetch();
    EXPECT_TRUE(dropped.status().IsNetworkError()) << dropped.status();
    auto retried = fetch();
    EXPECT_TRUE(retried.ok()) << retried.status();
  }
  {
    ScopedFailpoint drop("coordinator.match", "error(1)");
    auto dropped = Rematch(port, 0);
    EXPECT_TRUE(dropped.status().IsNetworkError()) << dropped.status();
    auto retried = Rematch(port, 0);
    EXPECT_TRUE(retried.ok()) << retried.status();
  }
}

/// A request header announcing more than kMaxRequestFrameBytes is answered
/// with InvalidArgument before any of its payload is read, and the
/// coordinator keeps serving. One that waited for the announced gigabyte
/// never answered.
TEST(CoordinatorTest, OversizedRequestHeaderIsRefusedPromptly) {
  StreamCoordinator::Options options;
  auto coordinator = StreamCoordinator::Start(std::move(options));
  ASSERT_TRUE(coordinator.ok());
  const int port = (*coordinator)->port();
  auto socket = TcpConnect("localhost", port);
  ASSERT_TRUE(socket.ok()) << socket.status();
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(header, FrameType::kRegisterSql, uint32_t{1} << 30,
                    /*seq=*/0, /*channel=*/0, TraceContext{});
  const auto start = std::chrono::steady_clock::now();
  // Fail, rather than hang, if no answer comes.
  socket->SetRecvDeadline(start + std::chrono::seconds(5));
  ASSERT_TRUE(socket->SendAll(std::string_view(header, sizeof(header))).ok());
  auto reply = RecvFrame(&*socket);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  ASSERT_EQ(reply->type, FrameType::kError);
  const Status status = DecodeStatusPayload(reply->payload);
  EXPECT_TRUE(status.IsInvalidArgument()) << status;

  auto registered = RegisterSqlWorker(port, 0, 1, 7777);
  EXPECT_TRUE(registered.ok()) << registered.status();
  EXPECT_EQ((*coordinator)->registered_sql_workers(), 1);
}

/// Lines of /proc/self/maps: one per memory mapping of this process.
size_t CountMappings() {
  std::ifstream maps("/proc/self/maps");
  size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

/// The coordinator joins a finished handler thread when the next
/// connection arrives. One that kept them until Stop() left each one-shot
/// call's thread stack mapped (2 mappings per call); the sink's split-status
/// poll makes one call per backoff slice while it waits for a reconnect.
TEST(CoordinatorTest, SequentialCallsDoNotAccumulateHandlerStacks) {
  StreamCoordinator::Options options;
  auto coordinator = StreamCoordinator::Start(std::move(options));
  ASSERT_TRUE(coordinator.ok());
  std::string split_zero;
  PutVarint64(&split_zero, 0);
  const auto call = [&](int count) {
    for (int i = 0; i < count; ++i) {
      auto reply = CallCoordinator("localhost", (*coordinator)->port(),
                                   FrameType::kSplitStatus, split_zero,
                                   FrameType::kAck);
      ASSERT_TRUE(reply.ok()) << reply.status();
    }
  };
  // Warm up the allocator's arenas and stack cache, and under TSan its
  // registry of finished threads, which grows for about 100 threads.
  call(100);
  const size_t before = CountMappings();
  call(200);
  const size_t after = CountMappings();
  EXPECT_LE(after, before + 32) << before << " -> " << after << " mappings";
}

/// A registration the coordinator refuses ends the sink's retries at once
/// with the refusal's typed status. Read as a transport error, it was
/// retried until the 30 s reconnect timeout.
TEST_F(StreamingTransferTest, RefusedRegistrationFailsTheSinksAtOnce) {
  StreamCoordinator::Options options;
  auto coordinator = StreamCoordinator::Start(std::move(options));
  ASSERT_TRUE(coordinator.ok());
  // A worker of a 2-worker transfer registers first, so the engine's four
  // sinks each register with an inconsistent worker count.
  auto ack = RegisterSqlWorker((*coordinator)->port(), 1, 2, 1);
  ASSERT_TRUE(ack.ok()) << ack.status();
  ASSERT_TRUE(RegisterStreamSinkUdf(engine_.get()).ok());
  const std::string sql = StreamingTransfer::BuildSinkSql(
      "SELECT * FROM points", (*coordinator)->host(), (*coordinator)->port(),
      "test", StreamSinkOptions{});
  const auto start = std::chrono::steady_clock::now();
  auto result = engine_->ExecuteSql(sql);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status();
  EXPECT_LT(elapsed_ms, 5000);
}

/// The ML side gives up on a split it cannot recover and aborts the
/// transfer; the split's sink, waiting for a reconnect, learns of the abort
/// from its split-status poll and ends at once. Before, the sink waited out
/// its 30 s reconnect timeout and reported only "timed out waiting for ML
/// worker".
TEST_F(StreamingTransferTest, ResilientTransferEndsWhenTheReaderGivesUp) {
  StreamTransferOptions options;
  options.heartbeat_ms = 0;
  options.reader.max_reconnects = 0;
  ScopedFailpoint fault("stream.reader.row.split0", "after(9):error(1)");
  ASSERT_TRUE(fault.status().ok()) << fault.status();
  const auto start = std::chrono::steady_clock::now();
  auto result =
      StreamingTransfer::Run(engine_.get(), "SELECT * FROM points", options);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("injected connection failure"),
            std::string::npos)
      << result.status();
  EXPECT_LT(elapsed_ms, 5000);
}

/// No reader ever connects. Each sender knows its split (worker_id·k + j)
/// from registration, so it polls the split's status from its first wait
/// and ends with the runner's abort. Before, a sender polled only once a
/// reader's HELLO named its split: it waited out its 30 s reconnect timeout
/// and failed with "timed out waiting for ML worker".
TEST_F(StreamingTransferTest, ReadersThatNeverConnectAbortTheTransfer) {
  StreamTransferOptions options;
  options.heartbeat_ms = 0;
  ScopedFailpoint fault("stream.reader.connect", "error");
  ASSERT_TRUE(fault.status().ok()) << fault.status();
  const auto start = std::chrono::steady_clock::now();
  auto result =
      StreamingTransfer::Run(engine_.get(), "SELECT * FROM points", options);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsAborted()) << result.status();
  EXPECT_NE(result.status().message().find("unrecovered"), std::string::npos)
      << result.status();
  EXPECT_GT(fault.fires(), 0);
  EXPECT_LT(elapsed_ms, 5000);
}

}  // namespace
}  // namespace sqlink
