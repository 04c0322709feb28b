// Unit tests for the multiplexed transfer fabric (src/net): channel
// framing and FIFO isolation on a shared connection, per-channel credit
// flow control (a starved channel parks alone), close/failure semantics
// (channel close never touches the shared socket; connection death fails
// every channel), the reader-side connection pool bound, sink-key routing
// on the process-wide sink server, the writer's send-latency histogram, and
// the shared heartbeat bus.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "net/conn_pool.h"
#include "net/mux.h"
#include "stream/heartbeat.h"
#include "stream/socket.h"
#include "stream/wire.h"

namespace sqlink {
namespace {

/// Channels handed to the server side's open handler, in arrival order.
struct OpenedChannels {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::shared_ptr<MuxChannel>> channels;
  std::vector<OpenChannelMessage> opens;

  void Add(std::shared_ptr<MuxChannel> channel,
           const OpenChannelMessage& msg) {
    std::lock_guard<std::mutex> lock(mu);
    channels.push_back(std::move(channel));
    opens.push_back(msg);
    cv.notify_all();
  }

  std::shared_ptr<MuxChannel> Wait(size_t index) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return channels.size() > index; });
    return channels[index];
  }
};

/// One client↔server mux connection pair over loopback. The server's open
/// handler holds `opened` weakly: the channels it collects hold the server
/// connection, so a strong capture would make a cycle that outlives the
/// pair.
struct MuxPair {
  std::shared_ptr<OpenedChannels> opened = std::make_shared<OpenedChannels>();
  std::shared_ptr<MuxConn> client;
  std::shared_ptr<MuxConn> server;

  static MuxPair Make() {
    MuxPair pair;
    auto listener = TcpListener::Listen(0);
    EXPECT_TRUE(listener.ok()) << listener.status();
    auto dialed = TcpConnect("localhost", listener->port());
    EXPECT_TRUE(dialed.ok()) << dialed.status();
    auto accepted = listener->Accept();
    EXPECT_TRUE(accepted.ok()) << accepted.status();
    std::weak_ptr<OpenedChannels> weak_opened = pair.opened;
    pair.server = MuxConn::Spawn(
        std::move(*accepted),
        [weak_opened](std::shared_ptr<MuxChannel> channel,
                      const OpenChannelMessage& msg) {
          if (auto opened = weak_opened.lock()) {
            opened->Add(std::move(channel), msg);
          }
        });
    pair.client = MuxConn::Spawn(std::move(*dialed), /*on_open=*/nullptr);
    return pair;
  }

  ~MuxPair() {
    if (client != nullptr) client->Shutdown(Status::Cancelled("test done"));
    if (server != nullptr) server->Shutdown(Status::Cancelled("test done"));
  }
};

OpenChannelMessage OpenMsg(uint64_t window_bytes) {
  OpenChannelMessage msg;
  msg.sink_key = 7;
  msg.window_bytes = window_bytes;
  msg.hello.split_id = 1;
  return msg;
}

TEST(MuxTest, InterleavedChannelsKeepPerChannelFifoOrder) {
  MuxPair pair = MuxPair::Make();
  constexpr int kChannels = 3;
  constexpr int kFrames = 20;

  std::vector<std::shared_ptr<MuxChannel>> senders;
  for (int c = 0; c < kChannels; ++c) {
    auto channel = pair.client->OpenChannel(OpenMsg(1 << 20));
    ASSERT_TRUE(channel.ok()) << channel.status();
    senders.push_back(*channel);
  }

  // All channels send concurrently: their frames interleave arbitrarily on
  // the shared socket, but each channel's stream must stay FIFO and never
  // leak into a sibling's inbox.
  std::vector<std::thread> threads;
  for (int c = 0; c < kChannels; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < kFrames; ++i) {
        const std::string payload =
            "ch" + std::to_string(c) + ":" + std::to_string(i);
        ASSERT_TRUE(senders[c]
                        ->Send(FrameType::kData, payload,
                               static_cast<uint64_t>(i + 1))
                        .ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int c = 0; c < kChannels; ++c) {
    std::shared_ptr<MuxChannel> receiver =
        pair.opened->Wait(static_cast<size_t>(c));
    // Channel c's open message carried the embedded HELLO.
    EXPECT_EQ(pair.opened->opens[static_cast<size_t>(c)].hello.split_id, 1);
    // Identify which client channel this is by its first frame's payload.
    Frame frame;
    ASSERT_TRUE(receiver->Recv(&frame).ok());
    ASSERT_EQ(frame.type, FrameType::kData);
    ASSERT_EQ(frame.payload.substr(0, 2), "ch");
    const std::string prefix = frame.payload.substr(0, frame.payload.find(':'));
    EXPECT_EQ(frame.seq, 1u);
    for (int i = 1; i < kFrames; ++i) {
      ASSERT_TRUE(receiver->Recv(&frame).ok());
      EXPECT_EQ(frame.payload, prefix + ":" + std::to_string(i));
      EXPECT_EQ(frame.seq, static_cast<uint64_t>(i + 1));
    }
  }
}

TEST(MuxTest, WriterRecordsSendFrameMicros) {
  // The mux carries every data frame, so its coalescing writer must feed
  // the same send-latency histogram as SendFrame does for control frames.
  Histogram* send_micros =
      MetricsRegistry::Global().GetHistogram("stream.wire.send_frame_micros");
  MuxPair pair = MuxPair::Make();
  auto channel = pair.client->OpenChannel(OpenMsg(1 << 20));
  ASSERT_TRUE(channel.ok()) << channel.status();
  std::shared_ptr<MuxChannel> receiver = pair.opened->Wait(0);

  const int64_t before = send_micros->count();
  Frame frame;
  for (int i = 0; i < 5; ++i) {
    // Each Send returns once its frame is on the wire, so one sender's
    // frames never share a writev: five sends, at least five records.
    ASSERT_TRUE((*channel)
                    ->Send(FrameType::kData, "rows",
                           static_cast<uint64_t>(i + 1))
                    .ok());
    ASSERT_TRUE(receiver->Recv(&frame).ok());
  }
  EXPECT_GE(send_micros->count() - before, 5);
}

TEST(MuxTest, WindowExhaustionParksOnlyTheStarvedChannel) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const int64_t stalls_before = metrics.Get("net.mux.window_stalls");
  MuxPair pair = MuxPair::Make();
  const std::string payload(32, 'x');

  // Channel A gets a 64-byte window and a server that never reads: the
  // third data frame must park the sender.
  auto starved = pair.client->OpenChannel(OpenMsg(64));
  ASSERT_TRUE(starved.ok());
  // Channel B shares the socket but has a reader, so it must keep flowing
  // while A is parked.
  auto flowing = pair.client->OpenChannel(OpenMsg(64));
  ASSERT_TRUE(flowing.ok());
  std::shared_ptr<MuxChannel> starved_rx = pair.opened->Wait(0);
  std::shared_ptr<MuxChannel> flowing_rx = pair.opened->Wait(1);

  std::atomic<int> starved_sent{0};
  std::thread starved_sender([&] {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*starved)
                      ->Send(FrameType::kData, payload,
                             static_cast<uint64_t>(i + 1))
                      .ok());
      starved_sent.fetch_add(1);
    }
  });
  // The sender counts its stall just before parking. Wait for it so B's
  // round trips below provably run while A is stuck, however late the
  // scheduler starts A's thread.
  for (int i = 0;
       i < 5000 && metrics.Get("net.mux.window_stalls") == stalls_before;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // B makes 20 full round trips on the shared connection while A is stuck.
  Frame frame;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*flowing)
                    ->Send(FrameType::kData, payload,
                           static_cast<uint64_t>(i + 1))
                    .ok());
    ASSERT_TRUE(flowing_rx->Recv(&frame).ok());
    EXPECT_EQ(frame.seq, static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(starved_sent.load(), 2);  // Third frame is parked on credit.
  EXPECT_GT(metrics.Get("net.mux.window_stalls"), stalls_before);

  // Draining A's inbox replenishes its window (kChannelWindow) and releases
  // the parked sender.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(starved_rx->Recv(&frame).ok());
    EXPECT_EQ(frame.seq, static_cast<uint64_t>(i + 1));
  }
  starved_sender.join();
  EXPECT_EQ(starved_sent.load(), 3);
}

TEST(MuxTest, ShutdownWakesAParkedSenderWithoutTouchingTheSocket) {
  MuxPair pair = MuxPair::Make();
  auto starved = pair.client->OpenChannel(OpenMsg(16));
  ASSERT_TRUE(starved.ok());
  auto healthy = pair.client->OpenChannel(OpenMsg(1 << 20));
  ASSERT_TRUE(healthy.ok());
  std::shared_ptr<MuxChannel> healthy_rx = pair.opened->Wait(1);

  const std::string payload(32, 'x');
  ASSERT_TRUE((*starved)->Send(FrameType::kData, payload, 1).ok());
  std::atomic<bool> woke{false};
  Status parked_status;
  std::thread parked([&] {
    parked_status = (*starved)->Send(FrameType::kData, payload, 2);
    woke.store(true);
  });
  // Replay-abort while the sender is parked on an empty window (the serving
  // layer's cancel path): the channel must wake with the abort status.
  while (!woke.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    (*starved)->Shutdown(Status::Aborted("transfer aborted"));
  }
  parked.join();
  ASSERT_FALSE(parked_status.ok());
  EXPECT_TRUE(parked_status.IsAborted()) << parked_status;

  // The shared socket survived the channel close: its socket-mate still
  // makes full round trips.
  Frame frame;
  ASSERT_TRUE((*healthy)->Send(FrameType::kData, "still alive", 1).ok());
  ASSERT_TRUE(healthy_rx->Recv(&frame).ok());
  EXPECT_EQ(frame.payload, "still alive");
  EXPECT_FALSE(pair.client->dead());
  EXPECT_FALSE(pair.server->dead());
}

TEST(MuxTest, RemoteCloseSurfacesStatusToPeerSendAndRecv) {
  MuxPair pair = MuxPair::Make();
  auto channel = pair.client->OpenChannel(OpenMsg(1 << 20));
  ASSERT_TRUE(channel.ok());
  std::shared_ptr<MuxChannel> server_side = pair.opened->Wait(0);

  server_side->Shutdown(Status::Unavailable("sink not serving"));
  // The close races the open in the demux pipeline; both Send and Recv must
  // eventually report the peer's reason.
  Frame frame;
  Status status = (*channel)->Recv(&frame);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsUnavailable()) << status;
  status = (*channel)->Send(FrameType::kData, "late", 1);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsUnavailable()) << status;
}

TEST(MuxTest, UnknownInnerFrameTypeShutsOnlyItsChannel) {
  MuxPair pair = MuxPair::Make();
  auto bad = pair.client->OpenChannel(OpenMsg(1 << 20));
  auto good = pair.client->OpenChannel(OpenMsg(1 << 20));
  ASSERT_TRUE(bad.ok());
  ASSERT_TRUE(good.ok());
  std::shared_ptr<MuxChannel> bad_rx = pair.opened->Wait(0);
  std::shared_ptr<MuxChannel> good_rx = pair.opened->Wait(1);

  // kSubmitQuery is a valid frame type, but not one a channel may carry.
  ASSERT_TRUE((*bad)->Send(FrameType::kData, "before", 1).ok());
  ASSERT_TRUE((*bad)->Send(FrameType::kSubmitQuery, "stray", 0).ok());
  ASSERT_TRUE((*good)->Send(FrameType::kData, "one", 1).ok());
  ASSERT_TRUE((*good)->Send(FrameType::kEnd, "", 1).ok());

  Frame frame;
  ASSERT_TRUE(bad_rx->Recv(&frame).ok());
  EXPECT_EQ(frame.payload, "before");
  Status status = bad_rx->Recv(&frame);
  ASSERT_TRUE(status.IsDataLoss()) << status;
  // The sender learns why its channel closed.
  status = (*bad)->Recv(&frame);
  EXPECT_TRUE(status.IsDataLoss()) << status;

  // The socket-mate completes on the same connection.
  ASSERT_TRUE(good_rx->Recv(&frame).ok());
  EXPECT_EQ(frame.payload, "one");
  ASSERT_TRUE(good_rx->Recv(&frame).ok());
  EXPECT_EQ(frame.type, FrameType::kEnd);
  EXPECT_FALSE(pair.client->dead());
  EXPECT_FALSE(pair.server->dead());
}

TEST(MuxTest, ConnectionDeathFailsEveryChannel) {
  MuxPair pair = MuxPair::Make();
  auto a = pair.client->OpenChannel(OpenMsg(1 << 20));
  auto b = pair.client->OpenChannel(OpenMsg(1 << 20));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  (void)pair.opened->Wait(1);

  pair.server->Shutdown(Status::NetworkError("chaos: connection killed"));
  Frame frame;
  EXPECT_FALSE((*a)->Recv(&frame).ok());
  EXPECT_FALSE((*b)->Recv(&frame).ok());
  // The client side notices the dead socket and fails too.
  for (int i = 0; i < 1000 && !pair.client->dead(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(pair.client->dead());
}

TEST(MuxTest, SinkServerRoutesBySinkKeyAndRejectsUnknownKeys) {
  auto port = MuxSinkServer::Global().EnsureStarted();
  ASSERT_TRUE(port.ok()) << port.status();
  auto opened = std::make_shared<OpenedChannels>();
  const uint64_t key = MuxSinkServer::Global().Register(
      [opened](std::shared_ptr<MuxChannel> channel,
               const OpenChannelMessage& msg) {
        opened->Add(std::move(channel), msg);
      });
  ASSERT_NE(key, 0u);

  HelloMessage hello;
  hello.split_id = 3;
  auto routed = MuxConnPool::Global().OpenChannel("localhost", *port, key,
                                                  /*affinity=*/3, hello);
  ASSERT_TRUE(routed.ok()) << routed.status();
  std::shared_ptr<MuxChannel> sink_side = opened->Wait(0);
  EXPECT_EQ(opened->opens[0].hello.split_id, 3);
  ASSERT_TRUE(sink_side->Send(FrameType::kResume, "", 0).ok());
  Frame frame;
  ASSERT_TRUE((*routed)->Recv(&frame).ok());
  EXPECT_EQ(frame.type, FrameType::kResume);

  // A key nobody registered is rejected per-channel with a retryable
  // status; the shared connection stays up.
  auto rejected = MuxConnPool::Global().OpenChannel(
      "localhost", *port, key + 999, /*affinity=*/3, hello);
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  Status status = (*rejected)->Recv(&frame);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsUnavailable()) << status;
  ASSERT_TRUE(sink_side->Send(FrameType::kData, "alive", 1).ok());
  ASSERT_TRUE((*routed)->Recv(&frame).ok());
  EXPECT_EQ(frame.payload, "alive");

  MuxSinkServer::Global().Unregister(key);
  MuxConnPool::Global().ResetForTest();
}

TEST(MuxTest, PoolCapsSharedConnectionsPerPeer) {
  SetMuxConnsPerPeerForTest(2);
  MuxConnPool::Global().ResetForTest();
  auto port = MuxSinkServer::Global().EnsureStarted();
  ASSERT_TRUE(port.ok()) << port.status();
  auto opened = std::make_shared<OpenedChannels>();
  const uint64_t key = MuxSinkServer::Global().Register(
      [opened](std::shared_ptr<MuxChannel> channel,
               const OpenChannelMessage& msg) {
        opened->Add(std::move(channel), msg);
      });

  MetricsRegistry& metrics = MetricsRegistry::Global();
  const int64_t dials_before = metrics.Get("stream.reader.data_dials");
  std::vector<std::shared_ptr<MuxChannel>> channels;
  for (uint64_t affinity = 0; affinity < 16; ++affinity) {
    HelloMessage hello;
    hello.split_id = static_cast<int>(affinity);
    auto channel = MuxConnPool::Global().OpenChannel("localhost", *port, key,
                                                     affinity, hello);
    ASSERT_TRUE(channel.ok()) << channel.status();
    channels.push_back(*channel);
  }
  // 16 logical streams, at most 2 sockets: that is the whole point.
  EXPECT_LE(metrics.Get("stream.reader.data_dials") - dials_before, 2);

  // Same affinity lands on the same connection, so a reconnecting reader
  // re-multiplexes instead of dialing.
  HelloMessage hello;
  auto again = MuxConnPool::Global().OpenChannel("localhost", *port, key,
                                                 /*affinity=*/5, hello);
  ASSERT_TRUE(again.ok());
  EXPECT_LE(metrics.Get("stream.reader.data_dials") - dials_before, 2);

  channels.clear();
  MuxSinkServer::Global().Unregister(key);
  MuxConnPool::Global().ResetForTest();
  SetMuxConnsPerPeerForTest(0);
}

TEST(MuxTest, HeartbeatBusSharesOneConnectionPerPeer) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const int64_t before = metrics.GetGauge("stream.heartbeat.conns")->value();
  auto first = HeartbeatBus::Global().Acquire("localhost", 19876);
  auto second = HeartbeatBus::Global().Acquire("localhost", 19876);
  // Same peer → same shared connection, counted once.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(metrics.GetGauge("stream.heartbeat.conns")->value(), before + 1);
  auto other = HeartbeatBus::Global().Acquire("localhost", 19877);
  EXPECT_NE(first.get(), other.get());
  EXPECT_EQ(metrics.GetGauge("stream.heartbeat.conns")->value(), before + 2);
  first.reset();
  second.reset();
  other.reset();
  // Last holder dropped the connection.
  EXPECT_EQ(metrics.GetGauge("stream.heartbeat.conns")->value(), before);
}

}  // namespace
}  // namespace sqlink
