// Unit tests for the multiplexed transfer fabric (src/net): channel
// framing and FIFO isolation on a shared connection, the reader's ack
// window as the sink's sender keeps it (a starved sender parks alone, an
// abort wakes it, a window below one frame still moves, a reconnect
// resumes past frames whose acks were lost), close/failure semantics
// (channel close never touches the shared socket; connection death fails
// every channel), the reader-side connection pool bound, sink-key routing
// on the process-wide sink server, the writer's send-latency histogram, and
// the shared heartbeat bus.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/cancellation.h"
#include "common/fs_util.h"
#include "common/metrics.h"
#include "common/status_macros.h"
#include "net/conn_pool.h"
#include "net/mux.h"
#include "sql/engine.h"
#include "stream/coordinator.h"
#include "stream/heartbeat.h"
#include "stream/socket.h"
#include "stream/streaming_transfer.h"
#include "stream/wire.h"
#include "table/row_codec.h"

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

/// The next frame on `channel`; a peer's close status once it closed, or
/// Unavailable after 10 s, so a sender that deadlocked fails the test
/// instead of hanging it.
Status RecvWithin(MuxChannel* channel, Frame* frame) {
  for (int ms = 0; ms < 10000; ++ms) {
    bool closed = false;
    ASSIGN_OR_RETURN(bool got, channel->TryRecv(frame, &closed));
    if (got) return Status::OK();
    if (closed) return channel->Recv(frame);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::Unavailable("no frame within 10 s");
}

uint64_t RowsIn(const Frame& frame) {
  auto rows = RowCodec::DecodeRows(frame.payload);
  EXPECT_TRUE(rows.ok()) << rows.status();
  return rows.ok() ? rows->size() : 0;
}

bool WaitFor(const std::function<bool()>& done) {
  for (int ms = 0; ms < 10000 && !done(); ++ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

/// One SQL worker running the real sql_stream_sink over `rows` rows into
/// `splits` targets, whose readers the test plays itself: it dials the
/// process-wide sink listener once, opens every channel on that one shared
/// connection with the window it picks, and acks when it chooses. The
/// coordinator launches no ML job. Destruction cancels the query, which
/// unwinds a sender a failed test left parked.
class SinkWithTestReaders {
 public:
  void Start(int splits, int64_t rows, StreamSinkOptions options = {}) {
    auto cluster = Cluster::Make(1, temp_.path());
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    engine_ = SqlEngine::Make(*cluster);
    auto table =
        engine_->MakeTable("points", Schema::Make({{"id", DataType::kInt64}}));
    for (int64_t i = 0; i < rows; ++i) {
      ASSERT_TRUE(table->AppendRow(0, Row{Value::Int64(i)}).ok());
    }
    ASSERT_TRUE(engine_->catalog()->RegisterTable(table).ok());
    ASSERT_TRUE(RegisterStreamSinkUdf(engine_.get()).ok());

    StreamCoordinator::Options coordinator_options;
    coordinator_options.splits_per_worker = splits;
    coordinator_options.ml_launcher = [](const std::string&) {};
    auto coordinator = StreamCoordinator::Start(std::move(coordinator_options));
    ASSERT_TRUE(coordinator.ok()) << coordinator.status();
    coordinator_ = std::move(*coordinator);

    options.send_buffer_bytes = 256;  // Many small frames per split.
    const std::string sql = StreamingTransfer::BuildSinkSql(
        "SELECT * FROM points", coordinator_->host(), coordinator_->port(),
        "test", options);
    QueryOptions query;
    query.cancellation = &cancel_;
    query_ = std::async(std::launch::async, [this, sql, query] {
      return engine_->ExecuteSql(sql, "summary", query).status();
    });

    // The split fetch waits for the worker's registration.
    auto reply = CallCoordinator(coordinator_->host(), coordinator_->port(),
                                 FrameType::kGetSplits, "", FrameType::kSplits);
    ASSERT_TRUE(reply.ok()) << reply.status();
    auto decoded = SplitsMessage::Decode(*reply);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    splits_ = decoded->splits;
    auto socket = TcpConnect("localhost", splits_[0].port);
    ASSERT_TRUE(socket.ok()) << socket.status();
    conn_ = MuxConn::Spawn(std::move(*socket), /*on_open=*/nullptr);
  }

  ~SinkWithTestReaders() {
    if (query_.valid()) {
      cancel_.Cancel(Status::Cancelled("test over"));
      query_.wait();
    }
    if (conn_ != nullptr) conn_->Shutdown(Status::Cancelled("test done"));
    if (coordinator_ != nullptr) coordinator_->Stop();
  }

  /// Opens split `split`'s channel with `window` and reads the handshake;
  /// `*resumed` receives the sink's resume point.
  std::shared_ptr<MuxChannel> Open(int split, uint64_t window,
                                   int64_t resume_seq = -1,
                                   uint64_t* resumed = nullptr) {
    OpenChannelMessage msg;
    msg.sink_key = splits_[static_cast<size_t>(split)].sink_key;
    msg.window_bytes = window;
    msg.hello.split_id = splits_[static_cast<size_t>(split)].split_id;
    msg.hello.resume_seq = resume_seq;
    auto channel = conn_->OpenChannel(msg);
    EXPECT_TRUE(channel.ok()) << channel.status();
    if (!channel.ok()) return nullptr;
    Frame frame;
    EXPECT_TRUE(RecvWithin(channel->get(), &frame).ok());
    EXPECT_EQ(frame.type, FrameType::kResume);
    auto resume = ResumeMessage::Decode(frame.payload);
    EXPECT_TRUE(resume.ok()) << resume.status();
    if (resumed != nullptr && resume.ok()) *resumed = resume->resume_seq;
    return *channel;
  }

  /// Reads data frames without acking until they fill `window` bytes —
  /// what a sender keeping that window sends before it parks — then waits
  /// for the sender to count the stall. Returns the last frame's seq.
  uint64_t ReadFullWindow(MuxChannel* channel, uint64_t window,
                          int64_t stalls_before, uint64_t* rows) {
    uint64_t bytes = 0, seq = 0;
    Frame frame;
    while (bytes < window || bytes == 0) {
      const Status status = RecvWithin(channel, &frame);
      EXPECT_TRUE(status.ok()) << status;
      EXPECT_EQ(frame.type, FrameType::kData);
      if (!status.ok() || frame.type != FrameType::kData) return seq;
      bytes += frame.payload.size();
      *rows += RowsIn(frame);
      seq = frame.seq;
    }
    EXPECT_TRUE(WaitFor([&] {
      return MetricsRegistry::Global().Get("net.mux.window_stalls") >
             stalls_before;
    })) << "the sender never parked on its full window";
    return seq;
  }

  /// Reads the rest of a channel's stream as a reader does, acking each
  /// data frame once its rows are counted, and confirms the end. With
  /// `one_in_flight`, fails if a data frame arrives before the previous
  /// one was acked. Returns the rows received.
  uint64_t DrainAndAck(MuxChannel* channel, bool one_in_flight = false) {
    uint64_t rows = 0;
    Frame frame;
    Frame next;
    bool have_next = false;
    for (;;) {
      if (have_next) {
        frame = std::move(next);
        have_next = false;
      } else if (const Status status = RecvWithin(channel, &frame);
                 !status.ok()) {
        ADD_FAILURE() << "stream stopped: " << status;
        return rows;
      }
      if (frame.type == FrameType::kEnd) {
        EXPECT_TRUE(channel->Send(FrameType::kAck, "", 0).ok());
        return rows;
      }
      EXPECT_EQ(frame.type, FrameType::kData);
      rows += RowsIn(frame);
      if (one_in_flight) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        bool closed = false;
        auto got = channel->TryRecv(&next, &closed);
        have_next = got.ok() && *got;
        EXPECT_FALSE(have_next && next.type == FrameType::kData)
            << "frame " << next.seq << " sent before frame " << frame.seq
            << " was acked";
      }
      EXPECT_TRUE(channel->Send(FrameType::kDataAck, "", frame.seq).ok());
    }
  }

  /// The query's status, once it ends; Unavailable after 10 s.
  Status Finish() {
    if (query_.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
      return Status::Unavailable("the sink query did not end within 10 s");
    }
    return query_.get();
  }

  Cancellation& cancel() { return cancel_; }
  MuxConn* conn() { return conn_.get(); }
  const std::vector<StreamSplitInfo>& splits() const { return splits_; }

 private:
  ScopedTempDir temp_{"mux_sink_window"};
  SqlEnginePtr engine_;
  std::unique_ptr<StreamCoordinator> coordinator_;
  Cancellation cancel_;
  std::future<Status> query_;
  std::vector<StreamSplitInfo> splits_;
  std::shared_ptr<MuxConn> conn_;
};

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
  const int64_t stalls_before =
      MetricsRegistry::Global().Get("net.mux.window_stalls");
  SinkWithTestReaders sink;
  ASSERT_NO_FATAL_FAILURE(sink.Start(/*splits=*/2, /*rows=*/2000));
  // Split 0's reader advertises a 512-byte window and stops acking. Split
  // 1's rides the same connection with a window it never fills.
  auto starved = sink.Open(0, 512);
  auto flowing = sink.Open(1, 1 << 20);
  ASSERT_TRUE(starved != nullptr && flowing != nullptr);
  uint64_t starved_rows = 0;
  const uint64_t last_seq =
      sink.ReadFullWindow(starved.get(), 512, stalls_before, &starved_rows);
  // An ack that frees nothing wakes the sender into the same park, which
  // still counts as one stall.
  ASSERT_TRUE(starved->Send(FrameType::kDataAck, "", 0).ok());

  // The socket-mate streams its whole split while the starved sender
  // stays parked: nothing past the window reaches the starved reader.
  EXPECT_EQ(sink.DrainAndAck(flowing.get()), 1000u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Frame frame;
  bool closed = false;
  auto got = starved->TryRecv(&frame, &closed);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_FALSE(*got) << "frame " << frame.seq << " sent past a full window";
  EXPECT_EQ(MetricsRegistry::Global().Get("net.mux.window_stalls"),
            stalls_before + 1);

  // The ack releases the parked sender, and its split completes too.
  ASSERT_TRUE(starved->Send(FrameType::kDataAck, "", last_seq).ok());
  EXPECT_EQ(starved_rows + sink.DrainAndAck(starved.get()), 1000u);
  const Status status = sink.Finish();
  EXPECT_TRUE(status.ok()) << status;
}

TEST(MuxTest, ShutdownWakesAParkedSenderWithoutTouchingTheSocket) {
  const int64_t stalls_before =
      MetricsRegistry::Global().Get("net.mux.window_stalls");
  SinkWithTestReaders sink;
  ASSERT_NO_FATAL_FAILURE(sink.Start(/*splits=*/1, /*rows=*/2000));
  auto starved = sink.Open(0, 512);
  ASSERT_TRUE(starved != nullptr);
  uint64_t rows = 0;
  (void)sink.ReadFullWindow(starved.get(), 512, stalls_before, &rows);

  // Cancel the query while its sender is parked on the full window (the
  // serving layer's cancel path). The sink's unwind shuts the channel
  // down, which wakes the sender with the abort status; the query ends.
  sink.cancel().Cancel(Status::Cancelled("client went away"));
  const Status status = sink.Finish();
  EXPECT_TRUE(status.IsCancelled()) << status;
  Frame frame;
  const Status closed = RecvWithin(starved.get(), &frame);
  EXPECT_TRUE(closed.IsCancelled()) << closed;

  // The shared socket survived the channel close: a new channel on it
  // still makes a round trip.
  EXPECT_FALSE(sink.conn()->dead());
  auto opened = std::make_shared<OpenedChannels>();
  const uint64_t key = MuxSinkServer::Global().Register(
      [opened](std::shared_ptr<MuxChannel> channel,
               const OpenChannelMessage& msg) {
        opened->Add(std::move(channel), msg);
      });
  OpenChannelMessage msg = OpenMsg(1 << 20);
  msg.sink_key = key;
  auto mate = sink.conn()->OpenChannel(msg);
  ASSERT_TRUE(mate.ok()) << mate.status();
  ASSERT_TRUE(opened->Wait(0)->Send(FrameType::kData, "still alive", 1).ok());
  ASSERT_TRUE(RecvWithin(mate->get(), &frame).ok());
  EXPECT_EQ(frame.payload, "still alive");
  EXPECT_FALSE(sink.conn()->dead());
  MuxSinkServer::Global().Unregister(key);
}

TEST(MuxTest, WindowSmallerThanAFrameStillCompletesATransfer) {
  SinkWithTestReaders sink;
  ASSERT_NO_FATAL_FAILURE(sink.Start(/*splits=*/2, /*rows=*/400));
  // With nothing in flight a frame goes whatever its size, so a window of
  // 0, or of one byte, moves the stream one acked frame at a time.
  auto zero = sink.Open(0, 0);
  auto tiny = sink.Open(1, 1);
  ASSERT_TRUE(zero != nullptr && tiny != nullptr);
  EXPECT_EQ(sink.DrainAndAck(zero.get(), /*one_in_flight=*/true), 200u);
  EXPECT_EQ(sink.DrainAndAck(tiny.get(), /*one_in_flight=*/true), 200u);
  const Status status = sink.Finish();
  EXPECT_TRUE(status.ok()) << status;
}

TEST(MuxTest, ReconnectResumesPastAppliedFramesWhoseAcksWereLost) {
  const int64_t stalls_before =
      MetricsRegistry::Global().Get("net.mux.window_stalls");
  StreamSinkOptions options;
  options.reconnect_timeout_ms = 10000;
  SinkWithTestReaders sink;
  ASSERT_NO_FATAL_FAILURE(sink.Start(/*splits=*/1, /*rows=*/2000, options));
  // The first connection's reader applies a full window of frames, and
  // the connection dies before any of its acks reach the sink.
  auto first = sink.Open(0, 512);
  ASSERT_TRUE(first != nullptr);
  uint64_t rows = 0;
  const uint64_t applied =
      sink.ReadFullWindow(first.get(), 512, stalls_before, &rows);
  ASSERT_GT(applied, 0u);
  first->Shutdown(Status::NetworkError("connection lost"));

  // The reconnect resumes after the frames it applied. They stay in the
  // sink's log, unacked, but the new connection never sent them: counted
  // against its window, they would park the sender on an ack the reader
  // owes only for a frame it has not received.
  uint64_t resumed = 0;
  auto second = sink.Open(0, 512, static_cast<int64_t>(applied), &resumed);
  ASSERT_TRUE(second != nullptr);
  EXPECT_EQ(resumed, applied);
  EXPECT_EQ(rows + sink.DrainAndAck(second.get()), 2000u);
  const Status status = sink.Finish();
  EXPECT_TRUE(status.ok()) << status;
}

TEST(MuxTest, ChannelForASplitOfAnotherWorkerIsShutDown) {
  SinkWithTestReaders sink;
  ASSERT_NO_FATAL_FAILURE(sink.Start(/*splits=*/2, /*rows=*/400));
  // The one worker serves splits 0 and 1. A HELLO naming split 2 gets its
  // channel shut down; routed by split id mod k, it was served split 0.
  OpenChannelMessage msg;
  msg.sink_key = sink.splits()[0].sink_key;
  msg.window_bytes = 1 << 20;
  msg.hello.split_id = 2;
  auto stray = sink.conn()->OpenChannel(msg);
  ASSERT_TRUE(stray.ok()) << stray.status();
  Frame frame;
  const Status refused = RecvWithin(stray->get(), &frame);
  EXPECT_TRUE(refused.IsUnavailable())
      << refused << ", frame type " << static_cast<int>(frame.type);
  // The worker's own splits still stream in full.
  auto zero = sink.Open(0, 1 << 20);
  auto one = sink.Open(1, 1 << 20);
  ASSERT_TRUE(zero != nullptr && one != nullptr);
  EXPECT_EQ(sink.DrainAndAck(zero.get()) + sink.DrainAndAck(one.get()), 400u);
  const Status status = sink.Finish();
  EXPECT_TRUE(status.ok()) << status;
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
