#include "net/conn_pool.h"

#include <atomic>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "common/status_macros.h"

namespace sqlink {

namespace {

std::atomic<int> g_conns_per_peer_override{0};

/// Fibonacci hash spreads consecutive split ids across the slots.
size_t AffinitySlot(uint64_t affinity, size_t slots) {
  return static_cast<size_t>((affinity * 0x9E3779B97F4A7C15ull) % slots);
}

Counter* DialCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter("stream.reader.data_dials");
  return counter;
}

}  // namespace

int MuxConnsPerPeer() {
  const int forced = g_conns_per_peer_override.load(std::memory_order_relaxed);
  return forced > 0 ? forced : kMuxConnsPerPeer;
}

void SetMuxConnsPerPeerForTest(int conns) {
  g_conns_per_peer_override.store(conns, std::memory_order_relaxed);
}

// --- MuxConnPool ------------------------------------------------------------

MuxConnPool& MuxConnPool::Global() {
  static MuxConnPool* pool = new MuxConnPool();
  return *pool;
}

Result<std::shared_ptr<MuxChannel>> MuxConnPool::OpenChannel(
    const std::string& host, int port, uint64_t sink_key, uint64_t affinity,
    const HelloMessage& hello) {
  const std::string key = host + ":" + std::to_string(port);
  const size_t slots = static_cast<size_t>(MuxConnsPerPeer());
  const size_t slot = AffinitySlot(affinity, slots);

  OpenChannelMessage msg;
  msg.sink_key = sink_key;
  msg.window_bytes = static_cast<uint64_t>(kMuxChannelWindowBytes);
  msg.hello = hello;

  // One retry with a fresh dial: the pooled connection may be stale (sink
  // restarted, chaos kill) and the failure only shows at first use.
  Status last = Status::NetworkError("mux dial failed");
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::shared_ptr<MuxConn> conn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      std::vector<std::shared_ptr<MuxConn>>& pool = peers_[key];
      if (pool.size() != slots) pool.resize(slots);
      conn = pool[slot];
      if (conn == nullptr || conn->dead()) {
        // Dial under the lock: concurrent openers of the same slot share
        // one dial instead of racing sockets into existence (loopback
        // connects are cheap).
        auto dialed = TcpConnect(host, port);
        if (!dialed.ok()) return dialed.status();
        DialCounter()->Increment();
        conn = MuxConn::Spawn(std::move(*dialed), /*on_open=*/nullptr);
        pool[slot] = conn;
      }
    }
    auto channel = conn->OpenChannel(msg);
    if (channel.ok()) return channel;
    last = channel.status();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = peers_.find(key);
    if (it != peers_.end() && slot < it->second.size() &&
        it->second[slot] == conn) {
      it->second[slot] = nullptr;
    }
  }
  return last;
}

void MuxConnPool::ResetForTest() {
  std::unordered_map<std::string, std::vector<std::shared_ptr<MuxConn>>>
      peers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    peers.swap(peers_);
  }
  for (auto& [key, pool] : peers) {
    for (auto& conn : pool) {
      if (conn != nullptr) {
        conn->Shutdown(Status::Cancelled("pool reset"));
      }
    }
  }
}

// --- MuxSinkServer ----------------------------------------------------------

MuxSinkServer& MuxSinkServer::Global() {
  static MuxSinkServer* server = new MuxSinkServer();
  return *server;
}

Result<int> MuxSinkServer::EnsureStarted() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_) {
    ASSIGN_OR_RETURN(listener_, TcpListener::Listen(0));
    port_ = listener_.port();
    started_ = true;
    std::thread([this] { AcceptLoop(); }).detach();
  }
  return port_;
}

uint64_t MuxSinkServer::Register(ChannelHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t key = next_key_++;
  handlers_[key] = std::move(handler);
  return key;
}

void MuxSinkServer::Unregister(uint64_t sink_key) {
  std::lock_guard<std::mutex> lock(mu_);
  handlers_.erase(sink_key);
}

void MuxSinkServer::AcceptLoop() {
  for (;;) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (accepted.status().IsCancelled()) return;
      continue;  // Transient accept error (or failpoint); keep serving.
    }
    auto conn = MuxConn::Spawn(
        std::move(*accepted),
        [this](std::shared_ptr<MuxChannel> channel,
               const OpenChannelMessage& msg) {
          Dispatch(std::move(channel), msg);
        });
    std::lock_guard<std::mutex> lock(mu_);
    // Sweep dead connections so the roster tracks live sockets.
    for (size_t i = 0; i < conns_.size();) {
      if (conns_[i]->dead()) {
        conns_[i] = conns_.back();
        conns_.pop_back();
      } else {
        ++i;
      }
    }
    conns_.push_back(std::move(conn));
  }
}

void MuxSinkServer::Dispatch(std::shared_ptr<MuxChannel> channel,
                             const OpenChannelMessage& msg) {
  ChannelHandler handler;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = handlers_.find(msg.sink_key);
    if (it != handlers_.end()) handler = it->second;
  }
  if (handler == nullptr) {
    // Retryable: the reader backs off and re-resolves the sink, which may
    // simply not have (re)registered its partition yet.
    channel->Shutdown(Status::Unavailable(
        "unknown sink key " + std::to_string(msg.sink_key)));
    return;
  }
  handler(std::move(channel), msg);
}

}  // namespace sqlink
