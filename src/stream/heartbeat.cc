#include "stream/heartbeat.h"

#include <chrono>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/status_macros.h"

namespace sqlink {

namespace {

Gauge* HeartbeatConnsGauge() {
  static Gauge* const gauge =
      MetricsRegistry::Global().GetGauge("stream.heartbeat.conns");
  return gauge;
}

}  // namespace

HeartbeatBus::Conn::Conn(std::string host, int port)
    : host_(std::move(host)), port_(port) {
  HeartbeatConnsGauge()->Increment();
}

HeartbeatBus::Conn::~Conn() {
  HeartbeatConnsGauge()->Decrement();
  std::lock_guard<std::mutex> lock(mu_);
  socket_.Close();
}

Result<Frame> HeartbeatBus::Conn::Exchange(const HeartbeatMessage& beat) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!socket_.valid()) {
    ASSIGN_OR_RETURN(socket_, TcpConnect(host_, port_));
  }
  const Status sent =
      SendFrame(&socket_, FrameType::kHeartbeat, beat.Encode());
  if (!sent.ok()) {
    socket_.Close();
    return sent;
  }
  auto reply = RecvFrame(&socket_);
  if (!reply.ok()) socket_.Close();
  return reply;
}

void HeartbeatBus::Conn::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  socket_.Close();
}

HeartbeatBus& HeartbeatBus::Global() {
  static HeartbeatBus* const bus = new HeartbeatBus();
  return *bus;
}

std::shared_ptr<HeartbeatBus::Conn> HeartbeatBus::Acquire(
    const std::string& host, int port) {
  const std::string key = host + ":" + std::to_string(port);
  std::lock_guard<std::mutex> lock(mu_);
  if (auto existing = conns_[key].lock()) return existing;
  auto conn = std::make_shared<Conn>(host, port);
  conns_[key] = conn;
  return conn;
}

HeartbeatSender::HeartbeatSender(Options options)
    : options_(std::move(options)) {
  if (enabled()) {
    // Share one control connection with every other lease aimed at this
    // coordinator instead of holding a socket per lease.
    bus_ = HeartbeatBus::Global().Acquire(options_.coordinator_host,
                                          options_.coordinator_port);
  }
}

HeartbeatSender::~HeartbeatSender() { Stop(HeartbeatMessage::kAlive); }

void HeartbeatSender::Start() {
  if (!enabled() || thread_.joinable()) return;
  thread_ = std::thread([this] { Loop(); });
}

Status HeartbeatSender::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

void HeartbeatSender::MarkRevoked(Status status) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (revoked_.load(std::memory_order_relaxed)) return;
    status_ = std::move(status);
  }
  revoked_.store(true, std::memory_order_release);
  if (options_.on_revoked) options_.on_revoked();
}

Status HeartbeatSender::BeatOnce(uint8_t bye) {
  HeartbeatMessage beat;
  beat.role = options_.role;
  beat.id = options_.id;
  beat.epoch = options_.epoch;
  beat.applied_seq = applied_seq_.load(std::memory_order_relaxed);
  beat.bye = bye;
  ASSIGN_OR_RETURN(Frame reply, bus_->Exchange(beat));
  if (reply.type == FrameType::kError) {
    // Fenced or aborted: a typed, permanent loss — not a transport blip.
    MarkRevoked(DecodeStatusPayload(reply.payload));
    return Status::OK();
  }
  if (reply.type != FrameType::kAck) {
    bus_->Invalidate();
    return Status::NetworkError("unexpected heartbeat reply");
  }
  return Status::OK();
}

void HeartbeatSender::Loop() {
  using Clock = std::chrono::steady_clock;
  const auto interval = std::chrono::milliseconds(options_.interval_ms);
  const auto ttl = interval * kLeaseIntervals;
  Clock::time_point last_ok = Clock::now();
  // The first beat goes out immediately: it is what creates the lease on
  // the coordinator, so liveness tracking starts with the attempt.
  for (;;) {
    if (revoked()) return;
    if (!options_.failpoint_name.empty()) {
      // Delay specs stall the beat right here, simulating a participant
      // that froze long enough for its lease to lapse.
      (void)SQLINK_FAILPOINT(options_.failpoint_name);
    }
    const Status status = BeatOnce(HeartbeatMessage::kAlive);
    if (revoked()) return;
    const Clock::time_point now = Clock::now();
    if (status.ok()) {
      last_ok = now;
    } else if (now - last_ok > ttl) {
      // Self-fence: the coordinator has not confirmed this lease within the
      // TTL, so it may already have handed the split to a replacement. Stop
      // before the replacement starts applying rows.
      MarkRevoked(Status::Unavailable(
          "lease expired: no coordinator ack within " +
          std::to_string(ttl.count()) + "ms (" + status.message() + ")"));
      return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, interval, [this] { return stop_; });
    if (stop_) return;
  }
}

void HeartbeatSender::Stop(uint8_t bye) {
  if (!enabled()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
    cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
  if (bye != HeartbeatMessage::kAlive && !revoked()) {
    // Best-effort farewell so the coordinator acts now, not at TTL expiry.
    const Status status = BeatOnce(bye);
    if (!status.ok()) {
      LOG_WARNING() << "heartbeat bye failed (lease will expire): " << status;
    }
  }
  bus_.reset();  // Last lease on the peer drops the shared connection.
}

}  // namespace sqlink
