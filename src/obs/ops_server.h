#ifndef SQLINK_OBS_OPS_SERVER_H_
#define SQLINK_OBS_OPS_SERVER_H_

#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "common/result.h"
#include "stream/socket.h"

namespace sqlink {

/// Minimal embedded HTTP/1.1 ops endpoint — live observability for a
/// running engine process, curl-able while queries and streaming transfers
/// are in flight. Routes:
///
///   /metrics   process metrics, Prometheus text exposition
///   /queries   active + recently finished queries with per-operator stats
///              trees and trace ids (JSON, from the QueryRegistry)
///   /tracez    the most recent sampled trace spans, grouped by trace id
///              (JSON; requires SQLINK_TRACE to be enabled)
///   /healthz   "ok" (200) — or, when a health hook reports unhealthy,
///              503 with a JSON reason (e.g. admission queue saturated)
///
/// One accept thread serves requests sequentially (ops traffic is tiny);
/// every response closes the connection. A peer has 2 s to send its request
/// head, so an idle connection holds up neither the next request nor
/// Stop(); a head over 8 KiB or a malformed request line is answered 400.
/// Bound to 127.0.0.1 like all other sockets in the simulated cluster.
/// Enable via SQLINK_OPS_PORT=<port> (0 = ephemeral) or programmatically
/// with Start().
class OpsServer {
 public:
  /// Health verdict from a HealthHook: healthy == true serves the plain
  /// 200 "ok" body; otherwise /healthz returns 503 with `reason_json`.
  struct Health {
    bool healthy = true;
    std::string reason_json;  ///< JSON body for the 503 response.
  };
  using HealthHook = std::function<Health()>;

  struct Options {
    int port = 0;              ///< 0 picks an ephemeral port.
    size_t tracez_spans = 256; ///< Most recent spans served by /tracez.
    /// Optional liveness probe consulted by /healthz (e.g. the query
    /// server's admission saturation signal). Null = always healthy. Called
    /// from the serving thread; must be thread-safe and non-blocking.
    HealthHook health_hook;
  };

  /// Binds and starts the serving thread.
  static Result<std::unique_ptr<OpsServer>> Start(const Options& options);

  /// Starts from SQLINK_OPS_PORT. Returns null (not an error) when the
  /// variable is unset or empty; an error only when it is set but the
  /// server cannot start.
  static Result<std::unique_ptr<OpsServer>> StartFromEnv();

  ~OpsServer();
  OpsServer(const OpsServer&) = delete;
  OpsServer& operator=(const OpsServer&) = delete;

  /// Stops accepting and joins the serving thread (idempotent).
  void Stop();

  /// The bound port (the actual one when Options::port was 0).
  int port() const { return listener_.port(); }

 private:
  explicit OpsServer(Options options) : options_(options) {}

  void Serve();
  void HandleConnection(TcpSocket socket);

  Options options_;
  TcpListener listener_;
  std::thread thread_;
  bool stopped_ = false;
};

}  // namespace sqlink

#endif  // SQLINK_OBS_OPS_SERVER_H_
