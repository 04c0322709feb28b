#include "obs/ops_server.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/status_macros.h"
#include "common/trace.h"
#include "sql/query_registry.h"

namespace sqlink {

namespace {

constexpr size_t kMaxRequestBytes = 8192;
/// How long a peer has to send its whole request head. The server answers
/// one connection at a time, so this bounds how long a silent peer holds
/// up everyone else and Stop().
constexpr int kRequestHeadTimeoutMs = 2000;

void AppendJsonString(const std::string& text, std::string* out) {
  out->push_back('"');
  for (char c : text) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out->append(buffer);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendSpanJson(const SpanRecord& span, std::string* out) {
  out->append("{\"name\":");
  AppendJsonString(span.name, out);
  // Ids as strings: uint64 does not survive a double-typed JSON reader.
  out->append(",\"span_id\":\"" + std::to_string(span.span_id) +
              "\",\"parent_span_id\":\"" + std::to_string(span.parent_span_id) +
              "\",\"start_micros\":" + std::to_string(span.start_micros) +
              ",\"duration_micros\":" + std::to_string(span.duration_micros) +
              ",\"error\":" + (span.error ? "true" : "false"));
  if (!span.attributes.empty()) {
    out->append(",\"attributes\":{");
    bool first = true;
    for (const auto& [key, value] : span.attributes) {
      if (!first) out->push_back(',');
      first = false;
      AppendJsonString(key, out);
      out->push_back(':');
      out->append(std::to_string(value));
    }
    out->push_back('}');
  }
  out->push_back('}');
}

/// The most recent spans grouped by trace, most recent trace first:
/// {"traces":[{"trace_id":"...","spans":[...]}]}.
std::string TracezJson(size_t max_spans) {
  const std::vector<SpanRecord> recent = Tracer::Global().Recent(max_spans);
  std::vector<uint64_t> order;        // Trace ids, most recent first.
  std::map<uint64_t, std::vector<const SpanRecord*>> by_trace;
  for (const SpanRecord& span : recent) {
    auto [it, inserted] = by_trace.try_emplace(span.trace_id);
    if (inserted) order.push_back(span.trace_id);
    it->second.push_back(&span);
  }
  std::string out = "{\"traces\":[";
  bool first_trace = true;
  for (uint64_t trace_id : order) {
    if (!first_trace) out.push_back(',');
    first_trace = false;
    out += "{\"trace_id\":\"" + std::to_string(trace_id) + "\",\"spans\":[";
    bool first_span = true;
    for (const SpanRecord* span : by_trace[trace_id]) {
      if (!first_span) out.push_back(',');
      first_span = false;
      AppendSpanJson(*span, &out);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

Status SendResponse(TcpSocket* socket, const std::string& status_line,
                    const std::string& content_type, const std::string& body) {
  std::string head = "HTTP/1.1 " + status_line +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  return socket->SendAllV(head, body);
}

/// Reads the request head ("...\r\n\r\n") under one deadline and returns
/// the request target path (query strings stripped). GET requests carry no
/// body, so nothing after the head matters. InvalidArgument (answered 400)
/// when the head does not end within kMaxRequestBytes or its request line
/// is malformed; Unavailable or a network error (the connection is dropped)
/// when the peer stalls past kRequestHeadTimeoutMs or goes away.
Result<std::string> ReadRequestPath(TcpSocket* socket) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kRequestHeadTimeoutMs);
  std::string request;
  size_t head_end = std::string::npos;
  while (head_end == std::string::npos) {
    if (request.size() >= kMaxRequestBytes) {
      return Status::InvalidArgument("http request head over " +
                                     std::to_string(kMaxRequestBytes) +
                                     " bytes");
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    ::pollfd pfd{socket->fd(), POLLIN, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(std::max<int64_t>(0, left.count())));
    if (ready < 0 && errno == EINTR) continue;
    if (ready < 0) return Status::NetworkError("poll on ops connection failed");
    if (ready == 0) {
      return Status::Unavailable("http request head not received within " +
                                 std::to_string(kRequestHeadTimeoutMs) +
                                 " ms");
    }
    const size_t scanned = request.size();
    bool eof = false;
    RETURN_IF_ERROR(socket
                        ->TryRecv(kMaxRequestBytes - request.size(), &request,
                                  &eof)
                        .status());
    if (eof) return Status::NetworkError("peer closed mid request head");
    head_end = request.find("\r\n\r\n", scanned < 3 ? 0 : scanned - 3);
  }
  // "GET /path HTTP/1.1": method, target and version, one space apart.
  const std::string line = request.substr(0, request.find("\r\n"));
  const size_t first_space = line.find(' ');
  const size_t second_space = first_space == std::string::npos
                                  ? std::string::npos
                                  : line.find(' ', first_space + 1);
  if (first_space == 0 || second_space == std::string::npos ||
      second_space == first_space + 1 ||
      line.compare(second_space + 1, 5, "HTTP/") != 0) {
    return Status::InvalidArgument("malformed http request line");
  }
  std::string path =
      line.substr(first_space + 1, second_space - first_space - 1);
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);
  return path;
}

}  // namespace

Result<std::unique_ptr<OpsServer>> OpsServer::Start(const Options& options) {
  std::unique_ptr<OpsServer> server(new OpsServer(options));
  ASSIGN_OR_RETURN(server->listener_, TcpListener::Listen(options.port));
  server->thread_ = std::thread([raw = server.get()] { raw->Serve(); });
  LOG_INFO() << "ops server listening on 127.0.0.1:"
             << server->listener_.port();
  return server;
}

Result<std::unique_ptr<OpsServer>> OpsServer::StartFromEnv() {
  const char* env = std::getenv("SQLINK_OPS_PORT");
  if (env == nullptr || *env == '\0') return std::unique_ptr<OpsServer>();
  Options options;
  options.port = std::atoi(env);
  return Start(options);
}

OpsServer::~OpsServer() { Stop(); }

void OpsServer::Stop() {
  if (stopped_) return;
  stopped_ = true;
  listener_.Close();
  if (thread_.joinable()) thread_.join();
}

void OpsServer::Serve() {
  for (;;) {
    Result<TcpSocket> socket = listener_.Accept();
    if (!socket.ok()) return;  // kCancelled after Close().
    HandleConnection(std::move(socket).value());
  }
}

void OpsServer::HandleConnection(TcpSocket socket) {
  Result<std::string> path = ReadRequestPath(&socket);
  if (!path.ok()) {
    // A stalled or vanished peer is dropped; a bad head gets an answer.
    if (path.status().IsInvalidArgument()) {
      (void)SendResponse(&socket, "400 Bad Request", "text/plain",
                         path.status().message() + "\n");
    }
    return;
  }

  Status sent;
  if (*path == "/metrics") {
    sent = SendResponse(&socket, "200 OK", "text/plain; version=0.0.4",
                        MetricsRegistry::Global().ToPrometheusText());
  } else if (*path == "/queries") {
    sent = SendResponse(&socket, "200 OK", "application/json",
                        QueryRegistry::Global().ToJson());
  } else if (*path == "/tracez") {
    sent = SendResponse(&socket, "200 OK", "application/json",
                        TracezJson(options_.tracez_spans));
  } else if (*path == "/healthz") {
    Health health;
    if (options_.health_hook) health = options_.health_hook();
    if (health.healthy) {
      sent = SendResponse(&socket, "200 OK", "text/plain", "ok\n");
    } else {
      sent = SendResponse(&socket, "503 Service Unavailable",
                          "application/json", health.reason_json + "\n");
    }
  } else {
    sent = SendResponse(&socket, "404 Not Found", "text/plain",
                        "unknown route; try /metrics /queries /tracez\n");
  }
  if (!sent.ok()) {
    LOG_DEBUG() << "ops response send failed: " << sent;
  }
}

}  // namespace sqlink
