// Mux fabric benchmark: the serving concurrency sweep (1/4/16/64 clients)
// rerun over the sink→reader data plane. Each client is one full
// streaming-transfer pipeline (SQL scan → sink UDF → reader ingest), so
// every client opens real data channels; the GROUP BY serving bench never
// touches the data plane.
//
// The interesting property is socket economy: 64 concurrent pipelines
// share at most MuxConnsPerPeer() pooled sockets per sink peer (the
// in-process cluster exposes one shared sink listener, i.e. one peer),
// while each sender's ack window (the reader's cumulative kDataAck against
// the window it advertised) stops one slow channel from
// head-of-line-blocking its socket-mates.
//
// `bench_mux [rows]` prints the table; with SQLINK_BENCH_JSON set, one
// JSON line per concurrency level is emitted. `--smoke` shrinks the
// workload for CI; `--check` exits non-zero when any transfer fails or
// when more than 2×MuxConnsPerPeer()×peers data sockets are dialed at 64
// clients.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "net/conn_pool.h"
#include "stream/streaming_transfer.h"

using namespace sqlink;

namespace {

struct LevelResult {
  double wall_s = 0;
  std::vector<double> latencies_ms;
  int failures = 0;
  std::string first_failure;     // status of the first failed transfer
  int64_t sockets = 0;           // data dials during the level
  int64_t coalesced_frames = 0;  // frames that shared a writev
  int64_t window_stalls = 0;     // senders parked on a full ack window

  double qps() const {
    return wall_s > 0 ? static_cast<double>(latencies_ms.size()) / wall_s : 0;
  }
  double Percentile(double p) const {
    if (latencies_ms.empty()) return 0;
    std::vector<double> sorted = latencies_ms;
    std::sort(sorted.begin(), sorted.end());
    const size_t index = std::min(
        sorted.size() - 1,
        static_cast<size_t>(p * static_cast<double>(sorted.size())));
    return sorted[index];
  }
};

/// Runs `concurrency` streaming-transfer pipelines at once (one per client
/// thread) and measures per-pipeline latency plus the data-socket count.
LevelResult RunLevel(SqlEngine* engine, int concurrency, int64_t rows) {
  // Drop pooled connections from the previous level, then zero the metrics,
  // so `stream.reader.data_dials` counts exactly this level's sockets.
  MuxConnPool::Global().ResetForTest();
  MetricsRegistry::Global().Reset();

  LevelResult result;
  std::mutex mu;
  std::atomic<int> failures{0};
  Stopwatch wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < concurrency; ++c) {
    clients.emplace_back([&] {
      Stopwatch latency;
      auto transfer =
          StreamingTransfer::Run(engine, "SELECT * FROM points", {});
      if (!transfer.ok() ||
          transfer->dataset.TotalRows() != static_cast<size_t>(rows)) {
        ++failures;
        std::lock_guard<std::mutex> lock(mu);
        if (result.first_failure.empty()) {
          result.first_failure = transfer.ok() ? "incomplete dataset"
                                               : transfer.status().ToString();
        }
        return;
      }
      const double ms = latency.ElapsedMicros() / 1000.0;
      std::lock_guard<std::mutex> lock(mu);
      result.latencies_ms.push_back(ms);
    });
  }
  for (std::thread& client : clients) client.join();
  result.wall_s = wall.ElapsedSeconds();
  result.failures = failures.load();
  result.sockets = MetricsRegistry::Global().Get("stream.reader.data_dials");
  result.coalesced_frames =
      MetricsRegistry::Global().Get("net.mux.coalesced_frames");
  result.window_stalls =
      MetricsRegistry::Global().Get("net.mux.window_stalls");
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool check = false;
  int64_t rows = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      rows = std::atoll(argv[i]);
    }
  }
  if (rows == 0) rows = smoke ? 500 : 5000;

  SetLogLevel(LogLevel::kError);
  ScopedTempDir workspace("sqlink_bench_mux");
  auto cluster = Cluster::Make(4, workspace.path());
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster: %s\n", cluster.status().ToString().c_str());
    return 1;
  }
  auto engine = SqlEngine::Make(*cluster);
  auto schema = Schema::Make({{"id", DataType::kInt64},
                              {"feature", DataType::kDouble}});
  auto table = engine->MakeTable("points", schema);
  for (int64_t i = 0; i < rows; ++i) {
    table->AppendRow(static_cast<size_t>(i) % 4,
                     Row{Value::Int64(i), Value::Double(0.5)});
  }
  if (!engine->catalog()->RegisterTable(table).ok()) {
    std::fprintf(stderr, "register table failed\n");
    return 1;
  }

  // All in-process sinks register with the one process-wide MuxSinkServer
  // listener, so readers see a single peer endpoint. (A real deployment
  // has one peer per worker host; the per-peer cap is what the formula
  // checks either way.)
  const int peers = 1;
  const int64_t socket_cap =
      2 * static_cast<int64_t>(MuxConnsPerPeer()) * peers;

  std::printf("=== mux fabric: concurrent pipelines vs sockets + tail ===\n");
  std::printf("rows per transfer: %lld, conns per peer: %d, peers: %d\n\n",
              static_cast<long long>(rows), MuxConnsPerPeer(), peers);
  std::printf("%12s %10s %10s %10s %9s %9s %9s\n", "concurrency", "qps",
              "p50(ms)", "p99(ms)", "sockets", "coalesced", "stalls");

  // One untimed transfer first: starting the sink listener and registering
  // the sink UDF are process set-up, not per-pipeline latency.
  if (!StreamingTransfer::Run(engine.get(), "SELECT * FROM points", {}).ok()) {
    std::fprintf(stderr, "warm-up transfer failed\n");
    return 1;
  }

  int64_t sockets_at_64 = 0;
  int total_failures = 0;
  for (int concurrency : {1, 4, 16, 64}) {
    LevelResult level = RunLevel(engine.get(), concurrency, rows);
    total_failures += level.failures;
    if (level.failures > 0) {
      std::fprintf(stderr, "concurrency=%d: %d failures (first: %s)\n",
                   concurrency, level.failures, level.first_failure.c_str());
    }
    if (concurrency == 64) sockets_at_64 = level.sockets;
    std::printf("%12d %10.1f %10.2f %10.2f %9lld %9lld %9lld\n", concurrency,
                level.qps(), level.Percentile(0.50), level.Percentile(0.99),
                static_cast<long long>(level.sockets),
                static_cast<long long>(level.coalesced_frames),
                static_cast<long long>(level.window_stalls));
    sqlink::bench::BenchJsonLine("mux_transfer")
        .Param("rows", rows)
        .Param("concurrency", static_cast<int64_t>(concurrency))
        .Param("qps", level.qps())
        .Param("p50_ms", level.Percentile(0.50))
        .Param("p99_ms", level.Percentile(0.99))
        .Param("sockets", level.sockets)
        .Param("coalesced_frames", level.coalesced_frames)
        .Param("window_stalls", level.window_stalls)
        .Param("failures", static_cast<int64_t>(level.failures))
        .Param("smoke", smoke)
        .Emit(level.wall_s * 1000.0);
  }
  MuxConnPool::Global().ResetForTest();

  std::printf("\nsockets at 64 clients: %lld (cap %lld)\n",
              static_cast<long long>(sockets_at_64),
              static_cast<long long>(socket_cap));

  if (check) {
    if (total_failures > 0) {
      std::fprintf(stderr, "--check: %d failed transfers\n", total_failures);
      return 1;
    }
    if (sockets_at_64 > socket_cap) {
      std::fprintf(stderr,
                   "--check: dialed %lld data sockets at 64 clients, cap is "
                   "2 x %d conns/peer x %d peers = %lld\n",
                   static_cast<long long>(sockets_at_64), MuxConnsPerPeer(),
                   peers, static_cast<long long>(socket_cap));
      return 1;
    }
  }
  return 0;
}
