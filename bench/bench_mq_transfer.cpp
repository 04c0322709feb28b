// §8 future-work study: direct socket streaming (§3) vs broker-mediated
// transfer (Kafka-like message queue). Compares
//   - failure-free transfer time, and
//   - recovery cost after a mid-stream consumer failure: the §6 design
//     replays the whole stream from the retained log, while the broker
//     resumes from the last committed offset (bounded recovery tail).
//
// Usage: bench_mq_transfer [rows]. Exits 1 unless each of the four runs
// (direct and broker, failure-free and with the injected consumer failure)
// delivers exactly the source table's rows.

#include <string>
#include <vector>

#include "bench_util.h"
#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "mq/mq_transfer.h"
#include "stream/streaming_transfer.h"

using namespace sqlink;
using sqlink::bench::BenchEnv;

int main(int argc, char** argv) {
  const int64_t rows = sqlink::bench::RowsArg(argc, argv, 300000);
  auto env = BenchEnv::Make(rows);
  auto table = env->engine->MaterializeSql(
      "SELECT cartid, amount, nitems, year FROM carts", "src");
  if (!table.ok()) return 1;
  const size_t expected = (*table)->TotalRows();
  auto broker = std::make_shared<MessageBroker>();

  std::printf("=== transfer mechanisms: direct sockets vs message broker ===\n");
  std::printf("rows: %zu\n\n", expected);
  std::printf("%-28s %10s %10s %18s\n", "mechanism", "time(s)", "rows",
              "recovery re-read");
  std::vector<std::string> failures;
  auto expect_rows = [&](const char* mechanism, size_t delivered) {
    if (delivered != expected) {
      failures.push_back(std::string(mechanism) + " delivered " +
                         std::to_string(delivered) + " rows, want " +
                         std::to_string(expected));
    }
  };

  // Failure-free runs.
  {
    Stopwatch watch;
    auto direct =
        StreamingTransfer::Run(env->engine.get(), "SELECT * FROM src");
    if (!direct.ok()) return 1;
    std::printf("%-28s %10.3f %10zu %18s\n", "direct sockets (§3)",
                watch.ElapsedSeconds(), direct->dataset.TotalRows(), "-");
    expect_rows("direct", direct->dataset.TotalRows());
  }
  {
    Stopwatch watch;
    auto mq = MqTransfer::Run(env->engine.get(), broker, "SELECT * FROM src");
    if (!mq.ok()) return 1;
    std::printf("%-28s %10.3f %10zu %18s\n", "message broker (§8)",
                watch.ElapsedSeconds(), mq->dataset.TotalRows(), "-");
    expect_rows("broker", mq->dataset.TotalRows());
  }

  // Runs with one injected mid-stream consumer failure.
  {
    ScopedFailpoint fault(
        "stream.reader.row.split1",
        "after(" + std::to_string(expected / 16 - 1) + "):error(1)");
    Stopwatch watch;
    auto direct =
        StreamingTransfer::Run(env->engine.get(), "SELECT * FROM src");
    if (!direct.ok()) return 1;
    std::printf("%-28s %10.3f %10zu %18s\n", "direct + failure (§6)",
                watch.ElapsedSeconds(), direct->dataset.TotalRows(),
                "full split replay");
    expect_rows("direct + failure", direct->dataset.TotalRows());
  }
  {
    MqTransferOptions options;
    ScopedFailpoint fault(
        "mq.reader.crash.p1",
        "after(" + std::to_string(expected / 16 - 1) + "):error(1)");
    Stopwatch watch;
    auto mq = MqTransfer::Run(env->engine.get(), broker, "SELECT * FROM src",
                              options);
    if (!mq.ok()) return 1;
    std::printf("%-28s %10.3f %10zu %15lld msg\n", "broker + failure (§8)",
                watch.ElapsedSeconds(), mq->dataset.TotalRows(),
                static_cast<long long>(mq->messages_reread));
    expect_rows("broker + failure", mq->dataset.TotalRows());
  }
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "%s\n", failure.c_str());
  }
  return failures.empty() ? 0 : 1;
}
