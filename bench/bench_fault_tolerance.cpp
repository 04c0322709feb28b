// Ablation A7 (§6): the price of fault tolerance in the streaming
// transfer. Every transfer keeps each frame in its channel's frame log
// until the reader acks it, and every reader reconnects and replays, so
// one mode runs in two arms:
//   failure-free    — the price of the retained logs alone;
//   one dropped connection — one ML worker drops its connection mid-stream
//                     and recovers by replaying from the frame log.
// One untimed warm-up transfer runs first, so neither arm pays for process
// set-up (the sink listener, the UDF registration, cold allocator arenas).

#include <optional>
#include <string>

#include "bench_util.h"
#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "stream/streaming_transfer.h"

using namespace sqlink;
using sqlink::bench::BenchEnv;

int main(int argc, char** argv) {
  const int64_t rows = sqlink::bench::RowsArg(argc, argv, 300000);
  auto env = BenchEnv::Make(rows);
  auto table = env->engine->MaterializeSql(
      "SELECT cartid, amount, nitems, year FROM carts", "stream_src");
  if (!table.ok()) return 1;
  const size_t expected = (*table)->TotalRows();

  std::printf("=== A7: fault tolerance of the streaming transfer ===\n");
  std::printf("rows: %zu\n\n", expected);
  std::printf("%-24s %12s %12s %12s\n", "arm", "time(s)", "rows", "ok");

  auto transfer = [&] {
    return StreamingTransfer::Run(env->engine.get(),
                                  "SELECT * FROM stream_src");
  };
  auto warm_up = transfer();
  if (!warm_up.ok() || warm_up->dataset.TotalRows() != expected) {
    std::fprintf(stderr, "warm-up transfer failed\n");
    return 2;
  }

  auto run = [&](const char* name, bool inject) -> bool {
    std::optional<ScopedFailpoint> fault;
    if (inject) {
      fault.emplace("stream.reader.row.split1",
                    "after(" + std::to_string(expected / 16 - 1) +
                        "):error(1)");
    }
    Stopwatch watch;
    auto result = transfer();
    const double seconds = watch.ElapsedSeconds();
    const bool ok = result.ok() && result->dataset.TotalRows() == expected;
    std::printf("%-24s %12.3f %12zu %12s\n", name, seconds,
                result.ok() ? result->dataset.TotalRows() : 0,
                ok ? "yes" : "NO");
    return ok;
  };

  bool all_ok = true;
  all_ok &= run("failure-free", false);
  all_ok &= run("one dropped connection", true);
  std::printf("\nreconnects observed: %lld\n",
              static_cast<long long>(
                  env->engine->metrics()->Get("stream.reconnects")));
  return all_ok ? 0 : 2;
}
