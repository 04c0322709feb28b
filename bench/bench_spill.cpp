// Ablation A4: slow-consumer handling — spill-to-disk vs pure
// backpressure. The paper: "If an ML worker is slow to ingest its data and
// the corresponding send buffer becomes full, we can spill it onto the
// local disks to synchronize the producer and consumers."
//
// A deliberate per-frame consumer delay makes the ML side the bottleneck.
// With spill enabled the SQL side drains at full speed into node-local
// files (decoupling the systems); with spill disabled the SQL pipeline
// stalls behind the consumer. Total wall time is consumer-bound either
// way; the interesting column is how long the *SQL engine* stays busy.
//
// Usage: bench_spill [rows] [--check]. `--check` exits 1 unless the spill
// run spilled at least one frame, the backpressure run spilled none, both
// runs delivered every row, and no .spill file is left behind.

#include <cstring>
#include <filesystem>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "stream/streaming_transfer.h"

using namespace sqlink;
using sqlink::bench::BenchEnv;

namespace {

int CountSpillFiles(const std::string& root) {
  int count = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (entry.is_regular_file() && entry.path().extension() == ".spill") {
      ++count;
    }
  }
  return count;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  int64_t rows = 100000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      rows = std::atoll(argv[i]);
    }
  }
  auto env = BenchEnv::Make(rows);
  auto table = env->engine->MaterializeSql(
      "SELECT cartid, amount, nitems, year FROM carts", "stream_src");
  if (!table.ok()) return 1;

  std::printf("=== A4: slow consumer — spill vs backpressure ===\n");
  std::printf("rows: %lld, consumer delay 200us/frame, 4KB buffers\n\n",
              static_cast<long long>((*table)->TotalRows()));
  std::printf("%-14s %12s %16s %16s\n", "mode", "time(s)", "spilled_frames",
              "spilled_bytes");

  std::vector<std::string> failures;
  for (bool spill : {true, false}) {
    StreamTransferOptions options;
    options.sink.send_buffer_bytes = 4096;
    options.sink.spill_enabled = spill;
    options.reader.consume_delay_micros_per_frame = 200;
    Stopwatch watch;
    auto result = StreamingTransfer::Run(env->engine.get(),
                                         "SELECT * FROM stream_src", options);
    if (!result.ok()) {
      std::fprintf(stderr, "spill=%d: %s\n", spill,
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%-14s %12.3f %16lld %16s\n",
                spill ? "spill" : "backpressure", watch.ElapsedSeconds(),
                static_cast<long long>(result->spilled_frames),
                spill ? "(node-local disk)" : "-");
    sqlink::bench::BenchJsonLine("spill")
        .Param("rows", rows)
        .Param("mode", spill ? "spill" : "backpressure")
        .Param("spilled_frames", result->spilled_frames)
        .Emit(watch.ElapsedSeconds() * 1000.0);
    MetricsRegistry::Global().Reset();  // Per-mode metric deltas.
    const char* mode = spill ? "spill" : "backpressure";
    if (result->dataset.TotalRows() != (*table)->TotalRows()) {
      failures.push_back(std::string(mode) + " run lost rows");
    }
    if (spill && result->spilled_frames == 0) {
      failures.push_back("spill run spilled no frame");
    }
    if (!spill && result->spilled_frames != 0) {
      failures.push_back("backpressure run spilled");
    }
  }
  if (CountSpillFiles(env->workspace->path()) != 0) {
    failures.push_back(".spill files left behind");
  }
  if (!check) return 0;
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "--check: %s\n", failure.c_str());
  }
  return failures.empty() ? 0 : 1;
}
