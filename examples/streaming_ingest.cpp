// Streaming ingest internals (§3): drives the coordinator / sink /
// SqlStreamInputFormat machinery directly — useful when embedding the
// transfer layer without the full pipeline — and demonstrates §6 fault
// tolerance by injecting a mid-stream connection failure and recovering,
// then §8 recovery by killing a reader outright and letting the
// coordinator reassign its split to a replacement.
//
//   ./streaming_ingest [rows]

#include <cstdio>
#include <cstdlib>
#include <set>

#include "cluster/cluster.h"
#include "common/failpoint.h"
#include "common/fs_util.h"
#include "common/logging.h"
#include "common/random.h"
#include "pipeline/datagen.h"
#include "sql/engine.h"
#include "stream/streaming_transfer.h"

namespace {

using namespace sqlink;

int Run(int64_t rows) {
  ScopedTempDir workspace("streaming_ingest");
  auto cluster = Cluster::Make(4, workspace.path());
  if (!cluster.ok()) return 1;
  SqlEnginePtr engine = SqlEngine::Make(*cluster);

  CartsWorkloadOptions data;
  data.num_users = std::max<int64_t>(10, rows / 10);
  data.num_carts = rows;
  if (!GenerateCartsWorkload(engine.get(), data).ok()) return 1;

  const std::string query =
      "SELECT cartid, amount, nitems FROM carts WHERE amount > 50";

  // Plain streaming transfer: 4 SQL workers, k=2 -> 8 ML workers.
  {
    StreamTransferOptions options;
    options.splits_per_worker = 2;
    auto result = StreamingTransfer::Run(engine.get(), query, options);
    if (!result.ok()) {
      std::fprintf(stderr, "transfer: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("streamed %lld rows (%lld wire bytes) over %d splits, "
                "%d spilled frames\n",
                static_cast<long long>(result->rows_sent),
                static_cast<long long>(result->bytes_sent),
                result->stats.num_splits,
                static_cast<int>(result->spilled_frames));
  }

  // Fault tolerance (§6), which every transfer has: the SQL side keeps
  // each frame until it is acked, and one ML reader drops its connection
  // mid-stream, reconnects and replays.
  {
    ScopedFailpoint fault("stream.reader.row.split2", "after(99):error(1)");
    auto result = StreamingTransfer::Run(engine.get(), query);
    if (!result.ok()) {
      std::fprintf(stderr, "transfer with a dropped connection: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::set<int64_t> ids;
    size_t duplicates = 0;
    for (const auto& partition : result->dataset.partitions) {
      for (const Row& row : partition) {
        if (!ids.insert(row[0].int64_value()).second) ++duplicates;
      }
    }
    std::printf("run with a dropped connection: %zu rows delivered, "
                "%zu duplicates, %lld reconnects\n",
                result->dataset.TotalRows(), duplicates,
                static_cast<long long>(
                    engine->metrics()->Get("stream.reconnects")));
  }

  // Split reassignment (§8): readers and the sink lease their work via
  // heartbeats. One ML reader is killed outright mid-split — no local
  // reconnect — so the coordinator releases its lease and hands the split
  // to a replacement reader, which resumes from the sink's frame log.
  {
    StreamTransferOptions options;
    options.heartbeat_ms = 20;
    ScopedFailpoint fault("stream.reader.kill.split1", "after(99):error(1)");
    auto result = StreamingTransfer::Run(engine.get(), query, options);
    if (!result.ok()) {
      std::fprintf(stderr, "recovery transfer: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::set<int64_t> ids;
    size_t duplicates = 0;
    for (const auto& partition : result->dataset.partitions) {
      for (const Row& row : partition) {
        if (!ids.insert(row[0].int64_value()).second) ++duplicates;
      }
    }
    std::printf(
        "recovery run with killed reader: %zu rows delivered, "
        "%zu duplicates, %lld splits reassigned, %lld frames replayed\n",
        result->dataset.TotalRows(), duplicates,
        static_cast<long long>(
            engine->metrics()->Get("transfer.splits_reassigned")),
        static_cast<long long>(
            engine->metrics()->Get("transfer.frames_replayed")));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  sqlink::SetLogLevel(sqlink::LogLevel::kWarning);
  const int64_t rows = argc > 1 ? std::atoll(argv[1]) : 50000;
  return Run(rows);
}
