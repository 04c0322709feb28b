// §7 ingest study: HDFS ingest of the transformed data versus streamed
// ingest, swept over dataset sizes. The paper reports the DFS read of the
// 5.6 GB transformed dataset at ~46 s, which the streaming transfer
// removes from the critical path.
//
// Series printed: rows, transformed bytes, DFS ingest seconds (read into
// the in-memory dataset), streamed ingest seconds (sink+transfer measured
// from an already-materialized table so the SQL work is identical). Exits 1
// when the two ingests return different row counts.
//
//   bench_ingest [max_rows]   # sweeps max_rows/8, /4, /2, max_rows

#include <cstdlib>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "ml/text_input_format.h"
#include "pipeline/table_io.h"
#include "stream/streaming_transfer.h"

using namespace sqlink;
using sqlink::bench::BenchEnv;

int main(int argc, char** argv) {
  const int64_t max_rows = argc > 1 ? std::atoll(argv[1]) : 400000;
  if (argc > 2 || max_rows < 8) {
    std::fprintf(stderr, "usage: bench_ingest [max_rows >= 8]\n");
    return 2;
  }

  std::printf("=== ML ingest: DFS files vs parallel streaming ===\n\n");
  std::printf("%12s %14s %16s %18s\n", "rows", "bytes", "dfs_ingest(s)",
              "stream_ingest(s)");

  for (int64_t rows = max_rows / 8; rows <= max_rows; rows *= 2) {
    auto env = BenchEnv::Make(rows);
    QueryRewriter rewriter(env->engine, nullptr);
    auto rewrite = rewriter.RewriteWithCache(BenchEnv::PaperRequest());
    if (!rewrite.ok()) return 1;
    // Materialize once; both ingest paths then read identical data.
    auto transformed = env->engine->MaterializeSql(rewrite->transformed_sql,
                                                   "transformed_input");
    if (!transformed.ok()) return 1;
    auto bytes =
        WriteTableToDfs(env->dfs.get(), **transformed, "ingest_input");
    if (!bytes.ok()) return 1;

    // DFS ingest.
    Stopwatch dfs_watch;
    ml::TextFileInputFormat format(env->dfs, "ingest_input",
                                   (*transformed)->schema());
    ml::JobContext context;
    context.cluster = env->cluster;
    ml::MlJobRunner runner(context);
    auto ingest = runner.Ingest(&format);
    if (!ingest.ok()) return 1;
    const double dfs_seconds = dfs_watch.ElapsedSeconds();

    // Streamed ingest of the same table.
    Stopwatch stream_watch;
    auto streamed = StreamingTransfer::Run(
        env->engine.get(), "SELECT * FROM transformed_input");
    if (!streamed.ok()) return 1;
    const double stream_seconds = stream_watch.ElapsedSeconds();

    if (streamed->dataset.TotalRows() != ingest->dataset.TotalRows()) {
      std::fprintf(stderr, "row count mismatch\n");
      return 1;
    }
    std::printf("%12lld %14llu %16.3f %18.3f\n",
                static_cast<long long>((*transformed)->TotalRows()),
                static_cast<unsigned long long>(*bytes), dfs_seconds,
                stream_seconds);
  }
  return 0;
}
