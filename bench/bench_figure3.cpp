// Figure 3 reproduction: comparison of the three approaches of connecting
// big SQL and big ML systems.
//
// Paper setup: IBM Big SQL + Spark MLlib on 5 servers; carts = 1 B rows
// (56 GB), users = 10 M rows; transformed data 5.6 GB. Reported stage
// breakdown (seconds, read off the figure):
//   naive        : prep ~190, trsfm ~300, input-for-ml ~46   (total ~536)
//   insql        : prep+trsfm ~312, input-for-ml ~46         (total ~358)
//   insql+stream : prep+trsfm+input ~315                     (total ~315)
// i.e. insql ≈ 1.7x over naive; streaming removes the ~46 s HDFS ingest.
//
// Here the same pipeline runs on the simulated 4-worker cluster with a
// scaled-down carts table (default 400k rows; override with argv[1]).
// Absolute seconds differ; the *shape* — naive slowest because of the extra
// materialization and the extra transformation job, streaming removing the
// ML-side read — is the reproduced result.

#include <string>
#include <vector>

#include "bench_util.h"

using namespace sqlink;
using sqlink::bench::BenchEnv;

int main(int argc, char** argv) {
  const int64_t rows = sqlink::bench::RowsArg(argc, argv, 400000);
  auto env = BenchEnv::Make(rows);
  const TransformRequest request = BenchEnv::PaperRequest();

  std::printf("=== Figure 3: three approaches of connecting SQL and ML ===\n");
  std::printf("carts rows: %lld, workers: %d\n\n",
              static_cast<long long>(rows), env->engine->num_workers());
  std::printf("%-14s %10s %10s %14s %12s %10s\n", "approach", "prep(s)",
              "trsfm(s)", "prep+trsfm(s)", "input(s)", "total(s)");

  struct RunResult {
    std::string name;
    StageTimings timings;
  };
  std::vector<RunResult> results;

  // One untimed warmup (allocator/page-cache effects) before measuring.
  {
    PipelineOptions warmup;
    warmup.approach = ConnectApproach::kInSql;
    warmup.use_cache = false;
    (void)env->pipeline->Prepare(request, warmup);
  }

  for (ConnectApproach approach :
       {ConnectApproach::kNaive, ConnectApproach::kInSql,
        ConnectApproach::kInSqlStream}) {
    PipelineOptions options;
    options.approach = approach;
    options.use_cache = false;
    auto result = env->pipeline->Prepare(request, options);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n",
                   std::string(ConnectApproachToString(approach)).c_str(),
                   result.status().ToString().c_str());
      return 1;
    }
    const StageTimings& t = result->timings;
    std::printf("%-14s %10.3f %10.3f %14.3f %12.3f %10.3f\n",
                std::string(ConnectApproachToString(approach)).c_str(),
                t.prep_seconds, t.transform_seconds, t.prep_transform_seconds,
                t.ml_input_seconds, t.total_seconds);
    results.push_back(
        {std::string(ConnectApproachToString(approach)), t});
    sqlink::bench::BenchJsonLine("figure3")
        .Param("approach", results.back().name)
        .Param("rows", rows)
        .Param("ml_input_s", t.ml_input_seconds)
        .Emit(t.total_seconds * 1000.0);
  }

  const double naive_total = results[0].timings.total_seconds;
  const double insql_total = results[1].timings.total_seconds;
  const double stream_total = results[2].timings.total_seconds;
  std::printf("\nspeedups: insql %.2fx over naive (paper: ~1.7x), "
              "insql+stream %.2fx over naive\n",
              naive_total / insql_total, naive_total / stream_total);
  std::printf("streaming saves %.3fs of ML ingest (paper: ~46s of ~358s)\n",
              results[1].timings.ml_input_seconds);
  const bool shape_holds =
      naive_total > insql_total && insql_total > stream_total;
  std::printf("shape holds (naive > insql > insql+stream): %s\n",
              shape_holds ? "YES" : "NO");
  return shape_holds ? 0 : 2;
}
