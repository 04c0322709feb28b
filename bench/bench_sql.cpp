// SQL-engine microbenchmarks: per-operator throughput of the substrate the
// In-SQL transformations run on (google-benchmark). The engine fixture is
// built once and shared across benchmarks.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench_util.h"
#include "sql/engine.h"

namespace sqlink {
namespace {

using sqlink::bench::BenchEnv;

BenchEnv* Env() {
  static BenchEnv* const env = [] {
    return BenchEnv::Make(100000).release();
  }();
  return env;
}

void RunQuery(benchmark::State& state, const std::string& sql) {
  BenchEnv* env = Env();
  int64_t rows = 0;
  for (auto _ : state) {
    auto result = env->engine->ExecuteSql(sql);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    rows += static_cast<int64_t>((*result)->TotalRows());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(rows);
}

void BM_Scan(benchmark::State& state) {
  RunQuery(state, "SELECT * FROM carts");
}
BENCHMARK(BM_Scan)->Unit(benchmark::kMillisecond);

// Scan only: no column is read and one row comes back, so the cost of
// handing out the table's chunks does not hide behind result boxing.
void BM_CountStar(benchmark::State& state) {
  RunQuery(state, "SELECT COUNT(*) FROM carts");
}
BENCHMARK(BM_CountStar)->Unit(benchmark::kMillisecond);

void BM_FilterProject(benchmark::State& state) {
  RunQuery(state,
           "SELECT cartid, amount * 1.07 FROM carts WHERE amount > 250");
}
BENCHMARK(BM_FilterProject)->Unit(benchmark::kMillisecond);

void BM_BroadcastJoin(benchmark::State& state) {
  RunQuery(state,
           "SELECT U.age, C.amount FROM carts C, users U "
           "WHERE C.userid = U.userid");
}
BENCHMARK(BM_BroadcastJoin)->Unit(benchmark::kMillisecond);

// The prep query's join and filter, counted: the build and the probe
// without the cost of returning the joined rows.
void BM_JoinCount(benchmark::State& state) {
  RunQuery(state,
           "SELECT COUNT(*) FROM carts C, users U "
           "WHERE C.userid = U.userid AND U.country = 'USA'");
}
BENCHMARK(BM_JoinCount)->Unit(benchmark::kMillisecond);

void BM_Distinct(benchmark::State& state) {
  RunQuery(state, "SELECT DISTINCT abandoned, year FROM carts");
}
BENCHMARK(BM_Distinct)->Unit(benchmark::kMillisecond);

void BM_GroupByAggregate(benchmark::State& state) {
  RunQuery(state,
           "SELECT year, COUNT(*), AVG(amount) FROM carts GROUP BY year");
}
BENCHMARK(BM_GroupByAggregate)->Unit(benchmark::kMillisecond);

void BM_OrderByLimit(benchmark::State& state) {
  RunQuery(state,
           "SELECT cartid, amount FROM carts ORDER BY amount DESC LIMIT 100");
}
BENCHMARK(BM_OrderByLimit)->Unit(benchmark::kMillisecond);

void BM_RecodeLocalDistinctUdf(benchmark::State& state) {
  // The §2.1 phase-1 UDF: one parallel scan for two categorical columns.
  RunQuery(state,
           "SELECT DISTINCT colname, colval FROM "
           "TABLE(recode_local_distinct((SELECT * FROM carts), "
           "'abandoned'))");
}
BENCHMARK(BM_RecodeLocalDistinctUdf)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sqlink

BENCHMARK_MAIN();
