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

// Registers a case. Every case reports milliseconds and sizes its
// iterations by wall time: the calling thread mostly waits on the SQL
// workers, so its CPU time says little about the query. Every case name
// therefore ends in "/real_time", which ci/run_tests.sh checks.
#define SQL_BENCHMARK(fn) \
  BENCHMARK(fn)->Unit(benchmark::kMillisecond)->UseRealTime()

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
SQL_BENCHMARK(BM_Scan);

// Scan only: no column is read and one row comes back, so the cost of
// handing out the table's chunks does not hide behind result boxing.
void BM_CountStar(benchmark::State& state) {
  RunQuery(state, "SELECT COUNT(*) FROM carts");
}
SQL_BENCHMARK(BM_CountStar);

void BM_FilterProject(benchmark::State& state) {
  RunQuery(state,
           "SELECT cartid, amount * 1.07 FROM carts WHERE amount > 250");
}
SQL_BENCHMARK(BM_FilterProject);

void BM_BroadcastJoin(benchmark::State& state) {
  RunQuery(state,
           "SELECT U.age, C.amount FROM carts C, users U "
           "WHERE C.userid = U.userid");
}
SQL_BENCHMARK(BM_BroadcastJoin);

// The prep query's join and filter, counted: the build and the probe
// without the cost of returning the joined rows.
void BM_JoinCount(benchmark::State& state) {
  RunQuery(state,
           "SELECT COUNT(*) FROM carts C, users U "
           "WHERE C.userid = U.userid AND U.country = 'USA'");
}
SQL_BENCHMARK(BM_JoinCount);

// A build side of 100k rows in many chunks: the broadcast build gathers
// every chunk into one batch before indexing it.
void BM_SelfJoinCount(benchmark::State& state) {
  RunQuery(state,
           "SELECT COUNT(*) FROM carts A, carts B WHERE A.cartid = B.cartid");
}
SQL_BENCHMARK(BM_SelfJoinCount);

// A STRING key probed against a 2-row build, the shape of the transformed
// query's joins with its recode maps.
void BM_StringKeyJoinCount(benchmark::State& state) {
  RunQuery(state,
           "SELECT COUNT(*) FROM carts C, "
           "(SELECT DISTINCT abandoned FROM carts) M "
           "WHERE C.abandoned = M.abandoned");
}
SQL_BENCHMARK(BM_StringKeyJoinCount);

void BM_Distinct(benchmark::State& state) {
  RunQuery(state, "SELECT DISTINCT abandoned, year FROM carts");
}
SQL_BENCHMARK(BM_Distinct);

// One group per row (100k): the group table's key batch grows row by row.
void BM_DistinctManyGroups(benchmark::State& state) {
  RunQuery(state, "SELECT DISTINCT cartid FROM carts");
}
SQL_BENCHMARK(BM_DistinctManyGroups);

void BM_GroupByAggregate(benchmark::State& state) {
  RunQuery(state,
           "SELECT year, COUNT(*), AVG(amount) FROM carts GROUP BY year");
}
SQL_BENCHMARK(BM_GroupByAggregate);

// One group per cart (100k): every worker's group table and every merge
// target holds thousands of groups.
void BM_GroupByManyGroups(benchmark::State& state) {
  RunQuery(state,
           "SELECT cartid, COUNT(*), SUM(amount) FROM carts GROUP BY cartid");
}
SQL_BENCHMARK(BM_GroupByManyGroups);

void BM_OrderByLimit(benchmark::State& state) {
  RunQuery(state,
           "SELECT cartid, amount FROM carts ORDER BY amount DESC LIMIT 100");
}
SQL_BENCHMARK(BM_OrderByLimit);

void BM_RecodeLocalDistinctUdf(benchmark::State& state) {
  // The §2.1 phase-1 UDF: one parallel scan for two categorical columns.
  RunQuery(state,
           "SELECT DISTINCT colname, colval FROM "
           "TABLE(recode_local_distinct((SELECT * FROM carts), "
           "'abandoned'))");
}
SQL_BENCHMARK(BM_RecodeLocalDistinctUdf);

void BM_DummyCodeUdf(benchmark::State& state) {
  // The §2.2 coding UDF: two columns pass through, nitems becomes 15
  // generated columns.
  RunQuery(state,
           "SELECT * FROM TABLE(dummy_code((SELECT cartid, amount, nitems "
           "FROM carts), 'nitems:15'))");
}
SQL_BENCHMARK(BM_DummyCodeUdf);

}  // namespace
}  // namespace sqlink

BENCHMARK_MAIN();
