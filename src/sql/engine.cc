#include "sql/engine.h"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/logging.h"
#include "common/status_macros.h"
#include "common/stopwatch.h"
#include "common/trace.h"

namespace sqlink {

namespace {

/// SQLINK_SLOW_QUERY_MS as a threshold in milliseconds; negative = unset.
/// Re-read per query so tests can flip it with setenv.
int64_t SlowQueryThresholdMs() {
  const char* env = std::getenv("SQLINK_SLOW_QUERY_MS");
  if (env == nullptr || *env == '\0') return -1;
  return std::strtoll(env, nullptr, 10);
}

/// One-line plan summary for the slow-query log: pre-order node labels.
std::string PlanSummary(const QueryStats& stats) {
  std::string out;
  for (const auto& node : stats.nodes()) {
    if (!out.empty()) out += " <- ";
    out += node.label;
    if (out.size() > 160) {
      out += " ...";
      break;
    }
  }
  return out;
}

void MaybeLogSlowQuery(const std::string& sql, const QueryStats& stats,
                       int64_t duration_micros, MetricsRegistry* metrics) {
  const int64_t threshold_ms = SlowQueryThresholdMs();
  if (threshold_ms < 0 || duration_micros < threshold_ms * 1000) return;
  metrics->GetCounter("sql.slow_queries")->Add(1);
  std::ostringstream top;
  for (const auto& [label, micros] : stats.TopByTime(3)) {
    if (top.tellp() > 0) top << ", ";
    top << label << "=" << static_cast<double>(micros) / 1000.0 << "ms";
  }
  LOG_WARNING() << "slow query ("
                << static_cast<double>(duration_micros) / 1000.0
                << " ms, threshold " << threshold_ms << " ms): " << sql
                << " | plan: " << PlanSummary(stats)
                << " | top operators: " << top.str();
}

/// Records each executed node's q-error into the planner-feedback metrics:
/// the qerror_x100 histogram (100 = perfect estimate) and a misestimate
/// counter for nodes off by more than 4x either way.
void RecordPlannerFeedback(const QueryStats& stats, MetricsRegistry* metrics) {
  auto* histogram = metrics->GetHistogram("sql.planner.qerror_x100");
  auto* misestimates = metrics->GetCounter("sql.planner.misestimates");
  for (const auto& node : stats.nodes()) {
    const OperatorActuals* actuals = stats.actuals(node.id);
    if (actuals == nullptr ||
        actuals->invocations.load(std::memory_order_relaxed) == 0) {
      continue;
    }
    const double q = QError(
        node.estimated_rows,
        static_cast<double>(actuals->rows.load(std::memory_order_relaxed)));
    histogram->Record(std::llround(q * 100.0));
    if (q > 4.0) misestimates->Add(1);
  }
}

}  // namespace

SqlEngine::SqlEngine(ClusterPtr cluster, MetricsRegistry* metrics)
    : cluster_(std::move(cluster)),
      num_workers_(cluster_->num_nodes()),
      metrics_(metrics != nullptr ? metrics : &MetricsRegistry::Global()),
      scalar_udfs_(ScalarFunctionRegistry::WithBuiltins()) {}

std::shared_ptr<SqlEngine> SqlEngine::Make(ClusterPtr cluster,
                                           MetricsRegistry* metrics) {
  return std::shared_ptr<SqlEngine>(new SqlEngine(std::move(cluster), metrics));
}

Result<PlanPtr> SqlEngine::Plan(const std::string& sql) {
  ASSIGN_OR_RETURN(SelectStmt stmt, ParseSelect(sql));
  return PlanStmt(stmt);
}

Result<PlanPtr> SqlEngine::PlanStmt(const SelectStmt& stmt) {
  Planner planner(&catalog_, scalar_udfs_.get(), &table_udfs_, num_workers_);
  return planner.PlanSelect(stmt);
}

Result<std::string> SqlEngine::ExplainSql(const std::string& sql) {
  ASSIGN_OR_RETURN(SqlStatement stmt, ParseStatement(sql));
  ASSIGN_OR_RETURN(PlanPtr plan, PlanStmt(stmt.select));
  return ExplainPlanText(plan);
}

TablePtr SqlEngine::MakePlanTextTable(const std::string& text,
                                      const std::string& result_name) const {
  auto table = std::make_shared<Table>(
      result_name, Schema::Make({{"plan", DataType::kString}}),
      static_cast<size_t>(num_workers_));
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    table->AppendRow(0, Row{Value::String(line)});
  }
  return table;
}

Result<TablePtr> SqlEngine::ExecuteSql(const std::string& sql,
                                       const std::string& result_name) {
  return ExecuteSql(sql, result_name, QueryOptions());
}

Result<TablePtr> SqlEngine::ExecuteSql(const std::string& sql,
                                       const std::string& result_name,
                                       const QueryOptions& options) {
  ASSIGN_OR_RETURN(SqlStatement stmt, ParseStatement(sql));
  ASSIGN_OR_RETURN(PlanPtr plan, PlanStmt(stmt.select));
  switch (stmt.explain) {
    case ExplainMode::kPlan:
      return MakePlanTextTable(ExplainPlanText(plan), result_name);
    case ExplainMode::kAnalyze: {
      std::shared_ptr<QueryStats> stats;
      ASSIGN_OR_RETURN(TablePtr ignored, RunTracked(plan, sql, "__analyzed",
                                                    &stats, options));
      (void)ignored;  // EXPLAIN ANALYZE discards the rows, keeps the stats.
      return MakePlanTextTable(stats->ToText(), result_name);
    }
    case ExplainMode::kNone:
      break;
  }
  return RunTracked(plan, sql, result_name, nullptr, options);
}

Result<TablePtr> SqlEngine::ExecuteStmt(const SelectStmt& stmt,
                                        const std::string& result_name) {
  ASSIGN_OR_RETURN(PlanPtr plan, PlanStmt(stmt));
  return ExecutePlan(plan, result_name);
}

Result<TablePtr> SqlEngine::ExecutePlan(const PlanPtr& plan,
                                        const std::string& result_name) {
  return RunTracked(plan, "<pre-built plan>", result_name, nullptr);
}

Result<TablePtr> SqlEngine::RunTracked(const PlanPtr& plan,
                                       const std::string& sql,
                                       const std::string& result_name,
                                       std::shared_ptr<QueryStats>* stats_out,
                                       const QueryOptions& options) {
  AssignPlanNodeIds(plan);
  auto stats = std::make_shared<QueryStats>(plan);
  if (stats_out != nullptr) *stats_out = stats;

  Executor executor(num_workers_, cluster_, metrics_);
  TraceSpan span("sql.query");
  QueryRecordPtr record = QueryRegistry::Global().Begin(
      sql, stats, span.context().trace_id, options.tenant);
  // RAII: any exit path that skips the explicit Finish below (an early
  // return added later, an abandoned analyze) still retires the record so
  // /queries never reports phantom active queries.
  TrackedQuery tracked(&QueryRegistry::Global(), record);
  executor.set_query_stats(stats.get());
  executor.set_query_id(record->query_id);
  executor.set_cancellation(options.cancellation);
  executor.set_spill_budget(options.spill_budget);

  metrics_->GetCounter("sql.queries")->Add(1);
  Gauge* active = metrics_->GetGauge("sql.queries_active");
  active->Add(1);
  Stopwatch timer;
  Result<Table> rows = executor.Execute(plan);
  const int64_t duration_micros = timer.ElapsedMicros();
  active->Add(-1);
  metrics_->GetHistogram("sql.query_micros")->Record(duration_micros);

  RecordPlannerFeedback(*stats, metrics_);
  MaybeLogSlowQuery(sql, *stats, duration_micros, metrics_);

  int worst_node = -1;
  const double worst_qerror = stats->WorstQError(&worst_node);
  tracked.Finish(rows.status(), duration_micros, worst_qerror);
  span.AddAttribute("query_id", static_cast<int64_t>(record->query_id));
  span.AddAttribute("duration_micros", duration_micros);
  if (!rows.ok()) {
    span.SetError();
    return rows.status();
  }
  span.AddAttribute("rows", static_cast<int64_t>(rows->TotalRows()));

  return std::make_shared<Table>(result_name, std::move(rows).value());
}

Result<TablePtr> SqlEngine::MaterializeSql(const std::string& sql,
                                           const std::string& table_name) {
  ASSIGN_OR_RETURN(TablePtr table, ExecuteSql(sql, table_name));
  catalog_.PutTable(table);
  return table;
}

TablePtr SqlEngine::MakeTable(const std::string& name, SchemaPtr schema) const {
  return std::make_shared<Table>(name, std::move(schema),
                                 static_cast<size_t>(num_workers_));
}

}  // namespace sqlink
