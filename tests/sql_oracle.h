// Naive reference evaluator for the SQL differential tests.
//
// Interprets a planner-bound plan (SqlEngine::Plan) one row at a time with
// BoundExpr::Evaluate, so comparing its results with the executor's also
// checks every BoundExpr::EvaluateBatch against Evaluate, including which
// inputs raise errors. Each operator has one deliberately simple
// implementation: a nested-loop equi join, std::set DISTINCT, std::map
// GROUP BY with its own aggregate rules, a stable sort and a limit. Nothing
// here comes from the executor (no join hash table, aggregate state, group
// table or shuffle), so a bug there cannot hide in both. A table UDF runs
// through its push contract in a plain loop per partition, fed 7-row
// batches: batch boundaries the engine never makes, so a UDF whose output
// depends on where its input is split disagrees with the engine.
//
// Double SUM and AVG depend on summation order, and results print at 17
// digits. The oracle therefore follows the executor's partition contract
// (DESIGN.md §10), and every cell compares exactly:
//  - a scan yields the table's partitions;
//  - filter, project and a join's probe side keep partition p as partition
//    p, in row order;
//  - GROUP BY folds each partition in row order, then merges the partials
//    in partition order, starting from zero.
// DISTINCT, GROUP BY, ORDER BY and LIMIT put their whole output in one
// partition; callers compare results as multisets (or after ORDER BY).

#ifndef SQLINK_TESTS_SQL_ORACLE_H_
#define SQLINK_TESTS_SQL_ORACLE_H_

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status_macros.h"
#include "sql/engine.h"
#include "sql/plan.h"

namespace sqlink::oracle {

using Partitions = std::vector<std::vector<Row>>;

/// SQL filter semantics: only TRUE keeps a row; FALSE and NULL drop it.
inline bool Keeps(const Value& predicate) {
  return predicate.is_bool() && predicate.bool_value();
}

/// Lexicographic row order (Value::operator<) for set and map keys.
struct RowOrder {
  bool operator()(const Row& a, const Row& b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }
};

inline std::vector<Row> Concat(const Partitions& parts) {
  std::vector<Row> all;
  for (const std::vector<Row>& part : parts) {
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

inline Partitions OnePartition(std::vector<Row> rows) {
  Partitions out(1);
  out[0] = std::move(rows);
  return out;
}

inline Result<Partitions> Run(const PlanPtr& plan);

/// Nested loop over every (probe, build) pair: keys must be equal and
/// non-NULL, then the residual decides.
inline Result<Partitions> Join(const PlanNode& join) {
  ASSIGN_OR_RETURN(Partitions probe, Run(join.children[0]));
  ASSIGN_OR_RETURN(Partitions build_parts, Run(join.children[1]));
  const std::vector<Row> build = Concat(build_parts);
  Partitions out(probe.size());
  for (size_t p = 0; p < probe.size(); ++p) {
    for (const Row& left : probe[p]) {
      for (const Row& right : build) {
        bool keys_match = true;
        for (size_t k = 0; k < join.left_keys.size(); ++k) {
          const Value& a = left[static_cast<size_t>(join.left_keys[k])];
          const Value& b = right[static_cast<size_t>(join.right_keys[k])];
          if (a.is_null() || b.is_null() || a != b) keys_match = false;
        }
        if (!keys_match) continue;
        Row joined = left;
        joined.insert(joined.end(), right.begin(), right.end());
        if (join.residual != nullptr) {
          ASSIGN_OR_RETURN(Value keep, join.residual->Evaluate(joined));
          if (!Keeps(keep)) continue;
        }
        out[p].push_back(std::move(joined));
      }
    }
  }
  return out;
}

/// One aggregate's running value in one group.
struct Accumulator {
  int64_t count = 0;      ///< Rows for COUNT(*), non-NULL values otherwise.
  int64_t int_sum = 0;    ///< SUM with an INT64 result.
  double double_sum = 0;  ///< SUM with a DOUBLE result, and AVG.
  Value extreme;          ///< MIN/MAX so far; meaningful once count > 0.
};

inline Status Accumulate(const AggregateSpec& spec, const Row& row,
                         Accumulator* acc) {
  if (spec.func == AggFunc::kCountStar) {
    ++acc->count;
    return Status::OK();
  }
  ASSIGN_OR_RETURN(Value v, spec.argument->Evaluate(row));
  if (v.is_null()) return Status::OK();  // Aggregates ignore NULLs.
  ++acc->count;
  switch (spec.func) {
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (spec.output_type == DataType::kInt64) {
        if (!v.is_int64()) return Status::Internal("oracle: non-INT64 sum");
        acc->int_sum += v.int64_value();
      } else {
        ASSIGN_OR_RETURN(double d, v.AsDouble());
        acc->double_sum += d;
      }
      break;
    case AggFunc::kMin:
      if (acc->count == 1 || v < acc->extreme) acc->extreme = v;
      break;
    case AggFunc::kMax:
      if (acc->count == 1 || acc->extreme < v) acc->extreme = v;
      break;
    default:
      break;
  }
  return Status::OK();
}

/// Adds one partition's partial into the running total.
inline void MergeInto(const AggregateSpec& spec, const Accumulator& part,
                      Accumulator* total) {
  if (part.count == 0) return;
  const bool take_extreme =
      total->count == 0 ||
      (spec.func == AggFunc::kMin && part.extreme < total->extreme) ||
      (spec.func == AggFunc::kMax && total->extreme < part.extreme);
  if (take_extreme) total->extreme = part.extreme;
  total->count += part.count;
  total->int_sum += part.int_sum;
  total->double_sum += part.double_sum;
}

inline Value Finalize(const AggregateSpec& spec, const Accumulator& acc) {
  if (spec.func == AggFunc::kCountStar || spec.func == AggFunc::kCount) {
    return Value::Int64(acc.count);
  }
  if (acc.count == 0) return Value::Null();  // No non-NULL input.
  switch (spec.func) {
    case AggFunc::kSum:
      return spec.output_type == DataType::kInt64 ? Value::Int64(acc.int_sum)
                                                  : Value::Double(acc.double_sum);
    case AggFunc::kAvg:
      return Value::Double(acc.double_sum / static_cast<double>(acc.count));
    default:
      return acc.extreme;
  }
}

inline Result<Partitions> Aggregate(const PlanNode& agg) {
  ASSIGN_OR_RETURN(Partitions input, Run(agg.children[0]));
  const size_t num_aggs = agg.aggregates.size();
  using Groups = std::map<Row, std::vector<Accumulator>, RowOrder>;
  Groups total;
  for (const std::vector<Row>& part : input) {
    Groups partial;
    for (const Row& row : part) {
      Row key;
      for (const BoundExprPtr& expr : agg.group_by) {
        ASSIGN_OR_RETURN(Value v, expr->Evaluate(row));
        key.push_back(std::move(v));
      }
      std::vector<Accumulator>& accs =
          partial.try_emplace(std::move(key), num_aggs).first->second;
      for (size_t a = 0; a < num_aggs; ++a) {
        RETURN_IF_ERROR(Accumulate(agg.aggregates[a], row, &accs[a]));
      }
    }
    for (const auto& [key, accs] : partial) {
      std::vector<Accumulator>& sums =
          total.try_emplace(key, num_aggs).first->second;
      for (size_t a = 0; a < num_aggs; ++a) {
        MergeInto(agg.aggregates[a], accs[a], &sums[a]);
      }
    }
  }
  // Without GROUP BY there is exactly one group, even over no rows.
  if (agg.group_by.empty()) total.try_emplace(Row{}, num_aggs);
  std::vector<Row> out;
  for (const auto& [key, accs] : total) {
    Row row = key;
    for (size_t a = 0; a < num_aggs; ++a) {
      row.push_back(Finalize(agg.aggregates[a], accs[a]));
    }
    out.push_back(std::move(row));
  }
  return OnePartition(std::move(out));
}

/// For each input partition p: Open with worker_id = p, Consume its rows in
/// order in batches of 7, then Finish; the rows the UDF appends form output
/// partition p.
inline Result<Partitions> ApplyTableUdf(const PlanNode& node) {
  if (node.children.empty()) {
    return Status::Unimplemented("oracle: source table UDFs");
  }
  constexpr size_t kBatchRows = 7;
  ASSIGN_OR_RETURN(Partitions in, Run(node.children[0]));
  Partitions out(in.size());
  for (size_t p = 0; p < in.size(); ++p) {
    TableUdfContext context;
    context.worker_id = static_cast<int>(p);
    context.num_workers = static_cast<int>(in.size());
    context.metrics = &MetricsRegistry::Global();
    ASSIGN_OR_RETURN(TableUdfPartitionPtr partition, node.udf->Open(context));
    const auto append = [&](const ColumnBatch& output) {
      for (Row& row : output.ToRows()) out[p].push_back(std::move(row));
    };
    for (size_t begin = 0; begin < in[p].size(); begin += kBatchRows) {
      const size_t end = std::min(in[p].size(), begin + kBatchRows);
      ASSIGN_OR_RETURN(
          ColumnBatch input,
          ColumnBatch::FromRows(
              node.children[0]->output_schema,
              std::vector<Row>(in[p].begin() + static_cast<ptrdiff_t>(begin),
                               in[p].begin() + static_cast<ptrdiff_t>(end))));
      ColumnBatch output(node.output_schema);
      RETURN_IF_ERROR(partition->Consume(std::move(input), &output));
      append(output);
    }
    ColumnBatch output(node.output_schema);
    RETURN_IF_ERROR(partition->Finish(&output));
    append(output);
  }
  return out;
}

/// Evaluates `plan`, one output partition per partition of its input.
inline Result<Partitions> Run(const PlanPtr& plan) {
  const PlanNode& node = *plan;
  switch (node.kind) {
    case PlanKind::kScan:
    case PlanKind::kMaterialized: {
      Partitions out;
      for (size_t p = 0; p < node.table->num_partitions(); ++p) {
        out.push_back(node.table->partition(p));
      }
      return out;
    }
    case PlanKind::kFilter: {
      ASSIGN_OR_RETURN(Partitions in, Run(node.children[0]));
      Partitions out(in.size());
      for (size_t p = 0; p < in.size(); ++p) {
        for (Row& row : in[p]) {
          ASSIGN_OR_RETURN(Value keep, node.predicate->Evaluate(row));
          if (Keeps(keep)) out[p].push_back(std::move(row));
        }
      }
      return out;
    }
    case PlanKind::kProject: {
      ASSIGN_OR_RETURN(Partitions in, Run(node.children[0]));
      Partitions out(in.size());
      for (size_t p = 0; p < in.size(); ++p) {
        for (const Row& row : in[p]) {
          Row projected;
          for (const BoundExprPtr& expr : node.projections) {
            ASSIGN_OR_RETURN(Value v, expr->Evaluate(row));
            projected.push_back(std::move(v));
          }
          out[p].push_back(std::move(projected));
        }
      }
      return out;
    }
    case PlanKind::kHashJoin:
      return Join(node);
    case PlanKind::kDistinct: {
      ASSIGN_OR_RETURN(Partitions in, Run(node.children[0]));
      const std::vector<Row> all = Concat(in);
      const std::set<Row, RowOrder> unique(all.begin(), all.end());
      return OnePartition(std::vector<Row>(unique.begin(), unique.end()));
    }
    case PlanKind::kAggregate:
      return Aggregate(node);
    case PlanKind::kSort: {
      ASSIGN_OR_RETURN(Partitions in, Run(node.children[0]));
      std::vector<Row> all = Concat(in);
      std::stable_sort(all.begin(), all.end(), [&](const Row& a, const Row& b) {
        for (size_t i = 0; i < node.sort_keys.size(); ++i) {
          const Value& x = a[static_cast<size_t>(node.sort_keys[i])];
          const Value& y = b[static_cast<size_t>(node.sort_keys[i])];
          if (x < y || y < x) return node.sort_descending[i] ? y < x : x < y;
        }
        return false;
      });
      return OnePartition(std::move(all));
    }
    case PlanKind::kLimit: {
      ASSIGN_OR_RETURN(Partitions in, Run(node.children[0]));
      std::vector<Row> all = Concat(in);
      if (all.size() > static_cast<size_t>(node.limit)) {
        all.resize(static_cast<size_t>(node.limit));
      }
      return OnePartition(std::move(all));
    }
    case PlanKind::kTableUdf:
      return ApplyTableUdf(node);
  }
  return Status::Internal("oracle: unknown plan kind");
}

/// Plans `sql` on `engine` and evaluates it; the rows of every partition,
/// in partition order.
inline Result<std::vector<Row>> RunSql(SqlEngine* engine,
                                       const std::string& sql) {
  ASSIGN_OR_RETURN(PlanPtr plan, engine->Plan(sql));
  ASSIGN_OR_RETURN(Partitions parts, Run(plan));
  return Concat(parts);
}

}  // namespace sqlink::oracle

#endif  // SQLINK_TESTS_SQL_ORACLE_H_
