#include "sql/planner.h"

#include <algorithm>
#include <functional>

#include "common/status_macros.h"
#include "common/string_util.h"

namespace sqlink {

namespace {

/// True if the expression contains any column reference.
bool HasColumnRef(const Expr& expr) {
  if (expr.kind == ExprKind::kColumnRef) return true;
  for (const ExprPtr& child : expr.children) {
    if (HasColumnRef(*child)) return true;
  }
  return false;
}

/// True if the expression contains an aggregate function call.
bool HasAggregate(const Expr& expr) {
  if (expr.kind == ExprKind::kFunctionCall &&
      IsAggregateFunctionName(expr.function_name)) {
    return true;
  }
  for (const ExprPtr& child : expr.children) {
    if (HasAggregate(*child)) return true;
  }
  return false;
}

/// Tries to bind against a scope; true on success.
bool BindsWithin(const Expr& expr, const NameScope& scope,
                 const ScalarFunctionRegistry& scalars) {
  return BindExpression(expr, scope, scalars).ok();
}

/// A human-friendly output name for a select expression.
std::string DeriveOutputName(const SelectItem& item, size_t position) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == ExprKind::kColumnRef) return item.expr->column;
  if (item.expr->kind == ExprKind::kFunctionCall) {
    return ToLowerAscii(item.expr->function_name);
  }
  return "col" + std::to_string(position);
}

Result<AggFunc> AggFuncFromName(const std::string& name, bool has_arg) {
  if (EqualsIgnoreCase(name, "count")) {
    return has_arg ? AggFunc::kCount : AggFunc::kCountStar;
  }
  if (EqualsIgnoreCase(name, "sum")) return AggFunc::kSum;
  if (EqualsIgnoreCase(name, "min")) return AggFunc::kMin;
  if (EqualsIgnoreCase(name, "max")) return AggFunc::kMax;
  if (EqualsIgnoreCase(name, "avg")) return AggFunc::kAvg;
  return Status::InvalidArgument("unknown aggregate: " + name);
}

DataType AggOutputType(AggFunc func, DataType arg_type) {
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return DataType::kInt64;
    case AggFunc::kAvg:
      return DataType::kDouble;
    case AggFunc::kSum:
    case AggFunc::kMin:
    case AggFunc::kMax:
      return arg_type;
  }
  return DataType::kDouble;
}

/// Output rows of an aggregate over `input_rows` input rows: one without
/// GROUP BY; when every key is a plain column with catalog stats, the
/// product of the keys' NDVs (a nullable key adds the NULL group), capped
/// at the input; otherwise the input/10 guess.
double EstimateGroupCount(const std::vector<ExprPtr>& keys,
                          const NameScope& scope,
                          const std::vector<ColumnStats>& stats,
                          double input_rows) {
  if (keys.empty()) return 1.0;
  const double guess = std::max(1.0, input_rows / 10.0);
  double groups = 1.0;
  for (const ExprPtr& key : keys) {
    if (key->kind != ExprKind::kColumnRef) return guess;
    auto column = scope.Resolve(key->qualifier, key->column);
    if (!column.ok()) return guess;
    const size_t index = static_cast<size_t>(column->index);
    if (index >= stats.size() || stats[index].distinct_values < 1) {
      return guess;
    }
    groups *= stats[index].distinct_values +
              (stats[index].null_fraction > 0 ? 1.0 : 0.0);
  }
  return std::max(1.0, std::min(input_rows, groups));
}

}  // namespace

Planner::Planner(const Catalog* catalog, const ScalarFunctionRegistry* scalars,
                 const TableUdfRegistry* table_udfs, int num_partitions)
    : catalog_(catalog),
      scalars_(scalars),
      table_udfs_(table_udfs),
      num_partitions_(num_partitions) {}

double Planner::EstimateSelectivity(
    const Expr& expr, const NameScope& scope,
    const std::vector<ColumnStats>& stats) const {
  constexpr double kDefault = 1.0 / 3.0;
  auto column_stats = [&](const Expr& node) -> const ColumnStats* {
    if (node.kind != ExprKind::kColumnRef) return nullptr;
    auto resolved = scope.Resolve(node.qualifier, node.column);
    if (!resolved.ok() || resolved->index < 0 ||
        static_cast<size_t>(resolved->index) >= stats.size()) {
      return nullptr;
    }
    return &stats[static_cast<size_t>(resolved->index)];
  };
  auto clamp = [](double s) { return std::min(1.0, std::max(0.0, s)); };
  switch (expr.kind) {
    case ExprKind::kComparison: {
      const ColumnStats* left = column_stats(*expr.children[0]);
      const ColumnStats* right = column_stats(*expr.children[1]);
      const ColumnStats* col = left != nullptr ? left : right;
      const bool equality = expr.op == "=";
      const bool inequality = expr.op == "!=" || expr.op == "<>";
      if (col == nullptr || col->distinct_values < 1) {
        return equality ? 0.1 : kDefault;
      }
      double ndv = col->distinct_values;
      if (left != nullptr && right != nullptr) {
        ndv = std::max(ndv, std::max(1.0, right->distinct_values));
      }
      if (equality) return clamp(1.0 / ndv);
      if (inequality) return clamp(1.0 - 1.0 / ndv);
      return kDefault;  // Range predicate.
    }
    case ExprKind::kIsNull: {
      const ColumnStats* col = column_stats(*expr.children[0]);
      if (col == nullptr) return expr.is_not_null ? 1.0 - kDefault : kDefault;
      return clamp(expr.is_not_null ? 1.0 - col->null_fraction
                                    : col->null_fraction);
    }
    case ExprKind::kAnd:
      return clamp(EstimateSelectivity(*expr.children[0], scope, stats) *
                   EstimateSelectivity(*expr.children[1], scope, stats));
    case ExprKind::kOr: {
      const double a = EstimateSelectivity(*expr.children[0], scope, stats);
      const double b = EstimateSelectivity(*expr.children[1], scope, stats);
      return clamp(a + b - a * b);
    }
    case ExprKind::kNot:
      return clamp(1.0 -
                   EstimateSelectivity(*expr.children[0], scope, stats));
    case ExprKind::kLiteral:
      if (expr.literal.is_bool()) return expr.literal.bool_value() ? 1.0 : 0.0;
      return kDefault;
    default:
      return kDefault;
  }
}

Result<Value> Planner::EvaluateConstant(const Expr& expr) {
  if (HasColumnRef(expr)) {
    return Status::InvalidArgument(
        "table UDF scalar arguments must be constants: " + expr.ToString());
  }
  NameScope empty;
  ASSIGN_OR_RETURN(BoundExprPtr bound, BindExpression(expr, empty, *scalars_));
  Row no_row;
  return bound->Evaluate(no_row);
}

Result<Planner::RelationPlan> Planner::PlanTableRef(const TableRef& ref) {
  switch (ref.kind) {
    case TableRef::Kind::kTable: {
      ASSIGN_OR_RETURN(TablePtr table, catalog_->GetTable(ref.name));
      auto node = std::make_shared<PlanNode>();
      node->kind = PlanKind::kScan;
      node->table = table;
      node->output_schema = table->schema();
      node->estimated_rows = static_cast<double>(table->TotalRows());
      RelationPlan relation;
      relation.plan = std::move(node);
      relation.scope.AddRelation(ref.BindingName(), table->schema());
      auto stats = catalog_->GetStats(ref.name);
      if (stats.ok()) relation.column_stats = (*stats)->columns;
      return relation;
    }
    case TableRef::Kind::kSubquery: {
      ASSIGN_OR_RETURN(PlanPtr child, PlanSelect(*ref.subquery));
      RelationPlan relation;
      relation.scope.AddRelation(ref.BindingName(), child->output_schema);
      relation.plan = std::move(child);
      return relation;
    }
    case TableRef::Kind::kTableFunction: {
      ASSIGN_OR_RETURN(TableUdfPtr udf, table_udfs_->Create(ref.name));
      PlanPtr input;
      std::vector<Value> scalar_args;
      for (const TableFuncArg& arg : ref.args) {
        if (arg.subquery != nullptr) {
          if (input != nullptr) {
            return Status::InvalidArgument(
                "table UDF takes at most one relation argument: " + ref.name);
          }
          ASSIGN_OR_RETURN(input, PlanSelect(*arg.subquery));
        } else if (arg.expr->kind == ExprKind::kColumnRef &&
                   arg.expr->qualifier.empty() &&
                   catalog_->HasTable(arg.expr->column)) {
          // A bare table name as argument: TABLE(f(carts)) scans carts.
          if (input != nullptr) {
            return Status::InvalidArgument(
                "table UDF takes at most one relation argument: " + ref.name);
          }
          ASSIGN_OR_RETURN(TablePtr table, catalog_->GetTable(arg.expr->column));
          input = std::make_shared<PlanNode>();
          input->kind = PlanKind::kScan;
          input->table = table;
          input->output_schema = table->schema();
          input->estimated_rows = static_cast<double>(table->TotalRows());
        } else {
          ASSIGN_OR_RETURN(Value value, EvaluateConstant(*arg.expr));
          scalar_args.push_back(std::move(value));
        }
      }
      const SchemaPtr input_schema =
          input == nullptr ? nullptr : input->output_schema;
      auto bound_schema = udf->Bind(input_schema, scalar_args);
      if (!bound_schema.ok()) {
        return bound_schema.status().WithContext("binding table UDF " +
                                                 ref.name);
      }
      auto node = std::make_shared<PlanNode>();
      node->kind = PlanKind::kTableUdf;
      node->udf_name = ref.name;
      node->udf = std::move(udf);
      node->udf_args = std::move(scalar_args);
      node->output_schema = *bound_schema;
      node->estimated_rows =
          input == nullptr ? 1000.0 : input->estimated_rows;
      if (input != nullptr) node->children.push_back(std::move(input));
      RelationPlan relation;
      relation.scope.AddRelation(ref.BindingName(), node->output_schema);
      relation.plan = std::move(node);
      return relation;
    }
  }
  return Status::Internal("unhandled table ref kind");
}

Result<Planner::RelationPlan> Planner::PlanFromWhere(const SelectStmt& stmt) {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("FROM clause is required");
  }
  std::vector<RelationPlan> relations;
  relations.reserve(stmt.from.size());
  for (const TableRef& ref : stmt.from) {
    ASSIGN_OR_RETURN(RelationPlan relation, PlanTableRef(ref));
    relations.push_back(std::move(relation));
  }

  const std::vector<ExprPtr> conjuncts = SplitConjuncts(stmt.where);

  // Classify conjuncts: push single-relation predicates down; keep the rest
  // for join conditions / a final filter.
  std::vector<std::vector<ExprPtr>> pushed(relations.size());
  std::vector<ExprPtr> join_level;
  std::vector<ExprPtr> top_level;
  for (const ExprPtr& conjunct : conjuncts) {
    if (!HasColumnRef(*conjunct)) {
      top_level.push_back(conjunct);
      continue;
    }
    int bindable_in = -1;
    int bindable_count = 0;
    for (size_t i = 0; i < relations.size(); ++i) {
      if (BindsWithin(*conjunct, relations[i].scope, *scalars_)) {
        bindable_in = static_cast<int>(i);
        ++bindable_count;
      }
    }
    if (bindable_count == 1) {
      pushed[static_cast<size_t>(bindable_in)].push_back(conjunct);
    } else {
      join_level.push_back(conjunct);
    }
  }

  // Apply pushed filters, scaling cardinality by estimated selectivity and
  // capping downstream NDV estimates at the surviving row count.
  for (size_t i = 0; i < relations.size(); ++i) {
    if (pushed[i].empty()) continue;
    double selectivity = 1.0;
    for (const ExprPtr& conjunct : pushed[i]) {
      selectivity *= EstimateSelectivity(*conjunct, relations[i].scope,
                                         relations[i].column_stats);
    }
    const ExprPtr combined = CombineConjuncts(pushed[i]);
    ASSIGN_OR_RETURN(BoundExprPtr bound,
                     BindExpression(*combined, relations[i].scope, *scalars_));
    auto filter = std::make_shared<PlanNode>();
    filter->kind = PlanKind::kFilter;
    filter->predicate = std::move(bound);
    filter->output_schema = relations[i].plan->output_schema;
    filter->estimated_rows =
        std::max(1.0, relations[i].plan->estimated_rows * selectivity);
    filter->children.push_back(relations[i].plan);
    relations[i].plan = std::move(filter);
    for (ColumnStats& col : relations[i].column_stats) {
      col.distinct_values =
          std::min(col.distinct_values, relations[i].plan->estimated_rows);
    }
  }

  // Left-deep join chain in FROM order.
  RelationPlan current = std::move(relations[0]);
  std::vector<bool> used(join_level.size(), false);
  for (size_t r = 1; r < relations.size(); ++r) {
    RelationPlan& right = relations[r];
    NameScope combined_scope = current.scope;
    for (int i = 0; i < right.scope.num_relations(); ++i) {
      combined_scope.AddRelation(right.scope.relation_qualifier(i),
                                 right.scope.relation_schema(i));
    }

    std::vector<int> left_keys;
    std::vector<int> right_keys;
    std::vector<ExprPtr> residuals;
    for (size_t c = 0; c < join_level.size(); ++c) {
      if (used[c]) continue;
      const ExprPtr& conjunct = join_level[c];
      if (!BindsWithin(*conjunct, combined_scope, *scalars_)) continue;
      used[c] = true;
      // Equi-join key? `a.x = b.y` with sides on opposite inputs.
      bool is_key = false;
      if (conjunct->kind == ExprKind::kComparison && conjunct->op == "=" &&
          conjunct->children[0]->kind == ExprKind::kColumnRef &&
          conjunct->children[1]->kind == ExprKind::kColumnRef) {
        const Expr& a = *conjunct->children[0];
        const Expr& b = *conjunct->children[1];
        auto a_left = current.scope.Resolve(a.qualifier, a.column);
        auto a_right = right.scope.Resolve(a.qualifier, a.column);
        auto b_left = current.scope.Resolve(b.qualifier, b.column);
        auto b_right = right.scope.Resolve(b.qualifier, b.column);
        if (a_left.ok() && !a_right.ok() && b_right.ok() && !b_left.ok()) {
          left_keys.push_back(a_left->index);
          right_keys.push_back(b_right->index);
          is_key = true;
        } else if (b_left.ok() && !b_right.ok() && a_right.ok() &&
                   !a_left.ok()) {
          left_keys.push_back(b_left->index);
          right_keys.push_back(a_right->index);
          is_key = true;
        }
      }
      if (!is_key) residuals.push_back(conjunct);
    }

    auto join = std::make_shared<PlanNode>();
    join->kind = PlanKind::kHashJoin;
    join->children = {current.plan, right.plan};
    join->left_keys = std::move(left_keys);
    join->right_keys = std::move(right_keys);
    if (!residuals.empty()) {
      const ExprPtr combined = CombineConjuncts(residuals);
      ASSIGN_OR_RETURN(join->residual,
                       BindExpression(*combined, combined_scope, *scalars_));
    }
    join->output_schema = combined_scope.FlatSchema();

    // Output cardinality: |L|*|R| / max key NDV when stats know the keys;
    // the pre-stats heuristic max(|L|, |R|) otherwise.
    const double left_rows = std::max(1.0, current.plan->estimated_rows);
    const double right_rows = std::max(1.0, right.plan->estimated_rows);
    double key_ndv = 0;
    for (size_t k = 0; k < join->left_keys.size(); ++k) {
      const size_t li = static_cast<size_t>(join->left_keys[k]);
      const size_t ri = static_cast<size_t>(join->right_keys[k]);
      double pair_ndv = 0;
      if (li < current.column_stats.size()) {
        pair_ndv = current.column_stats[li].distinct_values;
      }
      if (ri < right.column_stats.size()) {
        pair_ndv = std::max(pair_ndv, right.column_stats[ri].distinct_values);
      }
      key_ndv = std::max(key_ndv, pair_ndv);
    }
    if (!join->left_keys.empty() && key_ndv >= 1) {
      join->estimated_rows = std::max(1.0, left_rows * right_rows / key_ndv);
    } else if (join->left_keys.empty()) {
      join->estimated_rows = left_rows * right_rows;  // Cross join.
    } else {
      join->estimated_rows =
          std::max(current.plan->estimated_rows, right.plan->estimated_rows);
    }

    // Flat-schema stats for the joined relation; missing sides padded with
    // unknown-NDV entries so indices keep lining up.
    std::vector<ColumnStats> joined_stats = std::move(current.column_stats);
    joined_stats.resize(
        static_cast<size_t>(join->children[0]->output_schema->num_fields()));
    std::vector<ColumnStats> right_stats = std::move(right.column_stats);
    right_stats.resize(
        static_cast<size_t>(right.plan->output_schema->num_fields()));
    joined_stats.insert(joined_stats.end(), right_stats.begin(),
                        right_stats.end());
    current.plan = std::move(join);
    current.scope = std::move(combined_scope);
    current.column_stats = std::move(joined_stats);
  }

  // Conjuncts that never attached (e.g. constants, ambiguous names).
  for (size_t c = 0; c < join_level.size(); ++c) {
    if (!used[c]) top_level.push_back(join_level[c]);
  }
  if (!top_level.empty()) {
    double selectivity = 1.0;
    for (const ExprPtr& conjunct : top_level) {
      selectivity *=
          EstimateSelectivity(*conjunct, current.scope, current.column_stats);
    }
    const ExprPtr combined = CombineConjuncts(top_level);
    ASSIGN_OR_RETURN(BoundExprPtr bound,
                     BindExpression(*combined, current.scope, *scalars_));
    auto filter = std::make_shared<PlanNode>();
    filter->kind = PlanKind::kFilter;
    filter->predicate = std::move(bound);
    filter->output_schema = current.plan->output_schema;
    filter->estimated_rows =
        std::max(1.0, current.plan->estimated_rows * selectivity);
    filter->children.push_back(current.plan);
    current.plan = std::move(filter);
  }
  return current;
}

Result<PlanPtr> Planner::PlanSelect(const SelectStmt& stmt) {
  ASSIGN_OR_RETURN(RelationPlan input, PlanFromWhere(stmt));

  // Expand stars and collect select expressions.
  std::vector<SelectItem> items;
  for (const SelectItem& item : stmt.items) {
    if (!item.is_star) {
      items.push_back(item);
      continue;
    }
    for (int r = 0; r < input.scope.num_relations(); ++r) {
      const std::string& qualifier = input.scope.relation_qualifier(r);
      if (!item.star_qualifier.empty() &&
          !EqualsIgnoreCase(item.star_qualifier, qualifier)) {
        continue;
      }
      const SchemaPtr& schema = input.scope.relation_schema(r);
      for (const Field& field : schema->fields()) {
        SelectItem expanded;
        expanded.expr = Expr::MakeColumn(qualifier, field.name);
        expanded.alias = field.name;
        items.push_back(std::move(expanded));
      }
    }
  }
  if (items.empty()) {
    return Status::InvalidArgument("empty select list");
  }

  const bool has_aggregate =
      !stmt.group_by.empty() ||
      std::any_of(items.begin(), items.end(), [](const SelectItem& item) {
        return HasAggregate(*item.expr);
      });

  PlanPtr plan = input.plan;
  if (has_aggregate) {
    auto agg = std::make_shared<PlanNode>();
    agg->kind = PlanKind::kAggregate;
    agg->children.push_back(plan);

    std::vector<Field> out_fields;
    // Bind group keys.
    for (const ExprPtr& key : stmt.group_by) {
      ASSIGN_OR_RETURN(BoundExprPtr bound,
                       BindExpression(*key, input.scope, *scalars_));
      std::string name =
          key->kind == ExprKind::kColumnRef ? key->column : "key";
      out_fields.push_back(Field{name, bound->output_type()});
      agg->group_by.push_back(std::move(bound));
    }
    // Bind aggregate select items; non-aggregate items must match a group
    // key structurally.
    std::vector<int> item_to_output;  // Output column index per select item.
    std::vector<ExprPtr> agg_asts;    // Original AST per aggregate spec.
    for (size_t i = 0; i < items.size(); ++i) {
      const SelectItem& item = items[i];
      if (item.expr->kind == ExprKind::kFunctionCall &&
          IsAggregateFunctionName(item.expr->function_name)) {
        AggregateSpec spec;
        ASSIGN_OR_RETURN(
            spec.func,
            AggFuncFromName(item.expr->function_name,
                            !item.expr->children.empty()));
        DataType arg_type = DataType::kInt64;
        if (!item.expr->children.empty()) {
          ASSIGN_OR_RETURN(
              spec.argument,
              BindExpression(*item.expr->children[0], input.scope, *scalars_));
          arg_type = spec.argument->output_type();
          if (spec.func != AggFunc::kMin && spec.func != AggFunc::kMax &&
              spec.func != AggFunc::kCount && arg_type != DataType::kInt64 &&
              arg_type != DataType::kDouble) {
            return Status::InvalidArgument("aggregate requires numeric arg: " +
                                           item.expr->ToString());
          }
        }
        spec.output_type = AggOutputType(spec.func, arg_type);
        spec.output_name = DeriveOutputName(item, i);
        item_to_output.push_back(-1);  // Aggregates resolved positionally.
        agg_asts.push_back(item.expr);
        agg->aggregates.push_back(std::move(spec));
      } else {
        int key_index = -1;
        for (size_t k = 0; k < stmt.group_by.size(); ++k) {
          if (ExprEquals(*item.expr, *stmt.group_by[k])) {
            key_index = static_cast<int>(k);
            break;
          }
        }
        if (key_index < 0) {
          return Status::InvalidArgument(
              "select item must be an aggregate or appear in GROUP BY: " +
              item.expr->ToString());
        }
        item_to_output.push_back(key_index);
        if (!item.alias.empty()) {
          out_fields[static_cast<size_t>(key_index)].name = item.alias;
        }
      }
    }
    for (const AggregateSpec& spec : agg->aggregates) {
      out_fields.push_back(Field{spec.output_name, spec.output_type});
    }
    agg->output_schema = Schema::Make(std::move(out_fields));
    agg->estimated_rows = EstimateGroupCount(
        stmt.group_by, input.scope, input.column_stats, plan->estimated_rows);
    plan = agg;

    if (stmt.having != nullptr) {
      // Rewrite HAVING over the aggregate's output: each aggregate call
      // must structurally match one computed in the SELECT list; group-by
      // expressions resolve to their key columns.
      std::function<Result<ExprPtr>(const Expr&)> rewrite =
          [&](const Expr& node) -> Result<ExprPtr> {
        if (node.kind == ExprKind::kFunctionCall &&
            IsAggregateFunctionName(node.function_name)) {
          for (size_t a = 0; a < agg_asts.size(); ++a) {
            if (ExprEquals(node, *agg_asts[a])) {
              return Expr::MakeColumn("", agg->aggregates[a].output_name);
            }
          }
          return Status::InvalidArgument(
              "aggregate in HAVING must also appear in the SELECT list: " +
              node.ToString());
        }
        for (size_t k = 0; k < stmt.group_by.size(); ++k) {
          if (ExprEquals(node, *stmt.group_by[k])) {
            return Expr::MakeColumn(
                "", plan->output_schema->field(static_cast<int>(k)).name);
          }
        }
        auto copy = std::make_shared<Expr>(node);
        copy->children.clear();
        for (const ExprPtr& child : node.children) {
          ASSIGN_OR_RETURN(ExprPtr rewritten_child, rewrite(*child));
          copy->children.push_back(std::move(rewritten_child));
        }
        return copy;
      };
      ASSIGN_OR_RETURN(ExprPtr rewritten, rewrite(*stmt.having));
      NameScope agg_scope;
      agg_scope.AddRelation("", plan->output_schema);
      ASSIGN_OR_RETURN(BoundExprPtr bound,
                       BindExpression(*rewritten, agg_scope, *scalars_));
      auto filter = std::make_shared<PlanNode>();
      filter->kind = PlanKind::kFilter;
      filter->predicate = std::move(bound);
      filter->output_schema = plan->output_schema;
      filter->estimated_rows = plan->estimated_rows / 3.0;
      filter->children.push_back(plan);
      plan = filter;
    }

    // Reorder aggregate output into select-list order when needed.
    const int num_keys = static_cast<int>(stmt.group_by.size());
    bool identity = items.size() == static_cast<size_t>(
                                        plan->output_schema->num_fields());
    std::vector<int> out_indices;
    int next_agg = 0;
    for (size_t i = 0; i < items.size(); ++i) {
      const SelectItem& item = items[i];
      const bool is_agg =
          item.expr->kind == ExprKind::kFunctionCall &&
          IsAggregateFunctionName(item.expr->function_name);
      const int out_index =
          is_agg ? num_keys + next_agg++ : item_to_output[i];
      out_indices.push_back(out_index);
      if (out_index != static_cast<int>(i)) identity = false;
    }
    if (!identity) {
      auto project = std::make_shared<PlanNode>();
      project->kind = PlanKind::kProject;
      std::vector<Field> fields;
      for (size_t i = 0; i < items.size(); ++i) {
        const Field& src =
            plan->output_schema->field(out_indices[i]);
        project->projections.push_back(
            MakeColumnReference(out_indices[i], src.type));
        fields.push_back(src);
      }
      project->output_schema = Schema::Make(std::move(fields));
      project->estimated_rows = plan->estimated_rows;
      project->children.push_back(plan);
      plan = project;
    }
  } else {
    // Plain projection. Skip it only when the select list is exactly the
    // input schema in order (SELECT * over a single relation).
    auto project = std::make_shared<PlanNode>();
    project->kind = PlanKind::kProject;
    std::vector<Field> fields;
    for (size_t i = 0; i < items.size(); ++i) {
      ASSIGN_OR_RETURN(BoundExprPtr bound,
                       BindExpression(*items[i].expr, input.scope, *scalars_));
      fields.push_back(
          Field{DeriveOutputName(items[i], i), bound->output_type()});
      project->projections.push_back(std::move(bound));
    }
    project->output_schema = Schema::Make(std::move(fields));
    project->estimated_rows = plan->estimated_rows;
    project->children.push_back(plan);
    plan = project;
  }

  // ORDER BY columns that are not projected are carried as hidden sort
  // columns (appended to the projection, stripped after the sort). This is
  // only possible for plain projections without DISTINCT.
  int hidden_columns = 0;
  if (!stmt.order_by.empty() && !has_aggregate && !stmt.distinct &&
      plan->kind == PlanKind::kProject) {
    std::vector<Field> fields(plan->output_schema->fields());
    for (const OrderItem& item : stmt.order_by) {
      if (item.expr->kind != ExprKind::kColumnRef) continue;
      if (plan->output_schema->FieldIndex(item.expr->column) >= 0) continue;
      auto bound = BindExpression(*item.expr, input.scope, *scalars_);
      if (!bound.ok()) continue;  // Surfaces as an error below.
      fields.push_back(Field{item.expr->column, (*bound)->output_type()});
      plan->projections.push_back(std::move(*bound));
      ++hidden_columns;
    }
    if (hidden_columns > 0) plan->output_schema = Schema::Make(fields);
  }

  if (stmt.distinct) {
    auto distinct = std::make_shared<PlanNode>();
    distinct->kind = PlanKind::kDistinct;
    distinct->output_schema = plan->output_schema;
    distinct->estimated_rows = std::max(1.0, plan->estimated_rows / 2.0);
    distinct->children.push_back(plan);
    plan = distinct;
  }

  if (!stmt.order_by.empty()) {
    auto sort = std::make_shared<PlanNode>();
    sort->kind = PlanKind::kSort;
    sort->output_schema = plan->output_schema;
    sort->estimated_rows = plan->estimated_rows;
    for (const OrderItem& item : stmt.order_by) {
      int index = -1;
      if (item.expr->kind == ExprKind::kColumnRef) {
        index = plan->output_schema->FieldIndex(item.expr->column);
      } else if (item.expr->kind == ExprKind::kLiteral &&
                 item.expr->literal.is_int64()) {
        const int64_t position = item.expr->literal.int64_value();
        if (position >= 1 &&
            position <= plan->output_schema->num_fields()) {
          index = static_cast<int>(position) - 1;
        }
      }
      if (index < 0) {
        return Status::InvalidArgument(
            "ORDER BY must name an output column: " + item.expr->ToString());
      }
      sort->sort_keys.push_back(index);
      sort->sort_descending.push_back(item.descending);
    }
    sort->children.push_back(plan);
    plan = sort;
  }

  if (hidden_columns > 0) {
    // Strip the hidden sort columns.
    auto strip = std::make_shared<PlanNode>();
    strip->kind = PlanKind::kProject;
    const int kept = plan->output_schema->num_fields() - hidden_columns;
    std::vector<Field> fields;
    for (int i = 0; i < kept; ++i) {
      const Field& field = plan->output_schema->field(i);
      strip->projections.push_back(MakeColumnReference(i, field.type));
      fields.push_back(field);
    }
    strip->output_schema = Schema::Make(std::move(fields));
    strip->estimated_rows = plan->estimated_rows;
    strip->children.push_back(plan);
    plan = strip;
  }

  if (stmt.limit >= 0) {
    auto limit = std::make_shared<PlanNode>();
    limit->kind = PlanKind::kLimit;
    limit->output_schema = plan->output_schema;
    limit->limit = stmt.limit;
    limit->estimated_rows =
        std::min(plan->estimated_rows, static_cast<double>(stmt.limit));
    limit->children.push_back(plan);
    plan = limit;
  }
  return plan;
}

}  // namespace sqlink
