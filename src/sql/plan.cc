#include "sql/plan.h"

#include <cmath>
#include <cstdio>

namespace sqlink {

namespace {

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kScan:
      return "Scan";
    case PlanKind::kFilter:
      return "Filter";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kHashJoin:
      return "HashJoin";
    case PlanKind::kDistinct:
      return "Distinct";
    case PlanKind::kAggregate:
      return "Aggregate";
    case PlanKind::kSort:
      return "Sort";
    case PlanKind::kLimit:
      return "Limit";
    case PlanKind::kTableUdf:
      return "TableUdf";
    case PlanKind::kMaterialized:
      return "Materialized";
  }
  return "?";
}

}  // namespace

std::string PlanNode::ToString() const {
  std::string out = PlanKindName(kind);
  switch (kind) {
    case PlanKind::kScan:
    case PlanKind::kMaterialized:
      if (table != nullptr) out += "(" + table->name() + ")";
      break;
    case PlanKind::kHashJoin:
      out += "[broadcast]";
      break;
    case PlanKind::kTableUdf:
      out += "(" + udf_name + ")";
      break;
    case PlanKind::kLimit:
      out += "(" + std::to_string(limit) + ")";
      break;
    default:
      break;
  }
  out += " -> [" + output_schema->ToString() + "]";
  return out;
}

std::string PlanTreeToString(const PlanPtr& plan, int indent) {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += plan->ToString();
  out += "\n";
  for (const PlanPtr& child : plan->children) {
    out += PlanTreeToString(child, indent + 1);
  }
  return out;
}

namespace {

double SubtreeCost(const PlanPtr& plan) {
  double cost = plan->estimated_rows;
  for (const PlanPtr& child : plan->children) cost += SubtreeCost(child);
  return cost;
}

void AppendExplainLine(const PlanPtr& plan, int indent, std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  *out += plan->ToString();
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "  (est=%lld rows, cost=%lld)",
                static_cast<long long>(std::llround(plan->estimated_rows)),
                static_cast<long long>(std::llround(SubtreeCost(plan))));
  *out += buffer;
  out->push_back('\n');
  for (const PlanPtr& child : plan->children) {
    AppendExplainLine(child, indent + 1, out);
  }
}

}  // namespace

std::string ExplainPlanText(const PlanPtr& plan) {
  std::string out;
  AppendExplainLine(plan, 0, &out);
  return out;
}

}  // namespace sqlink
