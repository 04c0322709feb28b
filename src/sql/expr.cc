#include "sql/expr.h"

#include <cmath>
#include <cstdlib>
#include <string_view>

#include "common/logging.h"
#include "common/status_macros.h"
#include "common/string_util.h"

namespace sqlink {

// ---------------------------------------------------------------------------
// NameScope

void NameScope::AddRelation(const std::string& qualifier,
                            const SchemaPtr& schema) {
  const int relation = static_cast<int>(relations_.size());
  relations_.push_back(Relation{qualifier, schema});
  for (const Field& field : schema->fields()) {
    columns_.push_back(ColumnEntry{relation, field.name, field.type});
  }
}

Result<NameScope::Resolution> NameScope::Resolve(
    const std::string& qualifier, const std::string& column) const {
  int found = -1;
  for (size_t i = 0; i < columns_.size(); ++i) {
    const ColumnEntry& entry = columns_[i];
    if (!EqualsIgnoreCase(entry.name, column)) continue;
    if (!qualifier.empty() &&
        !EqualsIgnoreCase(relations_[static_cast<size_t>(entry.relation)].qualifier,
                          qualifier)) {
      continue;
    }
    if (found >= 0) {
      return Status::InvalidArgument(
          "ambiguous column reference: " +
          (qualifier.empty() ? column : qualifier + "." + column));
    }
    found = static_cast<int>(i);
  }
  if (found < 0) {
    return Status::NotFound(
        "unknown column: " +
        (qualifier.empty() ? column : qualifier + "." + column));
  }
  return Resolution{found, columns_[static_cast<size_t>(found)].type,
                    columns_[static_cast<size_t>(found)].name};
}

int NameScope::RelationOfColumn(int flat_index) const {
  return columns_[static_cast<size_t>(flat_index)].relation;
}

SchemaPtr NameScope::FlatSchema() const {
  std::vector<Field> fields;
  fields.reserve(columns_.size());
  for (const ColumnEntry& entry : columns_) {
    fields.push_back(Field{entry.name, entry.type});
  }
  return Schema::Make(std::move(fields));
}

// ---------------------------------------------------------------------------
// Bound expression nodes

Status BoundExpr::EvaluateBatch(const ColumnBatch& batch, Column* out) const {
  *out = Column();
  out->type = output_type();
  const size_t n = batch.num_rows();
  Row row;
  for (size_t r = 0; r < n; ++r) {
    batch.EmitRow(r, &row);
    ASSIGN_OR_RETURN(Value v, Evaluate(row));
    RETURN_IF_ERROR(AppendColumnValue(out, r, v, "expr"));
  }
  return Status::OK();
}

namespace {

bool IsNumericType(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble;
}

/// Row `row` of a numeric column as a double (int64 widens).
inline double NumericAt(const Column& c, size_t row) {
  return c.type == DataType::kInt64 ? static_cast<double>(c.ints[row])
                                    : c.doubles[row];
}

/// Appends a non-null bool / a null to a kBool output column.
inline void AppendBool(Column* out, size_t row, bool v) {
  out->AppendNullBit(row, false);
  out->bools.push_back(v ? 1 : 0);
}
inline void AppendBoolNull(Column* out, size_t row) {
  out->AppendNullBit(row, true);
  out->bools.push_back(0);
}

class ColumnExpr final : public BoundExpr {
 public:
  ColumnExpr(int index, DataType type) : BoundExpr(type), index_(index) {}
  Result<Value> Evaluate(const Row& row) const override {
    return row[static_cast<size_t>(index_)];
  }
  Status EvaluateBatch(const ColumnBatch& batch, Column* out) const override {
    *out = batch.column(static_cast<size_t>(index_));
    return Status::OK();
  }

 private:
  int index_;
};

class LiteralExpr final : public BoundExpr {
 public:
  explicit LiteralExpr(Value value)
      : BoundExpr(value.is_null() ? DataType::kString : value.type()),
        value_(std::move(value)) {}
  Result<Value> Evaluate(const Row&) const override { return value_; }
  Status EvaluateBatch(const ColumnBatch& batch, Column* out) const override {
    *out = Column();
    out->type = output_type();
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      RETURN_IF_ERROR(AppendColumnValue(out, r, value_, "literal"));
    }
    return Status::OK();
  }

 private:
  Value value_;
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

Result<CompareOp> CompareOpFromString(const std::string& op) {
  if (op == "=") return CompareOp::kEq;
  if (op == "<>" || op == "!=") return CompareOp::kNe;
  if (op == "<") return CompareOp::kLt;
  if (op == "<=") return CompareOp::kLe;
  if (op == ">") return CompareOp::kGt;
  if (op == ">=") return CompareOp::kGe;
  return Status::InvalidArgument("unknown comparison operator: " + op);
}

class ComparisonExpr final : public BoundExpr {
 public:
  ComparisonExpr(CompareOp op, BoundExprPtr lhs, BoundExprPtr rhs)
      : BoundExpr(DataType::kBool),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  Result<Value> Evaluate(const Row& row) const override {
    ASSIGN_OR_RETURN(Value left, lhs_->Evaluate(row));
    ASSIGN_OR_RETURN(Value right, rhs_->Evaluate(row));
    if (left.is_null() || right.is_null()) return Value::Null();
    // Integer pairs compare natively (going through double would lose
    // precision past 2^53 and diverge from the vectorized kernel); mixed
    // numeric comparison goes through doubles; otherwise types must match.
    int cmp = 0;
    const bool left_num = left.is_int64() || left.is_double();
    const bool right_num = right.is_int64() || right.is_double();
    if (left.is_int64() && right.is_int64()) {
      const int64_t l = left.int64_value();
      const int64_t r = right.int64_value();
      cmp = (l < r) ? -1 : (l > r ? 1 : 0);
    } else if (left_num && right_num) {
      const double l = *left.AsDouble();
      const double r = *right.AsDouble();
      cmp = (l < r) ? -1 : (l > r ? 1 : 0);
    } else if (left.type() == right.type()) {
      if (left == right) {
        cmp = 0;
      } else {
        cmp = left < right ? -1 : 1;
      }
    } else {
      return Status::InvalidArgument(
          "cannot compare " + std::string(DataTypeToString(left.type())) +
          " with " + std::string(DataTypeToString(right.type())));
    }
    return Value::Bool(ApplyOp(cmp));
  }

  Status EvaluateBatch(const ColumnBatch& batch, Column* out) const override {
    Column l;
    Column r;
    RETURN_IF_ERROR(lhs_->EvaluateBatch(batch, &l));
    RETURN_IF_ERROR(rhs_->EvaluateBatch(batch, &r));
    const size_t n = batch.num_rows();
    *out = Column();
    out->type = DataType::kBool;
    out->bools.reserve(n);
    if (l.type == DataType::kInt64 && r.type == DataType::kInt64) {
      for (size_t i = 0; i < n; ++i) {
        if (l.IsNull(i) || r.IsNull(i)) {
          AppendBoolNull(out, i);
          continue;
        }
        const int64_t a = l.ints[i];
        const int64_t b = r.ints[i];
        AppendBool(out, i, ApplyOp(a < b ? -1 : (a > b ? 1 : 0)));
      }
    } else if (IsNumericType(l.type) && IsNumericType(r.type)) {
      for (size_t i = 0; i < n; ++i) {
        if (l.IsNull(i) || r.IsNull(i)) {
          AppendBoolNull(out, i);
          continue;
        }
        const double a = NumericAt(l, i);
        const double b = NumericAt(r, i);
        AppendBool(out, i, ApplyOp(a < b ? -1 : (a > b ? 1 : 0)));
      }
    } else if (l.type == DataType::kString && r.type == DataType::kString) {
      for (size_t i = 0; i < n; ++i) {
        if (l.IsNull(i) || r.IsNull(i)) {
          AppendBoolNull(out, i);
          continue;
        }
        const std::string_view a = l.dict[l.codes[i]];
        const std::string_view b = r.dict[r.codes[i]];
        AppendBool(out, i, ApplyOp(a < b ? -1 : (b < a ? 1 : 0)));
      }
    } else if (l.type == DataType::kBool && r.type == DataType::kBool) {
      for (size_t i = 0; i < n; ++i) {
        if (l.IsNull(i) || r.IsNull(i)) {
          AppendBoolNull(out, i);
          continue;
        }
        const int a = l.bools[i] != 0 ? 1 : 0;
        const int b = r.bools[i] != 0 ? 1 : 0;
        AppendBool(out, i, ApplyOp(a - b));
      }
    } else {
      // Incompatible column types. Evaluate only raises the error on rows
      // where BOTH sides are non-NULL (NULL wins first), so an all-NULL
      // operand column never errors.
      for (size_t i = 0; i < n; ++i) {
        if (l.IsNull(i) || r.IsNull(i)) {
          AppendBoolNull(out, i);
          continue;
        }
        return Status::InvalidArgument(
            "cannot compare " + std::string(DataTypeToString(l.type)) +
            " with " + std::string(DataTypeToString(r.type)));
      }
    }
    return Status::OK();
  }

 private:
  bool ApplyOp(int cmp) const {
    switch (op_) {
      case CompareOp::kEq:
        return cmp == 0;
      case CompareOp::kNe:
        return cmp != 0;
      case CompareOp::kLt:
        return cmp < 0;
      case CompareOp::kLe:
        return cmp <= 0;
      case CompareOp::kGt:
        return cmp > 0;
      case CompareOp::kGe:
        return cmp >= 0;
    }
    return false;
  }

  CompareOp op_;
  BoundExprPtr lhs_;
  BoundExprPtr rhs_;
};

class AndExpr final : public BoundExpr {
 public:
  AndExpr(BoundExprPtr lhs, BoundExprPtr rhs)
      : BoundExpr(DataType::kBool), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  Result<Value> Evaluate(const Row& row) const override {
    ASSIGN_OR_RETURN(Value left, lhs_->Evaluate(row));
    // Kleene AND: FALSE dominates NULL.
    if (left.is_bool() && !left.bool_value()) return Value::Bool(false);
    ASSIGN_OR_RETURN(Value right, rhs_->Evaluate(row));
    if (right.is_bool() && !right.bool_value()) return Value::Bool(false);
    if (left.is_null() || right.is_null()) return Value::Null();
    return Value::Bool(left.bool_value() && right.bool_value());
  }

  Status EvaluateBatch(const ColumnBatch& batch, Column* out) const override {
    Column l;
    RETURN_IF_ERROR(lhs_->EvaluateBatch(batch, &l));
    Column r;
    // Evaluate never evaluates the right side for rows where the left
    // is FALSE; if eager evaluation errors, replay boxed to reproduce the
    // short-circuit exactly (the error may be confined to dominated rows).
    if (!rhs_->EvaluateBatch(batch, &r).ok() || l.type != DataType::kBool ||
        r.type != DataType::kBool) {
      return BoundExpr::EvaluateBatch(batch, out);
    }
    const size_t n = batch.num_rows();
    *out = Column();
    out->type = DataType::kBool;
    out->bools.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const bool lf = !l.IsNull(i) && l.bools[i] == 0;
      const bool rf = !r.IsNull(i) && r.bools[i] == 0;
      if (lf || rf) {
        AppendBool(out, i, false);
      } else if (l.IsNull(i) || r.IsNull(i)) {
        AppendBoolNull(out, i);
      } else {
        AppendBool(out, i, true);
      }
    }
    return Status::OK();
  }

 private:
  BoundExprPtr lhs_;
  BoundExprPtr rhs_;
};

class OrExpr final : public BoundExpr {
 public:
  OrExpr(BoundExprPtr lhs, BoundExprPtr rhs)
      : BoundExpr(DataType::kBool), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  Result<Value> Evaluate(const Row& row) const override {
    ASSIGN_OR_RETURN(Value left, lhs_->Evaluate(row));
    if (left.is_bool() && left.bool_value()) return Value::Bool(true);
    ASSIGN_OR_RETURN(Value right, rhs_->Evaluate(row));
    if (right.is_bool() && right.bool_value()) return Value::Bool(true);
    if (left.is_null() || right.is_null()) return Value::Null();
    return Value::Bool(left.bool_value() || right.bool_value());
  }

  Status EvaluateBatch(const ColumnBatch& batch, Column* out) const override {
    Column l;
    RETURN_IF_ERROR(lhs_->EvaluateBatch(batch, &l));
    Column r;
    if (!rhs_->EvaluateBatch(batch, &r).ok() || l.type != DataType::kBool ||
        r.type != DataType::kBool) {
      return BoundExpr::EvaluateBatch(batch, out);
    }
    const size_t n = batch.num_rows();
    *out = Column();
    out->type = DataType::kBool;
    out->bools.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const bool lt = !l.IsNull(i) && l.bools[i] != 0;
      const bool rt = !r.IsNull(i) && r.bools[i] != 0;
      if (lt || rt) {
        AppendBool(out, i, true);
      } else if (l.IsNull(i) || r.IsNull(i)) {
        AppendBoolNull(out, i);
      } else {
        AppendBool(out, i, false);
      }
    }
    return Status::OK();
  }

 private:
  BoundExprPtr lhs_;
  BoundExprPtr rhs_;
};

class NotExpr final : public BoundExpr {
 public:
  explicit NotExpr(BoundExprPtr operand)
      : BoundExpr(DataType::kBool), operand_(std::move(operand)) {}
  Result<Value> Evaluate(const Row& row) const override {
    ASSIGN_OR_RETURN(Value v, operand_->Evaluate(row));
    if (v.is_null()) return Value::Null();
    if (!v.is_bool()) {
      return Status::InvalidArgument("NOT applied to non-boolean");
    }
    return Value::Bool(!v.bool_value());
  }

  Status EvaluateBatch(const ColumnBatch& batch, Column* out) const override {
    Column in;
    RETURN_IF_ERROR(operand_->EvaluateBatch(batch, &in));
    if (in.type != DataType::kBool) {
      return BoundExpr::EvaluateBatch(batch, out);
    }
    const size_t n = batch.num_rows();
    *out = Column();
    out->type = DataType::kBool;
    out->bools.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (in.IsNull(i)) {
        AppendBoolNull(out, i);
      } else {
        AppendBool(out, i, in.bools[i] == 0);
      }
    }
    return Status::OK();
  }

 private:
  BoundExprPtr operand_;
};

class IsNullExpr final : public BoundExpr {
 public:
  IsNullExpr(BoundExprPtr operand, bool negated)
      : BoundExpr(DataType::kBool),
        operand_(std::move(operand)),
        negated_(negated) {}
  Result<Value> Evaluate(const Row& row) const override {
    ASSIGN_OR_RETURN(Value v, operand_->Evaluate(row));
    return Value::Bool(negated_ ? !v.is_null() : v.is_null());
  }

  Status EvaluateBatch(const ColumnBatch& batch, Column* out) const override {
    Column in;
    RETURN_IF_ERROR(operand_->EvaluateBatch(batch, &in));
    const size_t n = batch.num_rows();
    *out = Column();
    out->type = DataType::kBool;
    out->bools.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      AppendBool(out, i, negated_ ? !in.IsNull(i) : in.IsNull(i));
    }
    return Status::OK();
  }

 private:
  BoundExprPtr operand_;
  bool negated_;
};

class ArithmeticExpr final : public BoundExpr {
 public:
  ArithmeticExpr(char op, DataType output, BoundExprPtr lhs, BoundExprPtr rhs)
      : BoundExpr(output), op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Result<Value> Evaluate(const Row& row) const override {
    ASSIGN_OR_RETURN(Value left, lhs_->Evaluate(row));
    ASSIGN_OR_RETURN(Value right, rhs_->Evaluate(row));
    if (left.is_null() || right.is_null()) return Value::Null();
    if (output_type() == DataType::kInt64) {
      const int64_t l = left.int64_value();
      const int64_t r = right.int64_value();
      switch (op_) {
        case '+':
          return Value::Int64(l + r);
        case '-':
          return Value::Int64(l - r);
        case '*':
          return Value::Int64(l * r);
        case '/':
          if (r == 0) return Status::InvalidArgument("division by zero");
          return Value::Int64(l / r);
      }
    } else {
      ASSIGN_OR_RETURN(double l, left.AsDouble());
      ASSIGN_OR_RETURN(double r, right.AsDouble());
      switch (op_) {
        case '+':
          return Value::Double(l + r);
        case '-':
          return Value::Double(l - r);
        case '*':
          return Value::Double(l * r);
        case '/':
          if (r == 0.0) return Status::InvalidArgument("division by zero");
          return Value::Double(l / r);
      }
    }
    return Status::Internal("unhandled arithmetic operator");
  }

  Status EvaluateBatch(const ColumnBatch& batch, Column* out) const override {
    Column l;
    Column r;
    RETURN_IF_ERROR(lhs_->EvaluateBatch(batch, &l));
    RETURN_IF_ERROR(rhs_->EvaluateBatch(batch, &r));
    const size_t n = batch.num_rows();
    *out = Column();
    out->type = output_type();
    if (output_type() == DataType::kInt64) {
      // The binder only derives kInt64 when both operands are kInt64.
      if (l.type != DataType::kInt64 || r.type != DataType::kInt64) {
        return BoundExpr::EvaluateBatch(batch, out);
      }
      out->ints.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (l.IsNull(i) || r.IsNull(i)) {
          out->AppendNullBit(i, true);
          out->ints.push_back(0);
          continue;
        }
        const int64_t a = l.ints[i];
        const int64_t b = r.ints[i];
        int64_t v = 0;
        switch (op_) {
          case '+':
            v = a + b;
            break;
          case '-':
            v = a - b;
            break;
          case '*':
            v = a * b;
            break;
          case '/':
            if (b == 0) return Status::InvalidArgument("division by zero");
            v = a / b;
            break;
        }
        out->AppendNullBit(i, false);
        out->ints.push_back(v);
      }
    } else {
      if (!IsNumericType(l.type) || !IsNumericType(r.type)) {
        return BoundExpr::EvaluateBatch(batch, out);
      }
      out->doubles.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (l.IsNull(i) || r.IsNull(i)) {
          out->AppendNullBit(i, true);
          out->doubles.push_back(0);
          continue;
        }
        const double a = NumericAt(l, i);
        const double b = NumericAt(r, i);
        double v = 0;
        switch (op_) {
          case '+':
            v = a + b;
            break;
          case '-':
            v = a - b;
            break;
          case '*':
            v = a * b;
            break;
          case '/':
            if (b == 0.0) return Status::InvalidArgument("division by zero");
            v = a / b;
            break;
        }
        out->AppendNullBit(i, false);
        out->doubles.push_back(v);
      }
    }
    return Status::OK();
  }

 private:
  char op_;
  BoundExprPtr lhs_;
  BoundExprPtr rhs_;
};

class CallExpr final : public BoundExpr {
 public:
  CallExpr(const ScalarFunction* function, DataType output,
           std::vector<BoundExprPtr> args)
      : BoundExpr(output), function_(function), args_(std::move(args)) {}

  Result<Value> Evaluate(const Row& row) const override {
    std::vector<Value> values;
    values.reserve(args_.size());
    for (const BoundExprPtr& arg : args_) {
      ASSIGN_OR_RETURN(Value v, arg->Evaluate(row));
      values.push_back(std::move(v));
    }
    ASSIGN_OR_RETURN(Value result, function_->evaluate(values));
    return Widen(std::move(result));
  }

  Status EvaluateBatch(const ColumnBatch& batch, Column* out) const override {
    // Vectorize the arguments, then box only the call itself per row.
    std::vector<Column> arg_cols(args_.size());
    for (size_t i = 0; i < args_.size(); ++i) {
      RETURN_IF_ERROR(args_[i]->EvaluateBatch(batch, &arg_cols[i]));
    }
    const size_t n = batch.num_rows();
    *out = Column();
    out->type = output_type();
    std::vector<Value> values(args_.size());
    for (size_t r = 0; r < n; ++r) {
      for (size_t i = 0; i < args_.size(); ++i) {
        values[i] = ColumnValueAt(arg_cols[i], r);
      }
      ASSIGN_OR_RETURN(Value v, function_->evaluate(values));
      RETURN_IF_ERROR(
          AppendColumnValue(out, r, Widen(std::move(v)), function_->name));
    }
    return Status::OK();
  }

 private:
  /// The declared output type wins over the runtime value type for the one
  /// lossless coercion SQL allows implicitly (e.g. COALESCE(int_col,
  /// double_col) derives kDouble but may return the int argument). Both
  /// engines apply it so typed columns and boxed rows agree.
  Value Widen(Value v) const {
    if (output_type() == DataType::kDouble && v.is_int64()) {
      return Value::Double(static_cast<double>(v.int64_value()));
    }
    return v;
  }

  const ScalarFunction* function_;
  std::vector<BoundExprPtr> args_;
};

Result<DataType> RequireNumeric(const std::vector<DataType>& args,
                                size_t arity, const char* name) {
  if (args.size() != arity) {
    return Status::InvalidArgument(std::string(name) + ": wrong arity");
  }
  for (DataType t : args) {
    if (t != DataType::kInt64 && t != DataType::kDouble) {
      return Status::InvalidArgument(std::string(name) +
                                     ": numeric argument required");
    }
  }
  return args[0];
}

}  // namespace

// ---------------------------------------------------------------------------
// ScalarFunctionRegistry

Status ScalarFunctionRegistry::Register(ScalarFunction function) {
  const std::string key = ToLowerAscii(function.name);
  if (functions_.count(key) > 0) {
    return Status::AlreadyExists("scalar function exists: " + function.name);
  }
  functions_.emplace(key, std::move(function));
  return Status::OK();
}

const ScalarFunction* ScalarFunctionRegistry::Lookup(
    const std::string& name) const {
  auto it = functions_.find(ToLowerAscii(name));
  return it == functions_.end() ? nullptr : &it->second;
}

std::shared_ptr<ScalarFunctionRegistry> ScalarFunctionRegistry::WithBuiltins() {
  auto registry = std::make_shared<ScalarFunctionRegistry>();

  auto register_checked = [&registry](ScalarFunction fn) {
    SQLINK_CHECK_OK(registry->Register(std::move(fn)));
  };

  register_checked(
      {"upper",
       [](const std::vector<DataType>& args) -> Result<DataType> {
         if (args.size() != 1 || args[0] != DataType::kString) {
           return Status::InvalidArgument("UPPER(string)");
         }
         return DataType::kString;
       },
       [](const std::vector<Value>& args) -> Result<Value> {
         if (args[0].is_null()) return Value::Null();
         return Value::String(ToUpperAscii(args[0].string_value()));
       }});
  register_checked(
      {"lower",
       [](const std::vector<DataType>& args) -> Result<DataType> {
         if (args.size() != 1 || args[0] != DataType::kString) {
           return Status::InvalidArgument("LOWER(string)");
         }
         return DataType::kString;
       },
       [](const std::vector<Value>& args) -> Result<Value> {
         if (args[0].is_null()) return Value::Null();
         return Value::String(ToLowerAscii(args[0].string_value()));
       }});
  register_checked(
      {"length",
       [](const std::vector<DataType>& args) -> Result<DataType> {
         if (args.size() != 1 || args[0] != DataType::kString) {
           return Status::InvalidArgument("LENGTH(string)");
         }
         return DataType::kInt64;
       },
       [](const std::vector<Value>& args) -> Result<Value> {
         if (args[0].is_null()) return Value::Null();
         return Value::Int64(
             static_cast<int64_t>(args[0].string_value().size()));
       }});
  register_checked(
      {"abs",
       [](const std::vector<DataType>& args) {
         return RequireNumeric(args, 1, "ABS");
       },
       [](const std::vector<Value>& args) -> Result<Value> {
         if (args[0].is_null()) return Value::Null();
         if (args[0].is_int64()) {
           return Value::Int64(std::llabs(args[0].int64_value()));
         }
         return Value::Double(std::fabs(args[0].double_value()));
       }});
  register_checked(
      {"concat",
       [](const std::vector<DataType>& args) -> Result<DataType> {
         if (args.empty()) return Status::InvalidArgument("CONCAT(...)");
         return DataType::kString;
       },
       [](const std::vector<Value>& args) -> Result<Value> {
         std::string out;
         for (const Value& v : args) {
           if (!v.is_null()) out += v.ToString();
         }
         return Value::String(std::move(out));
       }});
  register_checked(
      {"coalesce",
       [](const std::vector<DataType>& args) -> Result<DataType> {
         if (args.empty()) return Status::InvalidArgument("COALESCE(...)");
         // Unify the argument types: equal types pass through, mixed
         // numerics widen to DOUBLE, anything else is a bind error (the
         // old args[0] answer let the runtime type contradict the derived
         // type, which typed columns cannot represent).
         DataType unified = args[0];
         for (const DataType t : args) {
           if (t == unified) continue;
           const bool both_numeric =
               (t == DataType::kInt64 || t == DataType::kDouble) &&
               (unified == DataType::kInt64 || unified == DataType::kDouble);
           if (!both_numeric) {
             return Status::InvalidArgument(
                 "COALESCE: argument types must match");
           }
           unified = DataType::kDouble;
         }
         return unified;
       },
       [](const std::vector<Value>& args) -> Result<Value> {
         for (const Value& v : args) {
           if (!v.is_null()) return v;
         }
         return Value::Null();
       }});
  register_checked(
      {"cast_double",
       [](const std::vector<DataType>& args) -> Result<DataType> {
         if (args.size() != 1) return Status::InvalidArgument("CAST_DOUBLE(x)");
         return DataType::kDouble;
       },
       [](const std::vector<Value>& args) -> Result<Value> {
         if (args[0].is_null()) return Value::Null();
         if (args[0].is_string()) {
           auto parsed = ParseDouble(args[0].string_value());
           if (!parsed.ok()) return parsed.status();
           return Value::Double(*parsed);
         }
         ASSIGN_OR_RETURN(double v, args[0].AsDouble());
         return Value::Double(v);
       }});
  register_checked(
      {"cast_int64",
       [](const std::vector<DataType>& args) -> Result<DataType> {
         if (args.size() != 1) return Status::InvalidArgument("CAST_INT64(x)");
         return DataType::kInt64;
       },
       [](const std::vector<Value>& args) -> Result<Value> {
         if (args[0].is_null()) return Value::Null();
         if (args[0].is_string()) {
           auto parsed = ParseInt64(args[0].string_value());
           if (!parsed.ok()) return parsed.status();
           return Value::Int64(*parsed);
         }
         ASSIGN_OR_RETURN(double v, args[0].AsDouble());
         return Value::Int64(static_cast<int64_t>(v));
       }});
  register_checked(
      {"cast_string",
       [](const std::vector<DataType>& args) -> Result<DataType> {
         if (args.size() != 1) return Status::InvalidArgument("CAST_STRING(x)");
         return DataType::kString;
       },
       [](const std::vector<Value>& args) -> Result<Value> {
         if (args[0].is_null()) return Value::Null();
         return Value::String(args[0].ToString());
       }});
  return registry;
}

bool IsAggregateFunctionName(const std::string& name) {
  return EqualsIgnoreCase(name, "count") || EqualsIgnoreCase(name, "sum") ||
         EqualsIgnoreCase(name, "min") || EqualsIgnoreCase(name, "max") ||
         EqualsIgnoreCase(name, "avg");
}

BoundExprPtr MakeColumnReference(int index, DataType type) {
  return BoundExprPtr(new ColumnExpr(index, type));
}

// ---------------------------------------------------------------------------
// Binder

Result<BoundExprPtr> BindExpression(const Expr& expr, const NameScope& scope,
                                    const ScalarFunctionRegistry& registry) {
  switch (expr.kind) {
    case ExprKind::kColumnRef: {
      ASSIGN_OR_RETURN(NameScope::Resolution res,
                       scope.Resolve(expr.qualifier, expr.column));
      return BoundExprPtr(new ColumnExpr(res.index, res.type));
    }
    case ExprKind::kLiteral:
      return BoundExprPtr(new LiteralExpr(expr.literal));
    case ExprKind::kComparison: {
      ASSIGN_OR_RETURN(CompareOp op, CompareOpFromString(expr.op));
      ASSIGN_OR_RETURN(BoundExprPtr lhs,
                       BindExpression(*expr.children[0], scope, registry));
      ASSIGN_OR_RETURN(BoundExprPtr rhs,
                       BindExpression(*expr.children[1], scope, registry));
      return BoundExprPtr(
          new ComparisonExpr(op, std::move(lhs), std::move(rhs)));
    }
    case ExprKind::kAnd: {
      ASSIGN_OR_RETURN(BoundExprPtr lhs,
                       BindExpression(*expr.children[0], scope, registry));
      ASSIGN_OR_RETURN(BoundExprPtr rhs,
                       BindExpression(*expr.children[1], scope, registry));
      return BoundExprPtr(new AndExpr(std::move(lhs), std::move(rhs)));
    }
    case ExprKind::kOr: {
      ASSIGN_OR_RETURN(BoundExprPtr lhs,
                       BindExpression(*expr.children[0], scope, registry));
      ASSIGN_OR_RETURN(BoundExprPtr rhs,
                       BindExpression(*expr.children[1], scope, registry));
      return BoundExprPtr(new OrExpr(std::move(lhs), std::move(rhs)));
    }
    case ExprKind::kNot: {
      ASSIGN_OR_RETURN(BoundExprPtr operand,
                       BindExpression(*expr.children[0], scope, registry));
      return BoundExprPtr(new NotExpr(std::move(operand)));
    }
    case ExprKind::kIsNull: {
      ASSIGN_OR_RETURN(BoundExprPtr operand,
                       BindExpression(*expr.children[0], scope, registry));
      return BoundExprPtr(new IsNullExpr(std::move(operand), expr.is_not_null));
    }
    case ExprKind::kArithmetic: {
      ASSIGN_OR_RETURN(BoundExprPtr lhs,
                       BindExpression(*expr.children[0], scope, registry));
      ASSIGN_OR_RETURN(BoundExprPtr rhs,
                       BindExpression(*expr.children[1], scope, registry));
      const DataType lt = lhs->output_type();
      const DataType rt = rhs->output_type();
      const bool numeric =
          (lt == DataType::kInt64 || lt == DataType::kDouble) &&
          (rt == DataType::kInt64 || rt == DataType::kDouble);
      if (!numeric) {
        return Status::InvalidArgument("arithmetic on non-numeric operands: " +
                                       expr.ToString());
      }
      const DataType output =
          (lt == DataType::kDouble || rt == DataType::kDouble)
              ? DataType::kDouble
              : DataType::kInt64;
      return BoundExprPtr(
          new ArithmeticExpr(expr.op[0], output, std::move(lhs), std::move(rhs)));
    }
    case ExprKind::kFunctionCall: {
      if (IsAggregateFunctionName(expr.function_name)) {
        return Status::InvalidArgument(
            "aggregate function not allowed here: " + expr.function_name);
      }
      const ScalarFunction* function = registry.Lookup(expr.function_name);
      if (function == nullptr) {
        return Status::NotFound("unknown scalar function: " +
                                expr.function_name);
      }
      std::vector<BoundExprPtr> args;
      std::vector<DataType> arg_types;
      for (const ExprPtr& child : expr.children) {
        ASSIGN_OR_RETURN(BoundExprPtr arg,
                         BindExpression(*child, scope, registry));
        arg_types.push_back(arg->output_type());
        args.push_back(std::move(arg));
      }
      ASSIGN_OR_RETURN(DataType output, function->derive_type(arg_types));
      return BoundExprPtr(new CallExpr(function, output, std::move(args)));
    }
  }
  return Status::Internal("unhandled expression kind");
}

}  // namespace sqlink
