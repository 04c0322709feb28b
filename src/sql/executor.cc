#include "sql/executor.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <unordered_map>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/status_macros.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "sql/batch_kernels.h"

namespace sqlink {

namespace {

/// Runs fn(worker) on `n` threads; returns the first error.
Status ParallelWorkers(int n, const std::function<Status(int)>& fn) {
  std::vector<Status> statuses(static_cast<size_t>(n));
  ParallelFor(static_cast<size_t>(n), [&](size_t worker) {
    statuses[worker] = fn(static_cast<int>(worker));
  });
  for (const Status& status : statuses) {
    RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

/// Appends the first `n` rows of `batch` to partition `p` of `out` (LIMIT).
Status AppendHead(Table* out, size_t p, ColumnBatch batch, size_t n) {
  if (n == batch.num_rows()) return out->AppendBatch(p, std::move(batch));
  std::vector<int32_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  ColumnBatch head(batch.schema());
  RETURN_IF_ERROR(head.AppendGather(batch, rows.data(), n));
  return out->AppendBatch(p, std::move(head));
}

// ---------------------------------------------------------------------------
// Vectorized operators (BatchIterator pipelines over ColumnBatch)

/// Vectorized filter: evaluates the predicate column-at-a-time, compacts
/// surviving rows through a selection vector. Batches where every row
/// passes are moved through untouched.
class VectorizedFilterIterator final : public BatchIterator {
 public:
  VectorizedFilterIterator(BatchIteratorPtr child, BoundExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}

  Result<bool> Next(ColumnBatch* out) override {
    for (;;) {
      ASSIGN_OR_RETURN(bool has, child_->Next(&input_));
      if (!has) return false;
      Column pred;
      RETURN_IF_ERROR(predicate_->EvaluateBatch(input_, &pred));
      sel_.clear();
      FilterToSelection(pred, input_.num_rows(), &sel_);
      if (sel_.empty()) continue;
      if (sel_.size() == input_.num_rows()) {
        *out = std::move(input_);
        return true;
      }
      out->Reset(input_.schema());
      RETURN_IF_ERROR(out->AppendGather(input_, sel_.data(), sel_.size()));
      return true;
    }
  }

 private:
  BatchIteratorPtr child_;
  BoundExprPtr predicate_;
  ColumnBatch input_;
  std::vector<int32_t> sel_;
};

/// Vectorized project: one EvaluateBatch per output column.
class VectorizedProjectIterator final : public BatchIterator {
 public:
  VectorizedProjectIterator(BatchIteratorPtr child,
                            const std::vector<BoundExprPtr>* exprs,
                            SchemaPtr output_schema)
      : child_(std::move(child)),
        exprs_(exprs),
        output_schema_(std::move(output_schema)) {}

  Result<bool> Next(ColumnBatch* out) override {
    ASSIGN_OR_RETURN(bool has, child_->Next(&input_));
    if (!has) return false;
    out->Reset(output_schema_);
    for (size_t i = 0; i < exprs_->size(); ++i) {
      Column col;
      RETURN_IF_ERROR((*exprs_)[i]->EvaluateBatch(input_, &col));
      out->column(i) = std::move(col);
    }
    out->SetRowCountForDecode(input_.num_rows());
    return true;
  }

 private:
  BatchIteratorPtr child_;
  const std::vector<BoundExprPtr>* exprs_;
  SchemaPtr output_schema_;
  ColumnBatch input_;
};

/// Vectorized probe side of the hash join: the JoinIndex pairs probe rows
/// with build rows straight from the key columns; matched pairs are
/// assembled by gathering probe columns and build columns, and the residual
/// runs vectorized over the assembled batch.
class VectorizedHashJoinIterator final : public BatchIterator {
 public:
  VectorizedHashJoinIterator(BatchIteratorPtr probe,
                             std::shared_ptr<const JoinIndex> index,
                             const std::vector<int>* probe_keys,
                             BoundExprPtr residual, SchemaPtr output_schema)
      : probe_(std::move(probe)),
        index_(std::move(index)),
        probe_keys_(probe_keys),
        residual_(std::move(residual)),
        output_schema_(std::move(output_schema)) {}

  Result<bool> Next(ColumnBatch* out) override {
    for (;;) {
      ASSIGN_OR_RETURN(bool has, probe_->Next(&input_));
      if (!has) return false;
      index_->Probe(input_, *probe_keys_, &scratch_, &probe_sel_,
                    &build_sel_);
      if (probe_sel_.empty()) continue;
      joined_.Reset(output_schema_);
      const size_t probe_width = input_.num_columns();
      for (size_t c = 0; c < probe_width; ++c) {
        AppendColumnGather(&joined_.column(c), 0, input_.column(c),
                           probe_sel_.data(), probe_sel_.size());
      }
      const ColumnBatch& build = index_->batch();
      for (size_t c = 0; c < build.num_columns(); ++c) {
        AppendColumnGather(&joined_.column(probe_width + c), 0,
                           build.column(c), build_sel_.data(),
                           build_sel_.size());
      }
      joined_.SetRowCountForDecode(probe_sel_.size());
      if (residual_ == nullptr) {
        *out = std::move(joined_);
        return true;
      }
      Column pred;
      RETURN_IF_ERROR(residual_->EvaluateBatch(joined_, &pred));
      sel_.clear();
      FilterToSelection(pred, joined_.num_rows(), &sel_);
      if (sel_.empty()) continue;
      if (sel_.size() == joined_.num_rows()) {
        *out = std::move(joined_);
        return true;
      }
      out->Reset(output_schema_);
      RETURN_IF_ERROR(out->AppendGather(joined_, sel_.data(), sel_.size()));
      return true;
    }
  }

 private:
  BatchIteratorPtr probe_;
  std::shared_ptr<const JoinIndex> index_;
  const std::vector<int>* probe_keys_;
  BoundExprPtr residual_;
  SchemaPtr output_schema_;
  ColumnBatch input_;
  ColumnBatch joined_;
  JoinIndex::Scratch scratch_;
  std::vector<int32_t> probe_sel_;
  std::vector<int32_t> build_sel_;
  std::vector<int32_t> sel_;
};

/// A table UDF on the worker thread: opens the worker's partition on the
/// first Next, pulls the child's batches (polling between them) and hands
/// each one whole to Consume, and calls Finish at end of input. Next hands
/// out whatever the UDF appended to the caller's batch as soon as it holds
/// a row, so no row is boxed on the way through.
class TableUdfBatchIterator final : public BatchIterator {
 public:
  TableUdfBatchIterator(const PlanNode* plan, TableUdfContext context,
                        BatchIteratorPtr input, std::function<Status()> poll)
      : plan_(plan),
        context_(std::move(context)),
        poll_(std::move(poll)),
        input_(std::move(input)) {}

  Result<bool> Next(ColumnBatch* out) override {
    if (finished_) return false;
    if (partition_ == nullptr) {
      ASSIGN_OR_RETURN(partition_, plan_->udf->Open(context_));
    }
    out->Reset(plan_->output_schema);
    while (out->empty()) {
      bool has = false;
      if (input_ != nullptr) {
        RETURN_IF_ERROR(poll_());
        ASSIGN_OR_RETURN(has, input_->Next(&batch_));
      }
      if (!has) {
        finished_ = true;
        RETURN_IF_ERROR(partition_->Finish(out));
        break;
      }
      RETURN_IF_ERROR(partition_->Consume(std::move(batch_), out));
    }
    return !out->empty();
  }

 private:
  const PlanNode* plan_;
  TableUdfContext context_;
  std::function<Status()> poll_;
  // Before the input, so a chained UDF's partition inside it dies first:
  // the spans partitions hold open end in the order they began.
  TableUdfPartitionPtr partition_;
  BatchIteratorPtr input_;
  ColumnBatch batch_;
  bool finished_ = false;
};

/// Hash table of distinct batch rows: each distinct row is stored once,
/// unboxed, in keys() and numbered densely in first-seen order. Open
/// addressing over group indices, probed by content hash. Both phases of
/// DISTINCT and of GROUP BY group through it; the aggregate maps every row
/// to its group's state slots by the index the lookup returns.
class BatchGroupTable {
 public:
  explicit BatchGroupTable(SchemaPtr schema) : keys_(std::move(schema)) {}

  /// The group index of every row of `src`, in row order, into `groups`
  /// (resized); a row no stored row equals becomes a new group, so groups
  /// are numbered as row-by-row lookups would number them. The batch is
  /// hashed once, and each key column is compared with the typed
  /// comparison chosen for it once. `src`'s column types must be the
  /// table's.
  Status FindOrInsertBatch(const ColumnBatch& src,
                           std::vector<size_t>* groups) {
    if (src.num_columns() != keys_.num_columns()) {
      return Status::InvalidArgument("batch width mismatch in group lookup");
    }
    equal_.clear();
    for (size_t c = 0; c < src.num_columns(); ++c) {
      const Column& column = src.column(c);
      const Column& stored = keys_.column(c);
      if (column.type != stored.type) {
        return Status::InvalidArgument("column type mismatch in group lookup");
      }
      equal_.push_back(CellEqualityFor(
          column.type, column.has_nulls() || stored.has_nulls()));
    }
    BatchRowHashes(src, &row_hashes_);
    groups->resize(src.num_rows());
    for (size_t r = 0; r < src.num_rows(); ++r) {
      (*groups)[r] = FindOrInsertHashed(src, r, row_hashes_[r], [&](size_t g) {
        for (size_t c = 0; c < equal_.size(); ++c) {
          if (!equal_[c](keys_.column(c), g, src.column(c), r)) return false;
        }
        return true;
      });
    }
    return Status::OK();
  }

  /// The group index of row `row` of another table's keys(), whose
  /// BatchRowHash is `hash`, adding the row as a new group when no equal
  /// row is stored yet.
  size_t FindOrInsert(const ColumnBatch& src, size_t row, uint64_t hash) {
    return FindOrInsertHashed(src, row, hash, [&](size_t g) {
      return BatchRowsEqual(keys_, g, src, row);
    });
  }

  size_t size() const { return hashes_.size(); }
  /// The distinct rows, group index = row index.
  const ColumnBatch& keys() const { return keys_; }
  /// Hands over keys() (the result's key columns).
  ColumnBatch TakeKeys() && { return std::move(keys_); }
  /// BatchRowHash of group `group` (routes it in MergeRouted).
  uint64_t hash(size_t group) const { return hashes_[group]; }

 private:
  /// Fibonacci hashing: the top bits of h * 2^64/phi pick the home slot, so
  /// near-identity cell hashes (small ints) still spread.
  size_t SlotOf(uint64_t h) const {
    return static_cast<size_t>((h * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  /// The group whose stored hash is `h` and for which equal(group) holds,
  /// or row `row` of `src` appended as a new group.
  template <typename Equal>
  size_t FindOrInsertHashed(const ColumnBatch& src, size_t row, uint64_t h,
                            Equal equal) {
    if (2 * (size() + 1) > slots_.size()) Grow();
    for (size_t i = SlotOf(h);; i = (i + 1) & (slots_.size() - 1)) {
      const int32_t group = slots_[i];
      if (group >= 0) {
        const size_t g = static_cast<size_t>(group);
        if (hashes_[g] == h && equal(g)) return g;
        continue;
      }
      const size_t g = hashes_.size();
      const int32_t index = static_cast<int32_t>(row);
      for (size_t c = 0; c < keys_.num_columns(); ++c) {
        AppendColumnGather(&keys_.column(c), g, src.column(c), &index, 1);
      }
      keys_.SetRowCountForDecode(g + 1);
      slots_[i] = static_cast<int32_t>(g);
      hashes_.push_back(h);
      return g;
    }
  }

  void Grow() {
    const size_t capacity = std::max<size_t>(16, 2 * slots_.size());
    // The table holds at most capacity / 2 groups before it grows again, so
    // the one-row appends of a new group never reallocate keys_.
    keys_.Reserve(capacity / 2);
    shift_ = 64 - std::countr_zero(capacity);
    slots_.assign(capacity, -1);
    for (size_t g = 0; g < hashes_.size(); ++g) {
      size_t i = SlotOf(hashes_[g]);
      while (slots_[i] >= 0) i = (i + 1) & (capacity - 1);
      slots_[i] = static_cast<int32_t>(g);
    }
  }

  ColumnBatch keys_;
  std::vector<uint64_t> hashes_;  ///< Per group.
  std::vector<int32_t> slots_;    ///< Group index or -1; power-of-2 size.
  int shift_ = 64;
  // FindOrInsertBatch's per-batch scratch.
  std::vector<uint64_t> row_hashes_;
  std::vector<CellEquality> equal_;
};

/// Phase 2 of DISTINCT and GROUP BY on one target: walks the workers'
/// group tables in partition order, each in group order, FindOrInserts
/// every group that routes to `target` (its stored hash % tables.size())
/// into `merged`, and calls on_group(worker, group, merged group). A group
/// with no key columns hashes to 0, so a global aggregate merges on target
/// 0. Every table holds `merged`'s key schema.
template <typename OnGroup>
void MergeRouted(const std::vector<BatchGroupTable>& tables, size_t target,
                 BatchGroupTable* merged, OnGroup on_group) {
  for (size_t w = 0; w < tables.size(); ++w) {
    const BatchGroupTable& table = tables[w];
    for (size_t g = 0; g < table.size(); ++g) {
      const uint64_t h = table.hash(g);
      if (h % tables.size() != target) continue;
      on_group(w, g, merged->FindOrInsert(table.keys(), g, h));
    }
  }
}

// ---------------------------------------------------------------------------
// Per-operator stats wrappers (EXPLAIN ANALYZE / the /queries endpoint).
// Counts and time accumulate in locals and flush to the shared atomics once,
// in the destructor, so the per-batch loop pays no atomics.

/// Crude in-memory size of `rows` rows of `schema` — the same fixed
/// per-value width the planner's cost model assumes, so estimate and actual
/// memory numbers are comparable.
int64_t ApproxRowsBytes(const SchemaPtr& schema, int64_t rows) {
  const int64_t width =
      schema == nullptr ? 1 : std::max(1, schema->num_fields());
  return rows * width * 16;
}

class StatsBatchIterator final : public BatchIterator {
 public:
  StatsBatchIterator(BatchIteratorPtr child, OperatorActuals* actuals)
      : child_(std::move(child)), actuals_(actuals) {}

  ~StatsBatchIterator() override {
    actuals_->AddRows(rows_);
    actuals_->AddBatches(batches_);
    actuals_->AddMicros(micros_);
    actuals_->AddInvocation();
  }

  Result<bool> Next(ColumnBatch* out) override {
    Stopwatch watch;
    auto has = child_->Next(out);
    micros_ += watch.ElapsedMicros();
    if (has.ok() && *has) {
      ++batches_;
      rows_ += static_cast<int64_t>(out->num_rows());
    }
    return has;
  }

 private:
  BatchIteratorPtr child_;
  OperatorActuals* actuals_;
  int64_t rows_ = 0;
  int64_t batches_ = 0;
  int64_t micros_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// PipelineState

struct Executor::PipelineState {
  // Keyed by plan node identity.
  std::unordered_map<const PlanNode*, std::shared_ptr<const JoinIndex>> joins;
  std::unordered_map<const PlanNode*, Table> materialized;
};

// ---------------------------------------------------------------------------
// Executor

Executor::Executor(int num_workers, ClusterPtr cluster,
                   MetricsRegistry* metrics)
    : num_workers_(num_workers),
      cluster_(std::move(cluster)),
      metrics_(metrics != nullptr ? metrics : &MetricsRegistry::Global()) {
  SQLINK_CHECK(num_workers_ > 0);
}

Table Executor::EmptyResult(const PlanPtr& plan) const {
  return Table(std::string(), plan->output_schema,
               static_cast<size_t>(num_workers_));
}

Result<Table> Executor::Execute(const PlanPtr& plan) {
  // Blocking operators never flow through the pipeline stats wrappers, so
  // their actuals are recorded here, around the full (inclusive) execution.
  OperatorActuals* actuals = nullptr;
  switch (plan->kind) {
    case PlanKind::kDistinct:
    case PlanKind::kAggregate:
    case PlanKind::kSort:
    case PlanKind::kLimit:
      actuals = NodeActuals(plan);
      break;
    default:
      break;
  }
  if (actuals == nullptr) return ExecuteNode(plan);
  Stopwatch watch;
  Result<Table> result = ExecuteNode(plan);
  actuals->AddMicros(watch.ElapsedMicros());
  actuals->AddInvocation();
  if (result.ok()) {
    const int64_t produced = static_cast<int64_t>(result->TotalRows());
    actuals->AddRows(produced);
    if (plan->kind == PlanKind::kDistinct ||
        plan->kind == PlanKind::kAggregate) {
      // The dedup set / group table peaks at the unique-row (group) count.
      actuals->AddBuildRows(produced);
      actuals->MaxPeakBytes(ApproxRowsBytes(plan->output_schema, produced));
    }
  }
  return result;
}

Result<Table> Executor::ExecuteNode(const PlanPtr& plan) {
  // Blocking operators (join builds, DISTINCT, aggregation, sort, limit)
  // materialize whole inputs; refuse to start one for a cancelled query.
  RETURN_IF_ERROR(CheckCancelled());
  switch (plan->kind) {
    case PlanKind::kDistinct:
      return ExecuteDistinct(plan);
    case PlanKind::kAggregate:
      return ExecuteAggregate(plan);
    case PlanKind::kSort:
      return ExecuteSort(plan);
    case PlanKind::kLimit:
      return ExecuteLimit(plan);
    default:
      return ExecutePipeline(plan);
  }
}

Status Executor::Prepare(const PlanPtr& plan, PipelineState* state) {
  switch (plan->kind) {
    case PlanKind::kScan:
    case PlanKind::kMaterialized:
      return Status::OK();
    case PlanKind::kFilter:
    case PlanKind::kProject:
      return Prepare(plan->children[0], state);
    case PlanKind::kTableUdf:
      if (!plan->children.empty()) {
        return Prepare(plan->children[0], state);
      }
      return Status::OK();
    case PlanKind::kHashJoin: {
      // One index over the build's chunks, appended in partition order,
      // that every worker probes.
      ASSIGN_OR_RETURN(Table build, Execute(plan->children[1]));
      ColumnBatch batch(plan->children[1]->output_schema);
      batch.Reserve(build.TotalRows());
      std::vector<int32_t> rows(kSqlBatchRows);
      std::iota(rows.begin(), rows.end(), 0);
      for (size_t p = 0; p < build.num_partitions(); ++p) {
        for (const ColumnBatch& chunk : build.chunks(p)) {
          RETURN_IF_ERROR(
              batch.AppendGather(chunk, rows.data(), chunk.num_rows()));
        }
      }
      if (OperatorActuals* actuals = NodeActuals(plan)) {
        const int64_t build_rows = static_cast<int64_t>(batch.num_rows());
        actuals->AddBuildRows(build_rows);
        actuals->MaxPeakBytes(ApproxRowsBytes(batch.schema(), build_rows));
      }
      state->joins.emplace(plan.get(), std::make_shared<const JoinIndex>(
                                           std::move(batch), plan->right_keys));
      return Prepare(plan->children[0], state);
    }
    default: {
      // A blocking operator inside a pipeline: execute it fully and expose
      // its partitions as a pipeline source.
      ASSIGN_OR_RETURN(Table rows, Execute(plan));
      state->materialized.emplace(plan.get(), std::move(rows));
      return Status::OK();
    }
  }
}

Result<BatchIteratorPtr> Executor::BuildBatchPipeline(const PlanPtr& plan,
                                                      int worker,
                                                      PipelineState* state) {
  ASSIGN_OR_RETURN(BatchIteratorPtr it,
                   BuildBatchPipelineNode(plan, worker, state));
  OperatorActuals* actuals = NodeActuals(plan);
  // Materialized nodes recorded their actuals on the blocking Execute path;
  // wrapping the replay iterator would double-count them.
  if (actuals == nullptr || state->materialized.count(plan.get()) > 0) {
    return it;
  }
  return BatchIteratorPtr(new StatsBatchIterator(std::move(it), actuals));
}

Result<BatchIteratorPtr> Executor::BuildBatchPipelineNode(
    const PlanPtr& plan, int worker, PipelineState* state) {
  auto materialized = state->materialized.find(plan.get());
  if (materialized != state->materialized.end()) {
    return BatchIteratorPtr(new ChunkScanIterator(
        &materialized->second.chunks(static_cast<size_t>(worker)),
        plan->output_schema));
  }
  switch (plan->kind) {
    case PlanKind::kScan:
    case PlanKind::kMaterialized: {
      if (static_cast<size_t>(worker) >= plan->table->num_partitions()) {
        return BatchIteratorPtr(new EmptyBatchIterator());
      }
      return BatchIteratorPtr(new ChunkScanIterator(
          &plan->table->chunks(static_cast<size_t>(worker)),
          plan->output_schema));
    }
    case PlanKind::kFilter: {
      ASSIGN_OR_RETURN(BatchIteratorPtr child,
                       BuildBatchPipeline(plan->children[0], worker, state));
      return BatchIteratorPtr(
          new VectorizedFilterIterator(std::move(child), plan->predicate));
    }
    case PlanKind::kProject: {
      ASSIGN_OR_RETURN(BatchIteratorPtr child,
                       BuildBatchPipeline(plan->children[0], worker, state));
      return BatchIteratorPtr(new VectorizedProjectIterator(
          std::move(child), &plan->projections, plan->output_schema));
    }
    case PlanKind::kHashJoin: {
      auto it = state->joins.find(plan.get());
      if (it == state->joins.end()) {
        return Status::Internal("join not prepared");
      }
      ASSIGN_OR_RETURN(BatchIteratorPtr probe,
                       BuildBatchPipeline(plan->children[0], worker, state));
      return BatchIteratorPtr(new VectorizedHashJoinIterator(
          std::move(probe), it->second, &plan->left_keys, plan->residual,
          plan->output_schema));
    }
    case PlanKind::kTableUdf: {
      BatchIteratorPtr input;
      if (!plan->children.empty()) {
        ASSIGN_OR_RETURN(input,
                         BuildBatchPipeline(plan->children[0], worker, state));
      }
      TableUdfContext context;
      context.worker_id = worker;
      context.num_workers = num_workers_;
      context.cluster = cluster_;
      context.metrics = metrics_;
      context.query_id = query_id_;
      context.cancellation = cancellation_;
      context.spill_budget = spill_budget_;
      return BatchIteratorPtr(new TableUdfBatchIterator(
          plan.get(), context, std::move(input),
          [this] { return PollBatch(); }));
    }
    default:
      return Status::Internal("unexpected plan kind in batch pipeline: " +
                              plan->ToString());
  }
}

Result<Table> Executor::ExecutePipeline(const PlanPtr& plan) {
  TraceSpan span("sql.execute");
  span.AddAttribute("workers", num_workers_);
  Stopwatch timer;
  Table output = EmptyResult(plan);
  const Status run_status = DrainBatches(
      plan,
      [&](int worker, ColumnBatch* batch) -> Status {
        return output.AppendBatch(static_cast<size_t>(worker),
                                  std::move(*batch));
      },
      [](int) { return Status::OK(); });

  const int64_t rows_emitted = static_cast<int64_t>(output.TotalRows());
  span.AddAttribute("rows", rows_emitted);
  metrics_->GetHistogram("sql.executor.pipeline_micros")
      ->Record(timer.ElapsedMicros());
  if (!run_status.ok()) span.SetError();
  RETURN_IF_ERROR(run_status);
  metrics_->GetCounter("sql.executor.rows_emitted")->Add(rows_emitted);
  return output;
}

Status Executor::PollBatch() const {
  // `sql.exec.batch` paces the worker loops (delay actions) so tests can
  // hold a query in-flight deterministically.
  (void)SQLINK_FAILPOINT("sql.exec.batch");
  return CheckCancelled();
}

Status Executor::DrainBatches(
    const PlanPtr& child,
    const std::function<Status(int, ColumnBatch*)>& consume,
    const std::function<Status(int)>& finish) {
  PipelineState state;
  RETURN_IF_ERROR(Prepare(child, &state));
  return ParallelWorkers(num_workers_, [&](int worker) -> Status {
    ASSIGN_OR_RETURN(BatchIteratorPtr it,
                     BuildBatchPipeline(child, worker, &state));
    ColumnBatch batch;
    for (;;) {
      RETURN_IF_ERROR(PollBatch());
      ASSIGN_OR_RETURN(bool has, it->Next(&batch));
      if (!has) break;
      RETURN_IF_ERROR(consume(worker, &batch));
    }
    return finish(worker);
  });
}

Result<Table> Executor::ExecuteDistinct(const PlanPtr& plan) {
  // Two phases over unboxed ColumnBatch rows: local dedup per worker as the
  // child's batches arrive, then each target dedups the unique rows that
  // route to it (MergeRouted).
  const size_t n = static_cast<size_t>(num_workers_);
  std::vector<BatchGroupTable> local(n, BatchGroupTable(plan->output_schema));
  std::vector<std::vector<size_t>> row_groups(n);
  RETURN_IF_ERROR(DrainBatches(
      plan->children[0],
      [&](int worker, ColumnBatch* batch) -> Status {
        const size_t w = static_cast<size_t>(worker);
        return local[w].FindOrInsertBatch(*batch, &row_groups[w]);
      },
      [](int) { return Status::OK(); }));

  Table output = EmptyResult(plan);
  RETURN_IF_ERROR(ParallelWorkers(num_workers_, [&](int target) -> Status {
    const size_t t = static_cast<size_t>(target);
    BatchGroupTable unique(plan->output_schema);
    MergeRouted(local, t, &unique, [](size_t, size_t, size_t) {});
    return output.AppendBatch(t, std::move(unique).TakeKeys());
  }));
  return output;
}

namespace {

/// Partial aggregation state for one (group, aggregate) pair. A MIN or MAX
/// keeps its running value apart (AggSlots::extremes), so COUNT, SUM and
/// AVG states stay three scalars.
struct AggState {
  int64_t count = 0;
  int64_t int_sum = 0;
  double double_sum = 0;
};

/// MIN and MAX keep a running value besides their count.
bool KeepsExtreme(AggFunc func) {
  return func == AggFunc::kMin || func == AggFunc::kMax;
}

/// One aggregate's states in group-major storage: group g's at
/// scalars[g * stride + slot] and, for MIN/MAX only (extremes set), its
/// running value at extremes[g * extreme_stride + extreme_slot].
struct AggSlots {
  AggState* scalars = nullptr;
  size_t stride = 0;
  size_t slot = 0;
  Value* extremes = nullptr;
  size_t extreme_stride = 0;
  size_t extreme_slot = 0;

  AggState& state(size_t g) const { return scalars[g * stride + slot]; }
  Value* extreme(size_t g) const {
    return extremes == nullptr
               ? nullptr
               : &extremes[g * extreme_stride + extreme_slot];
  }
};

/// Folds one argument value into a transition state (the boxed path of
/// UpdateStatesBatch; COUNT(*) never gets here). `extreme` is the running
/// value of a MIN or MAX.
Status UpdateStateWithValue(const AggregateSpec& spec, const Value& v,
                            AggState* state, Value* extreme) {
  if (v.is_null()) return Status::OK();  // Aggregates skip NULLs.
  switch (spec.func) {
    case AggFunc::kCount:
      ++state->count;
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      ++state->count;
      if (spec.output_type == DataType::kInt64 && v.is_int64()) {
        state->int_sum += v.int64_value();
      } else {
        ASSIGN_OR_RETURN(double d, v.AsDouble());
        state->double_sum += d;
      }
      break;
    }
    case AggFunc::kMin:
      if (state->count == 0 || v < *extreme) *extreme = v;
      ++state->count;
      break;
    case AggFunc::kMax:
      if (state->count == 0 || *extreme < v) *extreme = v;
      ++state->count;
      break;
    case AggFunc::kCountStar:
      break;
  }
  return Status::OK();
}

/// Batch transition of one aggregate: folds row r of `arg` (its evaluated
/// argument; unused for COUNT(*)) into the states of group groups[r], in
/// row order. The typed COUNT and SUM/AVG loops do exactly the arithmetic
/// UpdateStateWithValue does per value, so a group's sums depend only on
/// its rows' order; MIN/MAX and any other argument type box each value
/// through it.
Status UpdateStatesBatch(const AggregateSpec& spec, const Column& arg,
                         const std::vector<size_t>& groups,
                         const AggSlots& slots) {
  const size_t n = groups.size();
  const auto state = [&](size_t r) -> AggState& {
    return slots.state(groups[r]);
  };
  // Counts every non-NULL row of `arg` and adds it with add(state, row);
  // the NULL test runs only when `arg` has NULLs.
  const auto fold = [&](auto add) {
    const bool nulls = arg.has_nulls();
    for (size_t r = 0; r < n; ++r) {
      if (nulls && arg.IsNull(r)) continue;
      AggState& s = state(r);
      ++s.count;
      add(s, r);
    }
    return Status::OK();
  };
  switch (spec.func) {
    case AggFunc::kCountStar:
      for (size_t r = 0; r < n; ++r) ++state(r).count;
      return Status::OK();
    case AggFunc::kCount:
      return fold([](AggState&, size_t) {});
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (arg.type == DataType::kInt64 &&
          spec.output_type == DataType::kInt64) {
        return fold([&](AggState& s, size_t r) { s.int_sum += arg.ints[r]; });
      }
      if (arg.type == DataType::kInt64) {
        return fold([&](AggState& s, size_t r) {
          s.double_sum += static_cast<double>(arg.ints[r]);
        });
      }
      if (arg.type == DataType::kDouble) {
        return fold(
            [&](AggState& s, size_t r) { s.double_sum += arg.doubles[r]; });
      }
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      break;
  }
  for (size_t r = 0; r < n; ++r) {
    RETURN_IF_ERROR(UpdateStateWithValue(spec, ColumnValueAt(arg, r),
                                         &state(r),
                                         slots.extreme(groups[r])));
  }
  return Status::OK();
}

/// Merges a partial state (and, for MIN/MAX, its running value) into
/// `state` (and `extreme`).
void MergeState(const AggregateSpec& spec, const AggState& other,
                const Value* other_extreme, AggState* state, Value* extreme) {
  switch (spec.func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      state->count += other.count;
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      state->count += other.count;
      state->int_sum += other.int_sum;
      state->double_sum += other.double_sum;
      break;
    case AggFunc::kMin:
      if (other.count > 0 &&
          (state->count == 0 || *other_extreme < *extreme)) {
        *extreme = *other_extreme;
      }
      state->count += other.count;
      break;
    case AggFunc::kMax:
      if (other.count > 0 &&
          (state->count == 0 || *extreme < *other_extreme)) {
        *extreme = *other_extreme;
      }
      state->count += other.count;
      break;
  }
}

/// Finalizes one aggregate over `groups` groups into `col`, an empty column
/// of spec.output_type. COUNT, SUM and AVG write their typed values
/// straight into it (an empty SUM or AVG is NULL); MIN and MAX append their
/// running values.
Status FinalizeColumn(const AggregateSpec& spec, const AggSlots& slots,
                      size_t groups, Column* col,
                      const std::string& column_name) {
  if (KeepsExtreme(spec.func)) {
    for (size_t g = 0; g < groups; ++g) {
      RETURN_IF_ERROR(AppendColumnValue(
          col, g,
          slots.state(g).count == 0 ? Value::Null() : *slots.extreme(g),
          column_name));
    }
    return Status::OK();
  }
  col->null_words.assign((groups + 63) / 64, 0);
  const auto set_null = [col](size_t g) {
    col->null_words[g >> 6] |= uint64_t{1} << (g & 63);
  };
  if (spec.func == AggFunc::kCountStar || spec.func == AggFunc::kCount) {
    col->ints.resize(groups);
    for (size_t g = 0; g < groups; ++g) col->ints[g] = slots.state(g).count;
    return Status::OK();
  }
  if (spec.func == AggFunc::kSum && spec.output_type == DataType::kInt64) {
    col->ints.assign(groups, 0);
    for (size_t g = 0; g < groups; ++g) {
      const AggState& s = slots.state(g);
      if (s.count == 0) {
        set_null(g);
      } else {
        col->ints[g] = s.int_sum;
      }
    }
    return Status::OK();
  }
  // A DOUBLE SUM, or an AVG.
  col->doubles.assign(groups, 0);
  for (size_t g = 0; g < groups; ++g) {
    const AggState& s = slots.state(g);
    if (s.count == 0) {
      set_null(g);
      continue;
    }
    const double sum = s.double_sum + static_cast<double>(s.int_sum);
    col->doubles[g] = spec.func == AggFunc::kAvg
                          ? sum / static_cast<double>(s.count)
                          : sum;
  }
  return Status::OK();
}

}  // namespace

Result<Table> Executor::ExecuteAggregate(const PlanPtr& plan) {
  const size_t num_keys = plan->group_by.size();
  const size_t num_aggs = plan->aggregates.size();
  const std::vector<Field>& fields = plan->output_schema->fields();
  const SchemaPtr key_schema = Schema::Make(std::vector<Field>(
      fields.begin(), fields.begin() + static_cast<std::ptrdiff_t>(num_keys)));
  // MIN/MAX running values: num_extremes per group, aggregate a's at
  // extreme_slot[a].
  std::vector<size_t> extreme_slot(num_aggs, 0);
  size_t num_extremes = 0;
  for (size_t a = 0; a < num_aggs; ++a) {
    if (KeepsExtreme(plan->aggregates[a].func)) {
      extreme_slot[a] = num_extremes++;
    }
  }
  // Aggregate a's slots in group-major `states` and `extremes`.
  const auto slots_of = [&](std::vector<AggState>* states,
                            std::vector<Value>* extremes, size_t a) {
    AggSlots slots{states->data(), num_aggs, a};
    if (KeepsExtreme(plan->aggregates[a].func)) {
      slots.extremes = extremes->data();
      slots.extreme_stride = num_extremes;
      slots.extreme_slot = extreme_slot[a];
    }
    return slots;
  };

  // Phase 1, per worker: a group table over the evaluated key columns and
  // flat group-major states (num_aggs scalars and num_extremes running
  // values per group), folded from the child's batches without boxing them.
  struct WorkerGroups {
    std::vector<AggState> states;
    std::vector<Value> extremes;
    ColumnBatch keys;
    Column arg;
    std::vector<size_t> row_groups;
  };
  const size_t n = static_cast<size_t>(num_workers_);
  std::vector<BatchGroupTable> tables(n, BatchGroupTable(key_schema));
  std::vector<WorkerGroups> workers(n);
  RETURN_IF_ERROR(DrainBatches(
      plan->children[0],
      [&](int worker, ColumnBatch* input) -> Status {
        const ColumnBatch& batch = *input;
        BatchGroupTable& table = tables[static_cast<size_t>(worker)];
        WorkerGroups& w = workers[static_cast<size_t>(worker)];
        w.keys.Reset(key_schema);
        for (size_t k = 0; k < num_keys; ++k) {
          RETURN_IF_ERROR(
              plan->group_by[k]->EvaluateBatch(batch, &w.keys.column(k)));
        }
        w.keys.SetRowCountForDecode(batch.num_rows());
        RETURN_IF_ERROR(table.FindOrInsertBatch(w.keys, &w.row_groups));
        w.states.resize(table.size() * num_aggs);
        w.extremes.resize(table.size() * num_extremes);
        for (size_t a = 0; a < num_aggs; ++a) {
          const AggregateSpec& spec = plan->aggregates[a];
          if (spec.argument != nullptr) {
            RETURN_IF_ERROR(spec.argument->EvaluateBatch(batch, &w.arg));
          }
          RETURN_IF_ERROR(UpdateStatesBatch(
              spec, w.arg, w.row_groups, slots_of(&w.states, &w.extremes, a)));
        }
        return Status::OK();
      },
      [](int) { return Status::OK(); }));

  // Phase 2, per target: merge the states of the groups routed here, each
  // from zero and in partition order, then finalize them into one batch.
  Table output = EmptyResult(plan);
  RETURN_IF_ERROR(ParallelWorkers(num_workers_, [&](int target) -> Status {
    const size_t t = static_cast<size_t>(target);
    BatchGroupTable merged(key_schema);
    std::vector<AggState> states;
    std::vector<Value> extremes;
    MergeRouted(tables, t, &merged, [&](size_t worker, size_t group,
                                        size_t m) {
      states.resize(merged.size() * num_aggs);
      extremes.resize(merged.size() * num_extremes);
      WorkerGroups& w = workers[worker];
      for (size_t a = 0; a < num_aggs; ++a) {
        const AggSlots partial = slots_of(&w.states, &w.extremes, a);
        const AggSlots into = slots_of(&states, &extremes, a);
        MergeState(plan->aggregates[a], partial.state(group),
                   partial.extreme(group), &into.state(m), into.extreme(m));
      }
    });
    // A global aggregate's one row, on target 0, even over zero rows.
    const size_t groups = num_keys == 0 && t == 0 ? 1 : merged.size();
    states.resize(groups * num_aggs);
    extremes.resize(groups * num_extremes);
    ColumnBatch out(plan->output_schema);
    ColumnBatch keys = std::move(merged).TakeKeys();
    for (size_t k = 0; k < num_keys; ++k) {
      out.column(k) = std::move(keys.column(k));
    }
    for (size_t a = 0; a < num_aggs; ++a) {
      RETURN_IF_ERROR(FinalizeColumn(plan->aggregates[a],
                                     slots_of(&states, &extremes, a), groups,
                                     &out.column(num_keys + a),
                                     fields[num_keys + a].name));
    }
    out.SetRowCountForDecode(groups);
    return output.AppendBatch(t, std::move(out));
  }));
  return output;
}

Result<Table> Executor::ExecuteSort(const PlanPtr& plan) {
  std::vector<Row> all;
  {
    ASSIGN_OR_RETURN(Table input, Execute(plan->children[0]));
    all = input.GatherRows();
  }
  std::stable_sort(all.begin(), all.end(), [&](const Row& a, const Row& b) {
    for (size_t i = 0; i < plan->sort_keys.size(); ++i) {
      const size_t k = static_cast<size_t>(plan->sort_keys[i]);
      const bool desc = plan->sort_descending[i];
      if (a[k] < b[k]) return !desc;
      if (b[k] < a[k]) return desc;
    }
    return false;
  });
  Table output = EmptyResult(plan);
  for (const Row& row : all) RETURN_IF_ERROR(output.AppendRow(0, row));
  return output;
}

Result<Table> Executor::ExecuteLimit(const PlanPtr& plan) {
  const PlanPtr& child = plan->children[0];
  Table output = EmptyResult(plan);
  const size_t limit = static_cast<size_t>(plan->limit);
  size_t taken = 0;

  // Early termination: when the child is pipelinable, pull its batches
  // worker by worker and stop as soon as the limit is met, instead of
  // computing the full child result.
  const bool pipelinable = child->kind == PlanKind::kScan ||
                           child->kind == PlanKind::kMaterialized ||
                           child->kind == PlanKind::kFilter ||
                           child->kind == PlanKind::kProject ||
                           child->kind == PlanKind::kHashJoin ||
                           child->kind == PlanKind::kTableUdf;
  if (pipelinable) {
    PipelineState state;
    RETURN_IF_ERROR(Prepare(child, &state));
    const auto pull = [&](int worker) -> Status {
      ASSIGN_OR_RETURN(BatchIteratorPtr it,
                       BuildBatchPipeline(child, worker, &state));
      ColumnBatch batch;
      while (taken < limit) {
        RETURN_IF_ERROR(PollBatch());
        ASSIGN_OR_RETURN(bool has, it->Next(&batch));
        if (!has) break;
        const size_t take = std::min(batch.num_rows(), limit - taken);
        RETURN_IF_ERROR(AppendHead(&output, 0, std::move(batch), take));
        taken += take;
      }
      return Status::OK();
    };
    for (int worker = 0; worker < num_workers_ && taken < limit; ++worker) {
      RETURN_IF_ERROR(pull(worker));
    }
    return output;
  }

  ASSIGN_OR_RETURN(Table input, Execute(child));
  for (size_t p = 0; p < input.num_partitions() && taken < limit; ++p) {
    for (const ColumnBatch& chunk : input.chunks(p)) {
      if (taken >= limit) break;
      const size_t take = std::min(chunk.num_rows(), limit - taken);
      RETURN_IF_ERROR(AppendHead(&output, 0, chunk, take));
      taken += take;
    }
  }
  return output;
}

}  // namespace sqlink
