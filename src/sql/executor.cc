#include "sql/executor.h"

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
#include <optional>
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

/// Lexicographic row ordering (NULL-first per Value::operator<).
struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    const size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      if (a[i] < b[i]) return true;
      if (b[i] < a[i]) return false;
    }
    return a.size() < b.size();
  }
};

bool RowKeyEquals(const Row& a, const std::vector<int>& a_keys, const Row& b,
                  const std::vector<int>& b_keys) {
  for (size_t i = 0; i < a_keys.size(); ++i) {
    if (a[static_cast<size_t>(a_keys[i])] !=
        b[static_cast<size_t>(b_keys[i])]) {
      return false;
    }
  }
  return true;
}

bool HasNullKey(const Row& row, const std::vector<int>& keys) {
  for (int k : keys) {
    if (row[static_cast<size_t>(k)].is_null()) return true;
  }
  return false;
}

/// Each partition of `table`, boxed (the row islands: the sort-merge join
/// and the repartition join's shuffle).
std::vector<std::vector<Row>> BoxPartitions(const Table& table) {
  std::vector<std::vector<Row>> rows(table.num_partitions());
  for (size_t p = 0; p < rows.size(); ++p) rows[p] = table.partition(p);
  return rows;
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
      index_->Probe(input_, *probe_keys_, &probe_sel_, &build_sel_);
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
  std::vector<int32_t> probe_sel_;
  std::vector<int32_t> build_sel_;
  std::vector<int32_t> sel_;
};

/// A table UDF on the worker thread: opens the worker's partition on the
/// first Next, pulls the child's batches (polling between them), boxes each
/// input row once and pushes it through Consume, and calls Finish at end of
/// input. The UDF's output rows append straight to the caller's batch,
/// which is handed out once it holds kSqlBatchRows rows.
class TableUdfBatchIterator final : public BatchIterator, private RowSink {
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
    out_ = out;
    while (out->num_rows() < kSqlBatchRows && !finished_) {
      if (pos_ == batch_.num_rows()) {
        bool has = false;
        if (input_ != nullptr) {
          RETURN_IF_ERROR(poll_());
          ASSIGN_OR_RETURN(has, input_->Next(&batch_));
        }
        pos_ = 0;
        if (!has) {
          finished_ = true;
          RETURN_IF_ERROR(partition_->Finish(this));
          break;
        }
      }
      batch_.EmitRow(pos_++, &row_);
      RETURN_IF_ERROR(partition_->Consume(std::move(row_), this));
    }
    return out->num_rows() > 0;
  }

 private:
  Status Push(Row row) override { return out_->AppendRow(row); }

  const PlanNode* plan_;
  TableUdfContext context_;
  std::function<Status()> poll_;
  // Before the input, so a chained UDF's partition inside it dies first:
  // the spans partitions hold open end in the order they began.
  TableUdfPartitionPtr partition_;
  BatchIteratorPtr input_;
  ColumnBatch batch_;
  size_t pos_ = 0;
  Row row_;
  ColumnBatch* out_ = nullptr;
  bool finished_ = false;
};

/// Hash table of distinct batch rows: each distinct row is stored once,
/// unboxed, in keys() and numbered densely in first-seen order. Open
/// addressing over group indices, probed by content hash. Both phases of
/// DISTINCT dedup through it, and the aggregate maps every input row to its
/// group's state slots through it.
class BatchGroupTable {
 public:
  explicit BatchGroupTable(SchemaPtr schema) : keys_(std::move(schema)) {}

  /// The group index of row `row` of `src` (the table's schema), adding the
  /// row as a new group when no equal row is stored yet.
  Result<size_t> FindOrInsert(const ColumnBatch& src, size_t row) {
    if (2 * (size() + 1) > slots_.size()) Grow();
    const uint64_t h = BatchRowHash(src, row);
    for (size_t i = SlotOf(h);; i = (i + 1) & (slots_.size() - 1)) {
      const int32_t group = slots_[i];
      if (group < 0) {
        const int32_t index = static_cast<int32_t>(row);
        RETURN_IF_ERROR(keys_.AppendGather(src, &index, 1));
        slots_[i] = static_cast<int32_t>(hashes_.size());
        hashes_.push_back(h);
        return hashes_.size() - 1;
      }
      const size_t g = static_cast<size_t>(group);
      if (hashes_[g] == h && BatchRowsEqual(keys_, g, src, row)) return g;
    }
  }

  size_t size() const { return hashes_.size(); }
  /// The distinct rows, group index = row index.
  const ColumnBatch& keys() const { return keys_; }
  /// Hands over keys() (DISTINCT's result).
  ColumnBatch TakeKeys() && { return std::move(keys_); }
  /// BatchRowHash of group `group` (routes it in the shuffle).
  uint64_t hash(size_t group) const { return hashes_[group]; }

 private:
  /// Fibonacci hashing: the top bits of h * 2^64/phi pick the home slot, so
  /// near-identity cell hashes (small ints) still spread.
  size_t SlotOf(uint64_t h) const {
    return static_cast<size_t>((h * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void Grow() {
    const size_t capacity = std::max<size_t>(16, 2 * slots_.size());
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
};

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
  struct JoinArtifact {
    bool broadcast = true;
    std::shared_ptr<const JoinIndex> broadcast_index;
    // Repartition mode: the shuffled probe rows, one partition per worker,
    // and each worker's index over its shuffled build rows.
    std::optional<Table> probe;
    std::vector<std::shared_ptr<const JoinIndex>> worker_indexes;
  };

  // Keyed by plan node identity.
  std::unordered_map<const PlanNode*, JoinArtifact> joins;
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

std::vector<std::vector<Row>> Executor::Repartition(
    std::vector<std::vector<Row>> input, const std::vector<int>& keys) {
  const size_t n = static_cast<size_t>(num_workers_);
  // Per input partition, bucket locally in parallel; then concatenate.
  std::vector<std::vector<std::vector<Row>>> local(input.size());
  ParallelFor(input.size(), [&](size_t p) {
    local[p].resize(n);
    for (Row& row : input[p]) {
      const size_t target =
          keys.empty() ? p % n : HashRowKey(row, keys) % n;
      local[p][target].push_back(std::move(row));
    }
    input[p].clear();
  });
  std::vector<std::vector<Row>> output(n);
  for (size_t target = 0; target < n; ++target) {
    size_t total = 0;
    for (size_t p = 0; p < local.size(); ++p) total += local[p][target].size();
    output[target].reserve(total);
    for (size_t p = 0; p < local.size(); ++p) {
      auto& bucket = local[p][target];
      std::move(bucket.begin(), bucket.end(),
                std::back_inserter(output[target]));
      bucket.clear();
    }
  }
  return output;
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
      // Sort-merge choice (cost-based, equi keys only): materialize the
      // merged result here and pipeline over it.
      if (plan->join_algo == JoinAlgo::kSortMerge && !plan->left_keys.empty()) {
        Stopwatch merge_watch;
        ASSIGN_OR_RETURN(Table rows, ExecuteMergeJoin(plan));
        if (OperatorActuals* actuals = NodeActuals(plan)) {
          actuals->AddMicros(merge_watch.ElapsedMicros());
          actuals->AddRows(static_cast<int64_t>(rows.TotalRows()));
          actuals->AddInvocation();
        }
        state->materialized.emplace(plan.get(), std::move(rows));
        return Status::OK();
      }
      PipelineState::JoinArtifact artifact;
      artifact.broadcast = plan->broadcast_build;
      const SchemaPtr& build_schema = plan->children[1]->output_schema;
      ASSIGN_OR_RETURN(Table build, Execute(plan->children[1]));
      int64_t build_rows = 0;
      if (plan->broadcast_build) {
        // One index over the build's chunks, appended in partition order.
        ColumnBatch batch(build_schema);
        std::vector<int32_t> rows(kSqlBatchRows);
        std::iota(rows.begin(), rows.end(), 0);
        for (size_t p = 0; p < build.num_partitions(); ++p) {
          for (const ColumnBatch& chunk : build.chunks(p)) {
            RETURN_IF_ERROR(
                batch.AppendGather(chunk, rows.data(), chunk.num_rows()));
          }
        }
        build_rows = static_cast<int64_t>(batch.num_rows());
        artifact.broadcast_index = std::make_shared<const JoinIndex>(
            std::move(batch), plan->right_keys);
      } else {
        // Repartition join: both sides materialize and shuffle by key hash.
        ASSIGN_OR_RETURN(Table probe, Execute(plan->children[0]));
        std::vector<std::vector<Row>> probe_parts =
            Repartition(BoxPartitions(probe), plan->left_keys);
        std::vector<std::vector<Row>> build_parts =
            Repartition(BoxPartitions(build), plan->right_keys);
        artifact.probe.emplace(EmptyResult(plan->children[0]));
        artifact.worker_indexes.resize(static_cast<size_t>(num_workers_));
        RETURN_IF_ERROR(ParallelWorkers(num_workers_, [&](int w) -> Status {
          const size_t worker = static_cast<size_t>(w);
          for (const Row& row : probe_parts[worker]) {
            RETURN_IF_ERROR(artifact.probe->AppendRow(worker, row));
          }
          ColumnBatch batch(build_schema);
          for (const Row& row : build_parts[worker]) {
            RETURN_IF_ERROR(batch.AppendRow(row));
          }
          artifact.worker_indexes[worker] = std::make_shared<const JoinIndex>(
              std::move(batch), plan->right_keys);
          return Status::OK();
        }));
        for (const auto& index : artifact.worker_indexes) {
          build_rows += static_cast<int64_t>(index->batch().num_rows());
        }
      }
      if (OperatorActuals* actuals = NodeActuals(plan)) {
        actuals->AddBuildRows(build_rows);
        actuals->MaxPeakBytes(ApproxRowsBytes(build_schema, build_rows));
      }
      const bool broadcast = artifact.broadcast;
      state->joins.emplace(plan.get(), std::move(artifact));
      return broadcast ? Prepare(plan->children[0], state) : Status::OK();
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
      PipelineState::JoinArtifact& artifact = it->second;
      if (artifact.broadcast) {
        ASSIGN_OR_RETURN(BatchIteratorPtr probe,
                         BuildBatchPipeline(plan->children[0], worker, state));
        return BatchIteratorPtr(new VectorizedHashJoinIterator(
            std::move(probe), artifact.broadcast_index, &plan->left_keys,
            plan->residual, plan->output_schema));
      }
      BatchIteratorPtr probe(new ChunkScanIterator(
          &artifact.probe->chunks(static_cast<size_t>(worker)),
          plan->children[0]->output_schema));
      return BatchIteratorPtr(new VectorizedHashJoinIterator(
          std::move(probe),
          artifact.worker_indexes[static_cast<size_t>(worker)],
          &plan->left_keys, plan->residual, plan->output_schema));
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
  // child's batches arrive, shuffle unique rows by content hash, final dedup
  // per target.
  const size_t n = static_cast<size_t>(num_workers_);
  std::vector<BatchGroupTable> local(n, BatchGroupTable(plan->output_schema));
  // shards[worker][target]: locally-unique rows routed to `target`.
  std::vector<std::vector<ColumnBatch>> shards(n);
  RETURN_IF_ERROR(DrainBatches(
      plan->children[0],
      [&](int worker, ColumnBatch* batch) -> Status {
        BatchGroupTable& unique = local[static_cast<size_t>(worker)];
        for (size_t r = 0; r < batch->num_rows(); ++r) {
          RETURN_IF_ERROR(unique.FindOrInsert(*batch, r).status());
        }
        return Status::OK();
      },
      [&](int worker) -> Status {
        // Split this worker's unique rows by hash into per-target gathers.
        const BatchGroupTable& unique = local[static_cast<size_t>(worker)];
        std::vector<std::vector<int32_t>> routed(n);
        for (size_t g = 0; g < unique.size(); ++g) {
          routed[unique.hash(g) % n].push_back(static_cast<int32_t>(g));
        }
        std::vector<ColumnBatch>& out = shards[static_cast<size_t>(worker)];
        for (size_t t = 0; t < n; ++t) {
          ColumnBatch shard(plan->output_schema);
          if (!routed[t].empty()) {
            RETURN_IF_ERROR(shard.AppendGather(
                unique.keys(), routed[t].data(), routed[t].size()));
          }
          out.push_back(std::move(shard));
        }
        return Status::OK();
      }));

  Table output = EmptyResult(plan);
  RETURN_IF_ERROR(ParallelWorkers(num_workers_, [&](int target) -> Status {
    const size_t t = static_cast<size_t>(target);
    BatchGroupTable unique(plan->output_schema);
    for (size_t w = 0; w < n; ++w) {
      const ColumnBatch& shard = shards[w][t];
      for (size_t r = 0; r < shard.num_rows(); ++r) {
        RETURN_IF_ERROR(unique.FindOrInsert(shard, r).status());
      }
    }
    return output.AppendBatch(t, std::move(unique).TakeKeys());
  }));
  return output;
}

namespace {

/// Lexicographic three-way compare of the key columns of two rows, using
/// Value's cross-numeric, NULL-first ordering.
int CompareKeys(const Row& a, const std::vector<int>& a_keys, const Row& b,
                const std::vector<int>& b_keys) {
  for (size_t i = 0; i < a_keys.size(); ++i) {
    const Value& av = a[static_cast<size_t>(a_keys[i])];
    const Value& bv = b[static_cast<size_t>(b_keys[i])];
    if (av < bv) return -1;
    if (bv < av) return 1;
  }
  return 0;
}

}  // namespace

Result<Table> Executor::ExecuteMergeJoin(const PlanPtr& plan) {
  // Repartition both sides by key so equal keys land on the same worker,
  // sort each worker's slices, then merge equal-key runs. NULL keys never
  // match (dropped up front), and emitted pairs are guarded by the exact
  // RowKeyEquals check so ordering-equal but type-distinct numeric keys
  // (1 vs 1.0) behave exactly like the hash join.
  std::vector<std::vector<Row>> probe_parts;
  {
    ASSIGN_OR_RETURN(Table probe, Execute(plan->children[0]));
    probe_parts = Repartition(BoxPartitions(probe), plan->left_keys);
  }
  std::vector<std::vector<Row>> build_parts;
  {
    ASSIGN_OR_RETURN(Table build, Execute(plan->children[1]));
    build_parts = Repartition(BoxPartitions(build), plan->right_keys);
  }

  Table output = EmptyResult(plan);
  Status run_status = ParallelWorkers(num_workers_, [&](int w) -> Status {
    std::vector<Row>& left = probe_parts[static_cast<size_t>(w)];
    std::vector<Row>& right = build_parts[static_cast<size_t>(w)];
    auto drop_null_keys = [](std::vector<Row>* rows,
                             const std::vector<int>& keys) {
      rows->erase(std::remove_if(rows->begin(), rows->end(),
                                 [&](const Row& row) {
                                   return HasNullKey(row, keys);
                                 }),
                  rows->end());
    };
    drop_null_keys(&left, plan->left_keys);
    drop_null_keys(&right, plan->right_keys);
    std::sort(left.begin(), left.end(), [&](const Row& a, const Row& b) {
      return CompareKeys(a, plan->left_keys, b, plan->left_keys) < 0;
    });
    std::sort(right.begin(), right.end(), [&](const Row& a, const Row& b) {
      return CompareKeys(a, plan->right_keys, b, plan->right_keys) < 0;
    });

    size_t li = 0;
    size_t ri = 0;
    Row joined;
    while (li < left.size() && ri < right.size()) {
      const int cmp =
          CompareKeys(left[li], plan->left_keys, right[ri], plan->right_keys);
      if (cmp < 0) {
        ++li;
        continue;
      }
      if (cmp > 0) {
        ++ri;
        continue;
      }
      // Equal-key runs on both sides; emit the cross product of the runs.
      size_t lend = li + 1;
      while (lend < left.size() &&
             CompareKeys(left[lend], plan->left_keys, left[li],
                         plan->left_keys) == 0) {
        ++lend;
      }
      size_t rend = ri + 1;
      while (rend < right.size() &&
             CompareKeys(right[rend], plan->right_keys, right[ri],
                         plan->right_keys) == 0) {
        ++rend;
      }
      for (size_t l = li; l < lend; ++l) {
        for (size_t r = ri; r < rend; ++r) {
          // Ordering-equal is weaker than join equality: re-check exactly.
          if (!RowKeyEquals(left[l], plan->left_keys, right[r],
                            plan->right_keys)) {
            continue;
          }
          joined = left[l];
          joined.insert(joined.end(), right[r].begin(), right[r].end());
          if (plan->residual != nullptr) {
            ASSIGN_OR_RETURN(Value keep, plan->residual->Evaluate(joined));
            if (!IsTruthy(keep)) continue;
          }
          RETURN_IF_ERROR(output.AppendRow(static_cast<size_t>(w), joined));
        }
      }
      li = lend;
      ri = rend;
    }
    return Status::OK();
  });
  RETURN_IF_ERROR(run_status);
  metrics_->GetCounter("sql.executor.merge_joins")->Add(1);
  return output;
}

namespace {

/// Partial aggregation state for one (group, aggregate) pair.
struct AggState {
  int64_t count = 0;
  int64_t int_sum = 0;
  double double_sum = 0;
  Value extreme;  // MIN/MAX running value.
};

/// Folds one argument value into a transition state (the boxed path of
/// UpdateStatesBatch; COUNT(*) never gets here).
Status UpdateStateWithValue(const AggregateSpec& spec, const Value& v,
                            AggState* state) {
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
      if (state->count == 0 || v < state->extreme) state->extreme = v;
      ++state->count;
      break;
    case AggFunc::kMax:
      if (state->count == 0 || state->extreme < v) state->extreme = v;
      ++state->count;
      break;
    case AggFunc::kCountStar:
      break;
  }
  return Status::OK();
}

/// Batch transition of one aggregate: folds row r of `arg` (its evaluated
/// argument; unused for COUNT(*)) into states[groups[r] * stride + slot],
/// in row order. The typed COUNT and SUM/AVG loops do exactly the
/// arithmetic UpdateStateWithValue does per value, so a group's sums depend
/// only on its rows' order; MIN/MAX and any other argument type box each
/// value through it.
Status UpdateStatesBatch(const AggregateSpec& spec, const Column& arg,
                         const std::vector<size_t>& groups, size_t stride,
                         size_t slot, AggState* states) {
  const size_t n = groups.size();
  const auto state = [&](size_t r) -> AggState& {
    return states[groups[r] * stride + slot];
  };
  // Counts every non-NULL row of `arg` and adds it with add(state, row).
  const auto fold = [&](auto add) {
    for (size_t r = 0; r < n; ++r) {
      if (arg.IsNull(r)) continue;
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
    RETURN_IF_ERROR(
        UpdateStateWithValue(spec, ColumnValueAt(arg, r), &state(r)));
  }
  return Status::OK();
}

void MergeState(const AggregateSpec& spec, const AggState& other,
                AggState* state) {
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
          (state->count == 0 || other.extreme < state->extreme)) {
        state->extreme = other.extreme;
      }
      state->count += other.count;
      break;
    case AggFunc::kMax:
      if (other.count > 0 &&
          (state->count == 0 || state->extreme < other.extreme)) {
        state->extreme = other.extreme;
      }
      state->count += other.count;
      break;
  }
}

Value FinalizeState(const AggregateSpec& spec, const AggState& state) {
  switch (spec.func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Value::Int64(state.count);
    case AggFunc::kSum:
      if (state.count == 0) return Value::Null();
      return spec.output_type == DataType::kInt64
                 ? Value::Int64(state.int_sum)
                 : Value::Double(state.double_sum +
                                 static_cast<double>(state.int_sum));
    case AggFunc::kAvg:
      if (state.count == 0) return Value::Null();
      return Value::Double(
          (state.double_sum + static_cast<double>(state.int_sum)) /
          static_cast<double>(state.count));
    case AggFunc::kMin:
    case AggFunc::kMax:
      return state.count == 0 ? Value::Null() : state.extreme;
  }
  return Value::Null();
}

/// Partial-state row layout: group keys, then per aggregate
/// (count, int_sum, double_sum, extreme).
Row EncodePartial(const Row& key, const AggState* states, size_t num_aggs) {
  Row row = key;
  for (size_t a = 0; a < num_aggs; ++a) {
    const AggState& s = states[a];
    row.push_back(Value::Int64(s.count));
    row.push_back(Value::Int64(s.int_sum));
    row.push_back(Value::Double(s.double_sum));
    row.push_back(s.extreme);
  }
  return row;
}

void DecodePartial(const Row& row, size_t num_keys, size_t num_aggs, Row* key,
                   std::vector<AggState>* states) {
  key->assign(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(num_keys));
  states->resize(num_aggs);
  size_t pos = num_keys;
  for (AggState& s : *states) {
    s.count = row[pos++].int64_value();
    s.int_sum = row[pos++].int64_value();
    s.double_sum = row[pos++].double_value();
    s.extreme = row[pos++];
  }
}

}  // namespace

Result<std::vector<std::vector<Row>>> Executor::AggregatePartials(
    const PlanPtr& plan) {
  const size_t num_keys = plan->group_by.size();
  const size_t num_aggs = plan->aggregates.size();
  const std::vector<Field>& fields = plan->output_schema->fields();
  const SchemaPtr key_schema = Schema::Make(std::vector<Field>(
      fields.begin(), fields.begin() + static_cast<std::ptrdiff_t>(num_keys)));

  // Per worker: a group table over the evaluated key columns and a flat
  // group-major state vector (num_aggs slots per group).
  struct WorkerGroups {
    explicit WorkerGroups(const SchemaPtr& schema) : table(schema) {}
    BatchGroupTable table;
    std::vector<AggState> states;
    ColumnBatch keys;
    Column arg;
    std::vector<size_t> row_groups;
  };
  std::vector<WorkerGroups> workers(static_cast<size_t>(num_workers_),
                                    WorkerGroups(key_schema));
  std::vector<std::vector<Row>> partials(static_cast<size_t>(num_workers_));
  RETURN_IF_ERROR(DrainBatches(
      plan->children[0],
      [&](int worker, ColumnBatch* input) -> Status {
        const ColumnBatch& batch = *input;
        WorkerGroups& w = workers[static_cast<size_t>(worker)];
        const size_t n = batch.num_rows();
        w.keys.Reset(key_schema);
        for (size_t k = 0; k < num_keys; ++k) {
          RETURN_IF_ERROR(
              plan->group_by[k]->EvaluateBatch(batch, &w.keys.column(k)));
        }
        w.keys.SetRowCountForDecode(n);
        w.row_groups.resize(n);
        for (size_t r = 0; r < n; ++r) {
          ASSIGN_OR_RETURN(w.row_groups[r], w.table.FindOrInsert(w.keys, r));
        }
        w.states.resize(w.table.size() * num_aggs);
        for (size_t a = 0; a < num_aggs; ++a) {
          const AggregateSpec& spec = plan->aggregates[a];
          if (spec.argument != nullptr) {
            RETURN_IF_ERROR(spec.argument->EvaluateBatch(batch, &w.arg));
          }
          RETURN_IF_ERROR(UpdateStatesBatch(spec, w.arg, w.row_groups,
                                            num_aggs, a, w.states.data()));
        }
        return Status::OK();
      },
      [&](int worker) -> Status {
        const WorkerGroups& w = workers[static_cast<size_t>(worker)];
        std::vector<Row>& out = partials[static_cast<size_t>(worker)];
        out.reserve(w.table.size());
        Row key;
        for (size_t g = 0; g < w.table.size(); ++g) {
          w.table.keys().EmitRow(g, &key);
          out.push_back(
              EncodePartial(key, w.states.data() + g * num_aggs, num_aggs));
        }
        return Status::OK();
      }));
  return partials;
}

Result<Table> Executor::ExecuteAggregate(const PlanPtr& plan) {
  const size_t num_keys = plan->group_by.size();
  const size_t num_aggs = plan->aggregates.size();

  // Phase 1: per-worker partial states.
  ASSIGN_OR_RETURN(std::vector<std::vector<Row>> partials,
                   AggregatePartials(plan));

  // Phase 2: shuffle partials by group key and merge.
  std::vector<int> key_columns;
  for (size_t i = 0; i < num_keys; ++i) {
    key_columns.push_back(static_cast<int>(i));
  }
  std::vector<std::vector<Row>> shuffled;
  if (num_keys == 0) {
    // Global aggregate: merge everything on worker 0.
    shuffled.resize(static_cast<size_t>(num_workers_));
    for (auto& p : partials) {
      for (Row& row : p) shuffled[0].push_back(std::move(row));
    }
  } else {
    shuffled = Repartition(std::move(partials), key_columns);
  }

  Table output = EmptyResult(plan);
  Status status = ParallelWorkers(num_workers_, [&](int w) -> Status {
    std::map<Row, std::vector<AggState>, RowLess> groups;
    Row key;
    std::vector<AggState> states;
    for (const Row& partial : shuffled[static_cast<size_t>(w)]) {
      DecodePartial(partial, num_keys, num_aggs, &key, &states);
      auto [it, inserted] = groups.try_emplace(key, num_aggs);
      for (size_t a = 0; a < num_aggs; ++a) {
        MergeState(plan->aggregates[a], states[a], &it->second[a]);
      }
    }
    // A global aggregate over zero rows still yields one output row.
    if (num_keys == 0 && groups.empty() && w == 0) {
      groups.try_emplace(Row{}, num_aggs);
    }
    for (const auto& [group_key, group_states] : groups) {
      Row out = group_key;
      for (size_t a = 0; a < num_aggs; ++a) {
        out.push_back(FinalizeState(plan->aggregates[a], group_states[a]));
      }
      RETURN_IF_ERROR(output.AppendRow(static_cast<size_t>(w), out));
    }
    return Status::OK();
  });
  RETURN_IF_ERROR(status);
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
