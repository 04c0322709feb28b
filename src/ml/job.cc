#include "ml/job.h"

#include "common/logging.h"
#include "common/retry_policy.h"
#include "common/status_macros.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace sqlink::ml {

namespace {

/// How long the runner polls for a reassignable split (§6) before it aborts
/// the transfer.
constexpr int kReassignmentDeadlineMs = 30000;

/// Consumes one split into `partition`, truncating it first to the reader's
/// negotiated resume point (rows an earlier incarnation already applied and
/// the transport will not re-deliver).
Status ReadSplit(InputFormat* format, const JobContext& context,
                 const InputSplit& split, int index,
                 std::vector<Row>* partition) {
  ASSIGN_OR_RETURN(std::unique_ptr<RecordReader> reader,
                   format->CreateReader(context, split, index));
  RETURN_IF_ERROR(reader->Open());
  const uint64_t resume_rows = reader->resume_row_count();
  if (partition->size() < resume_rows) {
    // Rows were acknowledged but never reached this buffer — replay cannot
    // reproduce them.
    return Status::DataLoss(
        "split " + std::to_string(index) + " resumes at row " +
        std::to_string(resume_rows) + " but only " +
        std::to_string(partition->size()) + " rows were applied");
  }
  if (partition->size() > resume_rows) {
    // The dead reader got further than its last ack; the suffix will be
    // replayed, so drop it to keep apply exactly-once.
    partition->resize(resume_rows);
  }
  Row row;
  for (;;) {
    ASSIGN_OR_RETURN(bool has, reader->Next(&row));
    if (!has) break;
    partition->push_back(std::move(row));
  }
  return Status::OK();
}

}  // namespace

Result<IngestResult> MlJobRunner::Ingest(InputFormat* format) {
  const JobContext& context = context_;
  IngestResult result;
  std::vector<std::vector<Row>>& partitions = result.dataset.partitions;
  TraceSpan ingest_span("ml.ingest");
  const TraceContext ingest_ctx = ingest_span.context();
  ASSIGN_OR_RETURN(std::vector<InputSplitPtr> splits,
                   format->GetSplits(context));
  if (splits.empty()) {
    return Status::InvalidArgument("input format produced no splits");
  }
  const size_t m = splits.size();

  IngestStats& stats = result.stats;
  stats.num_splits = static_cast<int>(m);
  partitions.resize(m);

  // Worker i consumes split i. With a cluster, count how many workers run
  // local to their data (a worker's node is its split's first preferred
  // location when one exists — best-effort placement).
  if (context.cluster != nullptr) {
    for (const InputSplitPtr& split : splits) {
      for (const std::string& host : split->Locations()) {
        if (context.cluster->NodeFromHostName(host) >= 0) {
          ++stats.local_splits;
          break;
        }
      }
    }
  }

  Histogram* const split_micros =
      context.metrics != nullptr
          ? context.metrics->GetHistogram("ml.ingest.split_micros")
          : nullptr;
  std::vector<Status> statuses(m);
  ParallelFor(m, [&](size_t i) {
    // Pool threads have no open span; parent the per-split read ("one ML
    // iteration" of the ingest phase) to the ingest span explicitly. The
    // reader it wraps is destroyed before the span ends (LIFO nesting).
    TraceSpan split_span("ml.ingest.split", ingest_ctx);
    split_span.AddAttribute("split", static_cast<int64_t>(i));
    Stopwatch timer;
    statuses[i] = ReadSplit(format, context, *splits[i], static_cast<int>(i),
                            &partitions[i]);
    if (!statuses[i].ok()) split_span.SetError();
    split_span.AddAttribute(
        "rows", static_cast<int64_t>(partitions[i].size()));
    if (split_micros != nullptr) split_micros->Record(timer.ElapsedMicros());
  });

  // --- §6 split reassignment: failed splits are re-pulled from their
  // producers' frame logs by replacement readers. Sequential, and only
  // after every original reader has unwound: a fenced ("zombie") reader must
  // have stopped touching its partition before a replacement resumes it. ---
  size_t failed = 0;
  for (const Status& status : statuses) {
    if (!status.ok()) ++failed;
  }
  if (failed > 0 && format->SupportsReassignment()) {
    RetryPolicy::Options poll_options;
    poll_options.initial_delay_ms = 5;
    poll_options.max_delay_ms = 100;
    poll_options.jitter = 0.0;
    poll_options.deadline_ms = kReassignmentDeadlineMs;
    RetryPolicy poll(poll_options);
    while (failed > 0) {
      Result<ReassignedSplit> acquired = format->AcquireReassigned();
      if (!acquired.ok()) return acquired.status();  // Typed abort.
      if (acquired->split == nullptr) {
        // Nothing reassignable yet — the coordinator may still be waiting
        // out a lease. Deadline-capped backoff, then give up loudly so
        // every participant stops waiting.
        if (!poll.Backoff()) {
          Status timeout = Status::Aborted(
              "split recovery timed out with " + std::to_string(failed) +
              " split(s) unrecovered");
          format->AbortTransfer(timeout);
          return timeout;
        }
        continue;
      }
      const auto idx = static_cast<size_t>(acquired->index);
      if (idx >= m) {
        return Status::Internal("reassigned split index out of range");
      }
      TraceSpan recover_span("recover_split", ingest_ctx);
      recover_span.AddAttribute("split", static_cast<int64_t>(idx));
      const bool was_failed = !statuses[idx].ok();
      statuses[idx] = ReadSplit(format, context, *acquired->split,
                                static_cast<int>(idx), &partitions[idx]);
      if (statuses[idx].ok()) {
        if (was_failed) --failed;
        ++stats.recovered_splits;
        if (context.metrics != nullptr) {
          context.metrics->GetCounter("ml.ingest.recovered_splits")
              ->Increment();
        }
      } else {
        recover_span.SetError();
        if (!was_failed) ++failed;
        LOG_WARNING() << "reassigned split " << idx
                      << " failed again: " << statuses[idx];
      }
    }
  }
  for (size_t i = 0; i < m; ++i) {
    if (statuses[i].ok()) continue;
    // The split's producer would otherwise wait out its reconnect timeout
    // for a reader that is not coming. The abort is Aborted, which ends
    // that wait, where the reader's own NetworkError would be transient.
    format->AbortTransfer(Status::Aborted("split " + std::to_string(i) +
                                          " unrecovered: " +
                                          statuses[i].ToString()));
    return statuses[i];
  }
  for (const std::vector<Row>& partition : partitions) {
    stats.rows += partition.size();
  }
  if (context.metrics != nullptr) {
    context.metrics->GetCounter("ml.ingest.rows")
        ->Add(static_cast<int64_t>(stats.rows));
    context.metrics->GetCounter("ml.ingest.splits")->Add(stats.num_splits);
    context.metrics->GetCounter("ml.ingest.local_splits")
        ->Add(stats.local_splits);
  }
  result.dataset.schema = format->schema();
  return result;
}

}  // namespace sqlink::ml
