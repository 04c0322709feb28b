#ifndef SQLINK_ML_JOB_H_
#define SQLINK_ML_JOB_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "ml/dataset.h"
#include "ml/input_format.h"

namespace sqlink::ml {

/// Outcome of the parallel ingestion phase.
struct IngestStats {
  int num_splits = 0;
  size_t rows = 0;
  /// Splits whose worker landed on a node holding the data (locality hit).
  int local_splits = 0;
  /// Splits re-read by a replacement reader after their original died (§6).
  int recovered_splits = 0;
};

struct IngestResult {
  RowDataset dataset;
  IngestStats stats;
};

/// The ML job runtime: the Spark/Hadoop analogue that launches one worker
/// per InputSplit, places workers on the split's preferred node when
/// possible (best-effort locality, as the paper's coordinator arranges),
/// reads every record through the InputFormat, and materializes the
/// in-memory RowDataset that training algorithms consume.
class MlJobRunner {
 public:
  explicit MlJobRunner(JobContext context) : context_(std::move(context)) {}

  /// Runs the ingestion phase: GetSplits → parallel read → RowDataset.
  Result<IngestResult> Ingest(InputFormat* format);

  const JobContext& context() const { return context_; }

 private:
  JobContext context_;
};

}  // namespace sqlink::ml

#endif  // SQLINK_ML_JOB_H_
