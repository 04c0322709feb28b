#ifndef SQLINK_SQL_QUERY_REGISTRY_H_
#define SQLINK_SQL_QUERY_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "sql/query_stats.h"

namespace sqlink {

/// One tracked query execution. Created by the engine when execution
/// starts, finalized when it returns; the streaming sink UDF looks its
/// record up by query id to attach per-query transfer counters, and the
/// /queries ops endpoint renders both active and recently finished records.
///
/// Identity/immutable fields are set at Begin(); the transfer counters are
/// atomics updated by sink workers while the query runs; the completion
/// fields are written under the registry mutex at Finish() and must be read
/// through the registry (ToJson) or after the query finished.
struct QueryRecord {
  uint64_t query_id = 0;
  std::string sql;          ///< Query text ("<plan>" for direct plan runs).
  std::string tenant;       ///< Submitting tenant (serving layer); may be "".
  uint64_t trace_id = 0;    ///< Joins the record to its trace spans; 0 = unsampled.
  int64_t start_unix_ms = 0;
  std::shared_ptr<QueryStats> stats;  ///< May be null (untracked plans).

  // Streaming-transfer counters, attributed by the sink UDF via the query
  // id carried in TableUdfContext. The trace id above rides every wire
  // frame of the same transfer, joining these numbers to /tracez.
  std::atomic<int64_t> transfer_rows{0};
  std::atomic<int64_t> transfer_bytes{0};
  std::atomic<int64_t> transfer_spilled_frames{0};
  /// Logical sink→reader channels the transfer served (these share pooled
  /// sockets — compare with net.mux.conns in /metrics).
  std::atomic<int64_t> transfer_channels{0};

  // Completion fields (guarded by the registry mutex until finished).
  bool finished = false;
  bool abandoned = false;  ///< Finished by the TrackedQuery destructor.
  bool ok = true;
  std::string error;            ///< Status message when !ok.
  int64_t duration_micros = 0;  ///< Total wall time once finished.
  double worst_qerror = 1.0;    ///< Worst per-node q-error once finished.
};

using QueryRecordPtr = std::shared_ptr<QueryRecord>;

/// Process-wide registry of query executions: the currently active set plus
/// a bounded ring of the most recently finished records. Everything the
/// /queries endpoint serves comes from here.
class QueryRegistry {
 public:
  static QueryRegistry& Global();

  QueryRegistry() = default;
  QueryRegistry(const QueryRegistry&) = delete;
  QueryRegistry& operator=(const QueryRegistry&) = delete;

  /// Registers a new active query and assigns it a fresh id. `tenant` is
  /// set before the record is published (the /queries endpoint may render
  /// it concurrently).
  QueryRecordPtr Begin(std::string sql, std::shared_ptr<QueryStats> stats,
                       uint64_t trace_id, std::string tenant = {});

  /// Moves the record from active to the finished ring. Idempotent: the
  /// first call wins; a later call (e.g. the TrackedQuery destructor racing
  /// an explicit Finish) is a no-op, so the ring never holds duplicates.
  void Finish(const QueryRecordPtr& record, const Status& status,
              int64_t duration_micros, double worst_qerror,
              bool abandoned = false);

  /// Finds an active or recently finished record; null when unknown.
  QueryRecordPtr Find(uint64_t query_id) const;

  std::vector<QueryRecordPtr> Active() const;
  /// Most recent first.
  std::vector<QueryRecordPtr> Finished() const;

  size_t active_count() const;
  size_t finished_count() const;

  /// How many finished records to retain (default 64).
  void set_finished_capacity(size_t capacity);

  /// {"active":[...],"finished":[...]} with per-record stats trees.
  std::string ToJson() const;

  /// Drops all records (tests).
  void Reset();

 private:
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  size_t finished_capacity_ = 64;
  std::unordered_map<uint64_t, QueryRecordPtr> active_;
  std::deque<QueryRecordPtr> finished_;  ///< Front = most recent.
};

/// RAII guard around one tracked execution. If the guard is destroyed
/// before Finish() ran — an abandoned engine iterator, an early return, a
/// disconnect that unwinds the serving stack — the destructor finishes the
/// record as "abandoned" so /queries never reports phantom active queries.
class TrackedQuery {
 public:
  TrackedQuery() = default;
  TrackedQuery(QueryRegistry* registry, QueryRecordPtr record)
      : registry_(registry), record_(std::move(record)) {}
  ~TrackedQuery();

  TrackedQuery(TrackedQuery&& other) noexcept { *this = std::move(other); }
  TrackedQuery& operator=(TrackedQuery&& other) noexcept {
    if (this != &other) {
      registry_ = other.registry_;
      record_ = std::move(other.record_);
      other.registry_ = nullptr;
      other.record_ = nullptr;
    }
    return *this;
  }
  TrackedQuery(const TrackedQuery&) = delete;
  TrackedQuery& operator=(const TrackedQuery&) = delete;

  /// Finalizes the record normally; the destructor then does nothing.
  void Finish(const Status& status, int64_t duration_micros,
              double worst_qerror);

  const QueryRecordPtr& record() const { return record_; }

 private:
  QueryRegistry* registry_ = nullptr;
  QueryRecordPtr record_;
};

}  // namespace sqlink

#endif  // SQLINK_SQL_QUERY_REGISTRY_H_
