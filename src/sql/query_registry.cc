#include "sql/query_registry.h"

#include <chrono>
#include <cstdio>

namespace sqlink {

namespace {

void AppendJsonEscaped(const std::string& text, std::string* out) {
  out->push_back('"');
  for (char c : text) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out->append(buffer);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

int64_t NowUnixMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Renders one record. Caller holds the registry mutex, so the completion
/// fields are stable; the transfer counters are atomics and may still move
/// for active queries (that is the point of a live endpoint).
void AppendRecordJson(const QueryRecord& record, std::string* out) {
  char buffer[32];
  *out += "{\"query_id\":" + std::to_string(record.query_id) + ",\"sql\":";
  AppendJsonEscaped(record.sql, out);
  if (!record.tenant.empty()) {
    *out += ",\"tenant\":";
    AppendJsonEscaped(record.tenant, out);
  }
  // Trace ids as strings: uint64 does not survive double-typed JSON readers.
  *out += ",\"trace_id\":\"" + std::to_string(record.trace_id) + "\"";
  *out += ",\"start_unix_ms\":" + std::to_string(record.start_unix_ms);
  *out += ",\"state\":\"";
  *out += !record.finished ? "running"
          : record.abandoned ? "abandoned"
          : record.ok ? "ok"
                      : "error";
  *out += "\"";
  if (record.finished) {
    *out +=
        ",\"duration_micros\":" + std::to_string(record.duration_micros);
    std::snprintf(buffer, sizeof(buffer), "%.2f", record.worst_qerror);
    *out += ",\"worst_qerror\":";
    *out += buffer;
    if (!record.ok) {
      *out += ",\"error\":";
      AppendJsonEscaped(record.error, out);
    }
  }
  const int64_t transfer_rows =
      record.transfer_rows.load(std::memory_order_relaxed);
  const int64_t transfer_bytes =
      record.transfer_bytes.load(std::memory_order_relaxed);
  if (transfer_rows > 0 || transfer_bytes > 0) {
    *out += ",\"transfer\":{\"rows\":" + std::to_string(transfer_rows) +
            ",\"bytes\":" + std::to_string(transfer_bytes) +
            ",\"spilled_frames\":" +
            std::to_string(record.transfer_spilled_frames.load(
                std::memory_order_relaxed)) +
            ",\"channels\":" +
            std::to_string(record.transfer_channels.load(
                std::memory_order_relaxed)) +
            "}";
  }
  if (record.stats != nullptr) {
    *out += ",\"operators\":";
    record.stats->AppendJson(out);
  }
  out->push_back('}');
}

}  // namespace

QueryRegistry& QueryRegistry::Global() {
  static QueryRegistry* const registry = new QueryRegistry();
  return *registry;
}

QueryRecordPtr QueryRegistry::Begin(std::string sql,
                                    std::shared_ptr<QueryStats> stats,
                                    uint64_t trace_id, std::string tenant) {
  auto record = std::make_shared<QueryRecord>();
  record->sql = std::move(sql);
  record->stats = std::move(stats);
  record->trace_id = trace_id;
  record->tenant = std::move(tenant);
  record->start_unix_ms = NowUnixMillis();
  std::lock_guard<std::mutex> lock(mu_);
  record->query_id = next_id_++;
  active_.emplace(record->query_id, record);
  return record;
}

void QueryRegistry::Finish(const QueryRecordPtr& record, const Status& status,
                           int64_t duration_micros, double worst_qerror,
                           bool abandoned) {
  if (record == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (record->finished) return;  // First Finish wins; no duplicate ring entry.
  record->finished = true;
  record->abandoned = abandoned;
  record->ok = status.ok();
  if (!status.ok()) record->error = status.ToString();
  record->duration_micros = duration_micros;
  record->worst_qerror = worst_qerror;
  active_.erase(record->query_id);
  finished_.push_front(record);
  while (finished_.size() > finished_capacity_) finished_.pop_back();
}

QueryRecordPtr QueryRegistry::Find(uint64_t query_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(query_id);
  if (it != active_.end()) return it->second;
  for (const QueryRecordPtr& record : finished_) {
    if (record->query_id == query_id) return record;
  }
  return nullptr;
}

std::vector<QueryRecordPtr> QueryRegistry::Active() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryRecordPtr> out;
  out.reserve(active_.size());
  for (const auto& [id, record] : active_) out.push_back(record);
  return out;
}

std::vector<QueryRecordPtr> QueryRegistry::Finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {finished_.begin(), finished_.end()};
}

size_t QueryRegistry::active_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_.size();
}

size_t QueryRegistry::finished_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finished_.size();
}

void QueryRegistry::set_finished_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  finished_capacity_ = capacity;
  while (finished_.size() > finished_capacity_) finished_.pop_back();
}

std::string QueryRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"active\":[";
  bool first = true;
  for (const auto& [id, record] : active_) {
    if (!first) out.push_back(',');
    first = false;
    AppendRecordJson(*record, &out);
  }
  out += "],\"finished\":[";
  first = true;
  for (const QueryRecordPtr& record : finished_) {
    if (!first) out.push_back(',');
    first = false;
    AppendRecordJson(*record, &out);
  }
  out += "]}";
  return out;
}

void QueryRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  active_.clear();
  finished_.clear();
}

TrackedQuery::~TrackedQuery() {
  if (registry_ != nullptr && record_ != nullptr) {
    // Abandoned mid-stream (iterator dropped, early return, disconnect):
    // finish the state transition so the record leaves the active set.
    registry_->Finish(record_,
                      Status::Cancelled("query abandoned mid-stream"),
                      /*duration_micros=*/0, /*worst_qerror=*/1.0,
                      /*abandoned=*/true);
  }
}

void TrackedQuery::Finish(const Status& status, int64_t duration_micros,
                          double worst_qerror) {
  if (registry_ != nullptr && record_ != nullptr) {
    registry_->Finish(record_, status, duration_micros, worst_qerror);
  }
}

}  // namespace sqlink
