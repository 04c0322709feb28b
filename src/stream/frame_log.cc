#include "stream/frame_log.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/coding.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "stream/wire.h"

namespace sqlink {

namespace {

/// Instruments shared by every frame log, resolved once.
struct LogMetrics {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Gauge* depth_frames = registry.GetGauge("stream.spill.queue_depth_frames");
  Gauge* depth_bytes = registry.GetGauge("stream.spill.queue_depth_bytes");
  Counter* spilled_frames = registry.GetCounter("stream.spill.spilled_frames");
  Counter* spilled_bytes = registry.GetCounter("stream.spill.spilled_bytes");
  Counter* drained_frames = registry.GetCounter("stream.spill.drained_frames");
  Counter* budget_parks = registry.GetCounter("stream.spill.budget_parks");
  Histogram* write_micros = registry.GetHistogram("stream.spill.write_micros");
  Histogram* read_micros = registry.GetHistogram("stream.spill.read_micros");

  static const LogMetrics& Get() {
    static const LogMetrics metrics;
    return metrics;
  }
};

}  // namespace

Result<uint64_t> SpillFile::Append(std::string_view record) {
  if (!out_.is_open()) {
    out_.open(path_, std::ios::binary | std::ios::trunc);
    if (!out_) {
      return Status::IoError("cannot open spill file " + path_);
    }
    created_ = true;
  }
  std::string framed;
  PutFixed32(&framed, static_cast<uint32_t>(record.size()));
  framed += record;
  out_.write(framed.data(), static_cast<std::streamsize>(framed.size()));
  out_.flush();
  if (!out_) {
    return Status::IoError("spill write failed: " + path_);
  }
  const uint64_t offset = write_offset_;
  write_offset_ += framed.size();
  return offset;
}

Result<std::string> SpillFile::ReadAt(uint64_t offset) {
  if (!in_.is_open()) {
    in_.open(path_, std::ios::binary);
    if (!in_) {
      return Status::IoError("cannot open spill file for read: " + path_);
    }
  }
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(offset));
  char header[4];
  // A short read leaves `header` unset, and its length would size the
  // record: fail before using it.
  if (!in_.read(header, 4)) {
    return Status::IoError("spill record header cut short: " + path_);
  }
  uint32_t length = 0;
  std::memcpy(&length, header, 4);
  std::string record(length, '\0');
  in_.read(record.data(), static_cast<std::streamsize>(length));
  if (!in_) {
    return Status::IoError("spill read failed: " + path_);
  }
  return record;
}

void SpillFile::Remove() {
  if (out_.is_open()) out_.close();
  if (in_.is_open()) in_.close();
  if (created_) {
    std::remove(path_.c_str());
    created_ = false;
  }
}

FrameLog::FrameLog(Options options)
    : options_(std::move(options)),
      spill_(options_.spill_path.empty() ? std::string()
                                         : options_.spill_path + ".spill") {
  SQLINK_CHECK(!options_.spill_enabled || !options_.spill_path.empty())
      << "spill enabled without a spill path";
}

FrameLog::~FrameLog() {
  // Undo this log's share of the depth gauges for frames never sent; the
  // SpillFile member deletes its backing file unconditionally.
  const LogMetrics& metrics = LogMetrics::Get();
  metrics.depth_frames->Add(-static_cast<int64_t>(produced_ - sent_));
  metrics.depth_bytes->Add(-static_cast<int64_t>(unsent_bytes_));
  ReleaseBudgetLocked(budget_outstanding_);
}

Status FrameLog::Append(std::string frame, uint64_t rows) {
  const LogMetrics& metrics = LogMetrics::Get();
  const auto bytes = static_cast<int64_t>(frame.size());
  Entry entry;
  entry.rows = rows;
  entry.bytes = frame.size();
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (cancelled_) return Status::Cancelled("frame log cancelled");
    if (closed_) return Status::FailedPrecondition("append after Close");
    // An oversized frame is admitted alone so progress is possible.
    if (unsent_bytes_ == 0 ||
        unsent_bytes_ + entry.bytes <= options_.send_buffer_bytes) {
      unsent_bytes_ += entry.bytes;
      metrics.depth_bytes->Add(bytes);
      entry.frame = std::move(frame);
      break;
    }
    // An injected spill failure and an exhausted budget are both checked
    // before any bytes reach disk, so Append degrades to backpressure;
    // genuine write failures still fail hard.
    if (options_.spill_enabled &&
        SQLINK_FAILPOINT("stream.spill.write") == FailpointOutcome::kNone) {
      if (!options_.spill_budget || options_.spill_budget->TryCharge(bytes)) {
        budget_outstanding_ += bytes;
        TraceSpan span("spill.write");
        Stopwatch timer;
        auto offset = spill_.Append(frame);
        if (!offset.ok()) {
          span.SetError();
          ReleaseBudgetLocked(bytes);
          return offset.status();
        }
        entry.in_memory = false;
        entry.spill_offset = *offset;
        FrameBufferPool::Global()->Release(std::move(frame));
        ++spilled_frames_;
        metrics.write_micros->Record(timer.ElapsedMicros());
        metrics.spilled_frames->Increment();
        metrics.spilled_bytes->Add(bytes);
        span.AddAttribute("bytes", bytes);
        break;
      }
      metrics.budget_parks->Increment();
    }
    // Wait for the sender to take a frame. A sibling log of the same query
    // may free shared budget without signalling this condvar, so poll.
    if (options_.spill_budget && !options_.spill_budget->unlimited()) {
      producer_cv_.wait_for(lock, std::chrono::milliseconds(1));
    } else {
      producer_cv_.wait(lock);
    }
  }
  entries_.push_back(std::move(entry));
  ++produced_;
  metrics.depth_frames->Increment();
  sender_cv_.notify_one();
  return Status::OK();
}

void FrameLog::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  sender_cv_.notify_all();
}

Result<std::optional<FrameLog::Read>> FrameLog::Next() {
  const LogMetrics& metrics = LogMetrics::Get();
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (cancelled_) return Status::Cancelled("frame log cancelled");
    if (cursor_ < produced_) break;
    if (closed_) return std::optional<Read>();
    sender_cv_.wait(lock);
  }
  const uint64_t seq = cursor_ + 1;
  Entry& entry = EntryLocked(seq);
  const bool first_send = seq > sent_;
  if (!entry.in_memory) {
    if (SQLINK_FAILPOINT("stream.spill.read") != FailpointOutcome::kNone) {
      return Status::IoError("failpoint: injected spill read error");
    }
    TraceSpan span("spill.drain");
    Stopwatch timer;
    auto frame = spill_.ReadAt(entry.spill_offset);
    if (!frame.ok()) {
      span.SetError();
      return frame.status();
    }
    read_buffer_ = std::move(*frame);
    metrics.read_micros->Record(timer.ElapsedMicros());
    span.AddAttribute("bytes", static_cast<int64_t>(entry.bytes));
  }
  cursor_ = seq;
  in_flight_bytes_ += entry.bytes;
  if (first_send) {
    // The frame leaves the send buffer. One spilled at append is drained
    // and returns its budget charge; it stays on disk until acked.
    if (entry.in_memory) {
      unsent_bytes_ -= entry.bytes;
      metrics.depth_bytes->Add(-static_cast<int64_t>(entry.bytes));
    } else {
      metrics.drained_frames->Increment();
      ReleaseBudgetLocked(static_cast<int64_t>(entry.bytes));
    }
    sent_ = seq;
    metrics.depth_frames->Decrement();
    producer_cv_.notify_one();
  }
  Read read;
  read.seq = seq;
  read.rows = entry.rows;
  read.frame = entry.in_memory ? std::string_view(entry.frame)
                               : std::string_view(read_buffer_);
  read.replay = !first_send;
  return std::optional<Read>(read);
}

uint64_t FrameLog::Rewind(uint64_t resume) {
  std::lock_guard<std::mutex> lock(mu_);
  cursor_ = std::clamp(resume, acked_, sent_);
  rewound_to_ = cursor_;
  in_flight_bytes_ = 0;
  return cursor_;
}

void FrameLog::Ack(uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  for (seq = std::min(seq, sent_); acked_ < seq;) {
    Entry& front = entries_.front();
    ++acked_;
    acked_rows_ += front.rows;
    if (acked_ > rewound_to_ && acked_ <= cursor_) {
      in_flight_bytes_ -= front.bytes;
    }
    if (front.in_memory) {
      FrameBufferPool::Global()->Release(std::move(front.frame));
    }
    entries_.pop_front();
  }
  cursor_ = std::max(cursor_, acked_);
}

Result<uint64_t> FrameLog::RowsThrough(uint64_t seq) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (seq < acked_ || seq > produced_) {
    return Status::Internal("frame " + std::to_string(seq) +
                            " is outside the log");
  }
  uint64_t rows = acked_rows_;
  for (uint64_t i = 0; i < seq - acked_; ++i) rows += entries_[i].rows;
  return rows;
}

void FrameLog::Cancel() {
  std::lock_guard<std::mutex> lock(mu_);
  cancelled_ = true;
  spill_.Remove();
  ReleaseBudgetLocked(budget_outstanding_);
  producer_cv_.notify_all();
  sender_cv_.notify_all();
}

void FrameLog::ReleaseBudgetLocked(int64_t bytes) {
  const int64_t release = std::min(bytes, budget_outstanding_);
  if (release <= 0) return;
  budget_outstanding_ -= release;
  if (options_.spill_budget) options_.spill_budget->Release(release);
}

FrameLog::State FrameLog::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return State{acked_,        sent_,            produced_,
               unsent_bytes_, in_flight_bytes_, spilled_frames_};
}

}  // namespace sqlink
