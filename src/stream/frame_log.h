#ifndef SQLINK_STREAM_FRAME_LOG_H_
#define SQLINK_STREAM_FRAME_LOG_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "common/byte_budget.h"
#include "common/result.h"

namespace sqlink {

/// Append-only disk file of length-prefixed records — the spill file of a
/// FrameLog. The file is created lazily on the first Append and is ALWAYS
/// removed once the SpillFile is destroyed (or explicitly Remove()d),
/// including when an abort struck between creating the file and completing
/// the first record. Not thread-safe; callers hold their own locks.
class SpillFile {
 public:
  explicit SpillFile(std::string path) : path_(std::move(path)) {}
  ~SpillFile() { Remove(); }

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Appends one fixed32-length-prefixed record, returning its offset for
  /// ReadAt. The file is flushed so a later ReadAt sees the record.
  Result<uint64_t> Append(std::string_view record);

  /// Reads back the record at `offset` (a value returned by Append).
  Result<std::string> ReadAt(uint64_t offset);

  /// Closes and deletes the backing file if it was ever created. Idempotent.
  void Remove();

 private:
  std::string path_;
  bool created_ = false;
  uint64_t write_offset_ = 0;
  std::ofstream out_;
  std::ifstream in_;
};

/// The send buffer and replay log of one SQL → ML data channel (§3, §6):
/// an append-only log of data frames numbered 1, 2, … with three cursors,
/// acked ≤ sent ≤ produced. Frames in (sent, produced] are unsent — the
/// paper's send buffer; frames in (acked, sent] were sent and wait for the
/// reader's cumulative ack, which trims them. The sender reads frames
/// straight from the log, so a replay is the same read loop rewound to the
/// reader's resume point.
///
/// One memory limit: unsent frames in memory stay within
/// `send_buffer_bytes`; a single larger frame is still admitted. Past it,
/// Append spills the new frame if spill is on and the per-query budget
/// allows, and otherwise waits for the sender to take a frame. It never
/// waits on an ack: the sender reads acks only between frames, so that
/// wait could deadlock. A spill at append charges the budget until that
/// frame is first sent, or until Cancel or destruction.
///
/// Sent frames stay where they are, in memory or in the spill file, until
/// acked. The reader's window bounds them: the log counts the bytes read
/// since the last Rewind and not yet acked (State::in_flight_bytes), and
/// the sender waits for acks on its channel, never inside the log, while
/// that count fills the window.
///
/// Threading: one producer (Append, Close), one sender (Next, Rewind, Ack);
/// Cancel may come from any thread.
class FrameLog {
 public:
  struct Options {
    size_t send_buffer_bytes = 4096;
    bool spill_enabled = true;
    /// The spill file is `<spill_path>.spill`; required when spill_enabled.
    std::string spill_path;
    /// Optional per-query quota on spilled unsent bytes, shared by every
    /// log of the query. Null means no quota.
    ByteBudgetPtr spill_budget;
  };

  /// One frame handed to the sender; `frame` stays valid until the
  /// sender's next call into the log.
  struct Read {
    uint64_t seq = 0;
    uint64_t rows = 0;
    std::string_view frame;
    bool replay = false;  ///< The frame was sent before.
  };

  /// A consistent snapshot of the cursors and memory use.
  struct State {
    uint64_t acked = 0;
    uint64_t sent = 0;
    uint64_t produced = 0;
    size_t unsent_memory_bytes = 0;
    /// Bytes of the frames read since the last Rewind and not yet acked:
    /// what the reader's window counts. Frames at or below the resume
    /// point were not sent on the new connection, so they never count.
    size_t in_flight_bytes = 0;
    int64_t spilled_frames = 0;  ///< Spills at append.
  };

  explicit FrameLog(Options options);
  ~FrameLog();

  FrameLog(const FrameLog&) = delete;
  FrameLog& operator=(const FrameLog&) = delete;

  /// Appends the next frame, holding `rows` rows. Fails after Cancel().
  Status Append(std::string frame, uint64_t rows);
  /// The producer is done; Next ends once the cursor reaches the end.
  void Close();

  /// Reads the frame after the read cursor, blocking until it is appended;
  /// nullopt once the log is closed and fully read.
  Result<std::optional<Read>> Next();
  /// Moves the read cursor to `resume`, clamped to [acked, sent] so a
  /// reader can't skip frames it never received, and starts counting
  /// in-flight bytes afresh from there; returns the clamped value.
  uint64_t Rewind(uint64_t resume);
  /// Cumulative ack: trims every frame with seq <= `seq` (clamped to sent).
  void Ack(uint64_t seq);
  /// Rows in frames [1, seq]; `seq` must lie in [acked, produced].
  Result<uint64_t> RowsThrough(uint64_t seq) const;

  /// Unblocks both sides with kCancelled, deletes the spill file and
  /// returns the budget charge: an aborted transfer leaves no .spill file.
  void Cancel();

  State state() const;

 private:
  struct Entry {
    uint64_t rows = 0;
    size_t bytes = 0;
    bool in_memory = true;
    uint64_t spill_offset = 0;  ///< Valid when !in_memory.
    std::string frame;          ///< Empty when spilled.
  };

  Entry& EntryLocked(uint64_t seq) { return entries_[seq - acked_ - 1]; }
  void ReleaseBudgetLocked(int64_t bytes);

  const Options options_;
  mutable std::mutex mu_;
  std::condition_variable producer_cv_;
  std::condition_variable sender_cv_;

  std::deque<Entry> entries_;  ///< Frames acked_+1 … produced_.
  uint64_t acked_ = 0;
  uint64_t cursor_ = 0;  ///< Last frame read by the sender.
  uint64_t sent_ = 0;    ///< Highest frame ever read.
  uint64_t produced_ = 0;
  uint64_t acked_rows_ = 0;  ///< Rows in frames [1, acked_].
  uint64_t rewound_to_ = 0;  ///< The last Rewind's clamped resume point.
  size_t unsent_bytes_ = 0;
  size_t in_flight_bytes_ = 0;  ///< Frames (max(acked_, rewound_to_), cursor_].
  int64_t spilled_frames_ = 0;
  int64_t budget_outstanding_ = 0;
  bool closed_ = false;
  bool cancelled_ = false;
  SpillFile spill_;
  std::string read_buffer_;  ///< Backs Read::frame for frames off disk.
};

}  // namespace sqlink

#endif  // SQLINK_STREAM_FRAME_LOG_H_
