#ifndef SQLINK_COMMON_BYTE_BUDGET_H_
#define SQLINK_COMMON_BYTE_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <memory>

namespace sqlink {

/// A non-blocking byte quota shared by all frame logs of one query (and,
/// at the serving layer, carved out of the global admission memory pool).
/// Producers TryCharge() before writing spill bytes; when the budget is
/// exhausted they fall back to backpressure (waiting on their log's
/// producer condvar) instead of growing the shared spill directory.
/// Logs Release() as spilled frames are first sent or discarded.
///
/// capacity <= 0 means unlimited: TryCharge always succeeds and nothing is
/// tracked beyond the used counter.
class ByteBudget {
 public:
  explicit ByteBudget(int64_t capacity) : capacity_(capacity) {}

  /// Attempts to reserve `bytes`; returns false (reserving nothing) if the
  /// budget would be exceeded. Never blocks.
  bool TryCharge(int64_t bytes) {
    if (bytes <= 0) return true;
    if (capacity_ <= 0) {
      used_.fetch_add(bytes, std::memory_order_relaxed);
      return true;
    }
    int64_t cur = used_.load(std::memory_order_relaxed);
    while (true) {
      if (cur + bytes > capacity_) return false;
      if (used_.compare_exchange_weak(cur, cur + bytes,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
        return true;
      }
    }
  }

  /// Returns `bytes` to the budget. Clamps at zero so a double-release bug
  /// degrades to a slightly generous budget instead of wrapping negative.
  void Release(int64_t bytes) {
    if (bytes <= 0) return;
    int64_t cur = used_.load(std::memory_order_relaxed);
    while (true) {
      const int64_t next = cur > bytes ? cur - bytes : 0;
      if (used_.compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
        return;
      }
    }
  }

  int64_t used() const { return used_.load(std::memory_order_relaxed); }
  int64_t capacity() const { return capacity_; }
  bool unlimited() const { return capacity_ <= 0; }

 private:
  const int64_t capacity_;
  std::atomic<int64_t> used_{0};
};

using ByteBudgetPtr = std::shared_ptr<ByteBudget>;

}  // namespace sqlink

#endif  // SQLINK_COMMON_BYTE_BUDGET_H_
