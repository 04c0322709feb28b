#ifndef SQLINK_COMMON_FAILPOINT_H_
#define SQLINK_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "common/random.h"
#include "common/result.h"

namespace sqlink {

class Counter;  // common/metrics.h

/// What an armed failpoint tells its call site to do. Delay actions sleep
/// inside Evaluate() and report kNone, so call sites only ever branch on
/// error-shaped outcomes.
enum class FailpointOutcome {
  kNone,   ///< Not armed, or the trigger did not fire: proceed normally.
  kError,  ///< Fail the operation with an injected error.
  kClose,  ///< Drop the underlying connection/resource, then fail.
};

/// Parsed form of one failpoint configuration. The text grammar (used by the
/// FAILPOINTS env var and by tests) is
///
///   spec     := modifier* action
///   modifier := ( "after(N)" | "every(N)" | "prob(P[,SEED])" ) ":"
///   action   := "off" | "error" [ "(MAX)" ] | "close" [ "(MAX)" ]
///             | "delay(MS[,MAX])"
///
/// e.g. "error(1)" (one-shot error), "after(49):error(1)" (error once, on
/// the 50th hit), "every(3):close" (close every third hit), or
/// "prob(0.2,7):delay(5)" (5 ms delay on ~20% of hits, seeded RNG).
struct FailpointSpec {
  enum class Action { kOff, kError, kClose, kDelay };

  Action action = Action::kOff;
  int delay_ms = 0;          ///< kDelay only.
  int64_t max_fires = -1;    ///< Firing budget; -1 = unlimited.
  int64_t skip_hits = 0;     ///< Ignore the first N evaluations ("after(N)").
  int64_t every_nth = 1;     ///< Fire on every Nth eligible hit.
  double probability = 1.0;  ///< Fire chance per eligible hit.
  uint64_t seed = 0;         ///< Seeds the per-failpoint RNG ("prob(P,SEED)").
};

/// Process-wide registry of named failpoints — the single place all fault
/// injection in the codebase goes through (LevelDB/RocksDB-style failpoint
/// discipline). Call sites evaluate a point via SQLINK_FAILPOINT("name");
/// tests and the FAILPOINTS env var arm points by name. An unarmed registry
/// costs one relaxed atomic load per evaluation; while some point is armed,
/// a name that is not costs a hash and a second atomic load, and only an
/// armed name takes the registry mutex.
///
/// Determinism: each armed point draws from its own seeded RNG in hit order,
/// so for a fixed seed the schedule of firings (by hit index) is
/// reproducible regardless of wall-clock timing.
///
/// Every evaluation and firing of an armed point is exported through
/// MetricsRegistry::Global() as "failpoint.<name>.hits" / ".fired".
class FailpointRegistry {
 public:
  /// The process registry; on first use it applies the FAILPOINTS env var
  /// ("name=spec,name=spec"), logging and skipping malformed entries.
  static FailpointRegistry& Global();

  /// True when any failpoint is armed. Inline fast path for the macro.
  static bool AnyActive() {
    return active_count_.load(std::memory_order_relaxed) > 0;
  }

  /// Arms `name` with a parsed spec (Action::kOff disarms).
  Status Configure(const std::string& name, const FailpointSpec& spec);

  /// Arms `name` from spec text, e.g. "after(9):error(1)".
  Status Configure(const std::string& name, const std::string& spec);

  /// Applies a full "name=spec,name=spec" configuration string.
  Status ConfigureFromString(const std::string& config);

  /// Parses one spec (see FailpointSpec for the grammar).
  static Result<FailpointSpec> ParseSpec(const std::string& text);

  void Clear(const std::string& name);
  void ClearAll();

  /// Evaluations of `name` since it was (re)configured.
  int64_t Hits(const std::string& name) const;
  /// Times `name` actually fired since it was (re)configured.
  int64_t Fires(const std::string& name) const;

  /// Evaluates `name`: counts the hit, applies the trigger (skip/every/
  /// probability/budget), executes delay actions in place, and returns what
  /// the call site should do. Thread-safe.
  FailpointOutcome Evaluate(std::string_view name);

 private:
  struct Entry {
    FailpointSpec spec;
    Random rng{0};
    int64_t hits = 0;
    int64_t fires = 0;
    Counter* hits_metric = nullptr;   ///< "failpoint.<name>.hits"
    Counter* fired_metric = nullptr;  ///< "failpoint.<name>.fired"
  };

  FailpointRegistry();

  /// Two bits picked by a hash of `name`: the armed-name filter holds the
  /// union of every armed name's bits.
  static uint64_t FilterBits(std::string_view name);
  /// Rebuilds armed_filter_ from entries_. Caller holds mu_.
  void RebuildFilterLocked();

  static std::atomic<int64_t> active_count_;

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
  /// A probe whose FilterBits are not all set here names no armed point
  /// and returns without taking mu_. Rebuilt under mu_ on every change.
  std::atomic<uint64_t> armed_filter_{0};
};

/// Evaluates the failpoint `name` (string or string_view expression). The
/// name expression is not evaluated unless some failpoint is armed, so hot
/// paths may build dynamic names (e.g. per split id) without cost in
/// production. Compiling with -DSQLINK_DISABLE_FAILPOINTS removes even the
/// atomic load.
#ifndef SQLINK_DISABLE_FAILPOINTS
#define SQLINK_FAILPOINT(name)                                \
  (::sqlink::FailpointRegistry::AnyActive()                   \
       ? ::sqlink::FailpointRegistry::Global().Evaluate(name) \
       : ::sqlink::FailpointOutcome::kNone)
#else
#define SQLINK_FAILPOINT(name) (::sqlink::FailpointOutcome::kNone)
#endif

/// RAII arming for tests: configures on construction, clears on destruction.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string name, const std::string& spec)
      : name_(std::move(name)),
        status_(FailpointRegistry::Global().Configure(name_, spec)) {}
  ~ScopedFailpoint() { FailpointRegistry::Global().Clear(name_); }

  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

  const std::string& name() const { return name_; }
  const Status& status() const { return status_; }
  int64_t hits() const { return FailpointRegistry::Global().Hits(name_); }
  int64_t fires() const { return FailpointRegistry::Global().Fires(name_); }

 private:
  std::string name_;
  Status status_;
};

}  // namespace sqlink

#endif  // SQLINK_COMMON_FAILPOINT_H_
