#include "common/failpoint.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/status_macros.h"
#include "common/string_util.h"

namespace sqlink {

namespace {

/// Parses "name(arg1,arg2)" into its pieces; `args` is empty for a bare
/// name, and a name with empty parens ("error()") yields one empty arg slot
/// rejected later by the numeric parsers.
struct Call {
  std::string name;
  std::vector<std::string> args;
};

Result<Call> ParseCall(const std::string& text) {
  Call call;
  const size_t open = text.find('(');
  if (open == std::string::npos) {
    call.name = std::string(TrimWhitespace(text));
    return call;
  }
  if (text.back() != ')') {
    return Status::InvalidArgument("unbalanced parentheses in failpoint spec: " +
                                   text);
  }
  call.name = std::string(TrimWhitespace(text.substr(0, open)));
  const std::string inner = text.substr(open + 1, text.size() - open - 2);
  for (const std::string& piece : SplitString(inner, ',')) {
    call.args.push_back(std::string(TrimWhitespace(piece)));
  }
  return call;
}

Result<int64_t> ParseInt(const std::string& text, const char* what) {
  if (text.empty()) {
    return Status::InvalidArgument(std::string("missing ") + what +
                                   " in failpoint spec");
  }
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0' || value < 0) {
    return Status::InvalidArgument(std::string("bad ") + what +
                                   " in failpoint spec: " + text);
  }
  return static_cast<int64_t>(value);
}

Result<double> ParseProbability(const std::string& text) {
  if (text.empty()) {
    return Status::InvalidArgument("missing probability in failpoint spec");
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0' || value < 0.0 ||
      value > 1.0) {
    return Status::InvalidArgument("bad probability in failpoint spec: " +
                                   text);
  }
  return value;
}

}  // namespace

std::atomic<int64_t> FailpointRegistry::active_count_{0};

FailpointRegistry::FailpointRegistry() {
  const char* env = std::getenv("FAILPOINTS");
  if (env != nullptr && *env != '\0') {
    const Status status = ConfigureFromString(env);
    if (!status.ok()) {
      LOG_WARNING() << "ignoring malformed FAILPOINTS env entry: " << status;
    }
  }
}

FailpointRegistry& FailpointRegistry::Global() {
  static FailpointRegistry* const registry = new FailpointRegistry();
  return *registry;
}

namespace {
// Constructing the registry is what parses FAILPOINTS, but the AnyActive()
// fast path never constructs the singleton. Touch it at load time so
// env-armed points are live from the very first evaluation.
[[maybe_unused]] const bool kEnvFailpointsLoaded =
    (FailpointRegistry::Global(), true);
}  // namespace

Result<FailpointSpec> FailpointRegistry::ParseSpec(const std::string& text) {
  FailpointSpec spec;
  const std::vector<std::string> segments = SplitString(text, ':');
  if (segments.empty()) {
    return Status::InvalidArgument("empty failpoint spec");
  }
  // Leading segments are modifiers; the last one is the action.
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    ASSIGN_OR_RETURN(Call mod, ParseCall(segments[i]));
    if (mod.name == "after") {
      if (mod.args.size() != 1) {
        return Status::InvalidArgument("after() takes one argument");
      }
      ASSIGN_OR_RETURN(spec.skip_hits, ParseInt(mod.args[0], "after count"));
    } else if (mod.name == "every") {
      if (mod.args.size() != 1) {
        return Status::InvalidArgument("every() takes one argument");
      }
      ASSIGN_OR_RETURN(spec.every_nth, ParseInt(mod.args[0], "every count"));
      if (spec.every_nth < 1) {
        return Status::InvalidArgument("every() needs a positive count");
      }
    } else if (mod.name == "prob") {
      if (mod.args.empty() || mod.args.size() > 2) {
        return Status::InvalidArgument("prob() takes probability[,seed]");
      }
      ASSIGN_OR_RETURN(spec.probability, ParseProbability(mod.args[0]));
      if (mod.args.size() == 2) {
        ASSIGN_OR_RETURN(int64_t seed, ParseInt(mod.args[1], "seed"));
        spec.seed = static_cast<uint64_t>(seed);
      }
    } else {
      return Status::InvalidArgument("unknown failpoint modifier: " +
                                     mod.name);
    }
  }
  ASSIGN_OR_RETURN(Call action, ParseCall(segments.back()));
  if (action.name == "off") {
    if (!action.args.empty()) {
      return Status::InvalidArgument("off takes no arguments");
    }
    spec.action = FailpointSpec::Action::kOff;
  } else if (action.name == "error" || action.name == "close") {
    spec.action = action.name == "error" ? FailpointSpec::Action::kError
                                         : FailpointSpec::Action::kClose;
    if (action.args.size() > 1) {
      return Status::InvalidArgument(action.name +
                                     " takes at most a fire budget");
    }
    if (action.args.size() == 1) {
      ASSIGN_OR_RETURN(spec.max_fires, ParseInt(action.args[0], "fire budget"));
    }
  } else if (action.name == "delay") {
    spec.action = FailpointSpec::Action::kDelay;
    if (action.args.empty() || action.args.size() > 2) {
      return Status::InvalidArgument("delay() takes ms[,fire budget]");
    }
    ASSIGN_OR_RETURN(int64_t ms, ParseInt(action.args[0], "delay ms"));
    spec.delay_ms = static_cast<int>(ms);
    if (action.args.size() == 2) {
      ASSIGN_OR_RETURN(spec.max_fires, ParseInt(action.args[1], "fire budget"));
    }
  } else {
    return Status::InvalidArgument("unknown failpoint action: " + action.name);
  }
  return spec;
}

uint64_t FailpointRegistry::FilterBits(std::string_view name) {
  const uint64_t hash = std::hash<std::string_view>{}(name);
  return (uint64_t{1} << (hash & 63)) | (uint64_t{1} << ((hash >> 6) & 63));
}

void FailpointRegistry::RebuildFilterLocked() {
  uint64_t filter = 0;
  for (const auto& [name, entry] : entries_) filter |= FilterBits(name);
  armed_filter_.store(filter, std::memory_order_release);
}

Status FailpointRegistry::Configure(const std::string& name,
                                    const FailpointSpec& spec) {
  if (name.empty()) {
    return Status::InvalidArgument("failpoint name must not be empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  const bool was_armed =
      it != entries_.end() && it->second.spec.action != FailpointSpec::Action::kOff;
  if (spec.action == FailpointSpec::Action::kOff) {
    if (it != entries_.end()) {
      entries_.erase(it);
      if (was_armed) active_count_.fetch_add(-1, std::memory_order_relaxed);
      RebuildFilterLocked();
    }
    return Status::OK();
  }
  Entry entry;
  entry.spec = spec;
  entry.rng = Random(spec.seed);
  MetricsRegistry& metrics = MetricsRegistry::Global();
  entry.hits_metric = metrics.GetCounter("failpoint." + name + ".hits");
  entry.fired_metric = metrics.GetCounter("failpoint." + name + ".fired");
  entries_[name] = std::move(entry);
  if (!was_armed) active_count_.fetch_add(1, std::memory_order_relaxed);
  RebuildFilterLocked();
  return Status::OK();
}

Status FailpointRegistry::Configure(const std::string& name,
                                    const std::string& spec) {
  ASSIGN_OR_RETURN(FailpointSpec parsed, ParseSpec(spec));
  return Configure(name, parsed);
}

Status FailpointRegistry::ConfigureFromString(const std::string& config) {
  for (const std::string& piece : SplitString(config, ',')) {
    const std::string entry(TrimWhitespace(piece));
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("failpoint entry needs name=spec: " +
                                     entry);
    }
    const std::string name(TrimWhitespace(entry.substr(0, eq)));
    const std::string spec(TrimWhitespace(entry.substr(eq + 1)));
    RETURN_IF_ERROR(Configure(name, spec));
  }
  return Status::OK();
}

void FailpointRegistry::Clear(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return;
  if (it->second.spec.action != FailpointSpec::Action::kOff) {
    active_count_.fetch_add(-1, std::memory_order_relaxed);
  }
  entries_.erase(it);
  RebuildFilterLocked();
}

void FailpointRegistry::ClearAll() {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t armed = 0;
  for (const auto& [name, entry] : entries_) {
    if (entry.spec.action != FailpointSpec::Action::kOff) ++armed;
  }
  entries_.clear();
  active_count_.fetch_add(-armed, std::memory_order_relaxed);
  RebuildFilterLocked();
}

int64_t FailpointRegistry::Hits(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.hits;
}

int64_t FailpointRegistry::Fires(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.fires;
}

FailpointOutcome FailpointRegistry::Evaluate(std::string_view name) {
  const uint64_t bits = FilterBits(name);
  if ((armed_filter_.load(std::memory_order_acquire) & bits) != bits) {
    return FailpointOutcome::kNone;
  }
  int delay_ms = 0;
  FailpointOutcome outcome = FailpointOutcome::kNone;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it == entries_.end() ||
        it->second.spec.action == FailpointSpec::Action::kOff) {
      return FailpointOutcome::kNone;
    }
    Entry& entry = it->second;
    ++entry.hits;
    entry.hits_metric->Increment();
    const FailpointSpec& spec = entry.spec;
    const int64_t eligible = entry.hits - spec.skip_hits;
    const bool triggers =
        eligible > 0 && (eligible % spec.every_nth) == 0 &&
        (spec.max_fires < 0 || entry.fires < spec.max_fires) &&
        (spec.probability >= 1.0 || entry.rng.Bernoulli(spec.probability));
    if (triggers) {
      ++entry.fires;
      entry.fired_metric->Increment();
      switch (spec.action) {
        case FailpointSpec::Action::kError:
          outcome = FailpointOutcome::kError;
          break;
        case FailpointSpec::Action::kClose:
          outcome = FailpointOutcome::kClose;
          break;
        case FailpointSpec::Action::kDelay:
          delay_ms = spec.delay_ms;
          break;
        case FailpointSpec::Action::kOff:
          break;
      }
    }
  }
  if (delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  return outcome;
}

}  // namespace sqlink
