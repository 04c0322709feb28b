#include "common/runtime_flags.h"

#include <atomic>
#include <cstdlib>
#include <string_view>

namespace sqlink {

namespace {

/// -1 = no override (use the environment); 0/1 = forced by a test.
std::atomic<int> g_vectorized_sql_override{-1};

bool OnOffFromEnv(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return true;
  const std::string_view v(value);
  return !(v == "off" || v == "0" || v == "false" || v == "no");
}

}  // namespace

bool VectorizedSqlEnabled() {
  const int forced = g_vectorized_sql_override.load(std::memory_order_relaxed);
  if (forced >= 0) return forced != 0;
  static const bool from_env = OnOffFromEnv("SQLINK_VECTORIZED_SQL");
  return from_env;
}

void SetVectorizedSqlEnabledForTest(int enabled) {
  g_vectorized_sql_override.store(enabled < 0 ? -1 : (enabled != 0 ? 1 : 0),
                                  std::memory_order_relaxed);
}

}  // namespace sqlink
