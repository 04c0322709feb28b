#include "sql/table_udf.h"

#include <mutex>

#include "common/string_util.h"

namespace sqlink {

Status TableUdfRegistry::Register(const std::string& name,
                                  TableUdfFactory factory) {
  const std::string key = ToLowerAscii(name);
  std::lock_guard<std::mutex> lock(mu_);
  if (factories_.count(key) > 0) {
    return Status::AlreadyExists("table UDF exists: " + name);
  }
  factories_.emplace(key, std::move(factory));
  return Status::OK();
}

Result<TableUdfPtr> TableUdfRegistry::Create(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = factories_.find(ToLowerAscii(name));
  if (it == factories_.end()) {
    return Status::NotFound("unknown table UDF: " + name);
  }
  return it->second();
}

}  // namespace sqlink
