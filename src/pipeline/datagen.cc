#include "pipeline/datagen.h"

#include <memory>

#include "common/random.h"
#include "common/status_macros.h"
#include "common/thread_pool.h"

namespace sqlink {

Result<CartsWorkload> GenerateCartsWorkload(
    SqlEngine* engine, const CartsWorkloadOptions& options) {
  if (options.num_users <= 0 || options.num_carts <= 0) {
    return Status::InvalidArgument("row counts must be positive");
  }
  const size_t partitions = static_cast<size_t>(engine->num_workers());

  CartsWorkload workload;
  auto users_schema = Schema::Make({{"userid", DataType::kInt64},
                                    {"age", DataType::kInt64},
                                    {"gender", DataType::kString},
                                    {"country", DataType::kString}});
  workload.users = engine->MakeTable("users", users_schema);
  auto carts_schema = Schema::Make({{"cartid", DataType::kInt64},
                                    {"userid", DataType::kInt64},
                                    {"amount", DataType::kDouble},
                                    {"nitems", DataType::kInt64},
                                    {"year", DataType::kInt64},
                                    {"abandoned", DataType::kString}});
  workload.carts = engine->MakeTable("carts", carts_schema);

  // Per-partition generation, deterministic per (seed, partition).
  std::vector<Status> statuses(partitions);
  ParallelFor(partitions, [&](size_t p) {
    Random rng(options.seed * 1000003 + p);
    for (int64_t id = static_cast<int64_t>(p); id < options.num_users;
         id += static_cast<int64_t>(partitions)) {
      statuses[p] = workload.users->AppendRow(
          p, Row{Value::Int64(id), Value::Int64(rng.UniformInt(16, 90)),
                 Value::String(rng.Bernoulli(0.52) ? "F" : "M"),
                 Value::String(rng.Bernoulli(options.usa_fraction) ? "USA"
                                                                   : "CA")});
      if (!statuses[p].ok()) return;
    }
  });
  for (const Status& status : statuses) RETURN_IF_ERROR(status);
  std::unique_ptr<ZipfDistribution> zipf;
  if (options.zipf_skew > 0) {
    zipf = std::make_unique<ZipfDistribution>(
        static_cast<size_t>(options.num_users), options.zipf_skew);
  }
  ParallelFor(partitions, [&](size_t p) {
    Random rng(options.seed * 7000003 + p);
    for (int64_t id = static_cast<int64_t>(p); id < options.num_carts;
         id += static_cast<int64_t>(partitions)) {
      const int64_t userid =
          zipf != nullptr ? static_cast<int64_t>(zipf->Sample(&rng))
                          : rng.UniformInt(0, options.num_users - 1);
      const double amount = rng.NextDouble() * 500.0;
      // Signal: expensive carts abandon more; round numbers less.
      const double p_abandon =
          options.abandon_rate + (amount > 250 ? 0.25 : -0.15);
      statuses[p] = workload.carts->AppendRow(
          p, Row{Value::Int64(id), Value::Int64(userid), Value::Double(amount),
                 Value::Int64(rng.UniformInt(1, 15)),
                 Value::Int64(rng.UniformInt(2013, 2015)),
                 Value::String(rng.Bernoulli(p_abandon) ? "Yes" : "No")});
      if (!statuses[p].ok()) return;
    }
  });
  for (const Status& status : statuses) RETURN_IF_ERROR(status);

  engine->catalog()->PutTable(workload.users);
  engine->catalog()->PutTable(workload.carts);
  return workload;
}

std::string CartsPrepQuery() {
  return "SELECT U.age, U.gender, C.amount, C.abandoned "
         "FROM carts C, users U "
         "WHERE C.userid = U.userid AND U.country = 'USA'";
}

}  // namespace sqlink
