// e2ebench: the repository's end-to-end benchmark. Three closed-loop
// workloads, one per process, each timing calls to public entry points from
// outside and reading deltas of the metrics registry the program keeps:
//
//   fig3_stream  Figure 3's insql+stream path: Prepare(kInSqlStream, no
//                cache) of the paper request, 2 clients on one engine.
//   fig4_cached  Figure 4's caches: one analyst session (Q1 computes and
//                materializes, Q2 hits the full-result cache, Q3 the
//                recode-map cache, then the cache is reset) per op,
//                1 client on an engine of its own.
//   serve_agg    Connect + GROUP BY through the QueryServer, 4 clients.
//
//   e2ebench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//            [--out-dir DIR]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. With --trace 0 it holds the end-to-end metrics of one untraced
// window. With --trace 1 the run is split into an untraced and a traced
// half, followed by the isolation probes, and it holds the per-layer
// metrics; the spans go to DIR/e2ebench-spans-<workload>-<seed>.jsonl.
// Every op is checked against a reference computed once during setup, and
// the run ends with leak checks. Exit status: 0 correct, 1 wrong result or
// leak, 2 bad arguments or failed setup (no result printed).
//
// The end-to-end times are scaled to a reference host speed: a calibration
// thread times a fixed kernel beside the workload, and the host's steal is
// read from /proc/stat, because the speed of a shared VM drifts by tens of
// percent over minutes.
//
// NOTES.md explains each workload, the metrics and the layer predictions.

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/fs_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/status_macros.h"
#include "dfs/dfs.h"
#include "pipeline/analytics_pipeline.h"
#include "pipeline/datagen.h"
#include "rewriter/query_rewriter.h"
#include "serving/query_server.h"
#include "stream/streaming_transfer.h"
#include "transform/transformer.h"

namespace sqlink::e2e {
namespace {

using Clock = std::chrono::steady_clock;

/// The seed used when --seed is absent, and the one held out for confirming
/// a claimed gain (never tune on it).
constexpr uint64_t kDefaultSeed = 2015;
constexpr uint64_t kHeldOutSeed = 9173;

/// Setup runs this many times per process; setup_s is the median.
constexpr int kSetupRepeats = 3;
/// Each isolation probe runs this many times in a traced run; its metric
/// is the median.
constexpr int kProbeRounds = 3;
/// A timed window is cut into this many slices for the throughput and CPU
/// medians.
constexpr int kSlices = 5;

const char kGroupBySql[] =
    "SELECT year, COUNT(*), SUM(amount) FROM carts GROUP BY year";
const char kProbeTable[] = "e2ebench_probe_mv";

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double MicrosNow() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - origin)
      .count();
}

double Ratio(double numerator, double denominator) {
  return denominator != 0 ? numerator / denominator : 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

/// Nearest-rank percentile of an ascending vector.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

// --- Spans -----------------------------------------------------------------

/// One timed interval. Spans of one op share `op` (the id of its root span).
struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = -1;
  int64_t op = -1;
  double start_us = 0;
  double end_us = 0;

  double millis() const { return (end_us - start_us) / 1000.0; }
};

/// In-memory span store of a traced window, written out at exit.
class SpanLog {
 public:
  int64_t NextId() { return next_id_.fetch_add(1); }
  void Add(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Set only while a traced window or the probes run (client threads start
/// after it is set and are joined before it is cleared).
SpanLog* g_spans = nullptr;
thread_local int64_t t_parent = -1;
thread_local int64_t t_op = -1;

/// Records a span around its scope when tracing is on; a no-op otherwise.
/// A root span starts a new op; the others nest under the thread's current
/// span.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, bool root = false) : log_(g_spans) {
    if (log_ == nullptr) return;
    saved_parent_ = t_parent;
    saved_op_ = t_op;
    span_.name = name;
    span_.id = log_->NextId();
    span_.parent = root ? -1 : t_parent;
    if (root) t_op = span_.id;
    span_.op = t_op;
    t_parent = span_.id;
    span_.start_us = MicrosNow();
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    span_.end_us = MicrosNow();
    t_parent = saved_parent_;
    t_op = saved_op_;
    log_->Add(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  Span span_;
  int64_t saved_parent_ = -1;
  int64_t saved_op_ = -1;
};

// --- Result checks -----------------------------------------------------------

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Row count plus an order-independent checksum (sum of row hashes).
struct Digest {
  int64_t rows = 0;
  uint64_t sum = 0;

  void Add(const Row& row) {
    uint64_t hash = 0x243f6a8885a308d3ULL;
    for (const Value& value : row) hash = Mix(hash ^ value.Hash());
    sum += hash;
    ++rows;
  }
  bool operator==(const Digest&) const = default;
  std::string ToString() const {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%" PRId64 " rows/%016" PRIx64, rows,
                  sum);
    return buffer;
  }
};

Digest DigestOf(const ml::RowDataset& dataset) {
  Digest digest;
  for (const auto& partition : dataset.partitions) {
    for (const Row& row : partition) digest.Add(row);
  }
  return digest;
}

Digest DigestOf(const Table& table) {
  Digest digest;
  for (size_t i = 0; i < table.num_partitions(); ++i) {
    for (const Row& row : table.partition(i)) digest.Add(row);
  }
  return digest;
}

Status ExpectDigest(const char* what, const Digest& got, const Digest& want) {
  if (got == want) return Status::OK();
  return Status::DataLoss(std::string(what) + ": got " + got.ToString() +
                          ", want " + want.ToString());
}

/// GROUP BY results compare row by row after sorting on the group key;
/// floating-point sums may differ in the last bits with summation order.
bool SameGroupRows(std::vector<Row> got, std::vector<Row> want) {
  if (got.size() != want.size()) return false;
  const auto by_key = [](const Row& a, const Row& b) {
    return a[0].ToString() < b[0].ToString();
  };
  std::sort(got.begin(), got.end(), by_key);
  std::sort(want.begin(), want.end(), by_key);
  for (size_t r = 0; r < got.size(); ++r) {
    if (got[r].size() != want[r].size()) return false;
    for (size_t c = 0; c < got[r].size(); ++c) {
      const Value& a = got[r][c];
      const Value& b = want[r][c];
      if (a.is_double() && b.is_double()) {
        const double scale = std::max(1.0, std::fabs(b.double_value()));
        if (std::fabs(a.double_value() - b.double_value()) > 1e-9 * scale) {
          return false;
        }
      } else if (!(a == b)) {
        return false;
      }
    }
  }
  return true;
}

// --- Requests ----------------------------------------------------------------

/// The transformation requests of a run; the seed picks the literals.
struct Requests {
  TransformRequest q1;  ///< The paper's request (Section 1 prep query).
  TransformRequest q2;  ///< Q1's projection narrowed by a gender predicate.
  TransformRequest q3;  ///< Q1 plus nItems and a year predicate.

  static Requests Make(uint64_t seed) {
    std::mt19937_64 rng(seed ^ 0x5eedULL);
    const std::string gender = rng() % 2 == 0 ? "F" : "M";
    const int year = 2013 + static_cast<int>(rng() % 3);
    Requests requests;
    requests.q1.prep_sql = CartsPrepQuery();
    requests.q1.recode_columns = {"gender", "abandoned"};
    requests.q1.codings["gender"] = CodingScheme::kDummy;
    requests.q2.prep_sql =
        "SELECT U.age, C.amount, C.abandoned FROM carts C, users U "
        "WHERE C.userid = U.userid AND U.country = 'USA' AND U.gender = '" +
        gender + "'";
    requests.q2.recode_columns = {"abandoned"};
    requests.q3.prep_sql =
        "SELECT U.age, U.gender, C.amount, C.nItems, C.abandoned "
        "FROM carts C, users U "
        "WHERE C.userid = U.userid AND U.country = 'USA' AND C.year = " +
        std::to_string(year);
    requests.q3.recode_columns = {"gender", "abandoned"};
    requests.q3.codings["gender"] = CodingScheme::kDummy;
    return requests;
  }
};

// --- Engines -----------------------------------------------------------------

/// A 4-node simulated cluster, its SQL engine and the seeded carts/users
/// data, rooted in a scratch directory under $TMPDIR.
class DataEngine {
 public:
  static Result<std::unique_ptr<DataEngine>> Make(int64_t num_carts,
                                                  uint64_t seed) {
    auto data = std::unique_ptr<DataEngine>(new DataEngine());
    ASSIGN_OR_RETURN(data->cluster_,
                     Cluster::Make(4, data->workspace_.path()));
    data->engine_ = SqlEngine::Make(data->cluster_);
    data->dfs_ = std::make_shared<Dfs>(data->cluster_, DfsOptions{});
    CartsWorkloadOptions options;
    options.num_carts = num_carts;
    options.num_users = num_carts / 100;
    options.seed = seed;
    RETURN_IF_ERROR(GenerateCartsWorkload(data->engine_.get(), options).status());
    data->datagen_tables_ = data->Tables();
    return data;
  }

  const SqlEnginePtr& engine() const { return engine_; }
  const DfsPtr& dfs() const { return dfs_; }
  const std::string& workspace() const { return workspace_.path(); }

  std::set<std::string> Tables() const {
    const std::vector<std::string> names = engine_->catalog()->ListTables();
    return {names.begin(), names.end()};
  }

  /// Drops every table registered after `base` was taken (default: after
  /// datagen).
  Status DropTablesSince(const std::set<std::string>* base = nullptr) {
    const std::set<std::string>& keep = base != nullptr ? *base : datagen_tables_;
    for (const std::string& name : Tables()) {
      if (keep.count(name) == 0) {
        RETURN_IF_ERROR(engine_->catalog()->DropTable(name));
      }
    }
    return Status::OK();
  }

  /// Marks the end of setup: the leak check compares against this.
  void SnapshotSetupTables() { setup_tables_ = Tables(); }
  Status CheckCatalog() const {
    if (Tables() == setup_tables_) return Status::OK();
    std::string names;
    for (const std::string& name : Tables()) names += " " + name;
    return Status::Internal("catalog differs from setup:" + names);
  }

 private:
  DataEngine() : workspace_("e2ebench") {}

  ScopedTempDir workspace_;  // Declared first: removed after the engine.
  ClusterPtr cluster_;
  SqlEnginePtr engine_;
  DfsPtr dfs_;
  std::set<std::string> datagen_tables_;
  std::set<std::string> setup_tables_;
};

// --- Workloads ---------------------------------------------------------------

/// Per-client layer tallies a workload keeps beside the registry counters.
struct LayerTally {
  double serving_overhead_ms = 0;
  int64_t serving_ops = 0;
  int64_t cache_hits = 0;
  int64_t cache_lookups = 0;

  void Merge(const LayerTally& other) {
    serving_overhead_ms += other.serving_overhead_ms;
    serving_ops += other.serving_ops;
    cache_hits += other.cache_hits;
    cache_lookups += other.cache_lookups;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  int clients() const { return static_cast<int>(tallies_.size()); }
  /// One op of `client`; an error or a wrong result fails it. Clients
  /// never share mutable workload state except through the program.
  virtual Status RunOp(int client) = 0;
  /// Called once after the last op, before the leak checks.
  virtual void Finish() {}

  /// Engine, data and requests the isolation probes run against.
  DataEngine* probe_data() { return data_.front().get(); }
  const Requests& requests() const { return requests_; }

  LayerTally TakeTally() {
    LayerTally total;
    for (LayerTally& tally : tallies_) {
      total.Merge(tally);
      tally = LayerTally();
    }
    return total;
  }

  /// Catalog, spill-file and gauge checks after the run.
  Status CheckLeaks() const {
    for (const auto& data : data_) {
      RETURN_IF_ERROR(data->CheckCatalog());
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(data->workspace())) {
        if (entry.path().extension() == ".spill") {
          return Status::Internal("spill file left: " + entry.path().string());
        }
      }
    }
    MetricsRegistry& registry = MetricsRegistry::Global();
    for (const char* gauge : {"serving.active", "net.mux.open_channels"}) {
      // Channel teardown may trail the transfer's return by a moment.
      const Clock::time_point deadline =
          Clock::now() + std::chrono::seconds(2);
      while (registry.GetGauge(gauge)->value() != 0 &&
             Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (registry.GetGauge(gauge)->value() != 0) {
        return Status::Internal(std::string("gauge ") + gauge + " reads " +
                                std::to_string(registry.GetGauge(gauge)->value()));
      }
    }
    return Status::OK();
  }

 protected:
  Workload(int clients, uint64_t seed)
      : requests_(Requests::Make(seed)), tallies_(static_cast<size_t>(clients)) {}

  std::vector<std::unique_ptr<DataEngine>> data_;
  Requests requests_;
  std::vector<LayerTally> tallies_;
};

/// Figure 3: the paper request through insql+stream, no cache.
class Fig3Stream : public Workload {
 public:
  static constexpr int64_t kCarts = 400000;
  static constexpr int kClients = 2;

  static Result<std::unique_ptr<Workload>> Make(uint64_t seed) {
    auto workload = std::unique_ptr<Fig3Stream>(new Fig3Stream(seed));
    ASSIGN_OR_RETURN(auto data, DataEngine::Make(kCarts, seed));
    // The reference: the same rewrite, executed in-process without the
    // transfer.
    QueryRewriter rewriter(data->engine(), nullptr);
    ASSIGN_OR_RETURN(QueryRewriter::Rewrite rewrite,
                     rewriter.RewriteWithCache(workload->requests_.q1));
    ASSIGN_OR_RETURN(TablePtr reference,
                     data->engine()->ExecuteSql(rewrite.transformed_sql));
    workload->reference_ = DigestOf(*reference);
    // One pipeline per client over the shared engine; all clients send
    // the identical request (NOTES.md, catalog-name collision).
    for (int c = 0; c < kClients; ++c) {
      workload->pipelines_.push_back(
          std::make_unique<AnalyticsPipeline>(data->engine(), data->dfs()));
    }
    workload->data_.push_back(std::move(data));
    for (int c = 0; c < kClients; ++c) RETURN_IF_ERROR(workload->RunOp(c));
    workload->data_.front()->SnapshotSetupTables();
    return std::unique_ptr<Workload>(std::move(workload));
  }

  Status RunOp(int client) override {
    SqlEngine* engine = data_.front()->engine().get();
    if (g_spans == nullptr) {
      PipelineOptions options;
      options.approach = ConnectApproach::kInSqlStream;
      options.use_cache = false;
      ASSIGN_OR_RETURN(PipelineResult result,
                       pipelines_[static_cast<size_t>(client)]->Prepare(
                           requests_.q1, options));
      if (result.source != QueryRewriter::Source::kComputed) {
        return Status::DataLoss("fig3: result not computed");
      }
      return ExpectDigest("fig3", DigestOf(result.dataset), reference_);
    }
    // Traced: the two calls Prepare makes, each as a child span.
    QueryRewriter::Rewrite rewrite;
    {
      ScopedSpan span("rewriter.rewrite");
      QueryRewriter rewriter(data_.front()->engine(), nullptr);
      ASSIGN_OR_RETURN(rewrite, rewriter.RewriteWithCache(requests_.q1));
    }
    StreamTransferResult transfer;
    {
      ScopedSpan span("stream.run");
      ASSIGN_OR_RETURN(transfer,
                       StreamingTransfer::Run(engine, rewrite.transformed_sql,
                                              PipelineOptions().stream));
    }
    ScopedSpan span("check.digest");
    return ExpectDigest("fig3", DigestOf(transfer.dataset), reference_);
  }

 private:
  explicit Fig3Stream(uint64_t seed) : Workload(kClients, seed) {}

  std::vector<std::unique_ptr<AnalyticsPipeline>> pipelines_;
  Digest reference_;
};

/// Figure 4: one analyst session per op, on an engine of its own.
class Fig4Cached : public Workload {
 public:
  static constexpr int64_t kCarts = 200000;
  static constexpr int kClients = 1;

  static Result<std::unique_ptr<Workload>> Make(uint64_t seed) {
    auto workload = std::unique_ptr<Fig4Cached>(new Fig4Cached(seed));
    for (int c = 0; c < kClients; ++c) {
      ASSIGN_OR_RETURN(auto data, DataEngine::Make(kCarts, seed));
      workload->pipelines_.push_back(
          std::make_unique<AnalyticsPipeline>(data->engine(), data->dfs()));
      workload->data_.push_back(std::move(data));
    }
    // References: each step computed from scratch, without the cache. All
    // clients' data are identical, so one set serves every client.
    AnalyticsPipeline* pipeline = workload->pipelines_.front().get();
    const Requests& q = workload->requests_;
    for (const TransformRequest* request : {&q.q1, &q.q2, &q.q3}) {
      PipelineOptions options;
      options.approach = ConnectApproach::kInSqlStream;
      options.use_cache = false;
      ASSIGN_OR_RETURN(PipelineResult result,
                       pipeline->Prepare(*request, options));
      workload->references_.push_back(DigestOf(result.dataset));
    }
    RETURN_IF_ERROR(workload->data_.front()->DropTablesSince());
    for (int c = 0; c < kClients; ++c) {
      RETURN_IF_ERROR(workload->RunOp(c));
      workload->data_[static_cast<size_t>(c)]->SnapshotSetupTables();
    }
    workload->TakeTally();
    return std::unique_ptr<Workload>(std::move(workload));
  }

  Status RunOp(int client) override {
    const size_t index = static_cast<size_t>(client);
    AnalyticsPipeline* pipeline = pipelines_[index].get();
    const Status status = RunSession(pipeline);
    // Reset even after a failure, so the next session starts cold.
    ScopedSpan span("cache.reset");
    TransformCache* cache = pipeline->cache();
    tallies_[index].cache_hits += cache->full_hits() + cache->map_hits();
    tallies_[index].cache_lookups +=
        cache->full_hits() + cache->map_hits() + cache->misses();
    cache->Clear();
    const Status dropped = data_[index]->DropTablesSince();
    return status.ok() ? dropped : status;
  }

 private:
  explicit Fig4Cached(uint64_t seed) : Workload(kClients, seed) {}

  Status RunSession(AnalyticsPipeline* pipeline) {
    struct Step {
      const char* span;
      const TransformRequest* request;
      bool cache_full_result;
      QueryRewriter::Source source;
    };
    const Step steps[] = {
        {"pipeline.q1", &requests_.q1, true, QueryRewriter::Source::kComputed},
        {"pipeline.q2", &requests_.q2, false,
         QueryRewriter::Source::kFullResultCache},
        {"pipeline.q3", &requests_.q3, false,
         QueryRewriter::Source::kRecodeMapCache},
    };
    for (size_t i = 0; i < std::size(steps); ++i) {
      const Step& step = steps[i];
      PipelineOptions options;
      options.approach = ConnectApproach::kInSqlStream;
      options.use_cache = true;
      options.cache_full_result = step.cache_full_result;
      PipelineResult result;
      {
        ScopedSpan span(step.span);
        ASSIGN_OR_RETURN(result, pipeline->Prepare(*step.request, options));
      }
      ScopedSpan span("check.digest");
      if (result.source != step.source) {
        return Status::DataLoss(std::string(step.span) +
                                ": served from the wrong source");
      }
      RETURN_IF_ERROR(
          ExpectDigest(step.span, DigestOf(result.dataset), references_[i]));
    }
    return Status::OK();
  }

  std::vector<std::unique_ptr<AnalyticsPipeline>> pipelines_;
  std::vector<Digest> references_;  // Q1, Q2, Q3.
};

/// Serving: one GROUP BY per connection against the QueryServer.
class ServeAgg : public Workload {
 public:
  static constexpr int64_t kCarts = 400000;
  static constexpr int kClients = 4;

  static Result<std::unique_ptr<Workload>> Make(uint64_t seed) {
    auto workload = std::unique_ptr<ServeAgg>(new ServeAgg(seed));
    ASSIGN_OR_RETURN(auto data, DataEngine::Make(kCarts, seed));
    ASSIGN_OR_RETURN(TablePtr reference, data->engine()->ExecuteSql(kGroupBySql));
    workload->reference_ = reference->GatherRows();
    ASSIGN_OR_RETURN(workload->server_,
                     QueryServer::Start(data->engine().get(), QueryServer::Options{}));
    workload->data_.push_back(std::move(data));
    for (int c = 0; c < kClients; ++c) RETURN_IF_ERROR(workload->RunOp(c));
    workload->data_.front()->SnapshotSetupTables();
    workload->TakeTally();
    return std::unique_ptr<Workload>(std::move(workload));
  }

  Status RunOp(int client) override {
    const Clock::time_point start = Clock::now();
    Result<QueryClient> connection = [this] {
      ScopedSpan span("serving.connect");
      return QueryClient::Connect("127.0.0.1", server_->port());
    }();
    RETURN_IF_ERROR(connection.status());
    QueryClient::Response response;
    {
      ScopedSpan span("serving.execute");
      ASSIGN_OR_RETURN(response, connection->Execute(kGroupBySql, "bench"));
    }
    LayerTally& tally = tallies_[static_cast<size_t>(client)];
    tally.serving_overhead_ms +=
        MillisSince(start) - static_cast<double>(response.elapsed_micros) / 1000;
    ++tally.serving_ops;
    ScopedSpan span("check.rows");
    if (!SameGroupRows(std::move(response.rows), reference_)) {
      return Status::DataLoss("serve_agg: rows differ from ExecuteSql");
    }
    return Status::OK();
  }

  void Finish() override { server_->Stop(); }

 private:
  explicit ServeAgg(uint64_t seed) : Workload(kClients, seed) {}

  std::unique_ptr<QueryServer> server_;
  std::vector<Row> reference_;
};

Result<std::unique_ptr<Workload>> MakeWorkload(const std::string& name,
                                               uint64_t seed) {
  if (name == "fig3_stream") return Fig3Stream::Make(seed);
  if (name == "fig4_cached") return Fig4Cached::Make(seed);
  if (name == "serve_agg") return ServeAgg::Make(seed);
  return Status::InvalidArgument("unknown workload: " + name);
}

// --- Measurement -------------------------------------------------------------

struct ProcSample {
  double cpu_s = 0;
  double minflt = 0;
  double nivcsw = 0;
  /// Time of all CPUs, from /proc/stat: busy (user, nice, system, irq,
  /// softirq) and stolen by the host.
  double busy_s = 0;
  double steal_s = 0;

  static ProcSample Now() {
    ProcSample sample;
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    sample.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
                   static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
    sample.minflt = static_cast<double>(usage.ru_minflt);
    sample.nivcsw = static_cast<double>(usage.ru_nivcsw);
    std::ifstream stat("/proc/stat");
    std::string cpu;
    double fields[8] = {};
    if (stat >> cpu && cpu == "cpu") {
      for (double& field : fields) stat >> field;
      const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
      sample.busy_s =
          (fields[0] + fields[1] + fields[2] + fields[5] + fields[6]) / tick;
      sample.steal_s = fields[7] / tick;
    }
    return sample;
  }

  ProcSample operator-(const ProcSample& before) const {
    return {cpu_s - before.cpu_s, minflt - before.minflt,
            nivcsw - before.nivcsw, busy_s - before.busy_s,
            steal_s - before.steal_s};
  }

  /// Of a delta: the share of the CPU time the CPUs wanted that the host
  /// gave them, busy / (busy + steal).
  double available() const {
    return busy_s + steal_s > 0 ? busy_s / (busy_s + steal_s) : 1.0;
  }
};

// --- Host-speed calibration --------------------------------------------------

/// The calibrator runs its kernel this often while it lives.
constexpr auto kCalibrationPeriod = std::chrono::milliseconds(250);
/// The kernel's thread CPU ms on the reference host (the 4-core VM the
/// bounds were set on) while `fig3_stream` runs. Scaled time metrics read
/// as if measured at that speed.
constexpr double kReferenceCalibrationMs = 25.0;

double ThreadCpuMillis() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1000.0 +
         static_cast<double>(now.tv_nsec) / 1e6;
}

/// A fixed CPU and memory kernel that shares no code with the program:
/// random read-modify-writes into a 4 MiB table (twice one core's L2), with
/// a small allocation every 256 steps. Returns a checksum so the work is
/// kept.
uint64_t CalibrationKernel(std::vector<uint64_t>* table, uint64_t seed) {
  const uint64_t mask = table->size() - 1;
  uint64_t x = seed;
  for (int i = 0; i < (1 << 22); ++i) {
    x = Mix(x);
    (*table)[x & mask] += x;
    if ((i & 255) == 0) {
      std::string text(16 + (x & 63), 'x');
      x += text.size();
    }
  }
  return x;
}

/// Measures how fast the host runs code right now, while the workload
/// runs beside it: a thread runs the kernel at once and then every
/// kCalibrationPeriod, and records the thread CPU time of each run. Thread
/// CPU time leaves out the time the thread waits for a core, so the figure
/// follows the speed of the cores (neighbours on the host, clock changes)
/// and not how the workload's threads are scheduled.
class Calibrator {
 public:
  Calibrator() : thread_([this] { Loop(); }) {}
  ~Calibrator() { Stop(); }
  Calibrator(const Calibrator&) = delete;
  Calibrator& operator=(const Calibrator&) = delete;

  /// Ends the sampling.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// The median thread CPU ms of the kernel runs that started in
  /// [from, to), or of all runs if none did. Call after Stop().
  double MedianMillis(Clock::time_point from = Clock::time_point::min(),
                      Clock::time_point to = Clock::time_point::max()) const {
    std::vector<double> inside;
    std::vector<double> all;
    for (const auto& [start, millis] : samples_) {
      all.push_back(millis);
      if (start >= from && start < to) inside.push_back(millis);
    }
    return Median(inside.empty() ? all : inside);
  }

 private:
  void Loop() {
    std::vector<uint64_t> table(uint64_t{1} << 19);  // Touched before timing.
    std::unique_lock<std::mutex> lock(mu_);
    Clock::time_point next = Clock::now();
    do {
      lock.unlock();
      const Clock::time_point start = Clock::now();
      const double before = ThreadCpuMillis();
      const uint64_t checksum = CalibrationKernel(&table, checksum_);
      const double millis = ThreadCpuMillis() - before;
      lock.lock();
      checksum_ = checksum;
      samples_.emplace_back(start, millis);
      next += kCalibrationPeriod;
    } while (!wake_.wait_until(lock, next, [this] { return stop_; }));
  }

  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  uint64_t checksum_ = 0;
  std::vector<std::pair<Clock::time_point, double>> samples_;  // Start, ms.
  std::thread thread_;  // Last: starts after the members it uses.
};

/// The resident set size now, from /proc/self/statm.
double RssMb() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0;
  double resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Counter values plus the sum and count of the histograms the per-layer
/// metrics read (`<name>.sum`, `<name>.count`).
std::map<std::string, double> SampleRegistry() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  std::map<std::string, double> sample;
  for (const auto& [name, value] : registry.Snapshot()) {
    sample[name] = static_cast<double>(value);
  }
  for (const char* name : {"stream.wire.send_frame_micros",
                           "stream.wire.recv_frame_micros",
                           "ml.ingest.split_micros", "serving.queue_wait_ms"}) {
    const Histogram::Snapshot snapshot =
        registry.GetHistogram(name)->GetSnapshot();
    sample[std::string(name) + ".sum"] = static_cast<double>(snapshot.sum);
    sample[std::string(name) + ".count"] = static_cast<double>(snapshot.count);
  }
  return sample;
}

/// What one timed window measured.
struct Window {
  double wall_s = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> latencies_ms;  ///< Successful ops, ascending.
  /// Each of them multiplied by the wall_scale() of the slice its midpoint
  /// falls in, ascending.
  std::vector<double> scaled_latencies_ms;
  /// Per slice of the window: successful ops (each op counted by the share
  /// of its run time that falls in the slice) per second, process CPU per
  /// such op, the calibration kernel's median thread CPU ms, and the share
  /// of wanted CPU time the host gave (ProcSample::available).
  std::vector<double> slice_ops_per_s;
  std::vector<double> slice_cpu_ms_per_op;
  std::vector<double> slice_calibration_ms;
  std::vector<double> slice_available;
  /// Per slice: the highest resident set size sampled (every 10 ms).
  std::vector<double> slice_peak_rss_mb;
  ProcSample proc;                   ///< Deltas over the window.
  std::map<std::string, double> registry;  ///< Deltas over the window.
  LayerTally tally;

  double Delta(const std::string& name) const {
    const auto it = registry.find(name);
    return it == registry.end() ? 0.0 : it->second;
  }
  /// Multipliers that scale a CPU time or a wall time measured in slice
  /// `k` to the reference host's speed, without steal.
  double cpu_scale(size_t k) const {
    return kReferenceCalibrationMs / slice_calibration_ms[k];
  }
  double wall_scale(size_t k) const { return cpu_scale(k) * slice_available[k]; }
  /// Medians over the slices, each slice scaled when `scaled`.
  double ops_per_s(bool scaled) const {
    std::vector<double> rates = slice_ops_per_s;
    for (size_t k = 0; scaled && k < rates.size(); ++k) {
      rates[k] /= wall_scale(k);
    }
    return Median(rates);
  }
  double cpu_ms_per_op(bool scaled) const {
    std::vector<double> cpu = slice_cpu_ms_per_op;
    for (size_t k = 0; scaled && k < cpu.size(); ++k) cpu[k] *= cpu_scale(k);
    return Median(cpu);
  }
  /// A per-op rate of a registry delta.
  double PerOp(const std::string& name) const {
    return Ratio(Delta(name), static_cast<double>(attempted));
  }
};

/// Runs every client in a closed loop until `seconds` have passed; each
/// client finishes the op in flight. With `spans`, every op is traced.
Window RunWindow(Workload* workload, double seconds, SpanLog* spans) {
  struct ClientResult {
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<double> latencies_ms;
    /// Start and end (seconds into the window) of each successful op.
    std::vector<std::pair<double, double>> intervals;
    std::string first_error;
  };
  g_spans = spans;
  workload->TakeTally();
  const std::map<std::string, double> registry_before = SampleRegistry();
  const ProcSample proc_before = ProcSample::Now();
  const Clock::time_point start = Clock::now();
  const auto at = [start](double offset_s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset_s));
  };
  const Clock::time_point deadline = at(seconds);
  const double slice_s = seconds / kSlices;
  std::vector<ProcSample> proc_at(kSlices + 1, proc_before);  // Boundaries.
  std::vector<double> slice_peak_rss_mb(kSlices, 0.0);
  std::thread sampler([&] {
    for (int k = 0; k < kSlices; ++k) {
      const size_t i = static_cast<size_t>(k);
      const Clock::time_point end = at((k + 1) * slice_s);
      for (Clock::time_point now = Clock::now(); now < end; now = Clock::now()) {
        slice_peak_rss_mb[i] = std::max(slice_peak_rss_mb[i], RssMb());
        std::this_thread::sleep_until(
            std::min(end, now + std::chrono::milliseconds(10)));
      }
      proc_at[i + 1] = ProcSample::Now();
    }
  });
  Calibrator calibrator;
  std::vector<ClientResult> results(static_cast<size_t>(workload->clients()));
  std::vector<std::thread> threads;
  for (int c = 0; c < workload->clients(); ++c) {
    threads.emplace_back([workload, deadline, start, c, &results] {
      ClientResult& result = results[static_cast<size_t>(c)];
      while (Clock::now() < deadline) {
        const double begin_s = MillisSince(start) / 1000.0;
        Status status;
        {
          ScopedSpan span("op", /*root=*/true);
          status = workload->RunOp(c);
        }
        const double end_s = MillisSince(start) / 1000.0;
        ++result.attempted;
        if (status.ok()) {
          result.latencies_ms.push_back((end_s - begin_s) * 1000.0);
          result.intervals.emplace_back(begin_s, end_s);
        } else {
          ++result.failed;
          if (result.first_error.empty()) result.first_error = status.ToString();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  sampler.join();
  calibrator.Stop();

  Window window;
  window.slice_peak_rss_mb = slice_peak_rss_mb;
  for (int k = 0; k < kSlices; ++k) {
    const size_t i = static_cast<size_t>(k);
    window.slice_calibration_ms.push_back(
        calibrator.MedianMillis(at(k * slice_s), at((k + 1) * slice_s)));
    window.slice_available.push_back((proc_at[i + 1] - proc_at[i]).available());
  }
  window.wall_s = MillisSince(start) / 1000.0;
  window.proc = ProcSample::Now() - proc_before;
  for (const auto& [name, value] : SampleRegistry()) {
    const auto before = registry_before.find(name);
    window.registry[name] =
        value - (before == registry_before.end() ? 0.0 : before->second);
  }
  window.tally = workload->TakeTally();
  std::vector<double> slice_ops(kSlices, 0.0);
  for (const ClientResult& result : results) {
    window.attempted += result.attempted;
    window.failed += result.failed;
    window.latencies_ms.insert(window.latencies_ms.end(),
                               result.latencies_ms.begin(),
                               result.latencies_ms.end());
    for (const auto& [begin_s, end_s] : result.intervals) {
      const int mid_slice = std::min(
          kSlices - 1, static_cast<int>((begin_s + end_s) / 2 / slice_s));
      window.scaled_latencies_ms.push_back(
          (end_s - begin_s) * 1000.0 *
          window.wall_scale(static_cast<size_t>(mid_slice)));
      for (int k = 0; k < kSlices; ++k) {
        const double overlap = std::min(end_s, (k + 1) * slice_s) -
                               std::max(begin_s, k * slice_s);
        if (overlap > 0) {
          slice_ops[static_cast<size_t>(k)] += overlap / (end_s - begin_s);
        }
      }
    }
    if (!result.first_error.empty()) {
      std::fprintf(stderr, "e2ebench: op failed: %s\n",
                   result.first_error.c_str());
    }
  }
  for (size_t k = 0; k < slice_ops.size(); ++k) {
    window.slice_ops_per_s.push_back(slice_ops[k] / slice_s);
    window.slice_cpu_ms_per_op.push_back(
        Ratio((proc_at[k + 1].cpu_s - proc_at[k].cpu_s) * 1000.0, slice_ops[k]));
  }
  std::sort(window.latencies_ms.begin(), window.latencies_ms.end());
  std::sort(window.scaled_latencies_ms.begin(),
            window.scaled_latencies_ms.end());
  g_spans = nullptr;
  return window;
}

/// Layer calls timed in isolation, each as its own root span, serially
/// after the traced window. Tables they create are dropped afterwards.
Status RunProbes(DataEngine* data, const Requests& requests, SpanLog* spans) {
  g_spans = spans;
  SqlEngine* engine = data->engine().get();
  const std::set<std::string> before = data->Tables();
  TransformCache cache;
  QueryRewriter matcher(data->engine(), &cache);
  InSqlTransformer transformer(data->engine());
  const auto probe = [&](const char* name, const std::function<Status()>& call) {
    ScopedSpan span(name, /*root=*/true);
    return call();
  };
  Status status;
  for (int round = 0; round < kProbeRounds && status.ok(); ++round) {
    QueryRewriter::Rewrite rewrite;
    status = probe("probe.rewriter.rewrite", [&]() -> Status {
      QueryRewriter rewriter(data->engine(), nullptr);
      ASSIGN_OR_RETURN(rewrite, rewriter.RewriteWithCache(requests.q1));
      return Status::OK();
    });
    if (!status.ok()) break;
    int64_t transformed_rows = 0;
    int64_t materialized_rows = 0;
    for (const auto& [name, call] :
         std::vector<std::pair<const char*, std::function<Status()>>>{
             {"probe.transform.pass1",
              [&] {
                return transformer
                    .ComputeRecodeMap(requests.q1.prep_sql,
                                      requests.q1.recode_columns)
                    .status();
              }},
             {"probe.sql.prep",
              [&] { return engine->ExecuteSql(requests.q1.prep_sql).status(); }},
             {"probe.sql.transformed",
              [&]() -> Status {
                ASSIGN_OR_RETURN(TablePtr table,
                                 engine->ExecuteSql(rewrite.transformed_sql));
                transformed_rows = static_cast<int64_t>(table->TotalRows());
                return Status::OK();
              }},
             {"probe.sql.materialize",
              [&]() -> Status {
                ASSIGN_OR_RETURN(
                    TablePtr table,
                    engine->MaterializeSql(rewrite.transformed_sql, kProbeTable));
                materialized_rows = static_cast<int64_t>(table->TotalRows());
                return Status::OK();
              }},
             {"probe.stream.transfer",
              [&]() -> Status {
                ASSIGN_OR_RETURN(
                    StreamTransferResult result,
                    StreamingTransfer::Run(engine, rewrite.transformed_sql));
                if (static_cast<int64_t>(result.dataset.TotalRows()) !=
                    transformed_rows) {
                  return Status::DataLoss("probe transfer row count differs");
                }
                return Status::OK();
              }},
             {"probe.stream.scan_transfer",
              [&]() -> Status {
                ASSIGN_OR_RETURN(
                    StreamTransferResult result,
                    StreamingTransfer::Run(
                        engine, std::string("SELECT * FROM ") + kProbeTable));
                if (static_cast<int64_t>(result.dataset.TotalRows()) !=
                    materialized_rows) {
                  return Status::DataLoss("probe scan row count differs");
                }
                return Status::OK();
              }},
             {"probe.sql.groupby",
              [&] { return engine->ExecuteSql(kGroupBySql).status(); }},
             {"probe.rewriter.match",
              [&]() -> Status {
                if (cache.size() == 0) {
                  RETURN_IF_ERROR(matcher.CacheFullResult(
                      requests.q1, rewrite.recode_map, kProbeTable));
                }
                ASSIGN_OR_RETURN(QueryRewriter::Rewrite hit,
                                 matcher.RewriteWithCache(requests.q2));
                if (hit.source != QueryRewriter::Source::kFullResultCache) {
                  return Status::DataLoss("probe match missed the cache");
                }
                return Status::OK();
              }},
         }) {
      status = probe(name, call);
      if (!status.ok()) break;
    }
  }
  g_spans = nullptr;
  const Status dropped = data->DropTablesSince(&before);
  return status.ok() ? dropped : status;
}

// --- Reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-op self time by layer (the span-name prefix before the first '.',
/// "op" for the root), and the number of traced ops.
std::map<std::string, double> SelfMillisByLayer(const std::vector<Span>& spans,
                                                int64_t* ops) {
  std::map<int64_t, double> child_millis;
  for (const Span& span : spans) {
    if (span.parent >= 0) child_millis[span.parent] += span.millis();
  }
  std::map<std::string, double> self;
  *ops = 0;
  for (const Span& span : spans) {
    if (span.name.rfind("probe.", 0) == 0) continue;
    const std::string layer = span.name.substr(0, span.name.find('.'));
    self[layer] += span.millis() - child_millis[span.id];
    if (span.parent < 0) ++*ops;
  }
  return self;
}

/// The end-to-end metrics, with the window's times scaled to the reference
/// host's speed when `scaled` (`setup_s` comes scaled or not).
std::vector<Metric> EndToEndMetrics(const Window& window, double setup_s,
                                    bool scaled) {
  const std::vector<double>& latencies =
      scaled ? window.scaled_latencies_ms : window.latencies_ms;
  return {
      {"setup_s", setup_s, "s"},
      {"ops_per_s", window.ops_per_s(scaled), "1/s"},
      {"latency_p50_ms", Percentile(latencies, 0.50), "ms"},
      {"latency_p90_ms", Percentile(latencies, 0.90), "ms"},
      {"cpu_ms_per_op", window.cpu_ms_per_op(scaled), "ms"},
      {"peak_rss_mb", Median(window.slice_peak_rss_mb), "MB"},
  };
}

std::vector<Metric> PerLayerMetrics(const Window& untraced, const Window& traced,
                                    const std::vector<Span>& spans) {
  std::map<std::string, std::vector<double>> probe_millis;
  for (const Span& span : spans) {
    if (span.parent < 0 && span.name.rfind("probe.", 0) == 0) {
      probe_millis[span.name.substr(6)].push_back(span.millis());
    }
  }
  const auto probe = [&](const char* name) { return Median(probe_millis[name]); };
  int64_t traced_ops = 0;
  const std::map<std::string, double> self = SelfMillisByLayer(spans, &traced_ops);
  const auto self_per_op = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0
                            : Ratio(it->second, static_cast<double>(traced_ops));
  };
  double op_millis = 0;
  for (const Span& span : spans) {
    if (span.parent < 0 && span.name == "op") op_millis += span.millis();
  }
  const Window& w = traced;
  return {
      {"sql.prep_ms", probe("sql.prep"), "ms"},
      {"sql.transformed_ms", probe("sql.transformed"), "ms"},
      {"sql.groupby_ms", probe("sql.groupby"), "ms"},
      {"sql.materialize_ms", probe("sql.materialize"), "ms"},
      {"sql.rows_emitted_per_op", w.PerOp("sql.executor.rows_emitted"), "1/op"},
      {"transform.pass1_ms", probe("transform.pass1"), "ms"},
      {"transform.pass2_ms", probe("sql.transformed") - probe("sql.prep"), "ms"},
      {"rewriter.rewrite_ms", probe("rewriter.rewrite"), "ms"},
      {"rewriter.match_ms", probe("rewriter.match"), "ms"},
      {"cache.hit_ratio",
       Ratio(static_cast<double>(w.tally.cache_hits),
             static_cast<double>(w.tally.cache_lookups)),
       "ratio"},
      {"stream.transfer_ms", probe("stream.transfer"), "ms"},
      {"stream.scan_transfer_ms", probe("stream.scan_transfer"), "ms"},
      {"stream.overlap_ratio",
       Ratio(probe("sql.transformed") + probe("stream.scan_transfer"),
             probe("stream.transfer")),
       "ratio"},
      {"stream.bytes_per_row",
       Ratio(w.Delta("stream.wire.bytes_sent"), w.Delta("stream.sink.rows_sent")),
       "B/row"},
      {"stream.frames_per_op", w.PerOp("stream.wire.frames_sent"), "1/op"},
      {"stream.send_us_per_op", w.PerOp("stream.wire.send_frame_micros.sum"),
       "us/op"},
      {"stream.recv_us_per_op", w.PerOp("stream.wire.recv_frame_micros.sum"),
       "us/op"},
      {"stream.pool_miss_ratio",
       Ratio(w.Delta("stream.wire.pool_miss"),
             w.Delta("stream.wire.pool_miss") + w.Delta("stream.wire.frames_pooled")),
       "ratio"},
      {"stream.spilled_frames_per_op", w.PerOp("stream.spill.spilled_frames"),
       "1/op"},
      {"stream.replayed_frames_per_op", w.PerOp("transfer.frames_replayed"),
       "1/op"},
      {"net.window_stalls_per_op", w.PerOp("net.mux.window_stalls"), "1/op"},
      {"net.coalesced_ratio",
       Ratio(w.Delta("net.mux.coalesced_frames"), w.Delta("stream.wire.frames_sent")),
       "ratio"},
      {"net.data_dials_per_op", w.PerOp("stream.reader.data_dials"), "1/op"},
      {"ml.ingest_split_us_per_op", w.PerOp("ml.ingest.split_micros.sum"), "us/op"},
      {"ml.rows_per_op", w.PerOp("stream.reader.rows_delivered"), "1/op"},
      {"serving.overhead_ms",
       Ratio(w.tally.serving_overhead_ms, static_cast<double>(w.tally.serving_ops)),
       "ms"},
      {"serving.queue_wait_ms",
       Ratio(w.Delta("serving.queue_wait_ms.sum"),
             w.Delta("serving.queue_wait_ms.count")),
       "ms"},
      {"serving.rejected_per_op", w.PerOp("serving.rejected"), "1/op"},
      {"proc.minflt_per_op",
       Ratio(w.proc.minflt, static_cast<double>(w.attempted)), "1/op"},
      {"proc.nivcsw_per_op",
       Ratio(w.proc.nivcsw, static_cast<double>(w.attempted)), "1/op"},
      {"trace.overhead_frac",
       1 - Ratio(w.ops_per_s(true), untraced.ops_per_s(true)),
       "ratio"},
      {"trace.unattributed_frac", Ratio(self_per_op("op") * traced_ops, op_millis),
       "ratio"},
      {"self.rewriter_ms", self_per_op("rewriter"), "ms"},
      {"self.stream_ms", self_per_op("stream"), "ms"},
      {"self.pipeline_ms", self_per_op("pipeline"), "ms"},
      {"self.cache_ms", self_per_op("cache"), "ms"},
      {"self.serving_ms", self_per_op("serving"), "ms"},
      {"self.check_ms", self_per_op("check"), "ms"},
  };
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& span : spans) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"id\":%" PRId64 ",\"parent\":%" PRId64
                  ",\"op\":%" PRId64 ",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  span.name.c_str(), span.id, span.parent, span.op,
                  span.start_us, span.end_us);
    out << line;
  }
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 25;
  bool trace = false;
  std::string out_dir = ".bench_build";
};

/// Rejects flags it does not know and values that are not wholly numeric
/// (or, for --trace, neither 0 nor 1).
bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      if (value.empty() || value[0] == '-') return false;
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         std::isfinite(args->seconds);
}

int Main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload fig3_stream|fig4_cached|serve_agg"
                 " [--seed N (default %" PRIu64 "; held out: %" PRIu64 ")]"
                 " [--seconds S] [--trace 0|1] [--out-dir DIR]\n",
                 kDefaultSeed, kHeldOutSeed);
    return 2;
  }
  SetLogLevel(LogLevel::kError);
  // Scratch files of the engines (and anything else using $TMPDIR) stay
  // under the output directory.
  const std::string tmp_dir = args.out_dir + "/tmp";
  if (!EnsureDir(tmp_dir).ok()) {
    std::fprintf(stderr, "e2ebench: cannot create %s\n", tmp_dir.c_str());
    return 2;
  }
  setenv("TMPDIR", tmp_dir.c_str(), 1);

  // Set up kSetupRepeats times, keeping the last; setup_s is the median.
  // It is mostly a warm setup: the later setups find code pages resident
  // and the metric registries created.
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_seconds;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> setup_times;
  std::vector<double> setup_available;
  Calibrator setup_calibrator;
  for (int i = 0; i < kSetupRepeats; ++i) {
    workload.reset();
    // Hand the previous setup's memory back, so every setup starts from the
    // same heap and peak RSS reflects one setup plus the run.
    malloc_trim(0);
    const Clock::time_point start = Clock::now();
    const ProcSample proc_before = ProcSample::Now();
    auto made = MakeWorkload(args.workload, args.seed);
    if (!made.ok()) {
      std::fprintf(stderr, "e2ebench: setup failed: %s\n",
                   made.status().ToString().c_str());
      return 2;
    }
    workload = std::move(*made);
    setup_seconds.push_back(MillisSince(start) / 1000.0);
    setup_times.emplace_back(start, Clock::now());
    setup_available.push_back((ProcSample::Now() - proc_before).available());
  }
  setup_calibrator.Stop();
  // Each setup scaled by the kernel's speed and the host's steal while it
  // ran.
  std::vector<double> setup_calibration_ms;
  std::vector<double> scaled_setup_seconds;
  for (size_t i = 0; i < setup_times.size(); ++i) {
    setup_calibration_ms.push_back(setup_calibrator.MedianMillis(
        setup_times[i].first, setup_times[i].second));
    scaled_setup_seconds.push_back(setup_seconds[i] * kReferenceCalibrationMs /
                                   setup_calibration_ms[i] * setup_available[i]);
  }
  const double setup_rss_mb = PeakRssMb();
  const double first_op_s = MillisSince(process_start) / 1000.0;

  Window untraced;
  Window traced;
  SpanLog spans;
  Status probe_status;
  std::vector<Metric> metrics;
  std::vector<Metric> raw_metrics;
  if (!args.trace) {
    untraced = RunWindow(workload.get(), args.seconds, nullptr);
    metrics = EndToEndMetrics(untraced, Median(scaled_setup_seconds), true);
    raw_metrics = EndToEndMetrics(untraced, Median(setup_seconds), false);
  } else {
    untraced = RunWindow(workload.get(), args.seconds / 2, nullptr);
    traced = RunWindow(workload.get(), args.seconds / 2, &spans);
    probe_status =
        RunProbes(workload->probe_data(), workload->requests(), &spans);
    if (!probe_status.ok()) {
      std::fprintf(stderr, "e2ebench: probe failed: %s\n",
                   probe_status.ToString().c_str());
    }
    const std::vector<Span> recorded = spans.spans();
    const std::string path = args.out_dir + "/e2ebench-spans-" + args.workload +
                             "-" + std::to_string(args.seed) + ".jsonl";
    WriteSpans(path, recorded);
    std::printf("# spans: %zu written to %s\n", recorded.size(), path.c_str());
    metrics = PerLayerMetrics(untraced, traced, recorded);
  }
  const int clients = workload->clients();
  workload->Finish();
  const Status leaks = workload->CheckLeaks();
  if (!leaks.ok()) {
    std::fprintf(stderr, "e2ebench: leak check failed: %s\n",
                 leaks.ToString().c_str());
  }
  workload.reset();

  const int64_t attempted = untraced.attempted + traced.attempted;
  const int64_t failed = untraced.failed + traced.failed;
  const bool correct = failed == 0 && leaks.ok() && probe_status.ok();
  // Host-noise diagnostics: not gated, they explain an outlier run.
  std::printf("# workload=%s seed=%" PRIu64 " clients=%d ops=%zu wall_s=%.3f"
              " setup_runs_s=%.3f/%.3f/%.3f start_to_first_op_s=%.3f"
              " steal_s=%.3f nivcsw=%.0f setup_rss_mb=%.1f\n",
              args.workload.c_str(), args.seed, clients,
              untraced.latencies_ms.size(), untraced.wall_s, setup_seconds[0],
              setup_seconds[1], setup_seconds[2], first_op_s,
              untraced.proc.steal_s + traced.proc.steal_s,
              untraced.proc.nivcsw + traced.proc.nivcsw, setup_rss_mb);
  std::printf("# slices ops_per_s:");
  for (double rate : untraced.slice_ops_per_s) std::printf(" %.3f", rate);
  std::printf(" cpu_ms_per_op:");
  for (double cpu : untraced.slice_cpu_ms_per_op) std::printf(" %.1f", cpu);
  std::printf("\n# calibration_ms reference=%.1f setups: %.3f %.3f %.3f"
              " slices:",
              kReferenceCalibrationMs, setup_calibration_ms[0],
              setup_calibration_ms[1], setup_calibration_ms[2]);
  for (double millis : untraced.slice_calibration_ms) {
    std::printf(" %.3f", millis);
  }
  std::printf("\n# rss_mb slice peaks:");
  for (double mb : untraced.slice_peak_rss_mb) std::printf(" %.1f", mb);
  std::printf(" ru_maxrss=%.1f", PeakRssMb());
  std::printf("\n# available setups: %.4f %.4f %.4f slices:",
              setup_available[0], setup_available[1], setup_available[2]);
  for (double share : untraced.slice_available) std::printf(" %.4f", share);
  std::printf("\n");
  if (!raw_metrics.empty()) {
    std::printf("# unscaled:");
    for (const Metric& metric : raw_metrics) {
      std::printf(" %s=%.6g", metric.name.c_str(), metric.value);
    }
    std::printf("\n");
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace sqlink::e2e

int main(int argc, char** argv) { return sqlink::e2e::Main(argc, argv); }
