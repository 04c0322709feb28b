#include "mq/mq_transfer.h"

#include <atomic>
#include <thread>

#include "common/failpoint.h"
#include "common/status_macros.h"
#include "common/trace.h"
#include "sql/table_udf.h"
#include "table/row_codec.h"

namespace sqlink {

namespace {

constexpr int kPollTimeoutMs = 100;
constexpr int kMaxIdlePolls = 600;  // 60 s of broker silence -> error.

/// The publishing side: each SQL worker appends its partition's rows
/// round-robin to its k topic partitions, then seals them.
class MqSinkUdf final : public TableUdf {
 public:
  explicit MqSinkUdf(MessageBrokerPtr broker) : broker_(std::move(broker)) {}

  Result<SchemaPtr> Bind(const SchemaPtr& input_schema,
                         const std::vector<Value>& args) override {
    if (input_schema == nullptr) {
      return Status::InvalidArgument("mq_stream_sink needs an input relation");
    }
    if (args.empty() || !args[0].is_string()) {
      return Status::InvalidArgument(
          "mq_stream_sink(query, topic[, k, batch_bytes])");
    }
    topic_ = args[0].string_value();
    if (args.size() > 1) {
      if (!args[1].is_int64() || args[1].int64_value() <= 0) {
        return Status::InvalidArgument("k must be a positive integer");
      }
      k_ = static_cast<int>(args[1].int64_value());
    }
    if (args.size() > 2) {
      if (!args[2].is_int64() || args[2].int64_value() <= 0) {
        return Status::InvalidArgument("batch_bytes must be positive");
      }
      batch_bytes_ = static_cast<size_t>(args[2].int64_value());
    }
    return Schema::Make({{"worker", DataType::kInt64},
                         {"rows_published", DataType::kInt64},
                         {"messages_published", DataType::kInt64}});
  }

  Result<TableUdfPartitionPtr> Open(const TableUdfContext& context) override {
    // First worker creates the topic (n·k partitions); others race benignly.
    MessageBroker::TopicConfig config;
    config.num_partitions = context.num_workers * k_;
    const Status created = broker_->CreateTopic(topic_, config);
    if (!created.ok() && !created.IsAlreadyExists()) return created;
    return TableUdfPartitionPtr(new Partition(this, context.worker_id));
  }

 private:
  /// One worker's rows go round-robin to its k topic partitions; one broker
  /// message is one row-batch payload, as on the stream.
  class Partition final : public TableUdfPartition {
   public:
    Partition(const MqSinkUdf* udf, int worker)
        : udf_(udf),
          worker_(worker),
          batchers_(static_cast<size_t>(udf->k_)) {
      span_.AddAttribute("worker", worker);
    }

    Status Consume(ColumnBatch input, ColumnBatch*) override {
      for (size_t r = 0; r < input.num_rows(); ++r) {
        RowBatchEncoder& batch = batchers_[next_];
        batch.Add(input, r);
        ++rows_;
        if (batch.bytes() >= udf_->batch_bytes_) RETURN_IF_ERROR(Flush(next_));
        next_ = (next_ + 1) % batchers_.size();
      }
      return Status::OK();
    }

    Status Finish(ColumnBatch* output) override {
      for (size_t j = 0; j < batchers_.size(); ++j) {
        if (!batchers_[j].empty()) RETURN_IF_ERROR(Flush(j));
        RETURN_IF_ERROR(
            udf_->broker_->SealPartition(udf_->topic_, Target(j)));
      }
      span_.AddAttribute("rows_published", rows_);
      span_.AddAttribute("messages_published", messages_);
      return output->AppendRow(Row{Value::Int64(worker_), Value::Int64(rows_),
                                   Value::Int64(messages_)});
    }

   private:
    int Target(size_t j) const {
      return worker_ * udf_->k_ + static_cast<int>(j);
    }

    Status Flush(size_t j) {
      std::string payload;
      batchers_[j].Flush(&payload);
      ++messages_;
      return udf_->broker_->Produce(udf_->topic_, Target(j), std::move(payload))
          .status();
    }

    const MqSinkUdf* udf_;
    int worker_;
    TraceSpan span_{"mq.sink.partition", Tracer::Global().ambient_context()};
    std::vector<RowBatchEncoder> batchers_;
    size_t next_ = 0;
    int64_t rows_ = 0;
    int64_t messages_ = 0;
  };

  MessageBrokerPtr broker_;
  std::string topic_;
  int k_ = 1;
  size_t batch_bytes_ = 4096;
};

/// One broker partition as an InputSplit, located at its producer's node.
class MqSplit final : public ml::InputSplit {
 public:
  MqSplit(int partition, std::string location)
      : partition_(partition), location_(std::move(location)) {}
  int partition() const { return partition_; }
  std::vector<std::string> Locations() const override { return {location_}; }
  std::string DebugString() const override {
    return "mq partition " + std::to_string(partition_);
  }

 private:
  int partition_;
  std::string location_;
};

/// Consumes one partition from the committed offset; batch-granularity
/// commits give at-least-once delivery with a bounded recovery tail.
class MqRecordReader final : public ml::RecordReader {
 public:
  MqRecordReader(MessageBrokerPtr broker, std::string topic, int partition,
                 MqTransferOptions options,
                 std::shared_ptr<std::atomic<int64_t>> reread_counter)
      : broker_(std::move(broker)),
        topic_(std::move(topic)),
        partition_(partition),
        crash_failpoint_name_("mq.reader.crash.p" + std::to_string(partition)),
        options_(std::move(options)),
        reread_counter_(std::move(reread_counter)) {}

  Result<bool> Next(Row* out) override {
    for (;;) {
      if (pending_index_ < pending_.size()) {
        if (skip_ > 0) {
          --skip_;
          ++pending_index_;
          continue;
        }
        *out = std::move(pending_[pending_index_++]);
        ++delivered_since_commit_;
        MaybeInjectFailure();
        return true;
      }
      // Batch fully delivered: commit, then fetch the next one.
      if (offset_ > committed_offset_) {
        RETURN_IF_ERROR(broker_->CommitOffset(options_.consumer_group, topic_,
                                              partition_, offset_));
        committed_offset_ = offset_;
        delivered_since_commit_ = 0;
      }
      ASSIGN_OR_RETURN(
          MessageBroker::PollResult poll,
          broker_->Poll(topic_, partition_, offset_, /*max_messages=*/16,
                        kPollTimeoutMs));
      if (poll.messages.empty()) {
        if (poll.sealed) return false;
        if (++idle_polls_ > kMaxIdlePolls) {
          return Status::Unavailable("broker partition idle too long");
        }
        continue;
      }
      idle_polls_ = 0;
      pending_.clear();
      pending_index_ = 0;
      for (MessageBroker::Message& message : poll.messages) {
        if (message.offset < replay_high_water_) {
          reread_counter_->fetch_add(1);
        }
        ASSIGN_OR_RETURN(std::vector<Row> rows,
                         RowCodec::DecodeRows(message.payload));
        for (Row& row : rows) pending_.push_back(std::move(row));
        offset_ = message.offset + 1;
      }
    }
  }

 private:
  /// Simulates a consumer crash when the per-partition failpoint
  /// ("mq.reader.crash.p<ID>", evaluated once per delivered row) fires:
  /// state resets to the last committed offset; already-delivered rows of
  /// the uncommitted tail are skipped on the replay so the dataset stays
  /// duplicate-free (the recovery tail is what gets re-read).
  void MaybeInjectFailure() {
    if (SQLINK_FAILPOINT(crash_failpoint_name_) == FailpointOutcome::kNone) {
      return;
    }
    replay_high_water_ = offset_;
    pending_.clear();
    pending_index_ = 0;
    skip_ = delivered_since_commit_;
    offset_ = committed_offset_;
  }

  MessageBrokerPtr broker_;
  std::string topic_;
  int partition_;
  const std::string crash_failpoint_name_;
  MqTransferOptions options_;
  std::shared_ptr<std::atomic<int64_t>> reread_counter_;

  std::vector<Row> pending_;
  size_t pending_index_ = 0;
  int64_t offset_ = 0;
  int64_t committed_offset_ = 0;
  uint64_t delivered_since_commit_ = 0;
  uint64_t skip_ = 0;
  int idle_polls_ = 0;
  int64_t replay_high_water_ = -1;
};

}  // namespace

Status RegisterMqSinkUdf(SqlEngine* engine, MessageBrokerPtr broker) {
  Status registered = engine->table_udfs()->Register(
      "mq_stream_sink",
      [broker] { return std::make_shared<MqSinkUdf>(broker); });
  // Concurrent transfers race to register first; losing the race is fine.
  if (registered.IsAlreadyExists()) return Status::OK();
  return registered;
}

MqInputFormat::MqInputFormat(MessageBrokerPtr broker, std::string topic,
                             SchemaPtr schema, MqTransferOptions options)
    : broker_(std::move(broker)),
      topic_(std::move(topic)),
      schema_(std::move(schema)),
      options_(std::move(options)),
      reread_counter_(std::make_shared<std::atomic<int64_t>>(0)) {}

Result<std::vector<ml::InputSplitPtr>> MqInputFormat::GetSplits(
    const ml::JobContext& context) {
  ASSIGN_OR_RETURN(int partitions, broker_->NumPartitions(topic_));
  std::vector<ml::InputSplitPtr> splits;
  for (int p = 0; p < partitions; ++p) {
    // Partition p was produced by SQL worker p / k, on node p / k.
    const int producer = p / std::max(1, options_.partitions_per_worker);
    std::string location =
        context.cluster != nullptr && producer < context.cluster->num_nodes()
            ? context.cluster->HostName(producer)
            : "node" + std::to_string(producer);
    splits.push_back(std::make_shared<MqSplit>(p, std::move(location)));
  }
  return splits;
}

Result<std::unique_ptr<ml::RecordReader>> MqInputFormat::CreateReader(
    const ml::JobContext& context, const ml::InputSplit& split,
    int worker_id) {
  (void)context;
  (void)worker_id;
  const auto* mq_split = dynamic_cast<const MqSplit*>(&split);
  if (mq_split == nullptr) {
    return Status::InvalidArgument("MqInputFormat needs an MqSplit");
  }
  return std::unique_ptr<ml::RecordReader>(
      new MqRecordReader(broker_, topic_, mq_split->partition(), options_,
                         reread_counter_));
}

int64_t MqInputFormat::messages_reread() const {
  return reread_counter_->load();
}

Result<MqTransferResult> MqTransfer::Run(SqlEngine* engine,
                                         MessageBrokerPtr broker,
                                         const std::string& query_sql,
                                         const MqTransferOptions& options) {
  RETURN_IF_ERROR(RegisterMqSinkUdf(engine, broker));

  // Root span of the broker-mediated transfer; ambient so the publishing
  // SQL workers and the consumer thread all land in one trace.
  TraceSpan transfer_span("mq.transfer");
  ScopedAmbientTrace ambient(transfer_span.context());

  static std::atomic<int> topic_counter{0};
  const std::string topic =
      "mqtransfer_" + std::to_string(topic_counter.fetch_add(1));
  MessageBroker::TopicConfig config;
  config.num_partitions =
      engine->num_workers() * std::max(1, options.partitions_per_worker);
  RETURN_IF_ERROR(broker->CreateTopic(topic, config));

  // The consumers need the row schema up front; plan the query for it.
  ASSIGN_OR_RETURN(PlanPtr plan, engine->Plan(query_sql));

  // Ingest concurrently with publication — the broker decouples the two.
  MqInputFormat format(broker, topic, plan->output_schema, options);
  Result<ml::IngestResult> ingest = Status::Internal("ingest never ran");
  std::thread consumer([&] {
    ml::JobContext context;
    context.cluster = engine->cluster();
    context.metrics = engine->metrics();
    ml::MlJobRunner runner(context);
    ingest = runner.Ingest(&format);
  });

  const std::string sink_sql =
      "SELECT * FROM TABLE(mq_stream_sink((" + query_sql + "), '" + topic +
      "', " + std::to_string(options.partitions_per_worker) + ", " +
      std::to_string(options.batch_bytes) + "))";
  auto summary = engine->ExecuteSql(sink_sql, "mq_summary");
  if (!summary.ok()) {
    // Seal everything so the consumers terminate, then surface the error.
    for (int p = 0; p < config.num_partitions; ++p) {
      (void)broker->SealPartition(topic, p);
    }
    consumer.join();
    return summary.status();
  }
  consumer.join();
  RETURN_IF_ERROR(ingest.status());

  MqTransferResult result;
  result.dataset = std::move(ingest->dataset);
  for (const Row& row : (*summary)->GatherRows()) {
    result.rows_published += row[1].int64_value();
    result.messages_published += row[2].int64_value();
  }
  result.messages_reread = format.messages_reread();
  return result;
}

}  // namespace sqlink
