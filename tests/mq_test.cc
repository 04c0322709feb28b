#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>

#include "cluster/cluster.h"
#include "common/failpoint.h"
#include "common/fs_util.h"
#include "common/random.h"
#include "common/coding.h"
#include "mq/broker.h"
#include "mq/mq_transfer.h"
#include "sql/engine.h"
#include "table/row_codec.h"

namespace sqlink {
namespace {

// --- Broker semantics ---

TEST(BrokerTest, ProduceAssignsMonotonicOffsets) {
  MessageBroker broker;
  ASSERT_TRUE(broker.CreateTopic("t", {2, 0}).ok());
  EXPECT_EQ(*broker.Produce("t", 0, "a"), 0);
  EXPECT_EQ(*broker.Produce("t", 0, "b"), 1);
  EXPECT_EQ(*broker.Produce("t", 1, "c"), 0);  // Per-partition offsets.
  EXPECT_EQ(*broker.EndOffset("t", 0), 2);
  EXPECT_EQ(*broker.BeginOffset("t", 0), 0);
}

TEST(BrokerTest, TopicErrors) {
  MessageBroker broker;
  ASSERT_TRUE(broker.CreateTopic("t", {1, 0}).ok());
  EXPECT_TRUE(broker.CreateTopic("t", {1, 0}).IsAlreadyExists());
  EXPECT_TRUE(broker.CreateTopic("bad", {0, 0}).IsInvalidArgument());
  EXPECT_TRUE(broker.Produce("ghost", 0, "x").status().IsNotFound());
  EXPECT_TRUE(broker.Produce("t", 5, "x").status().IsOutOfRange());
}

TEST(BrokerTest, PollFromOffsetAndSealedEnd) {
  MessageBroker broker;
  ASSERT_TRUE(broker.CreateTopic("t", {1, 0}).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(broker.Produce("t", 0, "m" + std::to_string(i)).ok());
  }
  auto poll = broker.Poll("t", 0, 4, 3, 0);
  ASSERT_TRUE(poll.ok());
  ASSERT_EQ(poll->messages.size(), 3u);
  EXPECT_EQ(poll->messages[0].offset, 4);
  EXPECT_EQ(poll->messages[0].payload, "m4");
  EXPECT_FALSE(poll->sealed);

  ASSERT_TRUE(broker.SealPartition("t", 0).ok());
  EXPECT_TRUE(broker.Produce("t", 0, "late").status().IsFailedPrecondition());
  auto at_end = broker.Poll("t", 0, 10, 5, 0);
  ASSERT_TRUE(at_end.ok());
  EXPECT_TRUE(at_end->messages.empty());
  EXPECT_TRUE(at_end->sealed);
}

TEST(BrokerTest, PollBlocksUntilProduceOrSeal) {
  MessageBroker broker;
  ASSERT_TRUE(broker.CreateTopic("t", {1, 0}).ok());
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_TRUE(broker.Produce("t", 0, "late-message").ok());
  });
  auto poll = broker.Poll("t", 0, 0, 1, 2000);
  producer.join();
  ASSERT_TRUE(poll.ok());
  ASSERT_EQ(poll->messages.size(), 1u);
  EXPECT_EQ(poll->messages[0].payload, "late-message");
}

TEST(BrokerTest, RetentionDropsOldestAndFloorsOffsets) {
  MessageBroker broker;
  ASSERT_TRUE(broker.CreateTopic("t", {1, 3}).ok());  // Keep 3 messages.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(broker.Produce("t", 0, "m" + std::to_string(i)).ok());
  }
  EXPECT_EQ(*broker.BeginOffset("t", 0), 7);
  EXPECT_EQ(*broker.EndOffset("t", 0), 10);
  EXPECT_TRUE(broker.Poll("t", 0, 2, 5, 0).status().IsOutOfRange());
  auto poll = broker.Poll("t", 0, 7, 5, 0);
  ASSERT_TRUE(poll.ok());
  ASSERT_EQ(poll->messages.size(), 3u);
  EXPECT_EQ(poll->messages[0].payload, "m7");
}

TEST(BrokerTest, CommittedOffsetsPerGroup) {
  MessageBroker broker;
  ASSERT_TRUE(broker.CreateTopic("t", {1, 0}).ok());
  EXPECT_EQ(*broker.CommittedOffset("g1", "t", 0), 0);
  ASSERT_TRUE(broker.CommitOffset("g1", "t", 0, 42).ok());
  EXPECT_EQ(*broker.CommittedOffset("g1", "t", 0), 42);
  EXPECT_EQ(*broker.CommittedOffset("g2", "t", 0), 0);  // Independent.
}

TEST(BrokerTest, ConcurrentProducersConsumer) {
  MessageBroker broker;
  ASSERT_TRUE(broker.CreateTopic("t", {4, 0}).ok());
  constexpr int kPerPartition = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&broker, p] {
      for (int i = 0; i < kPerPartition; ++i) {
        ASSERT_TRUE(broker.Produce("t", p, std::to_string(i)).ok());
      }
      ASSERT_TRUE(broker.SealPartition("t", p).ok());
    });
  }
  size_t consumed = 0;
  for (int p = 0; p < 4; ++p) {
    int64_t offset = 0;
    for (;;) {
      auto poll = broker.Poll("t", p, offset, 64, 2000);
      ASSERT_TRUE(poll.ok());
      if (poll->messages.empty() && poll->sealed) break;
      for (const auto& message : poll->messages) {
        offset = message.offset + 1;
        ++consumed;
      }
    }
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(consumed, 4u * kPerPartition);
}

// --- Consumer decoding ---

TEST(MqInputFormatTest, HugeMessageRowCountIsDataLoss) {
  // A message whose row count (2^40) no payload could back, behind a valid
  // one: the consumer fails with DataLoss instead of sizing an allocation
  // from the count.
  auto broker = std::make_shared<MessageBroker>();
  ASSERT_TRUE(broker->CreateTopic("t", {1, 0}).ok());
  ASSERT_TRUE(
      broker->Produce("t", 0, RowCodec::EncodeRows({Row{Value::Int64(7)}}))
          .ok());
  std::string hostile;
  PutVarint64(&hostile, uint64_t{1} << 40);
  ASSERT_TRUE(broker->Produce("t", 0, hostile).ok());
  ASSERT_TRUE(broker->SealPartition("t", 0).ok());

  MqInputFormat format(broker, "t", Schema::Make({{"id", DataType::kInt64}}),
                       MqTransferOptions{});
  ml::JobContext context;
  auto splits = format.GetSplits(context);
  ASSERT_TRUE(splits.ok()) << splits.status();
  ASSERT_EQ(splits->size(), 1u);
  auto reader = format.CreateReader(context, *splits->front(), 0);
  ASSERT_TRUE(reader.ok()) << reader.status();
  Row row;
  Result<bool> next = true;
  while (next.ok() && *next) next = (*reader)->Next(&row);
  EXPECT_TRUE(next.status().IsDataLoss()) << next.status();
}

// --- Broker-mediated transfer ---

class MqTransferTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_ = std::make_unique<ScopedTempDir>("mq_test");
    auto cluster = Cluster::Make(4, temp_->path());
    ASSERT_TRUE(cluster.ok());
    engine_ = SqlEngine::Make(*cluster);
    broker_ = std::make_shared<MessageBroker>();

    auto schema = Schema::Make({{"id", DataType::kInt64},
                                {"payload", DataType::kString}});
    auto table = engine_->MakeTable("events", schema);
    Random rng(77);
    for (int64_t i = 0; i < 2000; ++i) {
      table->AppendRow(static_cast<size_t>(i) % 4,
                       Row{Value::Int64(i), Value::String(rng.NextString(8))});
    }
    ASSERT_TRUE(engine_->catalog()->RegisterTable(table).ok());
  }

  std::unique_ptr<ScopedTempDir> temp_;
  SqlEnginePtr engine_;
  MessageBrokerPtr broker_;
};

TEST_F(MqTransferTest, DeliversEveryRowExactlyOnce) {
  auto result = MqTransfer::Run(engine_.get(), broker_,
                                "SELECT * FROM events");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->dataset.TotalRows(), 2000u);
  EXPECT_EQ(result->rows_published, 2000);
  EXPECT_GT(result->messages_published, 0);
  EXPECT_EQ(result->messages_reread, 0);
  std::set<int64_t> ids;
  for (const auto& partition : result->dataset.partitions) {
    for (const Row& row : partition) {
      EXPECT_TRUE(ids.insert(row[0].int64_value()).second);
    }
  }
  EXPECT_EQ(ids.size(), 2000u);
}

TEST_F(MqTransferTest, MultiplePartitionsPerWorker) {
  MqTransferOptions options;
  options.partitions_per_worker = 3;
  auto result = MqTransfer::Run(engine_.get(), broker_,
                                "SELECT * FROM events", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->dataset.TotalRows(), 2000u);
  EXPECT_EQ(result->dataset.partitions.size(), 12u);  // n*k splits.
}

TEST_F(MqTransferTest, ConsumerCrashResumesFromCommittedOffset) {
  MqTransferOptions options;
  options.batch_bytes = 256;  // Many small messages -> small recovery tail.
  // Partition 1's consumer "crashes" once, after 120 delivered rows.
  ScopedFailpoint fault("mq.reader.crash.p1", "after(119):error(1)");
  ASSERT_TRUE(fault.status().ok()) << fault.status();
  auto result = MqTransfer::Run(engine_.get(), broker_,
                                "SELECT * FROM events", options);
  ASSERT_TRUE(result.ok()) << result.status();
  // Exactly-once dataset despite the crash...
  EXPECT_EQ(result->dataset.TotalRows(), 2000u);
  std::set<int64_t> ids;
  for (const auto& partition : result->dataset.partitions) {
    for (const Row& row : partition) {
      EXPECT_TRUE(ids.insert(row[0].int64_value()).second);
    }
  }
  // ...and the recovery tail is bounded: only the uncommitted messages were
  // re-read, not the whole partition (the §8 Kafka advantage over the §6
  // full-replay design).
  EXPECT_GT(result->messages_reread, 0);
  EXPECT_LT(result->messages_reread, result->messages_published / 4);
}

TEST_F(MqTransferTest, SlowConsumerIsBufferedByBroker) {
  // The §8 point: the broker caches data when ML workers are slow. Produce
  // everything first (SQL side runs at full speed against the broker),
  // then consume; nothing is lost and nothing blocks.
  ASSERT_TRUE(RegisterMqSinkUdf(engine_.get(), broker_).ok());
  auto summary = engine_->ExecuteSql(
      "SELECT * FROM TABLE(mq_stream_sink((SELECT * FROM events), "
      "'buffered_topic', 1, 512))");
  ASSERT_TRUE(summary.ok()) << summary.status();
  // All messages are retained in the broker before any consumer exists.
  int64_t backlog = 0;
  for (int p = 0; p < 4; ++p) {
    backlog += *broker_->EndOffset("buffered_topic", p);
  }
  EXPECT_GT(backlog, 0);
  EXPECT_GE(broker_->TotalRetainedMessages(), static_cast<size_t>(backlog));
  // A late consumer drains the full backlog.
  size_t rows = 0;
  for (int p = 0; p < 4; ++p) {
    int64_t offset = 0;
    for (;;) {
      auto poll = broker_->Poll("buffered_topic", p, offset, 32, 1000);
      ASSERT_TRUE(poll.ok());
      if (poll->messages.empty() && poll->sealed) break;
      for (auto& message : poll->messages) {
        Decoder decoder(message.payload);
        auto count = decoder.GetVarint64();
        ASSERT_TRUE(count.ok());
        rows += *count;
        offset = message.offset + 1;
      }
    }
  }
  EXPECT_EQ(rows, 2000u);
}

TEST_F(MqTransferTest, SqlErrorSurfacesAndTerminates) {
  auto result =
      MqTransfer::Run(engine_.get(), broker_, "SELECT nope FROM events");
  EXPECT_FALSE(result.ok());
}

TEST_F(MqTransferTest, StandaloneSinkUdfInSql) {
  ASSERT_TRUE(RegisterMqSinkUdf(engine_.get(), broker_).ok());
  auto summary = engine_->ExecuteSql(
      "SELECT * FROM TABLE(mq_stream_sink((SELECT id FROM events), "
      "'manual_topic', 2, 1024))");
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_EQ((*summary)->TotalRows(), 4u);  // One summary row per worker.
  EXPECT_EQ(*broker_->NumPartitions("manual_topic"), 8);
  int64_t end_total = 0;
  for (int p = 0; p < 8; ++p) {
    end_total += *broker_->EndOffset("manual_topic", p);
  }
  EXPECT_GT(end_total, 0);
}

}  // namespace
}  // namespace sqlink
