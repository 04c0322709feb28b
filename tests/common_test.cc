#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <thread>

#include "common/blocking_queue.h"
#include "common/coding.h"
#include "common/fs_util.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/status_macros.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace sqlink {
namespace {

TEST(StatusTest, OkIsDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
  EXPECT_TRUE(status.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::NotFound("missing thing");
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_EQ(status.message(), "missing thing");
  EXPECT_EQ(status.ToString(), "Not found: missing thing");
}

TEST(StatusTest, WithContextPrepends) {
  Status status = Status::IoError("disk gone").WithContext("reading blk_7");
  EXPECT_TRUE(status.IsIoError());
  EXPECT_EQ(status.message(), "reading blk_7: disk gone");
}

TEST(StatusTest, WithContextOnOkIsNoop) {
  EXPECT_TRUE(Status::OK().WithContext("ctx").ok());
}

TEST(StatusTest, CopyIsCheap) {
  Status a = Status::Internal("boom");
  Status b = a;
  EXPECT_EQ(b.message(), "boom");
  EXPECT_TRUE(b.IsInternal());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(ResultTest, MoveValue) {
  Result<std::string> r = std::string("payload");
  std::string v = r.MoveValue();
  EXPECT_EQ(v, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  ASSIGN_OR_RETURN(int h, Half(x));
  ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(StatusMacrosTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_TRUE(Quarter(6).status().IsInvalidArgument());
  EXPECT_TRUE(Quarter(7).status().IsInvalidArgument());
}

TEST(StringUtilTest, SplitBasic) {
  EXPECT_EQ(SplitString("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(SplitString("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(SplitString(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(JoinStrings(parts, "-"), "x-y-z");
  EXPECT_EQ(JoinStrings({}, "-"), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(TrimWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace("a"), "a");
}

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(ToLowerAscii("SeLeCt"), "select");
  EXPECT_EQ(ToUpperAscii("SeLeCt"), "SELECT");
  EXPECT_TRUE(EqualsIgnoreCase("GENDER", "gender"));
  EXPECT_FALSE(EqualsIgnoreCase("gender", "genders"));
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("node3", "node"));
  EXPECT_FALSE(StartsWith("no", "node"));
  EXPECT_TRUE(EndsWith("file.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", ".csv"));
}

TEST(StringUtilTest, ParseInt64Strict) {
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64("-7"), -7);
  EXPECT_TRUE(ParseInt64("42x").status().IsParseError());
  EXPECT_TRUE(ParseInt64("").status().IsParseError());
  EXPECT_TRUE(ParseInt64("999999999999999999999").status().IsOutOfRange());
}

TEST(StringUtilTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e3"), -1000.0);
  EXPECT_TRUE(ParseDouble("3.5kg").status().IsParseError());
}

TEST(StringUtilTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(1536), "1.5 KiB");
  EXPECT_EQ(FormatBytes(5ull * 1024 * 1024 * 1024), "5.0 GiB");
}

TEST(CodingTest, VarintRoundTrip) {
  std::string buf;
  const uint64_t values[] = {0, 1, 127, 128, 300, 1ull << 32, ~0ull};
  for (uint64_t v : values) PutVarint64(&buf, v);
  Decoder dec(buf);
  for (uint64_t v : values) {
    auto got = dec.GetVarint64();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(dec.AtEnd());
}

TEST(CodingTest, SignedVarintRoundTrip) {
  std::string buf;
  const int64_t values[] = {0, -1, 1, -64, 63, INT64_MIN, INT64_MAX};
  for (int64_t v : values) PutVarint64Signed(&buf, v);
  Decoder dec(buf);
  for (int64_t v : values) {
    auto got = dec.GetVarint64Signed();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  Decoder dec(buf);
  EXPECT_EQ(*dec.GetLengthPrefixed(), "hello");
  EXPECT_EQ(*dec.GetLengthPrefixed(), "");
  EXPECT_EQ(dec.GetLengthPrefixed()->size(), 1000u);
}

TEST(CodingTest, TruncatedInputErrors) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  const std::string truncated = buf.substr(0, 3);
  Decoder dec(truncated);
  EXPECT_TRUE(dec.GetLengthPrefixed().status().IsDataLoss());
  Decoder dec2("");
  EXPECT_TRUE(dec2.GetVarint64().status().IsDataLoss());
  EXPECT_TRUE(dec2.GetFixed64().status().IsDataLoss());
}

TEST(CodingTest, GetCountIsBoundedByTheBytesLeft) {
  std::string buf;
  PutVarint64(&buf, 3);
  buf.append(6, '\0');
  Decoder fits(buf);
  EXPECT_EQ(*fits.GetCount(/*min_element_bytes=*/2), 3u);
  Decoder too_big(buf);
  EXPECT_TRUE(too_big.GetCount(/*min_element_bytes=*/3).status().IsDataLoss());

  std::string huge;
  PutVarint64(&huge, uint64_t{1} << 40);
  Decoder hostile(huge);
  EXPECT_TRUE(hostile.GetCount(/*min_element_bytes=*/1).status().IsDataLoss());
}

TEST(CodingTest, FixedAndDouble) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed64(&buf, 0x0123456789abcdefULL);
  PutDouble(&buf, 2.5);
  Decoder dec(buf);
  EXPECT_EQ(*dec.GetFixed32(), 0xdeadbeefu);
  EXPECT_EQ(*dec.GetFixed64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(*dec.GetDouble(), 2.5);
}

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q(10);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(*q.Pop(), i);
}

TEST(BlockingQueueTest, CloseDrainsThenEnds) {
  BlockingQueue<int> q(10);
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BlockingQueueTest, BoundedBlocksProducer) {
  BlockingQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // Full.
  EXPECT_EQ(*q.TryPop(), 1);
  EXPECT_TRUE(q.TryPush(3));
}

TEST(BlockingQueueTest, ProducerConsumerThreads) {
  BlockingQueue<int> q(4);
  constexpr int kItems = 1000;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) q.Push(i);
    q.Close();
  });
  int sum = 0;
  int count = 0;
  while (auto item = q.Pop()) {
    sum += *item;
    ++count;
  }
  producer.join();
  EXPECT_EQ(count, kItems);
  EXPECT_EQ(sum, kItems * (kItems - 1) / 2);
}

TEST(ParallelForTest, RunsEveryIndexOnce) {
  std::vector<int> hits(16, 0);
  ParallelFor(16, [&](size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(7);
  Random b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RandomTest, UniformWithinBounds) {
  Random rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, GaussianRoughMoments) {
  Random rng(99);
  double sum = 0;
  double sq = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sq / kN, 1.0, 0.05);
}

TEST(ZipfTest, SkewConcentratesMassOnLowRanks) {
  Random rng(5);
  ZipfDistribution zipf(1000, 1.2);
  std::vector<int> counts(1000, 0);
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const size_t rank = zipf.Sample(&rng);
    ASSERT_LT(rank, 1000u);
    counts[rank]++;
  }
  // Rank 0 dominates and counts decrease (statistically) with rank.
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], kSamples / 20);
  int top10 = 0;
  for (int r = 0; r < 10; ++r) top10 += counts[r];
  EXPECT_GT(top10, kSamples / 3);  // Heavy head.
}

TEST(ZipfTest, ZeroSkewIsNearUniform) {
  Random rng(9);
  ZipfDistribution zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) counts[zipf.Sample(&rng)]++;
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
}

TEST(FsUtilTest, TempDirLifecycle) {
  std::string path;
  {
    ScopedTempDir dir("sqlink_test");
    path = dir.path();
    EXPECT_TRUE(std::filesystem::exists(path));
    ASSERT_TRUE(WriteFileAtomic(path + "/f.txt", "content").ok());
    auto content = ReadFileToString(path + "/f.txt");
    ASSERT_TRUE(content.ok());
    EXPECT_EQ(*content, "content");
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(FsUtilTest, ReadMissingFileErrors) {
  EXPECT_TRUE(ReadFileToString("/nonexistent/nope").status().IsIoError());
}

TEST(FsUtilTest, EnsureDirNested) {
  ScopedTempDir dir("sqlink_test");
  ASSERT_TRUE(EnsureDir(dir.path() + "/a/b/c").ok());
  EXPECT_TRUE(std::filesystem::is_directory(dir.path() + "/a/b/c"));
  // Idempotent.
  ASSERT_TRUE(EnsureDir(dir.path() + "/a/b/c").ok());
}

}  // namespace
}  // namespace sqlink
