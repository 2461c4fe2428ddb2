#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/checkpoint.h"
#include "fault/failpoint.h"
#include "stream/batch_codec.h"

namespace freeway {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// CRC-32

TEST(Crc32Test, MatchesIeeeCheckVector) {
  // The canonical CRC-32/ISO-HDLC check value: crc32("123456789").
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32Test, SeedChainsRanges) {
  const uint32_t whole = Crc32("123456789", 9);
  uint32_t chained = Crc32("12345", 5);
  chained = Crc32("6789", 4, chained);
  EXPECT_EQ(chained, whole);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<char> data(64, 'x');
  const uint32_t clean = Crc32(data.data(), data.size());
  data[13] ^= 0x10;
  EXPECT_NE(Crc32(data.data(), data.size()), clean);
}

// ---------------------------------------------------------------------------
// Snapshot codec

TEST(SnapshotCodecTest, RoundTripsEveryType) {
  SnapshotWriter writer;
  writer.WriteSection(0x54455354);  // 'TEST'
  writer.WriteU32(7u);
  writer.WriteU64(uint64_t{1} << 40);
  writer.WriteI64(-42);
  writer.WriteDouble(0.1);  // Not exactly representable: bit-exactness test.
  writer.WriteBool(true);
  writer.WriteString("hello");
  writer.WriteDoubleVec({1.5, -2.25, 3.125});
  writer.WriteIntVec({0, 1, 1, 0});
  writer.WriteBlob({'a', 'b', 'c'});
  Matrix m(2, 3);
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 3; ++j) m.At(i, j) = i * 3.0 + j + 0.5;
  }
  writer.WriteMatrix(m);
  Batch batch;
  batch.index = 9;
  batch.features = m;
  batch.labels = {1, 0};
  writer.WriteBatch(batch);

  SnapshotReader reader(writer.buffer());
  ASSERT_TRUE(reader.ExpectSection(0x54455354).ok());
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double d = 0;
  bool b = false;
  std::string s;
  std::vector<double> dv;
  std::vector<int> iv;
  std::vector<char> blob;
  Matrix m2;
  Batch batch2;
  ASSERT_TRUE(reader.ReadU32(&u32).ok());
  ASSERT_TRUE(reader.ReadU64(&u64).ok());
  ASSERT_TRUE(reader.ReadI64(&i64).ok());
  ASSERT_TRUE(reader.ReadDouble(&d).ok());
  ASSERT_TRUE(reader.ReadBool(&b).ok());
  ASSERT_TRUE(reader.ReadString(&s).ok());
  ASSERT_TRUE(reader.ReadDoubleVec(&dv).ok());
  ASSERT_TRUE(reader.ReadIntVec(&iv).ok());
  ASSERT_TRUE(reader.ReadBlob(&blob).ok());
  ASSERT_TRUE(reader.ReadMatrix(&m2).ok());
  ASSERT_TRUE(reader.ReadBatch(&batch2).ok());
  ASSERT_TRUE(reader.ExpectEnd().ok());

  EXPECT_EQ(u32, 7u);
  EXPECT_EQ(u64, uint64_t{1} << 40);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(d, 0.1);  // Bit-identical, not approximately equal.
  EXPECT_TRUE(b);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(dv, (std::vector<double>{1.5, -2.25, 3.125}));
  EXPECT_EQ(iv, (std::vector<int>{0, 1, 1, 0}));
  EXPECT_EQ(blob, (std::vector<char>{'a', 'b', 'c'}));
  ASSERT_EQ(m2.rows(), 2u);
  ASSERT_EQ(m2.cols(), 3u);
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 3; ++j) EXPECT_EQ(m2.At(i, j), m.At(i, j));
  }
  EXPECT_EQ(batch2.index, 9);
  EXPECT_EQ(batch2.labels, batch.labels);
}

TEST(SnapshotCodecTest, TruncationFailsCleanlyAtEveryPrefix) {
  SnapshotWriter writer;
  writer.WriteSection(0x41414141);
  writer.WriteDoubleVec({1.0, 2.0, 3.0});
  writer.WriteString("tail");
  const std::vector<char>& full = writer.buffer();

  for (size_t len = 0; len < full.size(); ++len) {
    SnapshotReader reader(std::span<const char>(full.data(), len));
    std::vector<double> dv;
    std::string s;
    Status status = reader.ExpectSection(0x41414141);
    if (status.ok()) status = reader.ReadDoubleVec(&dv);
    if (status.ok()) status = reader.ReadString(&s);
    if (status.ok()) status = reader.ExpectEnd();
    EXPECT_FALSE(status.ok()) << "prefix length " << len;
  }
}

TEST(SnapshotCodecTest, CorruptLengthCannotOverAllocate) {
  SnapshotWriter writer;
  writer.WriteU64(uint64_t{1} << 60);  // Absurd element count...
  writer.WriteDouble(1.0);             // ...backed by 8 bytes.
  SnapshotReader reader(writer.buffer());
  std::vector<double> dv;
  Status status = reader.ReadDoubleVec(&dv);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotCodecTest, SectionTagMismatchIsRejected) {
  SnapshotWriter writer;
  writer.WriteSection(0x41414141);
  SnapshotReader reader(writer.buffer());
  Status status = reader.ExpectSection(0x42424242);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotCodecTest, UnsupportedSectionVersionIsRejected) {
  SnapshotWriter writer;
  writer.WriteSection(0x41414141, /*version=*/2);
  {
    SnapshotReader reader(writer.buffer());
    EXPECT_FALSE(reader.ExpectSection(0x41414141).ok());
  }
  {
    // A caller that accepts other versions reads it through version_out.
    SnapshotReader reader(writer.buffer());
    uint32_t version = 0;
    ASSERT_TRUE(reader.ExpectSection(0x41414141, &version).ok());
    EXPECT_EQ(version, 2u);
  }
}

TEST(SnapshotCodecTest, TrailingGarbageIsRejected) {
  SnapshotWriter writer;
  writer.WriteU32(1);
  writer.WriteU32(2);
  SnapshotReader reader(writer.buffer());
  uint32_t v = 0;
  ASSERT_TRUE(reader.ReadU32(&v).ok());
  EXPECT_FALSE(reader.ExpectEnd().ok());
  ASSERT_TRUE(reader.ReadU32(&v).ok());
  EXPECT_TRUE(reader.ExpectEnd().ok());
}

// ---------------------------------------------------------------------------
// CheckpointStore

class CheckpointStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("freeway_ckpt_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    failpoint::DisarmAll();
  }
  void TearDown() override {
    failpoint::DisarmAll();
    fs::remove_all(dir_);
  }

  CheckpointStoreOptions Options(size_t keep = 2) {
    CheckpointStoreOptions opts;
    opts.directory = dir_.string();
    opts.keep_versions = keep;
    opts.fsync = false;  // Tests favour speed; the fsync path is tiny.
    return opts;
  }

  static std::vector<char> Payload(const std::string& text) {
    return std::vector<char>(text.begin(), text.end());
  }

  fs::path dir_;
};

TEST_F(CheckpointStoreTest, WriteThenReadLatestRoundTrips) {
  CheckpointStore store(Options());
  ASSERT_TRUE(store.Write("shard0", Payload("state-v1")).ok());
  auto read = store.ReadLatest("shard0");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, Payload("state-v1"));
}

TEST_F(CheckpointStoreTest, ReadLatestReturnsNewestVersion) {
  CheckpointStore store(Options());
  ASSERT_TRUE(store.Write("shard0", Payload("old")).ok());
  ASSERT_TRUE(store.Write("shard0", Payload("new")).ok());
  auto read = store.ReadLatest("shard0");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, Payload("new"));
}

TEST_F(CheckpointStoreTest, PrunesBeyondKeepVersions) {
  CheckpointStore store(Options(/*keep=*/2));
  for (int v = 0; v < 5; ++v) {
    ASSERT_TRUE(store.Write("shard0", Payload("v" + std::to_string(v))).ok());
  }
  auto list = store.List("shard0");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 2u);
  EXPECT_LT((*list)[0].sequence, (*list)[1].sequence);
  auto read = store.ReadLatest("shard0");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, Payload("v4"));
}

TEST_F(CheckpointStoreTest, NamesAreIndependent) {
  CheckpointStore store(Options());
  ASSERT_TRUE(store.Write("shard0", Payload("zero")).ok());
  ASSERT_TRUE(store.Write("shard1", Payload("one")).ok());
  auto read0 = store.ReadLatest("shard0");
  auto read1 = store.ReadLatest("shard1");
  ASSERT_TRUE(read0.ok());
  ASSERT_TRUE(read1.ok());
  EXPECT_EQ(*read0, Payload("zero"));
  EXPECT_EQ(*read1, Payload("one"));
}

TEST_F(CheckpointStoreTest, SequencesResumeAcrossStoreInstances) {
  {
    CheckpointStore store(Options());
    ASSERT_TRUE(store.Write("shard0", Payload("first")).ok());
  }
  CheckpointStore reopened(Options());
  ASSERT_TRUE(reopened.Write("shard0", Payload("second")).ok());
  auto list = reopened.List("shard0");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 2u);
  EXPECT_GT((*list)[1].sequence, (*list)[0].sequence);
  auto read = reopened.ReadLatest("shard0");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, Payload("second"));
}

TEST_F(CheckpointStoreTest, RejectsInvalidNames) {
  CheckpointStore store(Options());
  EXPECT_FALSE(store.Write("", Payload("x")).ok());
  EXPECT_FALSE(store.Write("a/b", Payload("x")).ok());
}

TEST_F(CheckpointStoreTest, NoTmpFilesSurviveWrites) {
  CheckpointStore store(Options());
  ASSERT_TRUE(store.Write("shard0", Payload("data")).ok());
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().extension(), ".ckpt") << entry.path();
  }
}

/// Leaves `pattern` in a stretch of stack that the next call reuses, so a
/// writer that copies uninitialised stack bytes to disk shows it.
__attribute__((noinline)) void DirtyStack(unsigned char pattern) {
  volatile unsigned char scratch[4096];
  for (size_t i = 0; i < sizeof(scratch); ++i) scratch[i] = pattern;
}

TEST_F(CheckpointStoreTest, HeaderPaddingIsZero) {
  CheckpointStore store(Options());
  for (int version = 1; version <= 3; ++version) {
    DirtyStack(0xab);
    ASSERT_TRUE(store.Write("padded", Payload("state")).ok());
    const fs::path path =
        dir_ / ("padded-" + std::to_string(version) + ".ckpt");
    std::ifstream in(path, std::ios::binary);
    char header[24];
    ASSERT_TRUE(in.read(header, sizeof(header))) << path;
    for (size_t i = 20; i < 24; ++i) {
      EXPECT_EQ(header[i], 0) << path << " byte " << i;
    }
  }
}

TEST_F(CheckpointStoreTest, BitFlipInPayloadIsRejected) {
  CheckpointStore store(Options(/*keep=*/1));
  ASSERT_TRUE(store.Write("shard0", Payload("sensitive-state")).ok());
  auto list = store.List("shard0");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);
  const std::string path = (*list)[0].path;

  // Flip one bit in the payload region (past the 20-byte header).
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(24);
  char byte = 0;
  file.seekg(24);
  file.read(&byte, 1);
  byte ^= 0x01;
  file.seekp(24);
  file.write(&byte, 1);
  file.close();

  auto read = CheckpointStore::ReadFile(path);
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(store.ReadLatest("shard0").ok());
}

TEST_F(CheckpointStoreTest, TruncatedFileIsRejected) {
  CheckpointStore store(Options(/*keep=*/1));
  ASSERT_TRUE(store.Write("shard0", Payload("will-be-truncated")).ok());
  auto list = store.List("shard0");
  ASSERT_TRUE(list.ok());
  const std::string path = (*list)[0].path;
  fs::resize_file(path, fs::file_size(path) - 4);
  EXPECT_FALSE(CheckpointStore::ReadFile(path).ok());
}

TEST_F(CheckpointStoreTest, ReadLatestFallsBackPastCorruptNewest) {
  CheckpointStore store(Options(/*keep=*/2));
  ASSERT_TRUE(store.Write("shard0", Payload("good-old")).ok());
  ASSERT_TRUE(store.Write("shard0", Payload("bad-new")).ok());
  auto list = store.List("shard0");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 2u);
  // Corrupt the newest version's payload.
  fs::resize_file((*list)[1].path, fs::file_size((*list)[1].path) - 2);

  auto read = store.ReadLatest("shard0");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, Payload("good-old"));
}

TEST_F(CheckpointStoreTest, ReadLatestRescansWhenIndexedFileWasDeleted) {
  CheckpointStore store(Options(/*keep=*/2));
  ASSERT_TRUE(store.Write("shard0", Payload("old")).ok());
  ASSERT_TRUE(store.Write("shard0", Payload("new")).ok());
  auto list = store.List("shard0");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 2u);
  // An operator (or an overlapping store instance) prunes the newest file
  // behind the live store's back: the in-memory index is now stale. The
  // regression under test: ReadLatest used to keep serving the dead index
  // and fail forever even though a perfectly good version sat on disk.
  fs::remove((*list)[1].path);

  auto read = store.ReadLatest("shard0");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, Payload("old"));

  // The rescan repaired the index for later calls too.
  auto relisted = store.List("shard0");
  ASSERT_TRUE(relisted.ok());
  EXPECT_EQ(relisted->size(), 1u);
}

TEST_F(CheckpointStoreTest, ReadLatestFailsWhenEveryVersionWasDeleted) {
  CheckpointStore store(Options(/*keep=*/2));
  ASSERT_TRUE(store.Write("shard0", Payload("doomed")).ok());
  auto list = store.List("shard0");
  ASSERT_TRUE(list.ok());
  for (const CheckpointInfo& info : *list) fs::remove(info.path);

  auto read = store.ReadLatest("shard0");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointStoreTest, MissingNameFailsCleanly) {
  CheckpointStore store(Options());
  auto read = store.ReadLatest("never-written");
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointStoreTest, WriteFailpointInjectsCleanly) {
  CheckpointStore store(Options());
  failpoint::Arm("checkpoint.write",
                 {StatusCode::kInternal, "injected disk failure"});
  Status status = store.Write("shard0", Payload("doomed"));
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  // Auto-disarmed after one hit: the next write succeeds and nothing of the
  // failed attempt is left behind.
  ASSERT_TRUE(store.Write("shard0", Payload("survivor")).ok());
  auto read = store.ReadLatest("shard0");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, Payload("survivor"));
}

TEST_F(CheckpointStoreTest, ReadFailpointInjectsCleanly) {
  CheckpointStore store(Options());
  ASSERT_TRUE(store.Write("shard0", Payload("data")).ok());
  failpoint::Arm("checkpoint.read", {StatusCode::kIoError, "", 0, 1});
  EXPECT_FALSE(store.ReadLatest("shard0").ok());
  auto read = store.ReadLatest("shard0");  // Disarmed: reads fine again.
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, Payload("data"));
}

TEST_F(CheckpointStoreTest, ConcurrentWritersReadersAndListersAreSafe) {
  // One store shared by many threads — the directory-mode shape, where
  // every shard's drain thread parks and hydrates streams through the same
  // park store. keep_versions=1 maximizes prune churn under the writers.
  CheckpointStore store(Options(/*keep=*/1));
  constexpr int kNames = 2;
  constexpr int kOpsPerThread = 40;
  ASSERT_TRUE(store.Write("shared-0", Payload("seed")).ok());
  ASSERT_TRUE(store.Write("shared-1", Payload("seed")).ok());

  std::atomic<int> write_errors{0};
  std::atomic<int> read_errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      const std::string name = "shared-" + std::to_string(t % kNames);
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (!store.Write(name, Payload("v" + std::to_string(i))).ok()) {
          write_errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      const std::string name = "shared-" + std::to_string(t % kNames);
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Readers race the writers' pruning: every read must either
        // validate cleanly or fail cleanly — never tear.
        auto read = store.ReadLatest(name);
        if (!read.ok()) read_errors.fetch_add(1, std::memory_order_relaxed);
        auto list = store.List(name);
        if (!list.ok()) read_errors.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(write_errors.load(), 0);
  EXPECT_EQ(read_errors.load(), 0);
  for (int n = 0; n < kNames; ++n) {
    auto read = store.ReadLatest("shared-" + std::to_string(n));
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(*read,
              Payload("v" + std::to_string(kOpsPerThread - 1)));
  }
}

// ---------------------------------------------------------------------------
// FailPoint registry

class FailPointTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(FailPointTest, UnarmedSiteIsOk) {
  EXPECT_TRUE(failpoint::Check("nothing.armed").ok());
  EXPECT_EQ(failpoint::Hits("nothing.armed"), 0u);
}

TEST_F(FailPointTest, FiresConfiguredCodeAndMessage) {
  failpoint::Arm("site.a", {StatusCode::kIoError, "boom"});
  Status status = failpoint::Check("site.a");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(status.message(), "boom");
  EXPECT_EQ(failpoint::Hits("site.a"), 1u);
}

TEST_F(FailPointTest, SkipLetsEarlyTriggersPass) {
  failpoint::FailPointSpec spec;
  spec.skip = 2;
  spec.count = 1;
  failpoint::Arm("site.skip", spec);
  EXPECT_TRUE(failpoint::Check("site.skip").ok());
  EXPECT_TRUE(failpoint::Check("site.skip").ok());
  EXPECT_FALSE(failpoint::Check("site.skip").ok());
  EXPECT_TRUE(failpoint::Check("site.skip").ok());  // Auto-disarmed.
  EXPECT_EQ(failpoint::Hits("site.skip"), 1u);
}

TEST_F(FailPointTest, CountFiresExactlyNTimes) {
  failpoint::FailPointSpec spec;
  spec.count = 3;
  failpoint::Arm("site.count", spec);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(failpoint::Check("site.count").ok()) << i;
  }
  EXPECT_TRUE(failpoint::Check("site.count").ok());
  EXPECT_EQ(failpoint::Hits("site.count"), 3u);
}

TEST_F(FailPointTest, DisarmStopsInjectionButKeepsHistory) {
  failpoint::FailPointSpec spec;
  spec.count = SIZE_MAX;
  failpoint::Arm("site.forever", spec);
  EXPECT_FALSE(failpoint::Check("site.forever").ok());
  failpoint::Disarm("site.forever");
  EXPECT_TRUE(failpoint::Check("site.forever").ok());
  EXPECT_EQ(failpoint::Hits("site.forever"), 1u);
}

TEST_F(FailPointTest, RearmResetsSchedule) {
  failpoint::FailPointSpec spec;
  spec.skip = 1;
  failpoint::Arm("site.rearm", spec);
  EXPECT_TRUE(failpoint::Check("site.rearm").ok());
  failpoint::Arm("site.rearm", spec);  // Re-arm: the skip starts over.
  EXPECT_TRUE(failpoint::Check("site.rearm").ok());
  EXPECT_FALSE(failpoint::Check("site.rearm").ok());
}

TEST_F(FailPointTest, FastPathReportsArmedState) {
  EXPECT_FALSE(failpoint::internal::AnyArmed());
  failpoint::Arm("site.fast");
  EXPECT_TRUE(failpoint::internal::AnyArmed());
  EXPECT_FALSE(failpoint::Check("site.fast").ok());  // count=1: auto-disarm.
  EXPECT_FALSE(failpoint::internal::AnyArmed());
}

}  // namespace
}  // namespace freeway
