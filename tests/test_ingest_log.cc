#include "ingest/ingest_log.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/failpoint.h"
#include "ingest/dedup.h"

namespace freeway {
namespace {

namespace fs = std::filesystem;

Batch MakeBatch(uint64_t seed, int64_t index) {
  Rng rng(seed);
  Batch b;
  b.index = index;
  b.features = Matrix(4, 3);
  b.labels.resize(4);
  for (size_t i = 0; i < 4; ++i) {
    b.labels[i] = static_cast<int>(rng.NextBelow(2));
    for (size_t j = 0; j < 3; ++j) {
      b.features.At(i, j) = rng.Gaussian(b.labels[i] * 2.0, 0.5);
    }
  }
  return b;
}

IngestRecord MakeRecord(uint64_t client_id, uint64_t sequence,
                        uint64_t stream_id, int64_t batch_index) {
  IngestRecord record;
  record.client_id = client_id;
  record.sequence = sequence;
  record.stream_id = stream_id;
  record.tenant_id = 7;
  record.priority = 2;
  record.batch = MakeBatch(client_id * 1000 + sequence, batch_index);
  return record;
}

// ---------------------------------------------------------------------------
// DedupIndex

TEST(DedupIndexTest, WatermarkAdvanceAndDuplicate) {
  DedupIndex dedup;
  EXPECT_FALSE(dedup.IsDuplicate(1, 1));
  EXPECT_EQ(dedup.Watermark(1), 0u);
  dedup.Advance(1, 1);
  EXPECT_TRUE(dedup.IsDuplicate(1, 1));
  EXPECT_FALSE(dedup.IsDuplicate(1, 2));
  dedup.Advance(1, 5);
  EXPECT_TRUE(dedup.IsDuplicate(1, 3));
  EXPECT_EQ(dedup.Watermark(1), 5u);
  // Watermarks never retreat through Advance.
  dedup.Advance(1, 2);
  EXPECT_EQ(dedup.Watermark(1), 5u);
  // Different clients are independent.
  EXPECT_FALSE(dedup.IsDuplicate(2, 1));
  EXPECT_EQ(dedup.size(), 1u);
}

TEST(DedupIndexTest, UntrackedSubmitsBypass) {
  DedupIndex dedup;
  dedup.Advance(0, 9);
  dedup.Advance(9, 0);
  EXPECT_EQ(dedup.size(), 0u);
  EXPECT_FALSE(dedup.IsDuplicate(0, 1));
  EXPECT_FALSE(dedup.IsDuplicate(0, 0));
}

TEST(DedupIndexTest, RevertOnlyWhenCurrent) {
  DedupIndex dedup;
  dedup.Advance(3, 4);
  // Stale revert (watermark moved past it): no-op.
  EXPECT_FALSE(dedup.Revert(3, 3));
  EXPECT_EQ(dedup.Watermark(3), 4u);
  // Current revert retreats by one, so the client's retry is admitted.
  EXPECT_TRUE(dedup.Revert(3, 4));
  EXPECT_EQ(dedup.Watermark(3), 3u);
  EXPECT_FALSE(dedup.IsDuplicate(3, 4));
}

TEST(DedupIndexTest, SaveStateRoundTripsAndIsDeterministic) {
  DedupIndex dedup;
  for (uint64_t client = 1; client <= 40; ++client) {
    dedup.Advance(client, client * 13 + 1);
  }
  SnapshotWriter a;
  dedup.SaveState(&a);

  DedupIndex restored;
  restored.Advance(99, 7);  // LoadState must replace, not merge.
  SnapshotReader reader(a.buffer());
  ASSERT_TRUE(restored.LoadState(&reader).ok());
  EXPECT_EQ(restored.size(), 40u);
  EXPECT_EQ(restored.Watermark(99), 0u);
  for (uint64_t client = 1; client <= 40; ++client) {
    EXPECT_EQ(restored.Watermark(client), client * 13 + 1);
  }

  // Equal contents serialize to identical bytes (sorted entries), which is
  // what makes replayed-state comparisons in the chaos tests meaningful.
  SnapshotWriter b;
  restored.SaveState(&b);
  ASSERT_EQ(a.buffer().size(), b.buffer().size());
  EXPECT_EQ(std::memcmp(a.buffer().data(), b.buffer().data(),
                        a.buffer().size()),
            0);
}

// ---------------------------------------------------------------------------
// IngestLog

class IngestLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("freeway_ingest_" +
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

  IngestLogOptions Options(size_t segment_max_bytes = 4u << 20) {
    IngestLogOptions opts;
    opts.directory = dir_.string();
    opts.segment_max_bytes = segment_max_bytes;
    return opts;
  }

  std::vector<IngestRecord> ReplayAll(const IngestLog& log) {
    std::vector<IngestRecord> records;
    Status replayed = log.Replay([&records](const IngestRecord& record) {
      records.push_back(record);
      return Status::OK();
    });
    EXPECT_TRUE(replayed.ok()) << replayed;
    return records;
  }

  fs::path dir_;
};

TEST_F(IngestLogTest, AppendReplayRoundTripIsBitIdentical) {
  IngestLog log(Options());
  ASSERT_TRUE(log.Open(nullptr).ok());
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    Result<uint64_t> lsn = log.Append(MakeRecord(11, seq, 42, 100 + seq));
    ASSERT_TRUE(lsn.ok()) << lsn.status();
    EXPECT_EQ(*lsn, seq);  // LSNs are monotone from 1.
  }
  EXPECT_EQ(log.last_lsn(), 5u);

  const std::vector<IngestRecord> records = ReplayAll(log);
  ASSERT_EQ(records.size(), 5u);
  for (size_t i = 0; i < records.size(); ++i) {
    const IngestRecord& r = records[i];
    EXPECT_EQ(r.lsn, i + 1);
    EXPECT_EQ(r.client_id, 11u);
    EXPECT_EQ(r.sequence, i + 1);
    EXPECT_EQ(r.stream_id, 42u);
    EXPECT_EQ(r.tenant_id, 7u);
    EXPECT_EQ(r.priority, 2);
    const Batch expected = MakeBatch(11 * 1000 + (i + 1), 101 + i);
    EXPECT_EQ(r.batch.index, expected.index);
    EXPECT_EQ(r.batch.labels, expected.labels);
    ASSERT_EQ(r.batch.features.rows(), expected.features.rows());
    for (size_t row = 0; row < 4; ++row) {
      for (size_t col = 0; col < 3; ++col) {
        const double a = r.batch.features.At(row, col);
        const double b = expected.features.At(row, col);
        EXPECT_EQ(std::memcmp(&a, &b, sizeof(a)), 0);
      }
    }
  }
}

TEST_F(IngestLogTest, ReopenRebuildsWatermarksAndContinuesLsns) {
  {
    IngestLog log(Options());
    DedupIndex dedup;
    ASSERT_TRUE(log.Open(&dedup).ok());
    ASSERT_TRUE(log.Append(MakeRecord(1, 1, 5, 1)).ok());
    ASSERT_TRUE(log.Append(MakeRecord(1, 2, 5, 2)).ok());
    ASSERT_TRUE(log.Append(MakeRecord(2, 1, 6, 3)).ok());
  }
  IngestLog log(Options());
  DedupIndex dedup;
  ASSERT_TRUE(log.Open(&dedup).ok());
  EXPECT_EQ(dedup.Watermark(1), 2u);
  EXPECT_EQ(dedup.Watermark(2), 1u);
  EXPECT_EQ(log.last_lsn(), 3u);
  // 3 batch records + the watermark snapshot heading the segment.
  EXPECT_EQ(log.stats().recovered_records, 4u);
  // Appending resumes with fresh LSNs, and a duplicate check against the
  // rebuilt table sees the pre-restart watermarks.
  Result<uint64_t> lsn = log.Append(MakeRecord(1, 3, 5, 4));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 4u);
  EXPECT_TRUE(dedup.IsDuplicate(1, 2));
}

TEST_F(IngestLogTest, TornTailIsTruncatedAndAppendResumes) {
  fs::path segment;
  uintmax_t full_size = 0;
  {
    IngestLog log(Options());
    ASSERT_TRUE(log.Open(nullptr).ok());
    ASSERT_TRUE(log.Append(MakeRecord(1, 1, 5, 1)).ok());
    ASSERT_TRUE(log.Append(MakeRecord(1, 2, 5, 2)).ok());
    for (const auto& entry : fs::directory_iterator(dir_)) {
      segment = entry.path();
    }
    full_size = fs::file_size(segment);
  }
  // Tear the tail: the process "died" with the last record half-written.
  fs::resize_file(segment, full_size - 7);

  IngestLog log(Options());
  DedupIndex dedup;
  ASSERT_TRUE(log.Open(&dedup).ok());
  EXPECT_EQ(log.stats().recovered_records, 1u);
  EXPECT_GT(log.stats().torn_bytes_truncated, 0u);
  // The torn record is gone for good — its watermark never advanced...
  EXPECT_EQ(dedup.Watermark(1), 1u);
  ASSERT_EQ(ReplayAll(log).size(), 1u);
  // ...and its LSN is reused by the next append, keeping LSNs dense.
  Result<uint64_t> lsn = log.Append(MakeRecord(1, 2, 5, 2));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 2u);
  EXPECT_EQ(ReplayAll(log).size(), 2u);
}

TEST_F(IngestLogTest, CorruptSealedSegmentFailsOpen) {
  {
    IngestLog log(Options());
    ASSERT_TRUE(log.Open(nullptr).ok());
    ASSERT_TRUE(log.Append(MakeRecord(1, 1, 5, 1)).ok());
    ASSERT_TRUE(log.Rotate().ok());
    ASSERT_TRUE(log.Append(MakeRecord(1, 2, 5, 2)).ok());
  }
  // Flip a payload bit in the *sealed* (first) segment: that is real
  // corruption, not a tear, and recovery must refuse to serve.
  fs::path sealed;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (sealed.empty() || entry.path() < sealed) sealed = entry.path();
  }
  {
    std::fstream file(sealed, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(-3, std::ios::end);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(-3, std::ios::end);
    byte = static_cast<char>(byte ^ 0x20);
    file.write(&byte, 1);
  }
  IngestLog log(Options());
  Status opened = log.Open(nullptr);
  ASSERT_FALSE(opened.ok());
}

TEST_F(IngestLogTest, RotatingAnEmptySegmentKeepsTheLog) {
  // The server's truncation sweep: rotate + TruncateBefore(coverage) each
  // time checkpoint coverage advances, here twice with no append between.
  {
    DedupIndex dedup;
    IngestLog log(Options());
    ASSERT_TRUE(log.Open(&dedup).ok());
    for (uint64_t seq = 1; seq <= 10; ++seq) {
      ASSERT_TRUE(log.Append(MakeRecord(1, seq, 5, seq)).ok());
      dedup.Advance(1, seq);
    }
    ASSERT_TRUE(log.Rotate().ok());
    ASSERT_TRUE(log.TruncateBefore(5).ok());
    ASSERT_TRUE(log.Rotate().ok());
    ASSERT_TRUE(log.TruncateBefore(10).ok());
    EXPECT_EQ(log.stats().segments, 1u);
    ASSERT_FALSE(fs::is_empty(dir_)) << "the active segment was deleted";
    ASSERT_TRUE(log.Append(MakeRecord(1, 11, 5, 11)).ok());
  }
  DedupIndex dedup;
  IngestLog log(Options());
  ASSERT_TRUE(log.Open(&dedup).ok());
  EXPECT_EQ(log.last_lsn(), 11u);
  EXPECT_EQ(dedup.Watermark(1), 11u);
  EXPECT_EQ(ReplayAll(log).size(), 1u);
}

TEST_F(IngestLogTest, RotationSnapshotsWatermarksForTruncation) {
  // Tiny segments force a rotation roughly every record.
  {
    IngestLog log(Options(/*segment_max_bytes=*/256));
    DedupIndex dedup;
    ASSERT_TRUE(log.Open(&dedup).ok());
    for (uint64_t seq = 1; seq <= 6; ++seq) {
      ASSERT_TRUE(log.Append(MakeRecord(3, seq, 9, 20 + seq)).ok());
    }
    EXPECT_GT(log.stats().rotations, 0u);
    EXPECT_GT(log.stats().segments, 1u);
    // Drop everything sealed before LSN 4. The survivors' head segments
    // carry watermark snapshots, so no history is lost.
    ASSERT_TRUE(log.TruncateBefore(4).ok());
    EXPECT_GT(log.stats().segments_pruned, 0u);
  }
  IngestLog log(Options(/*segment_max_bytes=*/256));
  DedupIndex dedup;
  ASSERT_TRUE(log.Open(&dedup).ok());
  // The full watermark survives even though early batch records are gone.
  EXPECT_EQ(dedup.Watermark(3), 6u);
  EXPECT_EQ(log.last_lsn(), 6u);
  const std::vector<IngestRecord> records = ReplayAll(log);
  ASSERT_FALSE(records.empty());
  EXPECT_LT(records.size(), 6u);  // Truncation really dropped segments.
  EXPECT_EQ(records.back().lsn, 6u);
}

TEST_F(IngestLogTest, RevertedRecordsAreSkippedOnReplayAndRecovery) {
  {
    IngestLog log(Options());
    DedupIndex dedup;
    ASSERT_TRUE(log.Open(&dedup).ok());
    ASSERT_TRUE(log.Append(MakeRecord(4, 1, 2, 1)).ok());
    dedup.Advance(4, 1);
    Result<uint64_t> lsn = log.Append(MakeRecord(4, 2, 2, 2));
    ASSERT_TRUE(lsn.ok());
    dedup.Advance(4, 2);
    // Admission rejected the second batch: watermark retreats and the log
    // records the cancellation.
    ASSERT_TRUE(dedup.Revert(4, 2));
    ASSERT_TRUE(log.AppendRevert(*lsn, 4, 2).ok());
    const std::vector<IngestRecord> records = ReplayAll(log);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].sequence, 1u);
  }
  IngestLog log(Options());
  DedupIndex dedup;
  ASSERT_TRUE(log.Open(&dedup).ok());
  // Recovery honours the revert: the client's retry of sequence 2 must not
  // be treated as a duplicate.
  EXPECT_EQ(dedup.Watermark(4), 1u);
  EXPECT_FALSE(dedup.IsDuplicate(4, 2));
  ASSERT_EQ(ReplayAll(log).size(), 1u);
}

TEST_F(IngestLogTest, ReadOnlyOpenReplaysButNeverWrites) {
  {
    IngestLog log(Options());
    ASSERT_TRUE(log.Open(nullptr).ok());
    ASSERT_TRUE(log.Append(MakeRecord(1, 1, 5, 1)).ok());
  }
  IngestLogOptions opts = Options();
  opts.read_only = true;
  IngestLog log(opts);
  ASSERT_TRUE(log.Open(nullptr).ok());
  ASSERT_EQ(ReplayAll(log).size(), 1u);
  EXPECT_FALSE(log.Append(MakeRecord(1, 2, 5, 2)).ok());
  EXPECT_FALSE(log.Rotate().ok());
}

TEST_F(IngestLogTest, ReadOnlyOpenOfMissingDirectoryIsEmpty) {
  IngestLogOptions opts = Options();
  opts.read_only = true;
  IngestLog log(opts);
  ASSERT_TRUE(log.Open(nullptr).ok());
  EXPECT_EQ(log.last_lsn(), 0u);
  EXPECT_TRUE(ReplayAll(log).empty());
}

TEST_F(IngestLogTest, AppendFailpointInjectsCleanly) {
  IngestLog log(Options());
  ASSERT_TRUE(log.Open(nullptr).ok());
  failpoint::Arm("ingest.append", {StatusCode::kIoError, "disk gone", 0, 1});
  Result<uint64_t> lsn = log.Append(MakeRecord(1, 1, 5, 1));
  ASSERT_FALSE(lsn.ok());
  EXPECT_EQ(lsn.status().code(), StatusCode::kIoError);
  // The failure consumed no LSN and left the log usable.
  Result<uint64_t> retry = log.Append(MakeRecord(1, 1, 5, 1));
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_EQ(*retry, 1u);
}

}  // namespace
}  // namespace freeway
