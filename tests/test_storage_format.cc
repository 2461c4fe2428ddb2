// The on-disk formats of the three durable stores — the ingest log, the
// raft storage and the checkpoint store — pinned byte for byte, and their
// recovery paths fed seeded mutations of those bytes.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "common/logging.h"
#include "fault/checkpoint.h"
#include "ingest/dedup.h"
#include "ingest/ingest_log.h"
#include "replication/command.h"
#include "replication/raft_storage.h"

namespace freeway {
namespace {

namespace fs = std::filesystem;

std::vector<char> ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteBytes(const fs::path& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint64_t Fnv1a(const std::vector<char>& bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// A batch fixed by its index alone (exact binary fractions, no RNG).
Batch FixedBatch(int64_t index) {
  Batch batch;
  batch.index = index;
  batch.features = Matrix(3, 2);
  batch.labels = {0, 1, static_cast<int>(index % 2)};
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      batch.features.At(i, j) =
          static_cast<double>(index) + 0.5 * static_cast<double>(i) -
          0.25 * static_cast<double>(j);
    }
  }
  return batch;
}

IngestRecord FixedRecord(uint64_t client_id, uint64_t sequence) {
  IngestRecord record;
  record.client_id = client_id;
  record.sequence = sequence;
  record.stream_id = 100 + client_id;
  record.tenant_id = 3;
  record.priority = 2;
  record.batch = FixedBatch(static_cast<int64_t>(client_id * 10 + sequence));
  return record;
}

bool SameRecord(const IngestRecord& a, const IngestRecord& b) {
  return a.client_id == b.client_id && a.sequence == b.sequence &&
         a.stream_id == b.stream_id && a.tenant_id == b.tenant_id &&
         a.priority == b.priority && a.batch.index == b.batch.index &&
         a.batch.labels == b.batch.labels &&
         a.batch.features.rows() == b.batch.features.rows() &&
         a.batch.features.cols() == b.batch.features.cols() &&
         std::memcmp(a.batch.features.data(), b.batch.features.data(),
                     a.batch.features.size() * sizeof(double)) == 0;
}

std::vector<char> Cmd(const std::string& s) {
  return std::vector<char>(s.begin(), s.end());
}

/// The golden ingest log: a first segment headed by a watermark snapshot
/// holding three batch records and a revert, one rotation, then a second
/// segment (headed by the rebuilt watermarks) holding two more batches.
/// Returns what Replay yields for it.
std::vector<IngestRecord> WriteGoldenIngestLog(const fs::path& dir) {
  IngestLogOptions options;
  options.directory = dir.string();
  DedupIndex dedup;
  IngestLog log(options);
  EXPECT_TRUE(log.Open(&dedup).ok());
  auto append = [&](uint64_t client_id, uint64_t sequence) {
    Result<uint64_t> lsn = log.Append(FixedRecord(client_id, sequence));
    EXPECT_TRUE(lsn.ok()) << lsn.status();
    dedup.Advance(client_id, sequence);
    return lsn.ok() ? *lsn : 0;
  };
  append(1, 1);
  append(2, 1);
  const uint64_t overloaded = append(1, 2);
  EXPECT_TRUE(log.AppendRevert(overloaded, 1, 2).ok());
  dedup.Revert(1, 2);
  EXPECT_TRUE(log.Rotate().ok());
  append(1, 2);
  append(2, 2);
  return {FixedRecord(1, 1), FixedRecord(2, 1), FixedRecord(1, 2),
          FixedRecord(2, 2)};
}

constexpr uint64_t kGoldenTerm = 2;
constexpr uint64_t kGoldenVote = 3;

/// The golden raft storage: hard state, five entries, a suffix truncation
/// from index 4 and two replacement entries from a later term, then a
/// second hard-state write. Returns the surviving entries.
std::vector<RaftEntry> WriteGoldenRaftStorage(const fs::path& dir) {
  DurableRaftStorageOptions options;
  options.directory = dir.string();
  DurableRaftStorage storage(options);
  EXPECT_TRUE(storage.Open().ok());
  EXPECT_TRUE(storage.SetHardState(1, 1).ok());
  std::vector<RaftEntry> entries;
  for (uint64_t i = 1; i <= 5; ++i) {
    entries.push_back({i, 1, Cmd("entry-" + std::to_string(i))});
  }
  EXPECT_TRUE(storage.Append(entries).ok());
  EXPECT_TRUE(storage.TruncateSuffix(4).ok());
  entries.resize(3);
  const std::vector<RaftEntry> replacements = {{4, 2, Cmd("entry-4b")},
                                               {5, 2, Cmd("entry-5b")}};
  EXPECT_TRUE(storage.Append(replacements).ok());
  entries.insert(entries.end(), replacements.begin(), replacements.end());
  EXPECT_TRUE(storage.SetHardState(kGoldenTerm, kGoldenVote).ok());
  return entries;
}

std::vector<char> GoldenCheckpointPayload() {
  std::vector<char> payload(300);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 7 + 3) & 0xff);
  }
  return payload;
}

/// Writes the golden checkpoint and returns its path.
fs::path WriteGoldenCheckpoint(const fs::path& dir) {
  CheckpointStoreOptions options;
  options.directory = dir.string();
  options.fsync = false;
  CheckpointStore store(options);
  EXPECT_TRUE(store.Write("golden", GoldenCheckpointPayload()).ok());
  return dir / "golden-1.ckpt";
}

class StorageFormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("freeway_storage_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Expects `file` in `dir` to hold exactly `size` bytes with FNV-1a
  /// digest `digest` (values recorded from the original writers).
  void ExpectPinned(const fs::path& dir, const std::string& file,
                    uint64_t size, uint64_t digest) {
    const std::vector<char> bytes = ReadBytes(dir / file);
    EXPECT_EQ(bytes.size(), size) << file;
    EXPECT_EQ(Fnv1a(bytes), digest)
        << file << " digest 0x" << std::hex << Fnv1a(bytes);
  }

  size_t FileCount(const fs::path& dir) {
    return static_cast<size_t>(std::distance(fs::directory_iterator(dir),
                                             fs::directory_iterator()));
  }

  fs::path dir_;
};

TEST_F(StorageFormatTest, IngestLogSegmentsAreByteIdentical) {
  WriteGoldenIngestLog(dir_);
  EXPECT_EQ(FileCount(dir_), 2u);
  ExpectPinned(dir_, "ingest-1.seg", 584, 0x9cd29ca00b8b2640ull);
  ExpectPinned(dir_, "ingest-5.seg", 408, 0xef56d043158882bbull);
}

TEST_F(StorageFormatTest, RaftStateAndLogAreByteIdentical) {
  WriteGoldenRaftStorage(dir_);
  EXPECT_EQ(FileCount(dir_), 2u);
  ExpectPinned(dir_, "raft-state.dat", 28, 0x5af613039d4fe20aull);
  ExpectPinned(dir_, "raft-log.dat", 245, 0xedce00eed24db291ull);
}

TEST_F(StorageFormatTest, CheckpointFileIsByteIdenticalWithZeroPadding) {
  const fs::path path = WriteGoldenCheckpoint(dir_);
  EXPECT_EQ(FileCount(dir_), 1u);
  const std::vector<char> bytes = ReadBytes(path);
  ASSERT_GE(bytes.size(), 24u);
  for (size_t i = 20; i < 24; ++i) {
    EXPECT_EQ(bytes[i], 0) << "header padding byte " << i;
  }
  // Recorded with bytes 20-23 zero: the original writer copied them from
  // uninitialised struct padding.
  ExpectPinned(dir_, "golden-1.ckpt", 324, 0x3d3be428abc12716ull);
}

TEST_F(StorageFormatTest, ReplicatedBatchCommandIsByteIdentical) {
  ReplicatedCommand command;
  command.kind = CommandKind::kBatch;
  command.record = FixedRecord(7, 9);
  const std::vector<char> bytes = EncodeCommand(command);
  EXPECT_EQ(bytes.size(), 144u);
  EXPECT_EQ(Fnv1a(bytes), 0xabba6d28b74c2551ull)
      << "digest 0x" << std::hex << Fnv1a(bytes);
  ReplicatedCommand decoded;
  ASSERT_TRUE(DecodeCommand(bytes, &decoded).ok());
  EXPECT_EQ(decoded.kind, CommandKind::kBatch);
  EXPECT_TRUE(SameRecord(decoded.record, command.record));
}

TEST(ReplicatedCommandTest, PriorityAbove255IsRejected) {
  // A batch command as a peer would send it, with a priority no SUBMIT
  // can carry. It must not decode as priority 256 mod 256 = 0.
  SnapshotWriter writer;
  writer.WriteSection(0x54414252);  // 'RBAT'
  writer.WriteU64(7);               // client_id
  writer.WriteU64(9);               // sequence
  writer.WriteU64(107);             // stream_id
  writer.WriteU32(3);               // tenant_id
  writer.WriteU32(256);             // priority
  writer.WriteBatch(FixedBatch(1));
  ReplicatedCommand decoded;
  const Status status = DecodeCommand(writer.Take(), &decoded);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
}

// ---------------------------------------------------------------------------
// Hostile bytes: seeded mutants of the golden files through each recovery
// path. Every mutant must come back as a Status or as a prefix of the
// original records — never an abort, never a record that was not written.

constexpr int kMutantsPerReader = 2400;

enum MutationKind { kBitFlip, kTruncate, kInflateLength, kAppendGarbage };

/// Byte offsets of the u32 size field of every frame in a log file whose
/// frames start at `first_frame`.
std::vector<size_t> FrameSizeFields(const std::vector<char>& bytes,
                                    size_t first_frame) {
  std::vector<size_t> fields;
  size_t pos = first_frame;
  while (pos + 8 <= bytes.size()) {
    fields.push_back(pos);
    uint32_t size = 0;
    std::memcpy(&size, bytes.data() + pos, 4);
    pos += 8 + size;
  }
  return fields;
}

/// Applies mutation `kind` to `bytes`. Inflation raises one length field
/// (`width` bytes wide, at one of `length_fields`) to a larger value.
std::vector<char> Mutate(std::vector<char> bytes, MutationKind kind,
                         const std::vector<size_t>& length_fields,
                         size_t width, std::mt19937_64& rng) {
  switch (kind) {
    case kBitFlip:
      bytes[rng() % bytes.size()] ^= static_cast<char>(1u << (rng() % 8));
      break;
    case kTruncate:
      bytes.resize(rng() % bytes.size());
      break;
    case kInflateLength: {
      const size_t at = length_fields[rng() % length_fields.size()];
      uint64_t value = 0;
      std::memcpy(&value, bytes.data() + at, width);
      const uint64_t max = width == 4 ? UINT32_MAX : UINT64_MAX;
      value += 1 + rng() % (max - value);
      std::memcpy(bytes.data() + at, &value, width);
      break;
    }
    case kAppendGarbage: {
      const size_t extra = 1 + rng() % 64;
      for (size_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<char>(rng() & 0xff));
      }
      break;
    }
  }
  return bytes;
}

class StorageMutationTest : public StorageFormatTest {
 protected:
  // Each recovered torn tail logs a warning; thousands would bury the run.
  void SetUp() override {
    StorageFormatTest::SetUp();
    saved_level_ = GetLogLevel();
    SetLogLevel(LogLevel::kError);
  }
  void TearDown() override {
    SetLogLevel(saved_level_);
    StorageFormatTest::TearDown();
  }

  /// Fresh, empty directory for one mutant.
  fs::path MutantDir() {
    const fs::path dir = dir_ / "mutant";
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
  }

  void ReportTiming(const char* reader,
                    std::chrono::steady_clock::time_point start) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    std::cout << reader << ": " << kMutantsPerReader << " mutants in "
              << elapsed.count() << " s\n";
  }

  LogLevel saved_level_ = LogLevel::kInfo;
};

TEST_F(StorageMutationTest, IngestLogOpenSurvivesHostileBytes) {
  const fs::path golden_dir = dir_ / "golden";
  const std::vector<IngestRecord> golden = WriteGoldenIngestLog(golden_dir);
  const std::vector<std::string> files = {"ingest-1.seg", "ingest-5.seg"};
  std::vector<std::vector<char>> originals;
  for (const std::string& file : files) {
    originals.push_back(ReadBytes(golden_dir / file));
  }
  std::mt19937_64 rng(20261020);
  const auto start = std::chrono::steady_clock::now();
  int opened = 0;
  for (int m = 0; m < kMutantsPerReader; ++m) {
    const size_t target = static_cast<size_t>(m / 4) % files.size();
    const auto kind = static_cast<MutationKind>(m % 4);
    const fs::path dir = MutantDir();
    for (size_t f = 0; f < files.size(); ++f) {
      WriteBytes(dir / files[f],
                 f != target ? originals[f]
                             : Mutate(originals[f], kind,
                                      FrameSizeFields(originals[f], 16), 4,
                                      rng));
    }
    IngestLogOptions options;
    options.directory = dir.string();
    IngestLog log(options);
    DedupIndex dedup;
    const Status status = log.Open(&dedup);
    if (target == 0) {
      // The first segment is sealed: no mutation of it is a torn tail.
      EXPECT_FALSE(status.ok()) << "mutant " << m << " (kind " << kind
                                << ") of the sealed segment opened";
      continue;
    }
    if (!status.ok()) continue;
    ++opened;
    std::vector<IngestRecord> replayed;
    ASSERT_TRUE(log.Replay([&](const IngestRecord& record) {
                     replayed.push_back(record);
                     return Status::OK();
                   })
                    .ok());
    ASSERT_LE(replayed.size(), golden.size()) << "mutant " << m;
    for (size_t i = 0; i < replayed.size(); ++i) {
      EXPECT_TRUE(SameRecord(replayed[i], golden[i]))
          << "mutant " << m << " record " << i;
    }
  }
  ReportTiming("IngestLog::Open", start);
  EXPECT_GT(opened, 0);  // Torn tails of the active segment do recover.
}

TEST_F(StorageMutationTest, RaftStorageOpenSurvivesHostileBytes) {
  const fs::path golden_dir = dir_ / "golden";
  const std::vector<RaftEntry> golden = WriteGoldenRaftStorage(golden_dir);
  const std::vector<std::string> files = {"raft-state.dat", "raft-log.dat"};
  std::vector<std::vector<char>> originals;
  for (const std::string& file : files) {
    originals.push_back(ReadBytes(golden_dir / file));
  }
  // The state file has no frames; its "length field" mutant inflates the
  // term instead, which the CRC must catch.
  const std::vector<std::vector<size_t>> length_fields = {
      {8}, FrameSizeFields(originals[1], 8)};
  std::mt19937_64 rng(20261021);
  const auto start = std::chrono::steady_clock::now();
  int opened = 0;
  for (int m = 0; m < kMutantsPerReader; ++m) {
    const size_t target = static_cast<size_t>(m / 4) % files.size();
    const auto kind = static_cast<MutationKind>(m % 4);
    const fs::path dir = MutantDir();
    for (size_t f = 0; f < files.size(); ++f) {
      WriteBytes(dir / files[f],
                 f != target ? originals[f]
                             : Mutate(originals[f], kind, length_fields[f],
                                      4, rng));
    }
    DurableRaftStorageOptions options;
    options.directory = dir.string();
    DurableRaftStorage storage(options);
    if (!storage.Open().ok()) continue;
    ++opened;
    EXPECT_EQ(storage.current_term(), kGoldenTerm) << "mutant " << m;
    EXPECT_EQ(storage.voted_for(), kGoldenVote) << "mutant " << m;
    ASSERT_LE(storage.last_index(), golden.size()) << "mutant " << m;
    for (uint64_t i = 1; i <= storage.last_index(); ++i) {
      const RaftEntry entry = storage.At(i);
      EXPECT_EQ(entry.term, golden[i - 1].term) << "mutant " << m;
      EXPECT_EQ(entry.command, golden[i - 1].command) << "mutant " << m;
    }
  }
  ReportTiming("DurableRaftStorage::Open", start);
  EXPECT_GT(opened, 0);
}

TEST_F(StorageMutationTest, CheckpointReadFileSurvivesHostileBytes) {
  const fs::path original_path = WriteGoldenCheckpoint(dir_ / "golden");
  const std::vector<char> original = ReadBytes(original_path);
  const std::vector<char> payload = GoldenCheckpointPayload();
  std::mt19937_64 rng(20261022);
  const auto start = std::chrono::steady_clock::now();
  const fs::path path = MutantDir() / "golden-1.ckpt";
  int accepted = 0;
  for (int m = 0; m < kMutantsPerReader; ++m) {
    const auto kind = static_cast<MutationKind>(m % 4);
    // The checkpoint's one length field is the u64 payload size.
    WriteBytes(path, Mutate(original, kind, {8}, 8, rng));
    Result<std::vector<char>> read = CheckpointStore::ReadFile(path.string());
    if (!read.ok()) continue;
    // Only a flip in the ignored header padding may still validate.
    ++accepted;
    EXPECT_EQ(*read, payload) << "mutant " << m;
  }
  ReportTiming("CheckpointStore::ReadFile", start);
  EXPECT_LT(accepted, kMutantsPerReader / 10);
}

}  // namespace
}  // namespace freeway
