#include "replication/raft_storage.h"

#include <fcntl.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>

#include "common/logging.h"
#include "fault/failpoint.h"
#include "stream/batch_codec.h"

namespace freeway {

namespace fs = std::filesystem;

namespace {

constexpr uint32_t kStateMagic = 0x53525746;  // 'FWRS'
constexpr uint32_t kLogMagic = 0x4C525746;    // 'FWRL'
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kLogHeaderBytes = 8;
/// An entry payload above this is corruption, not data — matches the wire
/// protocol's frame bound, since every command arrived in one frame.
constexpr uint32_t kMaxEntryPayload = 64u << 20;

/// Entry payload section tag.
constexpr uint32_t kTagEntry = 0x544E4552;  // 'RENT'

std::vector<char> EncodeEntryPayload(const RaftEntry& entry) {
  SnapshotWriter writer;
  writer.WriteSection(kTagEntry);
  writer.WriteU64(entry.index);
  writer.WriteU64(entry.term);
  writer.WriteBlob(entry.command);
  return writer.Take();
}

Status DecodeEntryPayload(std::span<const char> payload, RaftEntry* entry) {
  SnapshotReader reader(payload);
  RETURN_IF_ERROR(reader.ExpectSection(kTagEntry));
  RETURN_IF_ERROR(reader.ReadU64(&entry->index));
  RETURN_IF_ERROR(reader.ReadU64(&entry->term));
  RETURN_IF_ERROR(reader.ReadBlob(&entry->command));
  return reader.ExpectEnd();
}

}  // namespace

DurableRaftStorage::DurableRaftStorage(DurableRaftStorageOptions options)
    : options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    metric_append_seconds_ =
        options_.metrics->GetHistogram("freeway_raft_append_seconds");
  }
}

DurableRaftStorage::~DurableRaftStorage() = default;

Status DurableRaftStorage::Open() {
  if (opened_) {
    return Status::FailedPrecondition("raft storage already opened");
  }
  if (options_.directory.empty()) {
    return Status::InvalidArgument("raft storage directory not set");
  }
  RETURN_IF_ERROR(CreateDirectories(options_.directory));
  RETURN_IF_ERROR(LoadHardState());
  RETURN_IF_ERROR(LoadLog());
  opened_ = true;
  return Status::OK();
}

Status DurableRaftStorage::LoadHardState() {
  const std::string path =
      (fs::path(options_.directory) / "raft-state.dat").string();
  ScopedFd fd(::open(path.c_str(), O_RDONLY));
  if (fd.get() < 0) {
    if (errno == ENOENT) {
      term_ = 0;
      voted_for_ = 0;
      return Status::OK();  // fresh node
    }
    return Status::IoError(ErrnoMessage("raft: open state", path));
  }
  char buf[28];
  RETURN_IF_ERROR(
      ReadFileHead(fd.get(), buf, kStateMagic, kFormatVersion, path));
  uint32_t crc;
  uint64_t term, voted_for;
  std::memcpy(&term, buf + 8, 8);
  std::memcpy(&voted_for, buf + 16, 8);
  std::memcpy(&crc, buf + 24, 4);
  if (crc != Crc32(buf + 8, 16)) {
    return Status::IoError("raft: state file " + path + " CRC mismatch");
  }
  term_ = term;
  voted_for_ = voted_for;
  return Status::OK();
}

Status DurableRaftStorage::PersistHardState() {
  RETURN_IF_ERROR(
      failpoint::Check(options_.failpoint_scope + "raft.persist"));
  SnapshotWriter state;
  state.WriteSection(kStateMagic, kFormatVersion);
  state.WriteU64(term_);
  state.WriteU64(voted_for_);
  state.WriteU32(Crc32(state.buffer().data() + 8, 16));
  return WriteFileAtomically(
      (fs::path(options_.directory) / "raft-state.dat").string(),
      {state.buffer()}, options_.fsync);
}

Status DurableRaftStorage::LoadLog() {
  const std::string path =
      (fs::path(options_.directory) / "raft-log.dat").string();
  RETURN_IF_ERROR(log_.Open(path, kLogHeaderBytes, /*create=*/true));
  const int fd = log_.fd();
  ASSIGN_OR_RETURN(const uint64_t file_size, FileSize(fd, path));
  resident_.clear();
  term_runs_.clear();
  last_index_ = 0;
  entry_offsets_.assign(1, kLogHeaderBytes);

  if (file_size == 0) {
    // Fresh log: write the header.
    SnapshotWriter header;
    header.WriteSection(kLogMagic, kFormatVersion);
    RETURN_IF_ERROR(WriteAll(fd, 0, header.buffer(), path));
    return options_.fsync ? log_.Sync() : Status::OK();
  }
  char header[kLogHeaderBytes];
  RETURN_IF_ERROR(ReadFileHead(fd, header, kLogMagic, kFormatVersion, path));
  // Scan frames in order, keeping only terms and offsets (payloads are
  // read back on demand). The first invalid frame is a torn tail, and so
  // is a CRC-valid one that does not decode: truncate there.
  FrameReader frames(fd, path, kLogHeaderBytes, file_size, kMaxEntryPayload);
  uint64_t valid_end = kLogHeaderBytes;
  while (true) {
    ASSIGN_OR_RETURN(const bool more, frames.Next());
    if (!more) {
      valid_end = frames.valid_end();
      break;
    }
    RaftEntry entry;
    if (!DecodeEntryPayload(frames.payload(), &entry).ok()) {
      valid_end = frames.frame_offset();
      break;
    }
    if (entry.index != last_index_ + 1) {
      return Status::IoError("raft: log " + path + " entry index " +
                             std::to_string(entry.index) +
                             " breaks density at position " +
                             std::to_string(last_index_ + 1));
    }
    ExtendTo(entry.index, entry.term);
    entry_offsets_.push_back(frames.valid_end());
  }
  if (valid_end < file_size) {
    torn_bytes_truncated_ = file_size - valid_end;
    FREEWAY_LOG(kWarning) << "raft: truncating torn log tail of "
                          << torn_bytes_truncated_ << " bytes in " << path;
  }
  // Appends resume after the last valid entry.
  return log_.Truncate(valid_end, /*fsync=*/false);
}

RaftEntry DurableRaftStorage::ReadBack(uint64_t index) const {
  FREEWAY_DCHECK(index >= 1 && index < entry_offsets_.size())
      << "raft read-back index " << index << " out of range";
  // Every byte here passed its CRC on append or at Open(); failing now
  // means the file changed under a live node, and it cannot serve its log.
  FrameReader frames(log_.fd(), log_.path(), entry_offsets_[index - 1],
                     entry_offsets_[index], kMaxEntryPayload);
  const Result<bool> read = frames.Next();
  FREEWAY_DCHECK(read.ok()) << "raft: read-back of entry " << index
                            << " failed: " << read.status();
  RaftEntry entry;
  const bool intact = read.ok() && *read &&
                      DecodeEntryPayload(frames.payload(), &entry).ok() &&
                      entry.index == index;
  FREEWAY_DCHECK(intact) << "raft: entry " << index
                         << " is corrupt on read-back";
  return entry;
}

void DurableRaftStorage::ReleaseThrough(uint64_t applied) {
  const uint64_t through = std::min(applied, last_index_);
  if (through <= release_floor_) return;
  release_floor_ = through;
  while (!resident_.empty() && resident_.front().index <= through) {
    resident_.pop_front();
  }
}

Status DurableRaftStorage::PersistAppend(const RaftEntry& entry) {
  RETURN_IF_ERROR(
      failpoint::Check(options_.failpoint_scope + "raft.persist"));
  const auto start = std::chrono::steady_clock::now();
  RETURN_IF_ERROR(log_.Append(EncodeEntryPayload(entry), options_.fsync));
  entry_offsets_.push_back(log_.size());
  if (metric_append_seconds_ != nullptr) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    metric_append_seconds_->Observe(elapsed.count());
  }
  return Status::OK();
}

Status DurableRaftStorage::PersistTruncateSuffix(uint64_t from_index) {
  RETURN_IF_ERROR(
      failpoint::Check(options_.failpoint_scope + "raft.persist"));
  FREEWAY_DCHECK(from_index >= 1 && from_index <= entry_offsets_.size())
      << "raft truncate index " << from_index << " out of range";
  FREEWAY_DCHECK(from_index > release_floor_)
      << "raft truncate at " << from_index << " would cut applied entries "
      << "(applied through " << release_floor_ << ")";
  RETURN_IF_ERROR(
      log_.Truncate(entry_offsets_[from_index - 1], options_.fsync));
  entry_offsets_.resize(from_index);
  return Status::OK();
}

}  // namespace freeway
