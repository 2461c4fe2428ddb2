#include "replication/raft_storage.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
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
constexpr size_t kRecordHeaderBytes = 8;
/// An entry payload above this is corruption, not data — matches the wire
/// protocol's frame bound, since every command arrived in one frame.
constexpr uint32_t kMaxEntryPayload = 64u << 20;

/// Entry payload section tag.
constexpr uint32_t kTagEntry = 0x544E4552;  // 'RENT'

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

class ScopedFd {
 public:
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_;
};

Status WriteAll(int fd, const char* data, size_t size,
                const std::string& path) {
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoMessage("raft: write failed for", path));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// pread of exactly `size` bytes at `offset`; false on error or short read.
bool ReadAt(int fd, char* data, size_t size, uint64_t offset) {
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::pread(fd, data + got, size - got,
                              static_cast<off_t>(offset + got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    got += static_cast<size_t>(n);
  }
  return true;
}

Status FsyncFd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) {
    return Status::IoError(ErrnoMessage("raft: fsync failed for", path));
  }
  return Status::OK();
}

Status FsyncPath(const std::string& path) {
  ScopedFd fd(::open(path.c_str(), O_RDONLY));
  if (fd.get() < 0) {
    return Status::IoError(ErrnoMessage("raft: open for fsync", path));
  }
  return FsyncFd(fd.get(), path);
}

void AppendU32(std::vector<char>* out, uint32_t v) {
  out->insert(out->end(), reinterpret_cast<const char*>(&v),
              reinterpret_cast<const char*>(&v) + sizeof(v));
}

void AppendU64(std::vector<char>* out, uint64_t v) {
  out->insert(out->end(), reinterpret_cast<const char*>(&v),
              reinterpret_cast<const char*>(&v) + sizeof(v));
}

std::vector<char> EncodeEntryPayload(const RaftEntry& entry) {
  SnapshotWriter writer;
  writer.WriteSection(kTagEntry);
  writer.WriteU64(entry.index);
  writer.WriteU64(entry.term);
  writer.WriteBlob(entry.command);
  return writer.Take();
}

Status DecodeEntryPayload(const char* data, size_t size, RaftEntry* entry) {
  SnapshotReader reader(std::span<const char>(data, size));
  RETURN_IF_ERROR(reader.ExpectSection(kTagEntry));
  RETURN_IF_ERROR(reader.ReadU64(&entry->index));
  RETURN_IF_ERROR(reader.ReadU64(&entry->term));
  RETURN_IF_ERROR(reader.ReadBlob(&entry->command));
  return reader.ExpectEnd();
}

}  // namespace

DurableRaftStorage::DurableRaftStorage(DurableRaftStorageOptions options)
    : options_(std::move(options)) {}

DurableRaftStorage::~DurableRaftStorage() {
  if (log_fd_ >= 0) ::close(log_fd_);
}

Status DurableRaftStorage::Open() {
  if (opened_) {
    return Status::FailedPrecondition("raft storage already opened");
  }
  if (options_.directory.empty()) {
    return Status::InvalidArgument("raft storage directory not set");
  }
  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  if (ec) {
    return Status::IoError("raft: cannot create directory " +
                           options_.directory + ": " + ec.message());
  }
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
  ssize_t n = ::read(fd.get(), buf, sizeof(buf));
  if (n != static_cast<ssize_t>(sizeof(buf))) {
    return Status::IoError("raft: state file " + path + " truncated (" +
                           std::to_string(n) + " bytes)");
  }
  uint32_t magic, version, crc;
  uint64_t term, voted_for;
  std::memcpy(&magic, buf, 4);
  std::memcpy(&version, buf + 4, 4);
  std::memcpy(&term, buf + 8, 8);
  std::memcpy(&voted_for, buf + 16, 8);
  std::memcpy(&crc, buf + 24, 4);
  if (magic != kStateMagic) {
    return Status::IoError("raft: state file " + path + " bad magic");
  }
  if (version != kFormatVersion) {
    return Status::IoError("raft: state file " + path +
                           " unsupported version " + std::to_string(version));
  }
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
  const fs::path final_path = fs::path(options_.directory) / "raft-state.dat";
  const fs::path tmp_path = fs::path(options_.directory) / "raft-state.tmp";
  std::vector<char> buf;
  buf.reserve(28);
  AppendU32(&buf, kStateMagic);
  AppendU32(&buf, kFormatVersion);
  AppendU64(&buf, term_);
  AppendU64(&buf, voted_for_);
  AppendU32(&buf, Crc32(buf.data() + 8, 16));
  {
    ScopedFd fd(::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
    if (fd.get() < 0) {
      return Status::IoError(
          ErrnoMessage("raft: create state tmp", tmp_path.string()));
    }
    RETURN_IF_ERROR(
        WriteAll(fd.get(), buf.data(), buf.size(), tmp_path.string()));
    if (options_.fsync) {
      RETURN_IF_ERROR(FsyncFd(fd.get(), tmp_path.string()));
    }
  }
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    return Status::IoError("raft: rename state to " + final_path.string() +
                           ": " + ec.message());
  }
  if (options_.fsync) {
    RETURN_IF_ERROR(FsyncPath(options_.directory));
  }
  return Status::OK();
}

Status DurableRaftStorage::LoadLog() {
  const std::string path =
      (fs::path(options_.directory) / "raft-log.dat").string();
  ScopedFd fd(::open(path.c_str(), O_RDWR | O_CREAT, 0644));
  if (fd.get() < 0) {
    return Status::IoError(ErrnoMessage("raft: open log", path));
  }
  std::error_code ec;
  const uint64_t file_size = fs::file_size(path, ec);
  if (ec) {
    return Status::IoError("raft: stat log " + path + ": " + ec.message());
  }
  resident_.clear();
  term_runs_.clear();
  last_index_ = 0;
  entry_offsets_.clear();

  if (file_size == 0) {
    // Fresh log: write the header.
    std::vector<char> header;
    AppendU32(&header, kLogMagic);
    AppendU32(&header, kFormatVersion);
    RETURN_IF_ERROR(WriteAll(fd.get(), header.data(), header.size(), path));
    if (options_.fsync) RETURN_IF_ERROR(FsyncFd(fd.get(), path));
    entry_offsets_.push_back(kLogHeaderBytes);
    log_fd_ = fd.Release();
    return Status::OK();
  }
  if (file_size < kLogHeaderBytes) {
    return Status::IoError("raft: log " + path + " shorter than its header");
  }
  char header[kLogHeaderBytes];
  if (!ReadAt(fd.get(), header, sizeof(header), 0)) {
    return Status::IoError(ErrnoMessage("raft: read log", path));
  }
  uint32_t magic, version;
  std::memcpy(&magic, header, 4);
  std::memcpy(&version, header + 4, 4);
  if (magic != kLogMagic) {
    return Status::IoError("raft: log " + path + " bad magic");
  }
  if (version != kFormatVersion) {
    return Status::IoError("raft: log " + path + " unsupported version " +
                           std::to_string(version));
  }
  // Scan records one at a time, keeping only terms and offsets (payloads
  // are read back on demand); the first invalid record is a torn tail —
  // truncate there.
  uint64_t offset = kLogHeaderBytes;
  entry_offsets_.push_back(offset);
  std::vector<char> payload;
  while (offset + kRecordHeaderBytes <= file_size) {
    char record_header[kRecordHeaderBytes];
    if (!ReadAt(fd.get(), record_header, kRecordHeaderBytes, offset)) {
      return Status::IoError(ErrnoMessage("raft: read log", path));
    }
    uint32_t payload_size, crc;
    std::memcpy(&payload_size, record_header, 4);
    std::memcpy(&crc, record_header + 4, 4);
    if (payload_size == 0 || payload_size > kMaxEntryPayload ||
        offset + kRecordHeaderBytes + payload_size > file_size) {
      break;  // torn
    }
    payload.resize(payload_size);
    if (!ReadAt(fd.get(), payload.data(), payload_size,
                offset + kRecordHeaderBytes)) {
      return Status::IoError(ErrnoMessage("raft: read log", path));
    }
    if (Crc32(payload.data(), payload_size) != crc) break;  // torn
    RaftEntry entry;
    Status parsed = DecodeEntryPayload(payload.data(), payload_size, &entry);
    if (!parsed.ok()) break;  // torn
    if (entry.index != last_index_ + 1) {
      return Status::IoError("raft: log " + path + " entry index " +
                             std::to_string(entry.index) +
                             " breaks density at position " +
                             std::to_string(last_index_ + 1));
    }
    ExtendTo(entry.index, entry.term);
    offset += kRecordHeaderBytes + payload_size;
    entry_offsets_.push_back(offset);
  }
  if (offset < file_size) {
    torn_bytes_truncated_ = file_size - offset;
    FREEWAY_LOG(kWarning) << "raft: truncating torn log tail of "
                          << torn_bytes_truncated_ << " bytes in " << path;
    if (::ftruncate(fd.get(), static_cast<off_t>(offset)) != 0) {
      return Status::IoError(ErrnoMessage("raft: truncate torn tail", path));
    }
  }
  if (::lseek(fd.get(), static_cast<off_t>(offset), SEEK_SET) < 0) {
    return Status::IoError(ErrnoMessage("raft: seek log", path));
  }
  log_fd_ = fd.Release();
  return Status::OK();
}

RaftEntry DurableRaftStorage::ReadBack(uint64_t index) const {
  FREEWAY_DCHECK(index >= 1 && index < entry_offsets_.size())
      << "raft read-back index " << index << " out of range";
  const uint64_t offset = entry_offsets_[index - 1];
  const size_t record_size =
      static_cast<size_t>(entry_offsets_[index] - offset);
  std::vector<char> record(record_size);
  RaftEntry entry;
  // Every byte here passed its CRC on append or at Open(); failing now
  // means the file changed under a live node, and it cannot serve its log.
  const bool read = ReadAt(log_fd_, record.data(), record_size, offset);
  FREEWAY_DCHECK(read) << "raft: read-back of entry " << index
                       << " failed: " << std::strerror(errno);
  uint32_t crc;
  std::memcpy(&crc, record.data() + 4, 4);
  const char* payload = record.data() + kRecordHeaderBytes;
  const size_t payload_size = record_size - kRecordHeaderBytes;
  const bool intact =
      Crc32(payload, payload_size) == crc &&
      DecodeEntryPayload(payload, payload_size, &entry).ok() &&
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
  const std::string path =
      (fs::path(options_.directory) / "raft-log.dat").string();
  std::vector<char> payload = EncodeEntryPayload(entry);
  std::vector<char> record;
  record.reserve(kRecordHeaderBytes + payload.size());
  AppendU32(&record, static_cast<uint32_t>(payload.size()));
  AppendU32(&record, Crc32(payload.data(), payload.size()));
  record.insert(record.end(), payload.begin(), payload.end());
  RETURN_IF_ERROR(WriteAll(log_fd_, record.data(), record.size(), path));
  if (options_.fsync) RETURN_IF_ERROR(FsyncFd(log_fd_, path));
  entry_offsets_.push_back(entry_offsets_.back() + record.size());
  return Status::OK();
}

Status DurableRaftStorage::PersistTruncateSuffix(uint64_t from_index) {
  RETURN_IF_ERROR(
      failpoint::Check(options_.failpoint_scope + "raft.persist"));
  const std::string path =
      (fs::path(options_.directory) / "raft-log.dat").string();
  FREEWAY_DCHECK(from_index >= 1 && from_index <= entry_offsets_.size())
      << "raft truncate index " << from_index << " out of range";
  FREEWAY_DCHECK(from_index > release_floor_)
      << "raft truncate at " << from_index << " would cut applied entries "
      << "(applied through " << release_floor_ << ")";
  const uint64_t offset = entry_offsets_[from_index - 1];
  if (::ftruncate(log_fd_, static_cast<off_t>(offset)) != 0) {
    return Status::IoError(ErrnoMessage("raft: truncate log", path));
  }
  if (::lseek(log_fd_, static_cast<off_t>(offset), SEEK_SET) < 0) {
    return Status::IoError(ErrnoMessage("raft: seek log", path));
  }
  if (options_.fsync) RETURN_IF_ERROR(FsyncFd(log_fd_, path));
  entry_offsets_.resize(from_index);
  return Status::OK();
}

}  // namespace freeway
