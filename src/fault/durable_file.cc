#include "fault/durable_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/logging.h"
#include "stream/batch_codec.h"

namespace freeway {

namespace fs = std::filesystem;

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

void ScopedFd::Reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Status WriteAll(int fd, uint64_t offset, std::span<const char> data,
                const std::string& path) {
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::pwrite(fd, data.data() + written, data.size() - written,
                               static_cast<off_t>(offset + written));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoMessage("write failed for", path));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadExact(int fd, uint64_t offset, char* data, size_t size,
                 const std::string& path) {
  size_t got = 0;
  while (got < size) {
    const ssize_t n =
        ::pread(fd, data + got, size - got, static_cast<off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoMessage("read failed for", path));
    }
    if (n == 0) {
      return Status::InvalidArgument("truncated file " + path + " (" +
                                     std::to_string(offset + got) + " bytes)");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadFileHead(int fd, std::span<char> head, uint32_t magic,
                    uint32_t version, const std::string& path) {
  RETURN_IF_ERROR(ReadExact(fd, 0, head.data(), head.size(), path));
  uint32_t found_magic = 0;
  uint32_t found_version = 0;
  std::memcpy(&found_magic, head.data(), 4);
  std::memcpy(&found_version, head.data() + 4, 4);
  if (found_magic != magic) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  if (found_version != version) {
    return Status::InvalidArgument("unsupported format version " +
                                   std::to_string(found_version) + " in " +
                                   path);
  }
  return Status::OK();
}

Result<uint64_t> FileSize(int fd, const std::string& path) {
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Status::IoError(ErrnoMessage("cannot stat", path));
  }
  return static_cast<uint64_t>(st.st_size);
}

Status FsyncFd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) {
    return Status::IoError(ErrnoMessage("fsync failed for", path));
  }
  return Status::OK();
}

Status FsyncPath(const std::string& path) {
  ScopedFd fd(::open(path.c_str(), O_RDONLY));
  if (fd.get() < 0) {
    return Status::IoError(ErrnoMessage("open for fsync", path));
  }
  return FsyncFd(fd.get(), path);
}

Status CreateDirectories(const std::string& directory) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return Status::IoError("cannot create directory " + directory + ": " +
                           ec.message());
  }
  return Status::OK();
}

bool ParseNumberedFileName(const std::string& filename,
                           const std::string& suffix, std::string* stem,
                           uint64_t* number) {
  if (filename.size() <= suffix.size() ||
      filename.compare(filename.size() - suffix.size(), suffix.size(),
                       suffix) != 0) {
    return false;
  }
  const size_t end = filename.size() - suffix.size();
  const size_t dash = filename.rfind('-', end - 1);
  if (dash == std::string::npos || dash == 0 || dash + 1 >= end) return false;
  uint64_t value = 0;
  for (size_t i = dash + 1; i < end; ++i) {
    const char c = filename[i];
    if (c < '0' || c > '9') return false;
    if (value > (UINT64_MAX - (c - '0')) / 10) return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *stem = filename.substr(0, dash);
  *number = value;
  return true;
}

Status WriteFileAtomically(const std::string& path,
                           std::initializer_list<std::span<const char>> parts,
                           bool fsync) {
  const std::string tmp_path = path + ".tmp";
  Status status = Status::OK();
  {
    ScopedFd fd(::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
    if (fd.get() < 0) {
      return Status::IoError(ErrnoMessage("cannot create", tmp_path));
    }
    uint64_t offset = 0;
    for (std::span<const char> part : parts) {
      if (status.ok()) status = WriteAll(fd.get(), offset, part, tmp_path);
      offset += part.size();
    }
    if (status.ok() && fsync) status = FsyncFd(fd.get(), tmp_path);
  }
  std::error_code ec;
  if (status.ok()) {
    fs::rename(tmp_path, path, ec);
    if (ec) {
      status =
          Status::IoError("rename to " + path + " failed: " + ec.message());
    }
  }
  if (!status.ok()) {
    fs::remove(tmp_path, ec);
    return status;
  }
  return fsync ? FsyncPath(fs::path(path).parent_path().string())
               : Status::OK();
}

void AppendFrame(std::span<const char> payload, std::vector<char>* out) {
  const uint32_t header[2] = {static_cast<uint32_t>(payload.size()),
                              Crc32(payload.data(), payload.size())};
  const char* bytes = reinterpret_cast<const char*>(header);
  out->insert(out->end(), bytes, bytes + sizeof(header));
  out->insert(out->end(), payload.begin(), payload.end());
}

Status FrameAppender::Open(std::string path, uint64_t size, bool create) {
  fd_.Reset(::open(path.c_str(), O_RDWR | (create ? O_CREAT : 0), 0644));
  if (fd_.get() < 0) {
    return Status::IoError(ErrnoMessage("cannot open", path));
  }
  path_ = std::move(path);
  size_ = size;
  broken_ = false;
  return Status::OK();
}

Status FrameAppender::Append(std::span<const char> payload, bool fsync) {
  if (!appendable()) {
    return Status::FailedPrecondition(path_ + " is closed for appends");
  }
  frame_.clear();
  AppendFrame(payload, &frame_);
  Status written = WriteAll(fd_.get(), size_, frame_, path_);
  if (written.ok() && fsync) written = FsyncFd(fd_.get(), path_);
  if (!written.ok()) {
    if (::ftruncate(fd_.get(), static_cast<off_t>(size_)) != 0) {
      broken_ = true;
      FREEWAY_LOG(kError) << "append and rollback both failed for " << path_
                          << "; closed for appends: " << written;
    }
    return written;
  }
  size_ += frame_.size();
  return Status::OK();
}

Status FrameAppender::Truncate(uint64_t size, bool fsync) {
  if (!appendable()) {
    return Status::FailedPrecondition(path_ + " is closed for appends");
  }
  if (::ftruncate(fd_.get(), static_cast<off_t>(size)) != 0) {
    return Status::IoError(ErrnoMessage("cannot truncate", path_));
  }
  size_ = size;
  return fsync ? FsyncFd(fd_.get(), path_) : Status::OK();
}

Status FrameAppender::Sync() const {
  return fd_.get() < 0 ? Status::OK() : FsyncFd(fd_.get(), path_);
}

FrameReader::FrameReader(int fd, std::string path, uint64_t begin,
                         uint64_t end, uint32_t max_payload)
    : fd_(fd),
      path_(std::move(path)),
      end_(end),
      max_payload_(max_payload),
      valid_end_(begin) {}

Result<const char*> FrameReader::Fetch(uint64_t offset, size_t size) {
  if (offset < buffer_offset_ ||
      offset + size > buffer_offset_ + buffer_.size()) {
    // Read ahead so a scan costs one read per kReadAheadBytes, not two
    // per frame; never past `end`, which the caller checked covers `size`.
    buffer_.resize(std::min<uint64_t>(
        end_ - offset, std::max<uint64_t>(size, kReadAheadBytes)));
    buffer_offset_ = offset;
    RETURN_IF_ERROR(
        ReadExact(fd_, offset, buffer_.data(), buffer_.size(), path_));
  }
  return buffer_.data() + (offset - buffer_offset_);
}

Result<bool> FrameReader::Next() {
  if (valid_end_ >= end_ || !tail_error_.ok()) return false;
  const uint64_t offset = valid_end_;
  const uint64_t left = end_ - offset;
  auto torn = [&](const std::string& what) {
    return Status::InvalidArgument(what + " at byte " +
                                   std::to_string(offset) + " of " + path_);
  };
  uint32_t size = 0;
  uint32_t crc = 0;
  Result<const char*> bytes = left < kLogFrameHeaderBytes
                                  ? torn("truncated frame")
                                  : Fetch(offset, kLogFrameHeaderBytes);
  if (bytes.ok()) {
    std::memcpy(&size, *bytes, 4);
    std::memcpy(&crc, *bytes + 4, 4);
    if (size == 0 || size > max_payload_) {
      bytes = torn("frame size " + std::to_string(size) + " outside (0, " +
                   std::to_string(max_payload_) + "]");
    } else if (left - kLogFrameHeaderBytes < size) {
      bytes = torn("truncated frame");
    } else {
      bytes = Fetch(offset, kLogFrameHeaderBytes + size);
    }
  }
  if (bytes.ok() && Crc32(*bytes + kLogFrameHeaderBytes, size) != crc) {
    bytes = torn("frame CRC mismatch");
  }
  if (!bytes.ok()) {
    // kInvalidArgument is a torn frame (ReadExact reports a file that
    // shrank under the scan that way too); anything else is an I/O error.
    if (bytes.status().code() != StatusCode::kInvalidArgument) {
      return bytes.status();
    }
    tail_error_ = bytes.status();
    return false;
  }
  payload_ = std::span<const char>(*bytes + kLogFrameHeaderBytes, size);
  frame_offset_ = offset;
  valid_end_ = offset + kLogFrameHeaderBytes + size;
  return true;
}

}  // namespace freeway
