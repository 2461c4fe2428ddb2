#ifndef FREEWAYML_FAULT_DURABLE_FILE_H_
#define FREEWAYML_FAULT_DURABLE_FILE_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace freeway {

/// File I/O shared by every durable store (the checkpoint store, the ingest
/// log, the raft storage). The stores keep only their own file formats and
/// policies; DESIGN.md "Durable files" states the rules implemented here.

/// "<what> <path>: <strerror(errno)>".
std::string ErrnoMessage(const std::string& what, const std::string& path);

/// Owned file descriptor, closed on destruction.
class ScopedFd {
 public:
  explicit ScopedFd(int fd = -1) : fd_(fd) {}
  ~ScopedFd() { Reset(); }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }
  /// Closes the held fd (if any) and takes `fd`.
  void Reset(int fd = -1);

 private:
  int fd_;
};

/// Writes all of `data` at `offset` (pwrite, resumed after short writes).
Status WriteAll(int fd, uint64_t offset, std::span<const char> data,
                const std::string& path);
/// Reads exactly `size` bytes at `offset`: kIoError on a read error,
/// kInvalidArgument when the file ends first.
Status ReadExact(int fd, uint64_t offset, char* data, size_t size,
                 const std::string& path);
/// Reads the first head.size() bytes of the file, which must start with the
/// u32 magic | u32 version pair SnapshotWriter::WriteSection writes.
Status ReadFileHead(int fd, std::span<char> head, uint32_t magic,
                    uint32_t version, const std::string& path);
Result<uint64_t> FileSize(int fd, const std::string& path);
Status FsyncFd(int fd, const std::string& path);
/// fsyncs a file or directory by path.
Status FsyncPath(const std::string& path);
Status CreateDirectories(const std::string& directory);

/// Parses a store's file name "<stem>-<number><suffix>" into its stem and
/// number. The split point is the *last* '-' whose remainder is all digits,
/// which inverts the writer exactly even for stems that themselves contain
/// dashes and digits ("stream-42-7.ckpt" is stem "stream-42", number 7).
bool ParseNumberedFileName(const std::string& filename,
                           const std::string& suffix, std::string* stem,
                           uint64_t* number);

/// Atomic replace: writes the concatenated `parts` to `<path>.tmp`, fsyncs
/// it (if `fsync`), renames it over `path` and fsyncs the directory (if
/// `fsync`). The tmp file is removed on any failure.
Status WriteFileAtomically(const std::string& path,
                           std::initializer_list<std::span<const char>> parts,
                           bool fsync);

/// The append-only logs' record frame:
///   u32 payload size | u32 CRC-32 of the payload | payload bytes
constexpr size_t kLogFrameHeaderBytes = 8;

/// Appends one frame (header + payload) to `out`.
void AppendFrame(std::span<const char> payload, std::vector<char>* out);

/// Append side of a framed-record file: each frame is one write at the end
/// of the file. A failed write or fsync truncates the file back to the
/// frame's start; if that truncate fails too, the appender refuses every
/// later append and truncate. Not synchronized.
class FrameAppender {
 public:
  /// Opens `path` for reading and writing (creating it if `create`); the
  /// next frame goes at byte `size`.
  Status Open(std::string path, uint64_t size, bool create);
  /// Closes the file; size() keeps its value.
  void Close() { fd_.Reset(); }

  Status Append(std::span<const char> payload, bool fsync);
  /// Cuts the file to `size`; the next frame goes there.
  Status Truncate(uint64_t size, bool fsync);
  /// fsyncs the file; OK when none is open.
  Status Sync() const;

  /// False once closed or after a failed rollback.
  bool appendable() const { return fd_.get() >= 0 && !broken_; }
  int fd() const { return fd_.get(); }
  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  ScopedFd fd_;
  std::string path_;
  uint64_t size_ = 0;
  bool broken_ = false;
  /// Reused so an append allocates nothing once warm.
  std::vector<char> frame_;
};

/// Reads the frames of [begin, end) in order, stopping at the first invalid
/// one: cut short (by `end` or by the file), a size outside
/// (0, max_payload], or a CRC mismatch. What that stop means — a torn tail
/// or corruption — and what a valid frame that does not parse means, is
/// the caller's rule.
class FrameReader {
 public:
  FrameReader(int fd, std::string path, uint64_t begin, uint64_t end,
              uint32_t max_payload);

  /// true: payload() and frame_offset() describe the next valid frame
  /// (payload() stays valid until the next call). false: the scan is over
  /// (see tail_error()). I/O errors are returned.
  Result<bool> Next();

  std::span<const char> payload() const { return payload_; }
  uint64_t frame_offset() const { return frame_offset_; }
  /// Just past the last valid frame read.
  uint64_t valid_end() const { return valid_end_; }
  /// Why the scan stopped before `end`; OK when it reached `end`.
  const Status& tail_error() const { return tail_error_; }

 private:
  /// A default-size ingest segment in one read. Smaller chunks measured
  /// slower on a 5000-record ingest recovery (1 MiB: ~1.4x the time).
  static constexpr uint64_t kReadAheadBytes = 4u << 20;

  /// Bytes [offset, offset + size) of the file, from buffer_ or read into
  /// it.
  Result<const char*> Fetch(uint64_t offset, size_t size);

  int fd_;
  std::string path_;
  uint64_t end_;
  uint32_t max_payload_;
  uint64_t frame_offset_ = 0;
  uint64_t valid_end_;
  Status tail_error_ = Status::OK();
  std::span<const char> payload_;
  /// File bytes [buffer_offset_, buffer_offset_ + buffer_.size()).
  std::vector<char> buffer_;
  uint64_t buffer_offset_ = 0;
};

}  // namespace freeway

#endif  // FREEWAYML_FAULT_DURABLE_FILE_H_
