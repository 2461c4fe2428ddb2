#include "replication/command.h"

#include "stream/batch_codec.h"

namespace freeway {

namespace {

/// Section tags per command kind.
constexpr uint32_t kTagBatchCommand = 0x54414252;     // 'RBAT'
constexpr uint32_t kTagDeadLetterCommand = 0x514C4452;  // 'RDLQ'
constexpr uint32_t kTagTruncateCommand = 0x43525452;  // 'RTRC'

}  // namespace

const char* CommandKindName(CommandKind kind) {
  switch (kind) {
    case CommandKind::kNoop:
      return "NOOP";
    case CommandKind::kBatch:
      return "BATCH";
    case CommandKind::kDeadLetter:
      return "DEAD_LETTER";
    case CommandKind::kTruncateMark:
      return "TRUNCATE_MARK";
  }
  return "UNKNOWN";
}

std::vector<char> EncodeCommand(const ReplicatedCommand& command) {
  SnapshotWriter writer;
  switch (command.kind) {
    case CommandKind::kNoop:
      return {};
    case CommandKind::kBatch: {
      writer.WriteSection(kTagBatchCommand);
      WriteIngestRecord(command.record, &writer);
      break;
    }
    case CommandKind::kDeadLetter: {
      writer.WriteSection(kTagDeadLetterCommand);
      writer.WriteU64(command.dead_letter.stream_id);
      writer.WriteU64(command.dead_letter.shard);
      writer.WriteU64(command.dead_letter.attempts);
      writer.WriteU32(static_cast<uint32_t>(command.dead_letter.error.code()));
      writer.WriteString(command.dead_letter.error.message());
      writer.WriteBatch(command.dead_letter.batch);
      break;
    }
    case CommandKind::kTruncateMark: {
      writer.WriteSection(kTagTruncateCommand);
      writer.WriteU64(command.truncate_lsn);
      break;
    }
  }
  return writer.Take();
}

Status DecodeCommand(const std::vector<char>& bytes,
                     ReplicatedCommand* command) {
  *command = ReplicatedCommand{};
  if (bytes.empty()) {
    command->kind = CommandKind::kNoop;
    return Status::OK();
  }
  SnapshotReader reader(std::span<const char>(bytes.data(), bytes.size()));
  uint32_t tag = 0;
  RETURN_IF_ERROR(reader.ReadU32(&tag));
  uint32_t version = 0;
  RETURN_IF_ERROR(reader.ReadU32(&version));
  if (version != 1) {
    return Status::InvalidArgument("replicated command: unsupported version " +
                                   std::to_string(version));
  }
  switch (tag) {
    case kTagBatchCommand: {
      command->kind = CommandKind::kBatch;
      RETURN_IF_ERROR(ReadIngestRecord(&reader, &command->record));
      break;
    }
    case kTagDeadLetterCommand: {
      command->kind = CommandKind::kDeadLetter;
      RETURN_IF_ERROR(reader.ReadU64(&command->dead_letter.stream_id));
      uint64_t shard = 0, attempts = 0;
      RETURN_IF_ERROR(reader.ReadU64(&shard));
      RETURN_IF_ERROR(reader.ReadU64(&attempts));
      command->dead_letter.shard = static_cast<size_t>(shard);
      command->dead_letter.attempts = static_cast<size_t>(attempts);
      uint32_t code = 0;
      std::string message;
      RETURN_IF_ERROR(reader.ReadU32(&code));
      RETURN_IF_ERROR(reader.ReadString(&message));
      if (code != 0) {
        command->dead_letter.error =
            Status(static_cast<StatusCode>(code), std::move(message));
      }
      RETURN_IF_ERROR(reader.ReadBatch(&command->dead_letter.batch));
      break;
    }
    case kTagTruncateCommand: {
      command->kind = CommandKind::kTruncateMark;
      RETURN_IF_ERROR(reader.ReadU64(&command->truncate_lsn));
      break;
    }
    default:
      return Status::InvalidArgument("replicated command: unknown tag");
  }
  return reader.ExpectEnd();
}

}  // namespace freeway
