#include "cosr/durability/recovery_manager.h"

#include <vector>

#include "cosr/durability/log_record.h"
#include "cosr/durability/log_sink.h"

namespace cosr {

namespace {

std::string Describe(LogRecordType type) {
  switch (type) {
    case LogRecordType::kPlace:
      return "place";
    case LogRecordType::kRemove:
      return "remove";
    case LogRecordType::kMoveBatch:
      return "move-batch";
    case LogRecordType::kCheckpoint:
      return "checkpoint";
  }
  return "unknown";
}

Status ReplayRecord(const LogRecord& record, Space* space,
                    std::vector<MovePlan>* plans) {
  switch (record.type) {
    case LogRecordType::kPlace:
      if (!space->TryPlace(record.id, record.extent)) {
        return Status::Internal("log replay: duplicate place of object " +
                                std::to_string(record.id));
      }
      return Status::Ok();
    case LogRecordType::kRemove: {
      Extent current;
      if (!space->TryExtentOf(record.id, &current)) {
        return Status::Internal("log replay: remove of unknown object " +
                                std::to_string(record.id));
      }
      if (!(current == record.extent)) {
        return Status::Internal(
            "log replay: remove extent mismatch for object " +
            std::to_string(record.id) + ": log says " +
            ToString(record.extent) + ", space says " + ToString(current));
      }
      Extent removed;
      space->TryRemove(record.id, &removed);
      return Status::Ok();
    }
    case LogRecordType::kMoveBatch: {
      plans->clear();
      plans->reserve(record.moves.size());
      for (const MoveRecord& move : record.moves) {
        Extent current;
        if (!space->TryExtentOf(move.id, &current)) {
          return Status::Internal("log replay: move of unknown object " +
                                  std::to_string(move.id));
        }
        if (!(current == move.from)) {
          return Status::Internal(
              "log replay: move source mismatch for object " +
              std::to_string(move.id) + ": log says " + ToString(move.from) +
              ", space says " + ToString(current));
        }
        plans->push_back(MovePlan{move.id, move.to});
      }
      space->ApplyMoves(plans->data(), plans->size());
      return Status::Ok();
    }
    case LogRecordType::kCheckpoint:
      // Checkpoint records delimit the replayed prefix; no space mutation.
      return Status::Ok();
  }
  return Status::Internal("log replay: unhandled record type");
}

}  // namespace

Status RecoveryManager::Recover(const std::uint8_t* data, std::size_t size,
                                Space* space, RecoveryResult* result) {
  if (space == nullptr || result == nullptr) {
    return Status::InvalidArgument("space and result must be non-null");
  }
  if (space->object_count() != 0) {
    return Status::InvalidArgument("recovery target space must be empty");
  }
  *result = RecoveryResult{};

  // Pass 1: find the recovery frontier — the end offset of the last valid
  // checkpoint record — and count what lies beyond it. Under a coalescing
  // GroupCommitPolicy that record may postdate the last physical sync:
  // still a legal landing point (every checkpoint record delimits a
  // consistent map), just one the crash was not obliged to preserve. The
  // skim parse validates exactly like the full parse but skips payload
  // materialization — frontier hunting needs types and seqs only.
  std::size_t offset = 0;
  std::size_t frontier = 0;
  std::size_t records_to_frontier = 0;
  std::size_t records_seen = 0;
  LogRecordType type = LogRecordType::kPlace;
  std::uint64_t seq = 0;
  for (;;) {
    const LogParseResult parse = SkimLogRecord(data, size, &offset, &type,
                                               &seq);
    if (parse == LogParseResult::kEnd) break;
    if (parse == LogParseResult::kTruncated ||
        parse == LogParseResult::kCorrupt) {
      // The tail was torn mid-record (or rotted); nothing at or past this
      // offset can be trusted. Everything before the frontier still can.
      result->torn_tail = true;
      break;
    }
    ++records_seen;
    if (type == LogRecordType::kCheckpoint) {
      frontier = offset;
      records_to_frontier = records_seen;
      result->checkpoint_seq = seq;
    }
  }
  result->records_discarded = records_seen - records_to_frontier;
  result->bytes_discarded = size - frontier;

  // Pass 2: replay the prefix up to the frontier. Pass 1 accepted every
  // record in it, so they are decoded without a second validation.
  LogRecord record;
  std::vector<MovePlan> plans;
  offset = 0;
  while (offset < frontier) {
    DecodeLogRecord(data, &offset, &record);
    const Status status = ReplayRecord(record, space, &plans);
    if (!status.ok()) {
      return Status::Internal(status.message() + " (record " +
                              std::to_string(result->records_replayed) +
                              ", " + Describe(record.type) + ")");
    }
    ++result->records_replayed;
  }
  return Status::Ok();
}

Status RecoveryManager::RecoverFile(const std::string& path, Space* space,
                                    RecoveryResult* result) {
  std::vector<std::uint8_t> data;
  const Status read = FileLogSink::ReadAll(path, &data);
  if (!read.ok()) return read;
  return Recover(data.data(), data.size(), space, result);
}

}  // namespace cosr
