#include "cosr/durability/log_record.h"

#include <cstring>

namespace cosr {

namespace {

// FNV-1a over the framed bytes, folded to 32 bits. Not cryptographic —
// the log is trusted storage; the checksum only needs to catch torn tails
// and bit rot, like the CRC in every WAL format.
std::uint32_t Checksum(const std::uint8_t* data, std::size_t size) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ULL;
  }
  return static_cast<std::uint32_t>(hash ^ (hash >> 32));
}

void PutU32(std::uint32_t value, std::vector<std::uint8_t>* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

void PutU64(std::uint64_t value, std::vector<std::uint8_t>* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

std::uint32_t GetU32(const std::uint8_t* p) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return value;
}

std::uint64_t GetU64(const std::uint8_t* p) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return value;
}

/// Frames an already-appended [type][len][payload] prefix: patches the
/// payload length and appends the checksum. `start` is the record's first
/// byte in `out`.
void FinishRecord(std::size_t start, std::vector<std::uint8_t>* out) {
  const std::size_t payload =
      out->size() - start - kLogRecordHeaderBytes;
  std::uint8_t* header = out->data() + start;
  for (int i = 0; i < 4; ++i) {
    header[1 + i] =
        static_cast<std::uint8_t>(static_cast<std::uint32_t>(payload) >>
                                  (8 * i));
  }
  PutU32(Checksum(out->data() + start, out->size() - start), out);
}

std::size_t BeginRecord(LogRecordType type, std::vector<std::uint8_t>* out) {
  const std::size_t start = out->size();
  out->push_back(static_cast<std::uint8_t>(type));
  PutU32(0, out);  // payload length, patched by FinishRecord
  return start;
}

}  // namespace

void EncodePlaceRecord(ObjectId id, const Extent& extent,
                       std::vector<std::uint8_t>* out) {
  const std::size_t start = BeginRecord(LogRecordType::kPlace, out);
  PutU64(id, out);
  PutU64(extent.offset, out);
  PutU64(extent.length, out);
  FinishRecord(start, out);
}

void EncodeRemoveRecord(ObjectId id, const Extent& extent,
                        std::vector<std::uint8_t>* out) {
  const std::size_t start = BeginRecord(LogRecordType::kRemove, out);
  PutU64(id, out);
  PutU64(extent.offset, out);
  PutU64(extent.length, out);
  FinishRecord(start, out);
}

void EncodeMoveBatchRecord(const MoveRecord* records, std::size_t count,
                           std::vector<std::uint8_t>* out) {
  const std::size_t start = BeginRecord(LogRecordType::kMoveBatch, out);
  PutU32(static_cast<std::uint32_t>(count), out);
  for (std::size_t i = 0; i < count; ++i) {
    PutU64(records[i].id, out);
    PutU64(records[i].from.offset, out);
    PutU64(records[i].from.length, out);
    PutU64(records[i].to.offset, out);
  }
  FinishRecord(start, out);
}

void EncodeCheckpointRecord(std::uint64_t seq,
                            std::vector<std::uint8_t>* out) {
  const std::size_t start = BeginRecord(LogRecordType::kCheckpoint, out);
  PutU64(seq, out);
  FinishRecord(start, out);
}

namespace {

/// Shared frame validation for ParseLogRecord / SkimLogRecord: bounds,
/// type range, payload length, checksum, and the per-type payload-shape
/// rules. On kOk sets `*payload_out` (payload length) — the caller decodes
/// (or skips) the payload at data + start + kLogRecordHeaderBytes.
LogParseResult CheckRecordFrame(const std::uint8_t* data, std::size_t size,
                                std::size_t start, std::uint32_t* payload_out) {
  if (start == size) return LogParseResult::kEnd;
  if (start > size || size - start < kLogRecordHeaderBytes) {
    return LogParseResult::kTruncated;
  }
  const std::uint8_t type_byte = data[start];
  if (type_byte < static_cast<std::uint8_t>(LogRecordType::kPlace) ||
      type_byte > static_cast<std::uint8_t>(LogRecordType::kCheckpoint)) {
    return LogParseResult::kCorrupt;
  }
  const std::uint32_t payload = GetU32(data + start + 1);
  if (size - start - kLogRecordHeaderBytes < payload + 4u) {
    return LogParseResult::kTruncated;
  }
  const std::size_t body_end = start + kLogRecordHeaderBytes + payload;
  if (GetU32(data + body_end) != Checksum(data + start, body_end - start)) {
    return LogParseResult::kCorrupt;
  }
  const std::uint8_t* p = data + start + kLogRecordHeaderBytes;
  switch (static_cast<LogRecordType>(type_byte)) {
    case LogRecordType::kPlace:
    case LogRecordType::kRemove:
      if (payload != 24) return LogParseResult::kCorrupt;
      break;
    case LogRecordType::kMoveBatch: {
      if (payload < 4) return LogParseResult::kCorrupt;
      const std::uint32_t count = GetU32(p);
      if (payload != 4 + std::uint64_t{count} * 32) {
        return LogParseResult::kCorrupt;
      }
      break;
    }
    case LogRecordType::kCheckpoint:
      if (payload != 8) return LogParseResult::kCorrupt;
      break;
  }
  *payload_out = payload;
  return LogParseResult::kOk;
}

}  // namespace

LogParseResult ParseLogRecord(const std::uint8_t* data, std::size_t size,
                              std::size_t* offset, LogRecord* record) {
  std::uint32_t payload = 0;
  const LogParseResult frame = CheckRecordFrame(data, size, *offset, &payload);
  if (frame != LogParseResult::kOk) return frame;
  DecodeLogRecord(data, offset, record);
  return LogParseResult::kOk;
}

void DecodeLogRecord(const std::uint8_t* data, std::size_t* offset,
                     LogRecord* record) {
  const std::size_t start = *offset;
  const std::uint32_t payload = GetU32(data + start + 1);
  const std::uint8_t* p = data + start + kLogRecordHeaderBytes;
  record->type = static_cast<LogRecordType>(data[start]);
  record->moves.clear();
  switch (record->type) {
    case LogRecordType::kPlace:
    case LogRecordType::kRemove:
      record->id = GetU64(p);
      record->extent = Extent{GetU64(p + 8), GetU64(p + 16)};
      break;
    case LogRecordType::kMoveBatch: {
      const std::uint32_t count = GetU32(p);
      record->moves.reserve(count);
      const std::uint8_t* q = p + 4;
      for (std::uint32_t i = 0; i < count; ++i, q += 32) {
        MoveRecord move;
        move.id = GetU64(q);
        move.from = Extent{GetU64(q + 8), GetU64(q + 16)};
        move.to = Extent{GetU64(q + 24), move.from.length};
        record->moves.push_back(move);
      }
      break;
    }
    case LogRecordType::kCheckpoint:
      record->checkpoint_seq = GetU64(p);
      break;
  }
  *offset = start + kLogRecordHeaderBytes + payload + 4;
}

LogParseResult SkimLogRecord(const std::uint8_t* data, std::size_t size,
                             std::size_t* offset, LogRecordType* type,
                             std::uint64_t* checkpoint_seq) {
  const std::size_t start = *offset;
  std::uint32_t payload = 0;
  const LogParseResult frame = CheckRecordFrame(data, size, start, &payload);
  if (frame != LogParseResult::kOk) return frame;
  *type = static_cast<LogRecordType>(data[start]);
  if (*type == LogRecordType::kCheckpoint) {
    *checkpoint_seq = GetU64(data + start + kLogRecordHeaderBytes);
  }
  *offset = start + kLogRecordHeaderBytes + payload + 4;
  return LogParseResult::kOk;
}

}  // namespace cosr
