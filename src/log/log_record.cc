#include "log/log_record.h"

#include "common/coding.h"

namespace rewinddb {

const char* LogTypeName(LogType t) {
  switch (t) {
    case LogType::kInvalid: return "INVALID";
    case LogType::kBegin: return "BEGIN";
    case LogType::kCommit: return "COMMIT";
    case LogType::kAbort: return "ABORT";
    case LogType::kInsert: return "INSERT";
    case LogType::kDelete: return "DELETE";
    case LogType::kUpdate: return "UPDATE";
    case LogType::kClr: return "CLR";
    case LogType::kFormat: return "FORMAT";
    case LogType::kPreformat: return "PREFORMAT";
    case LogType::kAllocBits: return "ALLOC_BITS";
    case LogType::kSetSibling: return "SET_SIBLING";
    case LogType::kCheckpointBegin: return "CKPT_BEGIN";
    case LogType::kCheckpointEnd: return "CKPT_END";
    case LogType::kFpiDelta: return "FPI_DELTA";
  }
  return "?";
}

bool LogRecord::IsPageRecord() const {
  switch (type) {
    case LogType::kInsert:
    case LogType::kDelete:
    case LogType::kUpdate:
    case LogType::kClr:
    case LogType::kFormat:
    case LogType::kPreformat:
    case LogType::kFpiDelta:
    case LogType::kAllocBits:
    case LogType::kSetSibling:
      return true;
    default:
      return false;
  }
}

namespace {
// Fixed part: len(4) + checksum(4) + type(1) + clr_op(1) + flags(1) +
// slot(2) + txn(8) + prev_lsn(8) + prev_page_lsn(8) + prev_fpi_lsn(8) +
// page(4) + tree(4) = 53 bytes.
constexpr size_t kFixedHeader = 53;
}  // namespace

void LogRecord::EncodeTo(std::string* dst) const {
  size_t start = dst->size();
  PutFixed32(dst, 0);  // length placeholder
  PutFixed32(dst, 0);  // checksum placeholder
  dst->push_back(static_cast<char>(type));
  dst->push_back(static_cast<char>(clr_op));
  dst->push_back(static_cast<char>(is_system ? 1 : 0));
  PutFixed16(dst, slot);
  PutFixed64(dst, txn_id);
  PutFixed64(dst, prev_lsn);
  PutFixed64(dst, prev_page_lsn);
  PutFixed64(dst, prev_fpi_lsn);
  PutFixed32(dst, page_id);
  PutFixed32(dst, tree_id);

  LogType op = type == LogType::kClr ? clr_op : type;
  switch (type == LogType::kClr ? LogType::kClr : type) {
    case LogType::kBegin:
    case LogType::kAbort:
      break;
    case LogType::kCommit:
    case LogType::kCheckpointBegin:
      PutFixed64(dst, wall_clock);
      break;
    case LogType::kInsert:
    case LogType::kDelete:
      PutLengthPrefixed(dst, image);
      break;
    case LogType::kUpdate:
      PutLengthPrefixed(dst, image);
      PutLengthPrefixed(dst, image2);
      break;
    case LogType::kClr:
      PutFixed64(dst, undo_next_lsn);
      PutLengthPrefixed(dst, image);
      if (op == LogType::kUpdate) PutLengthPrefixed(dst, image2);
      if (op == LogType::kAllocBits) {
        PutFixed32(dst, alloc_bit);
        dst->push_back(static_cast<char>((alloc_new ? 1 : 0) |
                                         (ever_new ? 2 : 0) |
                                         (alloc_old ? 4 : 0) |
                                         (ever_old ? 8 : 0)));
      }
      if (op == LogType::kSetSibling) {
        PutFixed32(dst, sibling_new);
        PutFixed32(dst, sibling_old);
      }
      break;
    case LogType::kFormat:
      dst->push_back(static_cast<char>(fmt_type));
      dst->push_back(static_cast<char>(fmt_level));
      break;
    case LogType::kPreformat:
    case LogType::kFpiDelta:
      PutLengthPrefixed(dst, image);
      break;
    case LogType::kAllocBits:
      PutFixed32(dst, alloc_bit);
      dst->push_back(static_cast<char>((alloc_new ? 1 : 0) |
                                       (ever_new ? 2 : 0) |
                                       (alloc_old ? 4 : 0) |
                                       (ever_old ? 8 : 0)));
      break;
    case LogType::kSetSibling:
      PutFixed32(dst, sibling_new);
      PutFixed32(dst, sibling_old);
      break;
    case LogType::kCheckpointEnd: {
      PutFixed64(dst, wall_clock);
      PutFixed32(dst, static_cast<uint32_t>(att.size()));
      for (const AttEntry& e : att) {
        PutFixed64(dst, e.txn_id);
        PutFixed64(dst, e.last_lsn);
      }
      PutFixed32(dst, static_cast<uint32_t>(dpt.size()));
      for (const DptEntry& e : dpt) {
        PutFixed32(dst, e.page_id);
        PutFixed64(dst, e.rec_lsn);
      }
      break;
    }
    case LogType::kInvalid:
      break;
  }

  uint32_t len = static_cast<uint32_t>(dst->size() - start);
  char* base = dst->data() + start;
  memcpy(base, &len, 4);
  uint32_t sum = Checksum32(base + 8, len - 8);
  memcpy(base + 4, &sum, 4);
}

size_t LogRecord::EncodedSize() const {
  std::string tmp;
  EncodeTo(&tmp);
  return tmp.size();
}

uint32_t LogRecord::PeekLength(Slice data) {
  if (data.size() < kLogLengthPrefix) return 0;
  return DecodeFixed32(data.data());
}

Result<LogRecord> LogRecord::Decode(Slice data, size_t* consumed) {
  LogRecord rec;
  REWIND_RETURN_IF_ERROR(DecodeInto(data, consumed, &rec));
  return rec;
}

namespace {
/// Return `r` to a default record while keeping the capacity of its
/// strings and vectors.
void ResetKeepingCapacity(LogRecord* r) {
  std::string image = std::move(r->image);
  std::string image2 = std::move(r->image2);
  std::vector<AttEntry> att = std::move(r->att);
  std::vector<DptEntry> dpt = std::move(r->dpt);
  *r = LogRecord();
  r->image = std::move(image);
  r->image.clear();
  r->image2 = std::move(image2);
  r->image2.clear();
  r->att = std::move(att);
  r->att.clear();
  r->dpt = std::move(dpt);
  r->dpt.clear();
}
}  // namespace

Status LogRecord::DecodeInto(Slice data, size_t* consumed, LogRecord* out) {
  if (data.size() < kFixedHeader) {
    return Status::Corruption("log record: short header");
  }
  uint32_t len = DecodeFixed32(data.data());
  if (len < kFixedHeader || len > data.size()) {
    return Status::Corruption("log record: bad length " + std::to_string(len));
  }
  uint32_t stored_sum = DecodeFixed32(data.data() + 4);
  uint32_t sum = Checksum32(data.data() + 8, len - 8);
  if (sum != stored_sum) {
    return Status::Corruption("log record: checksum mismatch");
  }

  ResetKeepingCapacity(out);
  LogRecord& rec = *out;
  Decoder dec(Slice(data.data() + 8, len - 8));
  Slice b;
  if (!dec.GetBytes(1, &b)) return Status::Corruption("log: type");
  rec.type = static_cast<LogType>(b[0]);
  if (!dec.GetBytes(1, &b)) return Status::Corruption("log: clr_op");
  rec.clr_op = static_cast<LogType>(b[0]);
  if (!dec.GetBytes(1, &b)) return Status::Corruption("log: flags");
  rec.is_system = b[0] & 1;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  if (!dec.GetFixed16(&u16)) return Status::Corruption("log: slot");
  rec.slot = u16;
  if (!dec.GetFixed64(&u64)) return Status::Corruption("log: txn");
  rec.txn_id = u64;
  if (!dec.GetFixed64(&u64)) return Status::Corruption("log: prev_lsn");
  rec.prev_lsn = u64;
  if (!dec.GetFixed64(&u64)) return Status::Corruption("log: prev_page");
  rec.prev_page_lsn = u64;
  if (!dec.GetFixed64(&u64)) return Status::Corruption("log: prev_fpi");
  rec.prev_fpi_lsn = u64;
  if (!dec.GetFixed32(&u32)) return Status::Corruption("log: page");
  rec.page_id = u32;
  if (!dec.GetFixed32(&u32)) return Status::Corruption("log: tree");
  rec.tree_id = u32;

  auto get_bits = [&](LogRecord* r) -> bool {
    Slice bb;
    if (!dec.GetFixed32(&r->alloc_bit)) return false;
    if (!dec.GetBytes(1, &bb)) return false;
    uint8_t f = static_cast<uint8_t>(bb[0]);
    r->alloc_new = f & 1;
    r->ever_new = f & 2;
    r->alloc_old = f & 4;
    r->ever_old = f & 8;
    return true;
  };

  LogType op = rec.type == LogType::kClr ? rec.clr_op : rec.type;
  switch (rec.type == LogType::kClr ? LogType::kClr : rec.type) {
    case LogType::kBegin:
    case LogType::kAbort:
      break;
    case LogType::kCommit:
    case LogType::kCheckpointBegin:
      if (!dec.GetFixed64(&rec.wall_clock))
        return Status::Corruption("log: wall_clock");
      break;
    case LogType::kInsert:
    case LogType::kDelete: {
      Slice img;
      if (!dec.GetLengthPrefixed(&img)) return Status::Corruption("log: image");
      rec.image.assign(img.data(), img.size());
      break;
    }
    case LogType::kUpdate: {
      Slice img;
      if (!dec.GetLengthPrefixed(&img)) return Status::Corruption("log: image");
      rec.image.assign(img.data(), img.size());
      if (!dec.GetLengthPrefixed(&img)) return Status::Corruption("log: image2");
      rec.image2.assign(img.data(), img.size());
      break;
    }
    case LogType::kClr: {
      if (!dec.GetFixed64(&rec.undo_next_lsn))
        return Status::Corruption("log: undo_next");
      Slice img;
      if (!dec.GetLengthPrefixed(&img)) return Status::Corruption("log: image");
      rec.image.assign(img.data(), img.size());
      if (op == LogType::kUpdate) {
        if (!dec.GetLengthPrefixed(&img))
          return Status::Corruption("log: image2");
        rec.image2.assign(img.data(), img.size());
      }
      if (op == LogType::kAllocBits && !get_bits(&rec))
        return Status::Corruption("log: clr alloc bits");
      if (op == LogType::kSetSibling) {
        if (!dec.GetFixed32(&rec.sibling_new) ||
            !dec.GetFixed32(&rec.sibling_old)) {
          return Status::Corruption("log: clr sibling");
        }
      }
      break;
    }
    case LogType::kFormat: {
      Slice bb;
      if (!dec.GetBytes(2, &bb)) return Status::Corruption("log: format");
      rec.fmt_type = static_cast<uint8_t>(bb[0]);
      rec.fmt_level = static_cast<uint8_t>(bb[1]);
      break;
    }
    case LogType::kPreformat:
    case LogType::kFpiDelta: {
      Slice img;
      if (!dec.GetLengthPrefixed(&img)) return Status::Corruption("log: fpi");
      rec.image.assign(img.data(), img.size());
      break;
    }
    case LogType::kAllocBits:
      if (!get_bits(&rec)) return Status::Corruption("log: alloc bits");
      break;
    case LogType::kSetSibling:
      if (!dec.GetFixed32(&rec.sibling_new))
        return Status::Corruption("log: sibling_new");
      if (!dec.GetFixed32(&rec.sibling_old))
        return Status::Corruption("log: sibling_old");
      break;
    case LogType::kCheckpointEnd: {
      if (!dec.GetFixed64(&rec.wall_clock))
        return Status::Corruption("log: ckpt wall_clock");
      uint32_t n;
      if (!dec.GetFixed32(&n)) return Status::Corruption("log: att size");
      rec.att.resize(n);
      for (uint32_t i = 0; i < n; i++) {
        if (!dec.GetFixed64(&rec.att[i].txn_id) ||
            !dec.GetFixed64(&rec.att[i].last_lsn)) {
          return Status::Corruption("log: att entry");
        }
      }
      if (!dec.GetFixed32(&n)) return Status::Corruption("log: dpt size");
      rec.dpt.resize(n);
      for (uint32_t i = 0; i < n; i++) {
        if (!dec.GetFixed32(&rec.dpt[i].page_id) ||
            !dec.GetFixed64(&rec.dpt[i].rec_lsn)) {
          return Status::Corruption("log: dpt entry");
        }
      }
      break;
    }
    case LogType::kInvalid:
      return Status::Corruption("log: invalid type");
    default:
      // A type this build does not know (a future format) must fail
      // loudly: falling through would hand back a half-parsed record.
      return Status::Corruption("log: unknown record type " +
                                std::to_string(static_cast<int>(rec.type)));
  }

  *consumed = len;
  return Status::OK();
}

std::string LogRecord::DebugString() const {
  std::string s = LogTypeName(type);
  if (type == LogType::kClr) {
    s += "(";
    s += LogTypeName(clr_op);
    s += ")";
  }
  s += " txn=" + std::to_string(txn_id);
  if (page_id != kInvalidPageId) {
    s += " page=" + std::to_string(page_id) + " slot=" + std::to_string(slot);
  }
  s += " prevPage=" + std::to_string(prev_page_lsn);
  return s;
}

}  // namespace rewinddb
