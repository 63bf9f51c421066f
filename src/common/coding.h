// Fixed-width and length-prefixed little-endian encoding helpers used by
// log records, page layouts and the row codec.
#ifndef REWINDDB_COMMON_CODING_H_
#define REWINDDB_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/slice.h"

namespace rewinddb {

inline void PutFixed16(std::string* dst, uint16_t v) {
  char buf[2];
  memcpy(buf, &v, 2);
  dst->append(buf, 2);
}

inline void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  memcpy(buf, &v, 4);
  dst->append(buf, 4);
}

inline void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

inline uint16_t DecodeFixed16(const char* p) {
  uint16_t v;
  memcpy(&v, p, 2);
  return v;
}

inline uint32_t DecodeFixed32(const char* p) {
  uint32_t v;
  memcpy(&v, p, 4);
  return v;
}

inline uint64_t DecodeFixed64(const char* p) {
  uint64_t v;
  memcpy(&v, p, 8);
  return v;
}

/// Append a 32-bit length prefix followed by the bytes.
inline void PutLengthPrefixed(std::string* dst, const Slice& s) {
  PutFixed32(dst, static_cast<uint32_t>(s.size()));
  dst->append(s.data(), s.size());
}

/// Cursor-style decoder over an input Slice. All Get* methods return
/// false (without advancing) if the input is exhausted or malformed.
class Decoder {
 public:
  explicit Decoder(Slice input) : in_(input) {}

  bool GetFixed16(uint16_t* v) {
    if (in_.size() < 2) return false;
    *v = DecodeFixed16(in_.data());
    in_.remove_prefix(2);
    return true;
  }
  bool GetFixed32(uint32_t* v) {
    if (in_.size() < 4) return false;
    *v = DecodeFixed32(in_.data());
    in_.remove_prefix(4);
    return true;
  }
  bool GetFixed64(uint64_t* v) {
    if (in_.size() < 8) return false;
    *v = DecodeFixed64(in_.data());
    in_.remove_prefix(8);
    return true;
  }
  bool GetLengthPrefixed(Slice* out) {
    uint32_t len;
    if (!GetFixed32(&len)) return false;
    if (in_.size() < len) return false;
    *out = Slice(in_.data(), len);
    in_.remove_prefix(len);
    return true;
  }
  bool GetBytes(size_t n, Slice* out) {
    if (in_.size() < n) return false;
    *out = Slice(in_.data(), n);
    in_.remove_prefix(n);
    return true;
  }

  size_t remaining() const { return in_.size(); }
  bool empty() const { return in_.empty(); }

 private:
  Slice in_;
};

/// FNV-1a 32-bit hash: the integrity check of log records, compression
/// frames and archive segments. Their on-disk formats pin it, so it
/// stays byte-serial; data pages use the word-parallel checksum in
/// page/page.cc.
inline uint32_t Checksum32(const char* data, size_t n) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < n; i++) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 16777619u;
  }
  return h;
}

}  // namespace rewinddb

#endif  // REWINDDB_COMMON_CODING_H_
