#ifndef DISMASTD_COMMON_SERIALIZATION_H_
#define DISMASTD_COMMON_SERIALIZATION_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace dismastd {

inline constexpr uint64_t kFnv1aOffset = 14695981039346656037ull;

/// FNV-1a over `bytes` bytes at `data`, chained from `hash`. Doubles are
/// hashed by representation, so a fingerprint is exact, not
/// tolerance-based.
uint64_t Fnv1a(const void* data, size_t bytes, uint64_t hash = kFnv1aOffset);

/// Append-only little-endian byte buffer. Used by the simulated network to
/// serialize messages so that communication volume is measured in real bytes
/// (the same bytes an MPI/Spark shuffle would move).
class ByteWriter {
 public:
  void WriteU8(uint8_t v) { Append(&v, 1); }
  void WriteU32(uint32_t v) { Append(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { Append(&v, sizeof(v)); }
  void WriteI64(int64_t v) { Append(&v, sizeof(v)); }
  void WriteDouble(double v) { Append(&v, sizeof(v)); }
  void WriteString(const std::string& s) {
    WriteU64(s.size());
    Append(s.data(), s.size());
  }
  void WriteDoubleSpan(const double* data, size_t count) {
    WriteU64(count);
    Append(data, count * sizeof(double));
  }
  void WriteU64Span(const uint64_t* data, size_t count) {
    WriteU64(count);
    Append(data, count * sizeof(uint64_t));
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }
  size_t size() const { return bytes_.size(); }

 private:
  void Append(const void* data, size_t n) {
    if (n == 0) return;
    const size_t old_size = bytes_.size();
    bytes_.resize(old_size + n);
    std::memcpy(bytes_.data() + old_size, data, n);
  }

  std::vector<uint8_t> bytes_;
};

/// Sequential reader over a byte span produced by ByteWriter. All reads are
/// bounds-checked and return Status on underflow.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Status ReadU8(uint8_t* out) { return ReadRaw(out, 1); }
  Status ReadU32(uint32_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadU64(uint64_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadI64(int64_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadDouble(double* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadString(std::string* out);
  Status ReadDoubleVec(std::vector<double>* out);
  Status ReadU64Vec(std::vector<uint64_t>* out);

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  Status ReadRaw(void* out, size_t n) {
    if (pos_ + n > size_) {
      return Status::OutOfRange("ByteReader: read past end of buffer");
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace dismastd

#endif  // DISMASTD_COMMON_SERIALIZATION_H_
