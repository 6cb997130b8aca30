#include "common/serialization.h"

namespace dismastd {

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

Status ByteReader::ReadString(std::string* out) {
  uint64_t len = 0;
  DISMASTD_RETURN_IF_ERROR(ReadU64(&len));
  if (pos_ + len > size_) {
    return Status::OutOfRange("ByteReader: string length exceeds buffer");
  }
  out->assign(reinterpret_cast<const char*>(data_ + pos_),
              static_cast<size_t>(len));
  pos_ += len;
  return Status::OK();
}

Status ByteReader::ReadDoubleVec(std::vector<double>* out) {
  uint64_t count = 0;
  DISMASTD_RETURN_IF_ERROR(ReadU64(&count));
  if (pos_ + count * sizeof(double) > size_) {
    return Status::OutOfRange("ByteReader: double span exceeds buffer");
  }
  out->resize(count);
  std::memcpy(out->data(), data_ + pos_, count * sizeof(double));
  pos_ += count * sizeof(double);
  return Status::OK();
}

Status ByteReader::ReadU64Vec(std::vector<uint64_t>* out) {
  uint64_t count = 0;
  DISMASTD_RETURN_IF_ERROR(ReadU64(&count));
  if (pos_ + count * sizeof(uint64_t) > size_) {
    return Status::OutOfRange("ByteReader: u64 span exceeds buffer");
  }
  out->resize(count);
  std::memcpy(out->data(), data_ + pos_, count * sizeof(uint64_t));
  pos_ += count * sizeof(uint64_t);
  return Status::OK();
}

}  // namespace dismastd
