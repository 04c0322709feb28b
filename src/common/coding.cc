#include "common/coding.h"

namespace sqlink {

void PutVarint64(std::string* dst, uint64_t value) {
  unsigned char buf[10];
  int i = 0;
  while (value >= 0x80) {
    buf[i++] = static_cast<unsigned char>(value) | 0x80;
    value >>= 7;
  }
  buf[i++] = static_cast<unsigned char>(value);
  dst->append(reinterpret_cast<char*>(buf), i);
}

Status Decoder::Truncated(const char* what) {
  return Status::DataLoss(std::string("truncated ") + what);
}

Status Decoder::VarintTooLong() { return Status::DataLoss("varint too long"); }

Result<uint32_t> Decoder::GetFixed32() {
  if (remaining() < 4) return Truncated("fixed32");
  uint32_t value;
  std::memcpy(&value, data_.data() + pos_, 4);
  pos_ += 4;
  return value;
}

Result<uint64_t> Decoder::GetFixed64() {
  if (remaining() < 8) return Truncated("fixed64");
  uint64_t value;
  std::memcpy(&value, data_.data() + pos_, 8);
  pos_ += 8;
  return value;
}

Status Decoder::CountTooLarge(uint64_t count) const {
  return Status::DataLoss("count " + std::to_string(count) + " exceeds the " +
                          std::to_string(remaining()) + " bytes left");
}

Result<std::string_view> Decoder::GetLengthPrefixed() {
  auto length = GetVarint64();
  if (!length.ok()) return length.status();
  if (remaining() < *length) {
    return Status::DataLoss("truncated length-prefixed string");
  }
  std::string_view value = data_.substr(pos_, *length);
  pos_ += *length;
  return value;
}

}  // namespace sqlink
