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

Result<uint8_t> Decoder::GetByte() {
  if (AtEnd()) return Status::DataLoss("truncated byte");
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> Decoder::GetFixed32() {
  if (remaining() < 4) return Status::DataLoss("truncated fixed32");
  uint32_t value;
  std::memcpy(&value, data_.data() + pos_, 4);
  pos_ += 4;
  return value;
}

Result<uint64_t> Decoder::GetFixed64() {
  if (remaining() < 8) return Status::DataLoss("truncated fixed64");
  uint64_t value;
  std::memcpy(&value, data_.data() + pos_, 8);
  pos_ += 8;
  return value;
}

Result<double> Decoder::GetDouble() {
  if (remaining() < 8) return Status::DataLoss("truncated double");
  double value;
  std::memcpy(&value, data_.data() + pos_, 8);
  pos_ += 8;
  return value;
}

Result<uint64_t> Decoder::GetVarint64() {
  uint64_t value = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (AtEnd()) return Status::DataLoss("truncated varint");
    const unsigned char byte = static_cast<unsigned char>(data_[pos_++]);
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
  }
  return Status::DataLoss("varint too long");
}

Result<int64_t> Decoder::GetVarint64Signed() {
  auto zigzag = GetVarint64();
  if (!zigzag.ok()) return zigzag.status();
  const uint64_t z = *zigzag;
  return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

Result<uint64_t> Decoder::GetCount(size_t min_element_bytes) {
  auto count = GetVarint64();
  if (!count.ok()) return count.status();
  if (*count > remaining() / min_element_bytes) {
    return Status::DataLoss("count " + std::to_string(*count) +
                            " exceeds the " + std::to_string(remaining()) +
                            " bytes left");
  }
  return count;
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
