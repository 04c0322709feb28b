#ifndef SQLINK_COMMON_CODING_H_
#define SQLINK_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/result.h"

namespace sqlink {

/// Little-endian fixed and varint encoders used by the streaming wire format
/// and the spill files. Append-style encoders write into a std::string;
/// decoders consume from a cursor over a string_view.

inline void PutFixed32(std::string* dst, uint32_t value) {
  char buf[4];
  std::memcpy(buf, &value, 4);
  dst->append(buf, 4);
}

inline void PutFixed64(std::string* dst, uint64_t value) {
  char buf[8];
  std::memcpy(buf, &value, 8);
  dst->append(buf, 8);
}

inline void PutDouble(std::string* dst, double value) {
  char buf[8];
  std::memcpy(buf, &value, 8);
  dst->append(buf, 8);
}

void PutVarint64(std::string* dst, uint64_t value);

/// ZigZag-encoded signed varint.
inline void PutVarint64Signed(std::string* dst, int64_t value) {
  const uint64_t zigzag =
      (static_cast<uint64_t>(value) << 1) ^ static_cast<uint64_t>(value >> 63);
  PutVarint64(dst, zigzag);
}

/// Length-prefixed string.
inline void PutLengthPrefixed(std::string* dst, std::string_view value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

/// In-place little-endian stores for callers encoding into a fixed stack
/// buffer (frame headers) instead of an append-style string.
inline void EncodeFixed32(char* dst, uint32_t value) {
  std::memcpy(dst, &value, 4);
}

inline void EncodeFixed64(char* dst, uint64_t value) {
  std::memcpy(dst, &value, 8);
}

/// Sequential decoder over an encoded buffer. All getters return an error
/// status on truncated input rather than reading out of bounds. The getters
/// a row decode calls per value are inline; their error statuses are built
/// out of line.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  Result<uint8_t> GetByte() {
    if (AtEnd()) return Truncated("byte");
    return static_cast<uint8_t>(data_[pos_++]);
  }

  Result<uint32_t> GetFixed32();
  Result<uint64_t> GetFixed64();

  Result<double> GetDouble() {
    if (remaining() < 8) return Truncated("double");
    double value;
    std::memcpy(&value, data_.data() + pos_, 8);
    pos_ += 8;
    return value;
  }

  Result<uint64_t> GetVarint64() {
    // Tags, field counts, short lengths and small ints are one byte.
    if (!AtEnd() && static_cast<unsigned char>(data_[pos_]) < 0x80) {
      return static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_++]));
    }
    uint64_t value = 0;
    for (int shift = 0; shift <= 63; shift += 7) {
      if (AtEnd()) return Truncated("varint");
      const auto byte = static_cast<unsigned char>(data_[pos_++]);
      value |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return value;
    }
    return VarintTooLong();
  }

  Result<int64_t> GetVarint64Signed() {
    auto zigzag = GetVarint64();
    if (!zigzag.ok()) return zigzag.status();
    const uint64_t z = *zigzag;
    return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  Result<std::string_view> GetLengthPrefixed();

  /// Reads an element count the peer sent. A count the rest of the buffer
  /// cannot hold, at `min_element_bytes` per element, is DataLoss, so a
  /// decoder may size an allocation from the result.
  Result<uint64_t> GetCount(size_t min_element_bytes) {
    auto count = GetVarint64();
    if (!count.ok()) return count;
    if (*count > remaining() / min_element_bytes) return CountTooLarge(*count);
    return count;
  }

  bool AtEnd() const { return pos_ >= data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }

 private:
  static Status Truncated(const char* what);
  static Status VarintTooLong();
  Status CountTooLarge(uint64_t count) const;

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace sqlink

#endif  // SQLINK_COMMON_CODING_H_
