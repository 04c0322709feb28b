#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace sqlink {

std::vector<std::string> SplitString(std::string_view input, char delimiter) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == delimiter) {
      parts.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view delimiter) {
  std::string result;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) result += delimiter;
    result += parts[i];
  }
  return result;
}

std::string_view TrimWhitespace(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

std::string ToLowerAscii(std::string_view input) {
  std::string result(input);
  for (char& c : result) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return result;
}

std::string ToUpperAscii(std::string_view input) {
  std::string result(input);
  for (char& c : result) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return result;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

Result<int64_t> ParseInt64(std::string_view text) {
  if (text.empty()) return Status::ParseError("empty integer literal");
  std::string buf(text);
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::OutOfRange("integer out of range: " + buf);
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("invalid integer literal: " + buf);
  }
  return static_cast<int64_t>(value);
}

Result<double> ParseDouble(std::string_view text) {
  if (text.empty()) return Status::ParseError("empty double literal");
  std::string buf(text);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) {
    return Status::OutOfRange("double out of range: " + buf);
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("invalid double literal: " + buf);
  }
  return value;
}

int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  Result<int64_t> parsed = ParseInt64(value);
  return parsed.ok() ? *parsed : fallback;
}

std::string FormatBytes(uint64_t bytes) {
  static const char* const kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  char buf[32];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f %s", value, kUnits[unit]);
  }
  return buf;
}

}  // namespace sqlink
