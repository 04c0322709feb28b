#ifndef SQLINK_COMMON_STRING_UTIL_H_
#define SQLINK_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace sqlink {

/// Splits on a single-character delimiter. Adjacent delimiters produce empty
/// fields; an empty input produces one empty field (CSV semantics).
std::vector<std::string> SplitString(std::string_view input, char delimiter);

/// Joins with a delimiter string.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view delimiter);

/// Removes ASCII whitespace from both ends.
std::string_view TrimWhitespace(std::string_view input);

std::string ToLowerAscii(std::string_view input);
std::string ToUpperAscii(std::string_view input);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Case-insensitive ASCII comparison (SQL keywords/identifiers).
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Strict integer / double parsers: the whole string must be consumed.
Result<int64_t> ParseInt64(std::string_view text);
Result<double> ParseDouble(std::string_view text);

/// Integer environment knob: the variable's value when set and parseable,
/// `fallback` otherwise (used for SQLINK_HEARTBEAT_MS-style defaults).
int64_t EnvInt64(const char* name, int64_t fallback);

/// Human-readable byte count, e.g. "1.5 MiB".
std::string FormatBytes(uint64_t bytes);

}  // namespace sqlink

#endif  // SQLINK_COMMON_STRING_UTIL_H_
