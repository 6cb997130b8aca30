#ifndef DISMASTD_COMMON_STRING_UTIL_H_
#define DISMASTD_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dismastd {

/// Splits `input` on `delim`, keeping empty fields.
std::vector<std::string> SplitString(std::string_view input, char delim);

/// Trims ASCII whitespace from both ends.
std::string_view TrimWhitespace(std::string_view input);

/// Parses a non-negative integer; fails on garbage or overflow.
Status ParseU64(std::string_view input, uint64_t* out);

/// Parses a double; fails on garbage.
Status ParseDouble(std::string_view input, double* out);

/// ASCII lower-case copy (other bytes unchanged); how every name parser
/// matches case-insensitively.
std::string AsciiLower(std::string_view text);

/// Formats with thousands separators, e.g. 1234567 -> "1,234,567".
std::string FormatWithCommas(uint64_t value);

/// Human-readable byte count, e.g. "1.5 MiB".
std::string FormatBytes(uint64_t bytes);

}  // namespace dismastd

#endif  // DISMASTD_COMMON_STRING_UTIL_H_
