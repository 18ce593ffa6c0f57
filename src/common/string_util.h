// forklift/common: small string helpers used across the library.
#ifndef SRC_COMMON_STRING_UTIL_H_
#define SRC_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace forklift {

// Splits on any occurrence of `sep`. Empty fields are preserved
// ("a,,b" → {"a","","b"}); an empty input yields {""}.
std::vector<std::string> Split(std::string_view s, char sep);

// Splits on runs of whitespace; no empty fields; empty/blank input yields {}.
std::vector<std::string> SplitWhitespace(std::string_view s);

std::string Join(const std::vector<std::string>& parts, std::string_view sep);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

// Command-line number parsing. Both accept only a complete, plain value: an
// empty string, a sign, whitespace, or trailing characters yield nullopt,
// where strtoul/strtod would silently return 0 or wrap a negative.
//
// ParseUnsigned reads digits in `base` (2..10, e.g. 8 for a umask) and
// rejects values above `max`.
std::optional<uint64_t> ParseUnsigned(std::string_view s, unsigned base = 10,
                                      uint64_t max = UINT64_MAX);
// ParseSeconds reads a finite, non-negative decimal number (e.g. "0.25").
std::optional<double> ParseSeconds(std::string_view s);

// Human-readable byte size: "4.0KiB", "2.5MiB", "3GiB".
std::string HumanBytes(uint64_t bytes);

// Human-readable nanoseconds: "840ns", "1.24us", "3.5ms", "2.1s".
std::string HumanNanos(double nanos);

}  // namespace forklift

#endif  // SRC_COMMON_STRING_UTIL_H_
