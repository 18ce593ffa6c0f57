#include "src/common/string_util.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace forklift {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (;;) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::optional<uint64_t> ParseUnsigned(std::string_view s, unsigned base, uint64_t max) {
  if (s.empty()) {
    return std::nullopt;
  }
  uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c >= static_cast<char>('0' + base)) {
      return std::nullopt;
    }
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (digit > max || value > (max - digit) / base) {
      return std::nullopt;
    }
    value = value * base + digit;
  }
  return value;
}

std::optional<double> ParseSeconds(std::string_view s) {
  // strtod also takes leading whitespace, signs, "inf" and "nan": require a
  // digit or '.' up front so only plain numbers get that far.
  if (s.empty() || !(std::isdigit(static_cast<unsigned char>(s[0])) || s[0] == '.')) {
    return std::nullopt;
  }
  std::string text(s);
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i > start) {
      out.emplace_back(s.substr(start, i - start));
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) {
    ++b;
  }
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) {
    --e;
  }
  return s.substr(b, e - b);
}

std::string HumanBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  size_t unit = 0;
  while (v >= 1024.0 && unit + 1 < sizeof(kUnits) / sizeof(kUnits[0])) {
    v /= 1024.0;
    ++unit;
  }
  char buf[64];
  if (v == static_cast<uint64_t>(v)) {
    std::snprintf(buf, sizeof(buf), "%llu%s", static_cast<unsigned long long>(v), kUnits[unit]);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f%s", v, kUnits[unit]);
  }
  return buf;
}

std::string HumanNanos(double nanos) {
  char buf[64];
  if (nanos < 1e3) {
    std::snprintf(buf, sizeof(buf), "%.0fns", nanos);
  } else if (nanos < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fus", nanos / 1e3);
  } else if (nanos < 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fms", nanos / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", nanos / 1e9);
  }
  return buf;
}

}  // namespace forklift
