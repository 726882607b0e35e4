#include "common/numeric.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <system_error>

namespace nc {

std::string FormatDouble(double v) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), v);
  // The buffer comfortably exceeds the longest shortest-round-trip form.
  return std::string(buffer, result.ptr);
}

std::string FormatHexDouble(double v) {
  if (std::isnan(v)) return std::signbit(v) ? "-nan" : "nan";
  std::string out;
  if (std::signbit(v)) {
    out.push_back('-');
    v = -v;
  }
  if (std::isinf(v)) {
    out += "inf";
    return out;
  }
  char buffer[64];
  const auto result =
      std::to_chars(buffer, buffer + sizeof(buffer), v, std::chars_format::hex);
  out += "0x";
  out.append(buffer, result.ptr);
  return out;
}

bool ParseDouble(std::string_view token, double* out) {
  if (token.empty() || out == nullptr) return false;
  bool negative = false;
  std::string_view rest = token;
  if (rest.front() == '+' || rest.front() == '-') {
    negative = rest.front() == '-';
    rest.remove_prefix(1);
    // Exactly one sign: from_chars would otherwise accept a second '-'.
    if (rest.empty() || rest.front() == '+' || rest.front() == '-') {
      return false;
    }
  }
  std::chars_format format = std::chars_format::general;
  if (rest.size() > 2 && rest[0] == '0' && (rest[1] == 'x' || rest[1] == 'X')) {
    rest.remove_prefix(2);
    format = std::chars_format::hex;
  }
  double value = 0.0;
  const auto result =
      std::from_chars(rest.data(), rest.data() + rest.size(), value, format);
  if (result.ec != std::errc() || result.ptr != rest.data() + rest.size()) {
    return false;
  }
  *out = negative ? -value : value;
  return true;
}

bool ParseUInt64(std::string_view token, uint64_t* out) {
  if (token.empty() || out == nullptr) return false;
  uint64_t value = 0;
  const auto result =
      std::from_chars(token.data(), token.data() + token.size(), value, 10);
  if (result.ec != std::errc() || result.ptr != token.data() + token.size()) {
    return false;
  }
  *out = value;
  return true;
}

bool NearlyEqual(double a, double b, double tol) {
  return std::fabs(a - b) <=
         tol * std::max({1.0, std::fabs(a), std::fabs(b)});
}

}  // namespace nc
