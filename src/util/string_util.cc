#include "util/string_util.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace eql {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\n' || s[b] == '\r')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\n' ||
                   s[e - 1] == '\r'))
    --e;
  return s.substr(b, e - b);
}

bool GlobMatch(std::string_view pattern, std::string_view text) {
  // Iterative two-pointer matcher with backtracking on the last '*'.
  size_t p = 0, t = 0;
  size_t star = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string Join(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

bool ParseDouble(std::string_view s, double* out) {
  if (s.empty()) return false;
  std::string buf(s);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

bool ParseDecimal(std::string_view s, uint64_t* out) {
  // from_chars on an unsigned type already rejects signs and whitespace;
  // the checks add "non-empty" and "consumed every byte".
  if (s.empty()) return false;
  const char* end = s.data() + s.size();
  uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return false;
  *out = v;
  return true;
}

bool ParseDecimalInRange(std::string_view s, uint64_t min, uint64_t max,
                         uint64_t* out) {
  uint64_t v = 0;
  if (!ParseDecimal(s, &v) || v < min || v > max) return false;
  *out = v;
  return true;
}

}  // namespace eql
