// Small string helpers used by the lexer, dictionary and bench harnesses.
#ifndef EQL_UTIL_STRING_UTIL_H_
#define EQL_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace eql {

/// Splits on a single character; empty pieces are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// True if `text` matches `pattern` where '*' matches any run (including
/// empty) and '?' matches exactly one character. This is the semantics of the
/// paper's '~' (LIKE-style) predicate operator (Definition 2.2).
bool GlobMatch(std::string_view pattern, std::string_view text);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Joins pieces with a separator.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// True if `s` parses fully as a finite double; stores it in *out.
bool ParseDouble(std::string_view s, double* out);

/// True if `s` is one or more ASCII digits and nothing else — no sign, no
/// whitespace, no empty string — whose value fits in uint64_t; stores it in
/// *out. This is RFC 9112's 1*DIGIT (Content-Length), the one grammar for
/// every untrusted integer: a lenient parse that reads "+5" or "" where a
/// proxy in front rejects them desynchronizes the two.
bool ParseDecimal(std::string_view s, uint64_t* out);

/// ParseDecimal whose value must also lie in [min, max]: the parse for a
/// numeric command-line flag, bounded by what its field holds. A wrapped,
/// truncated or sign-flipped value would run the tool under a setting
/// nobody asked for.
bool ParseDecimalInRange(std::string_view s, uint64_t min, uint64_t max,
                         uint64_t* out);

}  // namespace eql

#endif  // EQL_UTIL_STRING_UTIL_H_
