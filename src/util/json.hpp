// JSON string escaping shared by every JSON writer in the tree (metrics
// snapshots, Chrome traces, SARIF lint reports).
#pragma once

#include <string>
#include <string_view>

namespace phodis::util {

/// Append `s` to `out` as the body of a JSON string literal (without the
/// surrounding quotes): quote, backslash, \n, \r and \t get their short
/// escapes, every other control character its \u00XX form.
inline void append_json_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
}

/// The escaped body of `s` as a fresh string.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  append_json_escaped(out, s);
  return out;
}

}  // namespace phodis::util
