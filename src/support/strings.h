// Small string-formatting helpers shared across the library.
#pragma once

#include <sstream>
#include <string>
#include <vector>

namespace tssa {

/// Joins the elements of `items` with `sep`, streaming each through
/// operator<<. Works for any streamable element type.
template <typename Container>
std::string join(const Container& items, const std::string& sep) {
  std::ostringstream os;
  bool first = true;
  for (const auto& item : items) {
    if (!first) os << sep;
    os << item;
    first = false;
  }
  return os.str();
}

/// Renders a container as "[a, b, c]". Streamed rather than concatenated
/// with operator+, on which GCC 12's -Wrestrict misfires at -O3.
template <typename Container>
std::string bracketed(const Container& items) {
  std::ostringstream os;
  os << "[" << join(items, ", ") << "]";
  return os.str();
}

/// Splits `text` on `sep`, keeping empty fields.
inline std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

}  // namespace tssa
