#include "src/base/text.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace eas {
namespace {

// from_chars reads no sign for unsigned types, only '-' for signed ones, and
// never skips space or saturates, so a full, error-free read is the rule.
template <typename T>
bool ParseWhole(const std::string& text, T* out) {
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

std::vector<std::string> SplitFields(const std::string& text, char sep) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      fields.push_back(text.substr(start));
      return fields;
    }
    fields.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string Trim(const std::string& text) {
  const std::size_t begin = text.find_first_not_of(" \t\r");
  if (begin == std::string::npos) {
    return "";
  }
  const std::size_t end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

bool ParseUint(const std::string& text, std::uint64_t* out) { return ParseWhole(text, out); }

bool ParseInt(const std::string& text, std::int64_t* out) { return ParseWhole(text, out); }

bool ParseFinite(const std::string& text, double* out) {
  // strtod skips leading space itself; the rule does not.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace eas
