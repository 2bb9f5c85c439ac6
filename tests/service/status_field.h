// Reads one number field out of the flat status JSON the service writes, so
// the service tests can check counters without a JSON parser.

#ifndef TESTS_SERVICE_STATUS_FIELD_H_
#define TESTS_SERVICE_STATUS_FIELD_H_

#include <cstdlib>
#include <string>

namespace eas {

// The value of `"field": <number>`; `fallback` when the field is absent.
inline double StatusField(const std::string& json, const std::string& field, double fallback) {
  const std::string needle = "\"" + field + "\": ";
  const std::size_t start = json.find(needle);
  if (start == std::string::npos) {
    return fallback;
  }
  return std::strtod(json.c_str() + start + needle.size(), nullptr);
}

}  // namespace eas

#endif  // TESTS_SERVICE_STATUS_FIELD_H_
