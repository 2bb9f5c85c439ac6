// The value rules every text input shares: what counts as a field, a
// trimmed value and a number.
//
// The topology, fault-plan, workload, trace, request and wire parsers each
// keep their own grammar and messages, but read every value through these
// functions, so one input form means the same thing in all of them. Each
// number rule takes the whole text or nothing: no surrounding space, no
// trailing characters, no silent saturation. A rule that rejects its text
// leaves *out as it was.

#ifndef SRC_BASE_TEXT_H_
#define SRC_BASE_TEXT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace eas {

// Splits `text` on `sep`, keeping empty fields: "a::b" gives a, "", b, and
// "" gives one empty field, so a missing value is reported, never skipped.
std::vector<std::string> SplitFields(const std::string& text, char sep);

// `text` without the spaces, tabs and carriage returns at either end.
std::string Trim(const std::string& text);

// Decimal digits only (no sign, no space), within uint64.
bool ParseUint(const std::string& text, std::uint64_t* out);

// An optional '-', then decimal digits, within int64.
bool ParseInt(const std::string& text, std::int64_t* out);

// One finite number in strtod syntax that is the whole text.
bool ParseFinite(const std::string& text, double* out);

}  // namespace eas

#endif  // SRC_BASE_TEXT_H_
