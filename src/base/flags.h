// Minimal command-line flag parsing for the tools.
//
// Supports --name=value and --name value forms plus boolean switches
// (--name). No external dependencies; the tools' needs are modest.

#ifndef SRC_BASE_FLAGS_H_
#define SRC_BASE_FLAGS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

namespace eas {

class FlagParser {
 public:
  // Parses argv; unknown arguments that do not start with "--" are collected
  // as positional arguments.
  FlagParser(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  // Value of --name; `fallback` if absent. A bare switch yields "".
  std::string GetString(const std::string& name, const std::string& fallback = "") const;
  long long GetInt(const std::string& name, long long fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Flags that were passed but are not in `known`, sorted. Tools validate
  // their flag set with this so a typo ("--polcy") is rejected with the
  // offending flag named instead of being silently ignored.
  std::vector<std::string> UnknownFlags(const std::vector<std::string>& known) const;

  // Flags passed more than once, sorted. The accessors above return the
  // last value; a tool rejects these so no value is dropped silently.
  std::vector<std::string> RepeatedFlags() const;

 private:
  void Set(const std::string& name, const std::string& value);

  std::map<std::string, std::string> values_;
  std::set<std::string> repeated_;
  std::vector<std::string> positional_;
};

}  // namespace eas

#endif  // SRC_BASE_FLAGS_H_
