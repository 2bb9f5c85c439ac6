#include "src/base/flags.h"

#include <cstdlib>

namespace eas {

FlagParser::FlagParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      Set(body.substr(0, eq), body.substr(eq + 1));
      continue;
    }
    // "--name value" if the next token is not itself a flag; else a switch.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      Set(body, argv[i + 1]);
      ++i;
    } else {
      Set(body, "");
    }
  }
}

void FlagParser::Set(const std::string& name, const std::string& value) {
  if (!values_.insert_or_assign(name, value).second) {
    repeated_.insert(name);
  }
}

bool FlagParser::Has(const std::string& name) const { return values_.contains(name); }

std::string FlagParser::GetString(const std::string& name, const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

long long FlagParser::GetInt(const std::string& name, long long fallback) const {
  auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) {
    return fallback;
  }
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

std::vector<std::string> FlagParser::UnknownFlags(const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : values_) {
    bool found = false;
    for (const std::string& candidate : known) {
      if (name == candidate) {
        found = true;
        break;
      }
    }
    if (!found) {
      unknown.push_back(name);  // values_ is an ordered map, so this is sorted
    }
  }
  return unknown;
}

std::vector<std::string> FlagParser::RepeatedFlags() const {
  return std::vector<std::string>(repeated_.begin(), repeated_.end());
}

}  // namespace eas
