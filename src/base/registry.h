// A thread-safe name -> entry table: the one implementation behind every
// component registry (balancing policies, frequency governors, scenarios).
//
// Names sort: Names() is the catalogue order of every `--list-*` and of the
// one unknown-name diagnostic, UnknownMessage(). Entries are registered at
// runtime (the builtins on first Global() access, further ones from tests
// or tools) and never removed. Find() copies an entry out under the lock,
// so a factory runs without holding it.

#ifndef SRC_BASE_REGISTRY_H_
#define SRC_BASE_REGISTRY_H_

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace eas {

template <typename T>
class Registry {
 public:
  using Entry = T;

  // Registers `entry` under `name`. Returns false (and leaves the existing
  // entry) if the name is already taken.
  bool Register(const std::string& name, Entry entry) {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.emplace(name, std::move(entry)).second;
  }

  // A copy of the entry registered under `name`; std::nullopt if unknown.
  std::optional<Entry> Find(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      return std::nullopt;
    }
    return it->second;
  }

  bool Contains(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.contains(name);
  }

  // Registered names, sorted.
  std::vector<std::string> Names() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) {
      names.push_back(name);
    }
    return names;
  }

  // `unknown <what> "<name>" (known: a, b, c)`, listing Names().
  std::string UnknownMessage(const std::string& what, const std::string& name) const {
    std::string known;
    for (const std::string& candidate : Names()) {
      known += known.empty() ? candidate : ", " + candidate;
    }
    return "unknown " + what + " \"" + name + "\" (known: " + known + ")";
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace eas

#endif  // SRC_BASE_REGISTRY_H_
