#include "src/workloads/workload_builder.h"

#include <cstdint>

#include "src/base/text.h"

namespace eas {
namespace {

// A whole spec spawns at most this many tasks, so an absurd count is a bad
// workload instead of a multi-gigabyte spawn list.
constexpr std::uint64_t kMaxSpecTasks = 1'000'000;

// Reads a `kind:<n>` count: `fallback` when the text is empty, else digits
// no larger than the task bound.
bool ParseCount(const std::string& text, std::uint64_t fallback, std::uint64_t* n) {
  if (text.empty()) {
    *n = fallback;
    return true;
  }
  return ParseUint(text, n) && *n <= kMaxSpecTasks;
}

}  // namespace

std::vector<const Program*> MixedWorkload(const ProgramLibrary& library, int instances) {
  std::vector<const Program*> spawn;
  for (int i = 0; i < instances; ++i) {
    for (const Program* program : library.Table2Programs()) {
      spawn.push_back(program);
    }
  }
  return spawn;
}

std::vector<const Program*> HomogeneityWorkload(const ProgramLibrary& library, int n_memrw,
                                                int n_pushpop, int n_bitcnts) {
  std::vector<const Program*> spawn;
  int remaining[3] = {n_memrw, n_pushpop, n_bitcnts};
  const Program* programs[3] = {&library.memrw(), &library.pushpop(), &library.bitcnts()};
  // Round-robin interleave so queues mix under naive placement too.
  bool any = true;
  while (any) {
    any = false;
    for (int i = 0; i < 3; ++i) {
      if (remaining[i] > 0) {
        spawn.push_back(programs[i]);
        --remaining[i];
        any = true;
      }
    }
  }
  return spawn;
}

std::vector<const Program*> HotTaskWorkload(const ProgramLibrary& library, int n) {
  return std::vector<const Program*>(static_cast<std::size_t>(n), &library.bitcnts());
}

std::vector<const Program*> ParseWorkloadSpec(const std::string& spec,
                                              const ProgramLibrary& library) {
  const std::size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const std::string arg = colon == std::string::npos ? "" : spec.substr(colon + 1);
  std::uint64_t n = 0;
  if (kind == "mixed") {
    return ParseCount(arg, 3, &n) && n <= kMaxSpecTasks / library.Table2Programs().size()
               ? MixedWorkload(library, static_cast<int>(n))
               : std::vector<const Program*>{};
  }
  if (kind == "homog") {
    const std::vector<std::string> fields = SplitFields(arg, ',');
    std::uint64_t counts[3] = {};
    std::uint64_t total = 0;
    if (fields.size() != 3) {
      return {};
    }
    for (std::size_t i = 0; i < 3; ++i) {
      if (!ParseUint(fields[i], &counts[i]) || counts[i] > kMaxSpecTasks - total) {
        return {};
      }
      total += counts[i];
    }
    return HomogeneityWorkload(library, static_cast<int>(counts[0]), static_cast<int>(counts[1]),
                               static_cast<int>(counts[2]));
  }
  if (kind == "hot") {
    return ParseCount(arg, 1, &n) ? HotTaskWorkload(library, static_cast<int>(n))
                                  : std::vector<const Program*>{};
  }
  if (kind == "short") {
    if (!ParseCount(arg, 16, &n)) {
      return {};
    }
    std::vector<const Program*> spawn;
    spawn.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      spawn.push_back(i % 2 == 0 ? &library.short_hot() : &library.short_cool());
    }
    return spawn;
  }
  if (kind == "list") {
    // "list:bitcnts*8,memrw*12,sshd" - an explicit spawn list by program
    // name, each entry optionally repeated with *count. Makes ad-hoc mixes
    // (e.g. a consolidation host's service blend) declarable in request
    // files instead of requiring code.
    std::vector<const Program*> spawn;
    for (const std::string& entry : SplitFields(arg, ',')) {
      const std::size_t star = entry.find('*');
      const Program* program = library.ByName(entry.substr(0, star));
      std::uint64_t count = 1;
      if (program == nullptr ||
          (star != std::string::npos && (!ParseUint(entry.substr(star + 1), &count) || count < 1)) ||
          count > kMaxSpecTasks - spawn.size()) {
        return {};
      }
      spawn.insert(spawn.end(), static_cast<std::size_t>(count), program);
    }
    return spawn;
  }
  return {};
}

}  // namespace eas
