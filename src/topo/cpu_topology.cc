#include "src/topo/cpu_topology.h"

#include <cassert>

#include "src/base/text.h"

namespace eas {
namespace {

// Default level names, innermost first; a topology of depth n takes the
// first n and reverses them, so 3 levels read node:package:smt and 5 read
// rack:board:node:package:smt.
constexpr const char* kDefaultLevelNames[] = {"smt",   "package", "node",  "board",
                                              "rack",  "row",     "hall",  "site"};
constexpr std::size_t kMaxLevels = sizeof(kDefaultLevelNames) / sizeof(kDefaultLevelNames[0]);

// No simulated machine needs more than a million logical CPUs.
constexpr std::size_t kMaxLogicalCpus = std::size_t{1} << 20;

std::string DefaultLevelName(std::size_t level, std::size_t num_levels) {
  assert(num_levels <= kMaxLevels && level < num_levels);
  return kDefaultLevelNames[num_levels - 1 - level];
}

}  // namespace

CpuTopology::CpuTopology(std::size_t num_nodes, std::size_t physical_per_node,
                         std::size_t smt_per_physical)
    : CpuTopology(std::vector<TopologyLevel>{{"node", num_nodes},
                                             {"package", physical_per_node},
                                             {"smt", smt_per_physical}}) {}

CpuTopology::CpuTopology(std::vector<TopologyLevel> levels) : levels_(std::move(levels)) {
  assert(levels_.size() >= 2);
  assert(levels_.size() <= kMaxLevels);
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    assert(levels_[i].width >= 1);
    if (levels_[i].name.empty()) {
      levels_[i].name = DefaultLevelName(i, levels_.size());
    }
  }
  Finalize();
}

void CpuTopology::Finalize() {
  const std::size_t n = levels_.size();
  smt_per_physical_ = levels_[n - 1].width;
  num_physical_ = 1;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    num_physical_ *= levels_[i].width;
  }
  physical_per_node_ = levels_[n - 2].width;
  num_nodes_ = num_physical_ / physical_per_node_;
  // Suffix products over the package-bearing levels: packages per unit at
  // level i is the product of widths strictly below i (SMT excluded).
  packages_per_unit_.assign(n, 1);
  for (std::size_t i = n - 1; i-- > 0;) {
    packages_per_unit_[i] =
        (i + 1 < n - 1) ? packages_per_unit_[i + 1] * levels_[i + 1].width : 1;
  }
}

CpuTopology CpuTopology::PaperXSeries445(bool smt_enabled) {
  return CpuTopology(2, 4, smt_enabled ? 2 : 1);
}

std::size_t CpuTopology::UnitsAtLevel(std::size_t level) const {
  assert(level < levels_.size());
  if (level == levels_.size() - 1) {
    return num_logical();
  }
  return num_physical_ / packages_per_unit_[level];
}

std::size_t CpuTopology::PhysicalOf(int logical) const {
  assert(logical >= 0 && static_cast<std::size_t>(logical) < num_logical());
  return static_cast<std::size_t>(logical) % num_physical();
}

std::size_t CpuTopology::NodeOf(int logical) const {
  return PhysicalOf(logical) / physical_per_node_;
}

std::size_t CpuTopology::ThreadOf(int logical) const {
  return static_cast<std::size_t>(logical) / num_physical();
}

int CpuTopology::LogicalId(std::size_t physical, std::size_t thread) const {
  assert(physical < num_physical());
  assert(thread < smt_per_physical_);
  return static_cast<int>(thread * num_physical() + physical);
}

std::vector<int> CpuTopology::SiblingsOf(int logical) const {
  const std::size_t physical = PhysicalOf(logical);
  std::vector<int> siblings;
  siblings.reserve(smt_per_physical_);
  for (std::size_t t = 0; t < smt_per_physical_; ++t) {
    siblings.push_back(LogicalId(physical, t));
  }
  return siblings;
}

bool CpuTopology::AreSiblings(int a, int b) const { return PhysicalOf(a) == PhysicalOf(b); }

bool CpuTopology::SameNode(int a, int b) const { return NodeOf(a) == NodeOf(b); }

std::optional<CpuTopology> ParseTopologySpec(const std::string& spec, std::string* error) {
  const std::vector<std::string> fields = SplitFields(spec, ':');
  if (fields.size() < 2) {
    if (error != nullptr) {
      *error = "want at least two colon-separated level widths "
               "(nodes:physical-per-node:smt, or deeper lists like 4:8:2:4:2), got \"" +
               spec + "\"";
    }
    return std::nullopt;
  }
  if (fields.size() > kMaxLevels) {
    if (error != nullptr) {
      *error = "topology \"" + spec + "\" has " + std::to_string(fields.size()) +
               " levels; at most " + std::to_string(kMaxLevels) + " are supported";
    }
    return std::nullopt;
  }
  // The classic 3-level grid keeps its historical field names in errors;
  // everything else reports by level name, token, and 1-based position.
  static constexpr const char* kGridFieldNames[3] = {"nodes", "physical-per-node", "smt"};
  std::vector<TopologyLevel> levels(fields.size());
  std::size_t total_logical = 1;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    std::string token = fields[i];
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) {
      levels[i].name = token.substr(0, eq);
      token = token.substr(eq + 1);
      if (levels[i].name.empty()) {
        if (error != nullptr) {
          *error = "level " + std::to_string(i + 1) + " token \"" + fields[i] +
                   "\" has an empty level name";
        }
        return std::nullopt;
      }
    } else if (fields.size() == 3) {
      levels[i].name = (i == 0) ? "node" : (i == 1) ? "package" : "smt";
    }
    std::uint64_t width = 0;
    if (!ParseUint(token, &width) || width < 1) {
      if (error != nullptr) {
        const std::string display =
            fields.size() == 3 && eq == std::string::npos
                ? std::string(kGridFieldNames[i])
                : (levels[i].name.empty() ? DefaultLevelName(i, fields.size()) : levels[i].name);
        *error = display + " field \"" + token + "\" (level " + std::to_string(i + 1) + " of \"" +
                 spec + "\") is not a positive integer";
      }
      return std::nullopt;
    }
    // Compared before multiplying, so no width can overflow the product.
    if (width > kMaxLogicalCpus / total_logical) {
      if (error != nullptr) {
        *error = "topology \"" + spec + "\" describes more than " +
                 std::to_string(kMaxLogicalCpus) + " logical CPUs";
      }
      return std::nullopt;
    }
    levels[i].width = static_cast<std::size_t>(width);
    total_logical *= levels[i].width;
  }
  return CpuTopology(std::move(levels));
}

}  // namespace eas
