// CPU topology: an arbitrary-depth tree of repeated units, described as a
// level list (outermost first, innermost level = SMT threads). The classic
// machine is the 3-level list node x package x smt; cluster-scale machines
// stack more levels on top (e.g. rack -> board -> socket -> package -> smt),
// with every unit's identity being its path in that tree.
//
// Logical CPU numbering follows the paper's machine (Section 6.4): sibling
// IDs differ in the most significant bit, i.e. logical = thread * num_physical
// + physical. On the 8-way 2-thread xSeries 445, CPU 0's sibling is CPU 8,
// CPUs 0-3 (+ siblings 8-11) live on node 0, CPUs 4-7 (+12-15) on node 1.
// Physical packages are numbered by flattening the level tree outermost
// first, so a unit at level i always covers a contiguous package range.

#ifndef SRC_TOPO_CPU_TOPOLOGY_H_
#define SRC_TOPO_CPU_TOPOLOGY_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace eas {

// One level of the topology tree: `width` units of the next level down per
// unit of this one. `name` feeds domain naming and error messages only.
struct TopologyLevel {
  std::string name;
  std::size_t width = 1;
};

class CpuTopology {
 public:
  // Legacy 3-level constructor: nodes x physical-per-node x smt.
  CpuTopology(std::size_t num_nodes, std::size_t physical_per_node, std::size_t smt_per_physical);

  // General form: levels outermost first, at least two (package-ish + smt);
  // the innermost level is always the SMT thread count.
  explicit CpuTopology(std::vector<TopologyLevel> levels);

  // The paper's evaluation machine: 2 nodes x 4 physical x 2 threads.
  static CpuTopology PaperXSeries445(bool smt_enabled);

  // The level list, outermost first; back() is the SMT level.
  const std::vector<TopologyLevel>& levels() const { return levels_; }
  std::size_t num_levels() const { return levels_.size(); }

  // Units at level i (flattened across all ancestors). Level num_levels()-2
  // is the physical-package level; level num_levels()-1 the logical CPUs.
  std::size_t UnitsAtLevel(std::size_t level) const;

  // Physical packages per unit at `level` (1 at the package level itself).
  std::size_t PackagesPerUnit(std::size_t level) const {
    return packages_per_unit_[level];
  }

  // Legacy grid accessors. For deep trees, "node" means the unit one level
  // above the package level (the cheapest level whose crossings carry the
  // paper's cache-affinity penalty).
  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t physical_per_node() const { return physical_per_node_; }
  std::size_t smt_per_physical() const { return smt_per_physical_; }
  std::size_t num_physical() const { return num_physical_; }
  std::size_t num_logical() const { return num_physical_ * smt_per_physical_; }

  // Physical package of a logical CPU.
  std::size_t PhysicalOf(int logical) const;

  // NUMA node of a logical CPU.
  std::size_t NodeOf(int logical) const;

  // SMT thread index (0 .. smt_per_physical-1) of a logical CPU.
  std::size_t ThreadOf(int logical) const;

  // Logical CPU id for (physical package, thread index).
  int LogicalId(std::size_t physical, std::size_t thread) const;

  // All logical CPUs on the same physical package as `logical` (includes it).
  std::vector<int> SiblingsOf(int logical) const;

  // True if a and b share a physical package.
  bool AreSiblings(int a, int b) const;

  // True if a and b are on the same NUMA node.
  bool SameNode(int a, int b) const;

 private:
  void Finalize();

  std::vector<TopologyLevel> levels_;  // outermost first; back() = SMT
  // packages_per_unit_[i] = product of widths below level i (excluding SMT).
  std::vector<std::size_t> packages_per_unit_;
  std::size_t num_nodes_ = 1;
  std::size_t physical_per_node_ = 1;
  std::size_t smt_per_physical_ = 1;
  std::size_t num_physical_ = 1;
};

// Parses a colon-separated topology specification (the `eastool --topology`
// syntax): two or more level widths, outermost first, innermost = SMT.
// "2:4:1" is the classic nodes:physical-per-node:smt grid; deeper lists like
// "4:8:2:4:2" describe cluster-scale trees, and any token may carry a level
// name ("rack=4:board=8:socket=2:package=4:smt=2"). Full validation: every
// width a strictly positive integer with no trailing garbage (a `0` or
// "junk" token is rejected by token and position, not turned into a 0-CPU
// machine), depth and total CPU count capped to sane bounds.
std::optional<CpuTopology> ParseTopologySpec(const std::string& spec, std::string* error);

}  // namespace eas

#endif  // SRC_TOPO_CPU_TOPOLOGY_H_
