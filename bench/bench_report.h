// The one document every gated bench writes and tools/bench_compare.py
// gates against bench/baselines/:
//
//   {"bench": NAME,
//    "config": {KEY: VALUE, ...},
//    "rows": [{"name": ..., "metric": ..., "value": ..., "unit": ..., "gate": ...}, ...]}
//
// `config` is the run configuration the values depend on; the gate refuses
// to compare two documents whose configs differ. Each row is keyed by
// (name, metric), and its `gate` says how it compares with its baseline:
//
//   tight      deterministic simulation output: a drop of more than
//              min(threshold, 1%) fails
//   noisy      a wall-clock rate: a drop of more than the threshold fails
//   invariant  a verdict the bench computed: it must be true
//
// Write() also fails the bench itself when an invariant row is false, so
// the bench-smoke ctest entries check every invariant on every build.
//
// Header-only because CMake builds every bench/*.cc into its own executable.

#ifndef BENCH_BENCH_REPORT_H_
#define BENCH_BENCH_REPORT_H_

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/csv_export.h"

namespace eas::bench {

inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// The config's build_type: rates from debug and release builds never compare.
inline const char* BuildType() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

class BenchReport {
 public:
  explicit BenchReport(std::string bench) : bench_(std::move(bench)) {}

  void Config(const std::string& key, long long value) {
    config_.emplace_back(key, std::to_string(value));
  }
  void Config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, "\"" + value + "\"");
  }

  void Tight(const std::string& name, const std::string& metric, double value,
             const std::string& unit) {
    Add(name, metric, Number(value), unit, "tight");
  }
  void Noisy(const std::string& name, const std::string& metric, double value,
             const std::string& unit) {
    Add(name, metric, Number(value), unit, "noisy");
  }
  void Invariant(const std::string& name, const std::string& metric, bool holds) {
    Add(name, metric, holds ? "true" : "false", "bool", "invariant");
    if (!holds) {
      violated_.push_back(metric + "[" + name + "]");
    }
  }

  // Writes the document to `path` and returns the bench's exit status:
  // nonzero when the file cannot be written or any invariant row is false.
  int Write(const std::string& path) const {
    std::string json = "{\n  \"bench\": \"" + bench_ + "\",\n  \"config\": {";
    for (std::size_t i = 0; i < config_.size(); ++i) {
      json += (i == 0 ? "" : ", ") + ("\"" + config_[i].first + "\": ") + config_[i].second;
    }
    json += "},\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      json += "    " + rows_[i] + (i + 1 < rows_.size() ? ",\n" : "\n");
    }
    json += "  ]\n}\n";
    if (!WriteFile(path, json)) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", path.c_str());
    for (const std::string& invariant : violated_) {
      std::fprintf(stderr, "ERROR: invariant %s does not hold\n", invariant.c_str());
    }
    return violated_.empty() ? 0 : 1;
  }

 private:
  // Ten significant digits are far finer than any gate. A non-finite value
  // renders as inf or nan, which is not JSON, so the gate rejects the file.
  static std::string Number(double value) {
    char text[32];
    std::snprintf(text, sizeof(text), "%.10g", value);
    return text;
  }

  void Add(const std::string& name, const std::string& metric, const std::string& value,
           const std::string& unit, const char* gate) {
    rows_.push_back("{\"name\": \"" + name + "\", \"metric\": \"" + metric +
                    "\", \"value\": " + value + ", \"unit\": \"" + unit + "\", \"gate\": \"" +
                    gate + "\"}");
  }

  std::string bench_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::string> rows_;
  std::vector<std::string> violated_;
};

}  // namespace eas::bench

#endif  // BENCH_BENCH_REPORT_H_
