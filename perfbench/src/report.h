// What one benchmark invocation reports: the operation counts, the output
// check verdict, and the named metrics the final JSON line carries.
//
// Every workload fills one Report; main.cc prints it as the last stdout line
// (`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`).
// Human-readable context (run conditions, digests, sample counts) goes to
// stdout above that line through Note().

#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline std::int64_t NanosSinceEpoch(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Command-line arguments shared by every workload.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // serve-mix only: additionally send a malformed request and a request
  // that overflows the queue, and check that both are counted as failed.
  bool self_test = false;
  // Scale factor on every workload's simulated length (tests use a tiny
  // one); 1 is the benchmark as defined.
  double scale = 1.0;
};

// Where the benchmark writes spans and its server socket: the build
// directory run.py uses, relative to the root of the source tree.
inline constexpr char kOutDir[] = ".bench_build";

class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }

  // `count` attempted operations (runs or requests); `ok` false counts
  // them as failed.
  void Attempt(std::int64_t count, bool ok) {
    attempted_ += count;
    if (!ok) {
      failed_ += count;
    }
  }

  // An output check failed: the run is not correct and the command exits
  // non-zero. The reason goes to stderr.
  void Mismatch(const std::string& what);

  bool correct() const { return correct_; }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  void set_metrics(std::vector<Metric> metrics) { metrics_ = std::move(metrics); }

  // The result object, on one line.
  std::string Json() const;

 private:
  bool correct_ = true;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

// Prints one human-readable context line to stdout ("  key: value").
void Note(const std::string& key, const std::string& value);

// Median and linear-interpolated percentile (q in [0, 1]) of `values`;
// +inf entries (failed requests) sort last. 0 for an empty input.
double Median(std::vector<double> values);
double Percentile(std::vector<double> values, double q);

// Peak resident set size of this process, in MB.
double PeakRssMb();

// Moves the calling thread round the CPUs it may run on, one per Next().
// On a shared host one CPU can run the benchmark 1.6x slower than another
// for a minute or more, while an unpinned thread stays where it started;
// spreading runs over every CPU lets the fastest-run filters find a fast
// one. Restores the calling thread's original CPU set when destroyed.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();
  // Pins every thread of the process to the next `width` CPUs in turn;
  // threads started later inherit the set from the thread that starts them.
  void NextForProcess(std::size_t width);
  std::size_t cpus() const { return cpus_.size(); }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// 64-bit FNV-1a over bytes; Mix folds a double's exact bit pattern in.
class Digest {
 public:
  void Add(const std::string& bytes);
  void Mix(double value);
  void Mix(std::int64_t value);
  std::uint64_t value() const { return hash_; }
  std::string Hex() const;

 private:
  void AddBytes(const void* data, std::size_t size);
  std::uint64_t hash_ = 1469598103934665603ULL;
};

std::string HexDigest(const std::string& bytes);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
