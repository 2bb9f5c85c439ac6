#include "src/report.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

namespace perfbench {

void Report::Mismatch(const std::string& what) {
  correct_ = false;
  std::fprintf(stderr, "OUTPUT CHECK FAILED: %s\n", what.c_str());
}

namespace {

// Shortest text that reads back as exactly `value` (17 significant digits
// always do); JSON has no spelling for a non-finite number, Python's
// `Infinity` is what json.loads accepts.
std::string JsonNumber(double value) {
  if (std::isnan(value)) {
    return "NaN";
  }
  if (std::isinf(value)) {
    return value > 0 ? "Infinity" : "-Infinity";
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::string Report::Json() const {
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  return json;
}

void Note(const std::string& key, const std::string& value) {
  std::printf("  %s: %s\n", key.c_str(), value.c_str());
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0) {
    return values[lo];
  }
  if (std::isinf(values[hi])) {
    return values[hi];  // interpolating toward a failed request is a failure
  }
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

namespace {

// Pins thread `tid` (0: the calling thread) to `cpus`.
bool SetCpus(const std::vector<int>& cpus, pid_t tid = 0) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  return sched_setaffinity(tid, sizeof(set), &set) == 0;
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus_.push_back(cpu);
      }
    }
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.size() > 1) {
    SetCpus(cpus_);
  }
}

void CpuRotation::Next() {
  if (cpus_.size() > 1) {
    SetCpus({cpus_[next_++ % cpus_.size()]});
  }
}

void CpuRotation::NextForProcess(std::size_t width) {
  if (cpus_.size() <= width) {
    return;
  }
  std::vector<int> cpus;
  for (std::size_t i = 0; i < width; ++i) {
    cpus.push_back(cpus_[(next_ + i) % cpus_.size()]);
  }
  ++next_;
  std::error_code error;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task", error)) {
    SetCpus(cpus, static_cast<pid_t>(std::atoi(task.path().filename().c_str())));
  }
}

void Digest::AddBytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 1099511628211ULL;
  }
}

void Digest::Add(const std::string& bytes) { AddBytes(bytes.data(), bytes.size()); }

void Digest::Mix(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  AddBytes(&bits, sizeof(bits));
}

void Digest::Mix(std::int64_t value) { AddBytes(&value, sizeof(value)); }

std::string Digest::Hex() const {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(hash_));
  return buffer;
}

std::string HexDigest(const std::string& bytes) {
  Digest digest;
  digest.Add(bytes);
  return digest.Hex();
}

}  // namespace perfbench
