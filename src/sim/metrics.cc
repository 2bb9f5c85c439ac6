#include "src/sim/metrics.h"

#include <cstdio>
#include <utility>

namespace eas {
namespace {

MetricValue Integral(std::string name, double value) {
  MetricValue metric;
  metric.name = std::move(name);
  metric.value = value;
  metric.integral = true;
  return metric;
}

MetricValue Fractional(std::string name, double value, int precision) {
  MetricValue metric;
  metric.name = std::move(name);
  metric.value = value;
  metric.precision = precision;
  return metric;
}

}  // namespace

std::string FormatMetricValue(const MetricValue& value) {
  char buffer[64];
  if (value.integral) {
    std::snprintf(buffer, sizeof(buffer), "%lld", static_cast<long long>(value.value));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.*f", value.precision, value.value);
  }
  return buffer;
}

std::vector<MetricValue> MetricScalars(const RunResult& r) {
  // Order is load-bearing: this is the historical summary-CSV layout, and
  // the golden tests pin the rendered bytes.
  std::vector<MetricValue> out = {
      Integral("migrations", static_cast<double>(r.migrations)),
      Integral("completions", static_cast<double>(r.completions)),
      Fractional("work_done_ticks", r.work_done_ticks, 1),
      Fractional("duration_seconds", r.duration_seconds, 3),
      Fractional("throughput", r.Throughput(), 2),
      Fractional("avg_throttled_fraction", r.AverageThrottledFraction(), 4),
  };
  for (std::size_t cpu = 0; cpu < r.throttled_fraction.size(); ++cpu) {
    out.push_back(Fractional("throttled_fraction_cpu" + std::to_string(cpu),
                             r.throttled_fraction[cpu], 4));
  }
  // The DVFS families expand to nothing for an ungoverned run (the vectors
  // stay empty under the "none" governor), which is what keeps ungoverned
  // tables byte-identical to the pre-DVFS format.
  for (std::size_t cpu = 0; cpu < r.average_frequency.size(); ++cpu) {
    out.push_back(Fractional("avg_frequency_cpu" + std::to_string(cpu),
                             r.average_frequency[cpu], 4));
  }
  for (std::size_t cpu = 0; cpu < r.pstate_residency.size(); ++cpu) {
    for (std::size_t p = 0; p < r.pstate_residency[cpu].size(); ++p) {
      out.push_back(
          Fractional("pstate_residency_cpu" + std::to_string(cpu) + "_p" + std::to_string(p),
                     r.pstate_residency[cpu][p], 4));
    }
  }
  // The fault families follow the same conditional pattern: the optionals
  // are only set when the config carried a fault plan, so fault-free runs
  // emit no fault columns and their records stay byte-identical.
  if (r.faults_fired.has_value()) {
    out.push_back(Integral("faults_fired", static_cast<double>(*r.faults_fired)));
  }
  if (r.offline_cpu_ticks.has_value()) {
    out.push_back(Integral("offline_cpu_ticks", static_cast<double>(*r.offline_cpu_ticks)));
  }
  return out;
}

}  // namespace eas
