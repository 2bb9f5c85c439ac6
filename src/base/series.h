// Time series recording for experiment traces (thermal power curves,
// CPU-residency traces, throughput over time).

#ifndef SRC_BASE_SERIES_H_
#define SRC_BASE_SERIES_H_

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "src/base/time.h"

namespace eas {

// A named sequence of (tick, value) samples.
class Series {
 public:
  explicit Series(std::string name) : name_(std::move(name)) {}

  void Add(Tick tick, double value) {
    ticks_.push_back(tick);
    values_.push_back(value);
  }

  const std::string& name() const { return name_; }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  Tick tick_at(std::size_t i) const { return ticks_[i]; }
  double value_at(std::size_t i) const { return values_[i]; }
  const std::vector<double>& values() const { return values_; }

  // Largest sample value; 0 for an empty series.
  double MaxValue() const;

  // Value of the last sample at or before `tick`; `fallback` if none.
  double ValueAt(Tick tick, double fallback) const;

 private:
  std::string name_;
  std::vector<Tick> ticks_;
  std::vector<double> values_;
};

// A bundle of series sharing a time axis (e.g. one per CPU). Stored in a
// deque so references returned by Create stay valid as the set grows.
class SeriesSet {
 public:
  Series& Create(std::string name);
  const std::deque<Series>& all() const { return series_; }
  std::size_t size() const { return series_.size(); }
  Series& at(std::size_t i) { return series_[i]; }
  const Series& at(std::size_t i) const { return series_[i]; }

  // Max over every sample of every series.
  double MaxValue() const;

  // Spread (max - min) across series at the closest sample to `tick`.
  double SpreadAt(Tick tick) const;

 private:
  std::deque<Series> series_;
};

}  // namespace eas

#endif  // SRC_BASE_SERIES_H_
