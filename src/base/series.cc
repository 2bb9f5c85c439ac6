#include "src/base/series.h"

#include <algorithm>

namespace eas {

double Series::MaxValue() const {
  if (values_.empty()) {
    return 0.0;
  }
  return *std::max_element(values_.begin(), values_.end());
}

double Series::ValueAt(Tick tick, double fallback) const {
  // ticks_ is monotonically nondecreasing by construction.
  auto it = std::upper_bound(ticks_.begin(), ticks_.end(), tick);
  if (it == ticks_.begin()) {
    return fallback;
  }
  const std::size_t index = static_cast<std::size_t>(it - ticks_.begin()) - 1;
  return values_[index];
}

Series& SeriesSet::Create(std::string name) {
  series_.emplace_back(std::move(name));
  return series_.back();
}

double SeriesSet::MaxValue() const {
  double best = 0.0;
  for (const auto& s : series_) {
    best = std::max(best, s.MaxValue());
  }
  return best;
}

double SeriesSet::SpreadAt(Tick tick) const {
  bool any = false;
  double lo = 0.0;
  double hi = 0.0;
  for (const auto& s : series_) {
    if (s.empty()) {
      continue;
    }
    const double v = s.ValueAt(tick, s.value_at(0));
    if (!any) {
      lo = v;
      hi = v;
      any = true;
    } else {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  return any ? hi - lo : 0.0;
}

}  // namespace eas
