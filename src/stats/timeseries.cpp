#include "stats/timeseries.hpp"

#include <algorithm>

namespace fncc {

double TimeSeries::Max() const {
  double m = 0.0;
  for (const Sample& s : samples_) m = std::max(m, s.value);
  return m;
}

double TimeSeries::MeanOver(Time from, Time to) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const Sample& s : samples_) {
    if (s.t >= from && s.t < to) {
      sum += s.value;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

Time TimeSeries::FirstTimeBelow(double threshold, Time from) const {
  for (const Sample& s : samples_) {
    if (s.t >= from && s.value < threshold) return s.t;
  }
  return kTimeInfinity;
}

}  // namespace fncc
