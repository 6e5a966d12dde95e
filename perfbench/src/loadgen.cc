#include "loadgen.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Schedule Schedule::FromTimestamps(std::span<const std::int64_t> ts_ms,
                                  double rate_per_s) {
  std::vector<Arrival> arrivals(ts_ms.size());
  if (ts_ms.empty()) return Schedule(std::move(arrivals));
  // Running maximum: the source clock never goes backwards.
  std::vector<std::int64_t> clock(ts_ms.size());
  std::int64_t newest = ts_ms[0];
  for (std::size_t i = 0; i < ts_ms.size(); ++i) {
    newest = std::max(newest, ts_ms[i]);
    clock[i] = newest - ts_ms[0];
  }
  const double span_ms = static_cast<double>(clock.back());
  const double n_gaps = static_cast<double>(ts_ms.size() - 1);
  // Seconds of schedule per millisecond of source time, chosen so the
  // last arrival is due at n_gaps / rate: mean offered rate == rate.
  const double scale =
      span_ms > 0.0 ? n_gaps / rate_per_s / span_ms : 0.0;
  for (std::size_t i = 0; i < ts_ms.size(); ++i) {
    arrivals[i].index = i;
    arrivals[i].due_ns = span_ms > 0.0
                             ? std::llround(static_cast<double>(clock[i]) *
                                            scale * 1e9)
                             : std::llround(static_cast<double>(i) /
                                            rate_per_s * 1e9);
  }
  return Schedule(std::move(arrivals));
}

Schedule Schedule::Regular(std::size_t n, double rate_per_s) {
  std::vector<Arrival> arrivals(n);
  for (std::size_t i = 0; i < n; ++i) {
    arrivals[i].index = i;
    arrivals[i].due_ns = std::llround(static_cast<double>(i) / rate_per_s * 1e9);
  }
  return Schedule(std::move(arrivals));
}

void Schedule::advance(std::int64_t t_ns) {
  const auto it = std::lower_bound(
      arrivals_.begin() + static_cast<std::ptrdiff_t>(pos_), arrivals_.end(),
      t_ns, [](const Arrival& a, std::int64_t t) { return a.due_ns < t; });
  pos_ = static_cast<std::size_t>(it - arrivals_.begin());
}

std::span<const Arrival> Schedule::Window(std::int64_t t0_ns,
                                          std::int64_t t1_ns) const {
  const auto less = [](const Arrival& a, std::int64_t t) {
    return a.due_ns < t;
  };
  const auto lo =
      std::lower_bound(arrivals_.begin(), arrivals_.end(), t0_ns, less);
  const auto hi = std::lower_bound(lo, arrivals_.end(), t1_ns, less);
  return {arrivals_.data() + (lo - arrivals_.begin()),
          static_cast<std::size_t>(hi - lo)};
}

double Schedule::OfferedRate() const {
  if (arrivals_.size() < 2 || arrivals_.back().due_ns <= 0) return 0.0;
  return static_cast<double>(arrivals_.size() - 1) /
         (static_cast<double>(arrivals_.back().due_ns) * 1e-9);
}

double LagRecorder::PercentileMs(double p) const {
  std::vector<double> ms(lag_ns_.size());
  for (std::size_t i = 0; i < lag_ns_.size(); ++i) {
    ms[i] = static_cast<double>(lag_ns_[i]) * 1e-6;
  }
  return Percentile(std::move(ms), p);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const double n = static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double hi = values[mid];
  if (values.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

}  // namespace perfbench
