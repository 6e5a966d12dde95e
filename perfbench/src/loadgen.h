#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace perfbench {

/// One scheduled request of an open-loop phase: input item `index` is due
/// `due_ns` after the phase starts.
struct Arrival {
  std::size_t index = 0;
  std::int64_t due_ns = 0;
};

/// Past-the-end marker returned by Schedule::next() once exhausted.
inline constexpr Arrival kTerminalArrival{
    std::numeric_limits<std::size_t>::max(),
    std::numeric_limits<std::int64_t>::max()};

/// Vector-backed open-loop arrival schedule, in the next/pop/reset/advance
/// style of an event generator: due times never depend on how fast the
/// system under test drains them, so a stall delays every request queued
/// behind it instead of slowing the offered load.
class Schedule {
 public:
  /// Due times follow the input's own timestamps (milliseconds, input
  /// order) scaled so the mean offered rate over the whole input is
  /// `rate_per_s`. A timestamp earlier than its predecessor (out-of-order
  /// arrival) is due together with the newest one seen so far, so the
  /// schedule stays monotone and keeps the source's burstiness.
  static Schedule FromTimestamps(std::span<const std::int64_t> ts_ms,
                                 double rate_per_s);

  /// `n` arrivals evenly spaced at 1/rate_per_s.
  static Schedule Regular(std::size_t n, double rate_per_s);

  /// The next arrival; the same one until pop(). kTerminalArrival when
  /// the schedule is exhausted.
  Arrival next() const {
    return pos_ < arrivals_.size() ? arrivals_[pos_] : kTerminalArrival;
  }
  void pop() {
    if (pos_ < arrivals_.size()) ++pos_;
  }
  void reset() { pos_ = 0; }
  /// Skips every arrival due before `t_ns`.
  void advance(std::int64_t t_ns);

  /// Every arrival due in [t0_ns, t1_ns), independent of the cursor.
  std::span<const Arrival> Window(std::int64_t t0_ns,
                                  std::int64_t t1_ns) const;

  std::size_t size() const { return arrivals_.size(); }
  std::span<const Arrival> arrivals() const { return arrivals_; }
  /// Mean offered rate: arrivals after the first per second of schedule.
  double OfferedRate() const;

 private:
  explicit Schedule(std::vector<Arrival> arrivals)
      : arrivals_(std::move(arrivals)) {}

  std::vector<Arrival> arrivals_;
  std::size_t pos_ = 0;
};

/// How late the generator ran: one sample per request, the time it was
/// actually handed to the system minus its due time (never negative —
/// running early is impossible because the generator waits).
class LagRecorder {
 public:
  void Record(std::int64_t due_ns, std::int64_t sent_ns) {
    lag_ns_.push_back(sent_ns > due_ns ? sent_ns - due_ns : 0);
  }
  std::size_t count() const { return lag_ns_.size(); }
  /// Nearest-rank percentile in milliseconds (0 when empty).
  double PercentileMs(double p) const;
  const std::vector<std::int64_t>& samples() const { return lag_ns_; }

 private:
  std::vector<std::int64_t> lag_ns_;
};

/// Nearest-rank percentile of `values` (p in [0, 100]); sorts a copy.
/// Returns 0 for an empty input.
double Percentile(std::vector<double> values, double p);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
