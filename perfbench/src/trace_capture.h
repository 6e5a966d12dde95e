#ifndef PERFBENCH_TRACE_CAPTURE_H_
#define PERFBENCH_TRACE_CAPTURE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

/// Bucket-midpoint estimate of a log2 histogram's sum (bucket b > 0
/// covers [2^(b-1), 2^b)).
double HistSum(const datacron::LogHistogram& h);

/// Registry counters and histogram-sum estimates accumulated over the
/// measured part of traced passes (set-up and teardown excluded).
struct RegistryDelta {
  std::map<std::string, double> counters;
  std::map<std::string, double> hist_sums;
  datacron::obs::MetricsSnapshot before;

  void Begin();
  void End();
  double Counter(const std::string& name) const;
  double Hist(const std::string& name) const;
};

/// Everything a traced phase collects. A phase is one or more passes:
/// Begin() once before the first, then Resume()/Pause() around each
/// pass, draining between calls. Dropped() counts every span lost to
/// ring overflow since Begin(), in any pass.
struct TraceCapture {
  std::vector<datacron::obs::TraceSpanRecord> spans;
  RegistryDelta registry;
  std::uint64_t dropped_before = 0;
  double wall_ns = 0.0;
  double ops = 0.0;
  double epochs = 0.0;
  double events = 0.0;
  double triples = 0.0;
  double critical_points = 0.0;
  double pool_tasks = 0.0;
  double pool_wait_ns = 0.0;
  std::vector<double> rates;

  void Begin();
  void Resume();
  void Drain();
  void Pause();
  std::uint64_t Dropped() const;
};

/// False (with a note in `errors`) when the traced phase lost any span
/// to ring overflow; a traced run must be lossless.
bool CheckLossless(const TraceCapture& trace, std::vector<std::string>* errors);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_CAPTURE_H_
