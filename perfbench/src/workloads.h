#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "span_fold.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured time of the untraced phases (closed loop + open loop).
  double seconds = 10.0;
  /// Adds a traced closed-loop phase and reports the per-layer table.
  bool trace = false;
  /// Input-size multiplier (1 = the committed workload; tests shrink it).
  double scale = 1.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Workload parameters, thread counts and input sizes, as key/value
  /// strings (already JSON-encoded values).
  std::vector<std::pair<std::string, std::string>> params;
  /// Full span fold of the traced phase (empty without tracing).
  std::vector<SpanStats> fold;
  /// Human-readable notes on any failed check.
  std::vector<std::string> errors;
};

/// Names of the workloads RunWorkload accepts.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload; returns false for an unknown workload name.
bool RunWorkload(const RunOptions& opts, RunResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
