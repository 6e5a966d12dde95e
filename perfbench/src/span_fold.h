#ifndef PERFBENCH_SPAN_FOLD_H_
#define PERFBENCH_SPAN_FOLD_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// One row of the per-layer table: every span of one name, folded.
struct SpanStats {
  std::string name;
  std::uint64_t count = 0;
  /// Sum of span durations.
  std::int64_t total_ns = 0;
  /// Sum of self times: each span's duration minus the part of it its
  /// direct children (spans on the same thread whose interval lies
  /// inside it) cover.
  std::int64_t self_ns = 0;
  /// Nearest-rank p99 of per-span self time.
  std::int64_t self_p99_ns = 0;
};

/// Folds a drained trace by span name (rows sorted by name). Nesting is
/// recovered from same-thread interval containment, so the fold needs
/// every span of a thread — drain into one buffer and fold once.
std::vector<SpanStats> FoldSpans(std::span<const datacron::obs::TraceSpanRecord> spans);

/// The row named `name`, or an all-zero row when no such span occurred.
SpanStats FindSpan(const std::vector<SpanStats>& rows, const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_FOLD_H_
