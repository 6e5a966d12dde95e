#include "trace_capture.h"

#include <cmath>

namespace perfbench {

double HistSum(const datacron::LogHistogram& h) {
  double sum = 0.0;
  for (std::size_t b = 1; b < datacron::LogHistogram::num_buckets(); ++b) {
    sum += static_cast<double>(h.bucket_count(b)) * 0.75 * std::ldexp(1.0, static_cast<int>(b));
  }
  return sum;
}

void RegistryDelta::Begin() { before = datacron::obs::MetricsRegistry::Global().Snapshot(); }

void RegistryDelta::End() {
  const datacron::obs::MetricsSnapshot after = datacron::obs::MetricsRegistry::Global().Snapshot();
  for (const auto& [name, v] : after.counters) {
    const auto it = before.counters.find(name);
    const std::uint64_t b = it == before.counters.end() ? 0 : it->second;
    counters[name] += static_cast<double>(v - b);
  }
  for (const auto& [name, h] : after.histograms) {
    const auto it = before.histograms.find(name);
    const double b = it == before.histograms.end() ? 0.0 : HistSum(it->second);
    hist_sums[name] += HistSum(h) - b;
  }
}

double RegistryDelta::Counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

double RegistryDelta::Hist(const std::string& name) const {
  const auto it = hist_sums.find(name);
  return it == hist_sums.end() ? 0.0 : it->second;
}

void TraceCapture::Begin() {
  datacron::obs::TraceCollector::Discard();
  dropped_before = datacron::obs::TraceCollector::DroppedCount();
}

void TraceCapture::Resume() {
  registry.Begin();
  datacron::obs::EnableTracing(true);
}

void TraceCapture::Drain() {
  std::vector<datacron::obs::TraceSpanRecord> s = datacron::obs::TraceCollector::Drain();
  spans.insert(spans.end(), s.begin(), s.end());
}

void TraceCapture::Pause() {
  datacron::obs::EnableTracing(false);
  Drain();
  registry.End();
}

std::uint64_t TraceCapture::Dropped() const {
  return datacron::obs::TraceCollector::DroppedCount() - dropped_before;
}

bool CheckLossless(const TraceCapture& trace, std::vector<std::string>* errors) {
  const std::uint64_t dropped = trace.Dropped();
  if (dropped == 0) return true;
  errors->push_back("traced run dropped " + std::to_string(dropped) + " spans to ring overflow");
  return false;
}

}  // namespace perfbench
