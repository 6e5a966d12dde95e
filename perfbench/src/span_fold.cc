#include "span_fold.h"

#include <algorithm>
#include <map>

namespace perfbench {

std::vector<SpanStats> FoldSpans(
    std::span<const datacron::obs::TraceSpanRecord> spans) {
  // Visit order: by thread, then start ascending, longer span first on a
  // tie so a parent precedes the children that start with it.
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& x = spans[a];
    const auto& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.dur_ns > y.dur_ns;
  });

  std::vector<std::int64_t> child_ns(spans.size(), 0);
  std::vector<std::size_t> open;  // stack of enclosing spans, one thread
  std::uint32_t tid = 0;
  for (const std::size_t i : order) {
    const auto& s = spans[i];
    if (open.empty() || s.tid != tid) {
      open.clear();
      tid = s.tid;
    }
    const std::int64_t end = s.start_ns + s.dur_ns;
    while (!open.empty()) {
      const auto& top = spans[open.back()];
      if (end <= top.start_ns + top.dur_ns) break;
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += s.dur_ns;
    open.push_back(i);
  }

  std::map<std::string, SpanStats> rows;
  std::map<std::string, std::vector<std::int64_t>> selfs;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const std::string name = s.name != nullptr ? s.name : "";
    SpanStats& row = rows[name];
    row.name = name;
    ++row.count;
    row.total_ns += s.dur_ns;
    const std::int64_t self = std::max<std::int64_t>(0, s.dur_ns - child_ns[i]);
    row.self_ns += self;
    selfs[name].push_back(self);
  }
  std::vector<SpanStats> out;
  out.reserve(rows.size());
  for (auto& [name, row] : rows) {
    std::vector<std::int64_t>& v = selfs[name];
    const std::size_t rank = (v.size() * 99 + 99) / 100;  // ceil(0.99 n)
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     v.end());
    row.self_p99_ns = v[rank - 1];
    out.push_back(row);
  }
  return out;
}

SpanStats FindSpan(const std::vector<SpanStats>& rows, const std::string& name) {
  for (const SpanStats& r : rows) {
    if (r.name == name) return r;
  }
  SpanStats empty;
  empty.name = name;
  return empty;
}

}  // namespace perfbench
