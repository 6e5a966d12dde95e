// Tests of the benchmark itself: the open-loop load generator, the span
// fold, output-digest checking, and a tiny run of every workload.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "datacron/engine.h"
#include "digest.h"
#include "loadgen.h"
#include "sources/ais_generator.h"
#include "span_fold.h"
#include "trace_capture.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<std::int64_t> BurstyTimestamps() {
  // Two reports per source second, one out of order (arrives late).
  return {1000, 1000, 2000, 2000, 1500, 3000, 3000, 10000, 10000, 11000};
}

// --- load generator ---------------------------------------------------------

TEST(ScheduleTest, FromTimestampsIsDeterministicMonotoneAndKeepsBursts) {
  const std::vector<std::int64_t> ts = BurstyTimestamps();
  const Schedule a = Schedule::FromTimestamps(ts, 1000.0);
  const Schedule b = Schedule::FromTimestamps(ts, 1000.0);
  ASSERT_EQ(a.size(), ts.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.arrivals()[i].due_ns, b.arrivals()[i].due_ns);
    EXPECT_EQ(a.arrivals()[i].index, i);
    if (i > 0) {
      EXPECT_GE(a.arrivals()[i].due_ns, a.arrivals()[i - 1].due_ns);
    }
  }
  // Same source second -> same due time; the late report is due with
  // the newest one seen before it.
  EXPECT_EQ(a.arrivals()[0].due_ns, a.arrivals()[1].due_ns);
  EXPECT_EQ(a.arrivals()[4].due_ns, a.arrivals()[3].due_ns);
  // The 7 s silence in the source survives as the largest gap.
  EXPECT_GT(a.arrivals()[7].due_ns - a.arrivals()[6].due_ns,
            a.arrivals()[6].due_ns - a.arrivals()[0].due_ns);
}

/// 20000 source timestamps with seeded 0-2 s gaps (bursts of equal ones).
std::vector<std::int64_t> RandomTimestamps(std::uint64_t seed) {
  std::vector<std::int64_t> ts;
  std::uint64_t x = seed;
  std::int64_t t = 0;
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    t += static_cast<std::int64_t>((x >> 33) % 3) * 1000;
    ts.push_back(t);
  }
  return ts;
}

TEST(ScheduleTest, OfferedRateMatchesTheRequestedRate) {
  const std::vector<std::int64_t> ts = RandomTimestamps(12345);
  for (const double rate : {500.0, 50000.0}) {
    EXPECT_NEAR(Schedule::FromTimestamps(ts, rate).OfferedRate(), rate, rate * 1e-6);
    const Schedule r = Schedule::Regular(1000, rate);
    EXPECT_NEAR(r.OfferedRate(), rate, rate * 1e-6);
    EXPECT_NEAR(static_cast<double>(r.arrivals()[1].due_ns), 1e9 / rate, 1.0);
  }
}

TEST(ScheduleTest, SameInputSameScheduleDifferentInputDifferentSchedule) {
  const Schedule a = Schedule::FromTimestamps(RandomTimestamps(1), 1000.0);
  const Schedule b = Schedule::FromTimestamps(RandomTimestamps(1), 1000.0);
  const Schedule c = Schedule::FromTimestamps(RandomTimestamps(2), 1000.0);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.arrivals()[i].due_ns, b.arrivals()[i].due_ns);
    differs |= a.arrivals()[i].due_ns != c.arrivals()[i].due_ns;
  }
  EXPECT_TRUE(differs);
}

TEST(ScheduleTest, NextPopResetAdvance) {
  Schedule s = Schedule::FromTimestamps(BurstyTimestamps(), 1000.0);
  const Arrival first = s.next();
  EXPECT_EQ(s.next().due_ns, first.due_ns);  // stable until pop
  s.pop();
  EXPECT_EQ(s.next().index, 1u);
  const std::int64_t t = s.arrivals()[7].due_ns;
  s.advance(t);
  EXPECT_EQ(s.next().index, 7u);
  s.reset();
  EXPECT_EQ(s.next().index, 0u);
  for (std::size_t i = 0; i < s.size(); ++i) s.pop();
  EXPECT_EQ(s.next().index, kTerminalArrival.index);
  s.pop();  // popping past the end stays terminal
  EXPECT_EQ(s.next().due_ns, kTerminalArrival.due_ns);
}

TEST(ScheduleTest, DrawnWindowsPartitionTheSchedule) {
  const Schedule s = Schedule::FromTimestamps(RandomTimestamps(3), 2000.0);
  const std::int64_t step = 10'000'000;  // 10 ms windows
  std::size_t seen = 0;
  std::int64_t t = 0;
  while (seen < s.size()) {
    const auto w = s.Window(t, t + step);
    for (const Arrival& a : w) {
      EXPECT_GE(a.due_ns, t);
      EXPECT_LT(a.due_ns, t + step);
      EXPECT_EQ(a.index, seen);
      ++seen;
    }
    t += step;
  }
  EXPECT_EQ(seen, s.size());
  // Over 10 ms windows the mean draw is rate * 10 ms = 20 arrivals.
  EXPECT_NEAR(static_cast<double>(seen) / (static_cast<double>(t) / step), 20.0, 2.0);
}

TEST(LagRecorderTest, CountsLatenessNeverEarliness) {
  LagRecorder lag;
  lag.Record(1'000'000, 900'000);    // early: impossible, clamps to 0
  lag.Record(1'000'000, 1'000'000);  // on time
  lag.Record(2'000'000, 5'000'000);  // 3 ms late
  lag.Record(3'000'000, 3'500'000);  // 0.5 ms late
  ASSERT_EQ(lag.count(), 4u);
  EXPECT_EQ(lag.samples()[0], 0);
  EXPECT_DOUBLE_EQ(lag.PercentileMs(100), 3.0);
  EXPECT_DOUBLE_EQ(lag.PercentileMs(75), 0.5);
  EXPECT_DOUBLE_EQ(lag.PercentileMs(50), 0.0);
}

TEST(PercentileTest, NearestRankAndMedian) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(v, 99), 99.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 50.0);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
}

// --- span fold ----------------------------------------------------------------

datacron::obs::TraceSpanRecord Span(const char* name, std::uint32_t tid,
                                    std::int64_t start, std::int64_t dur) {
  datacron::obs::TraceSpanRecord r;
  r.name = name;
  r.category = "test";
  r.tid = tid;
  r.start_ns = start;
  r.dur_ns = dur;
  return r;
}

TEST(SpanFoldTest, SelfTimeSubtractsDirectChildrenOnTheSameThread) {
  // Thread 1: outer [0,100) holds a [10,30) and b [40,70); b holds
  // c [45,55). Thread 2: b [20,60) overlaps outer in time but is not its
  // child. Input order is shuffled on purpose.
  const std::vector<datacron::obs::TraceSpanRecord> spans = {
      Span("c", 1, 45, 10), Span("outer", 1, 0, 100), Span("b", 2, 20, 40),
      Span("a", 1, 10, 20), Span("b", 1, 40, 30),
  };
  const std::vector<SpanStats> rows = FoldSpans(spans);
  ASSERT_EQ(rows.size(), 4u);
  const SpanStats outer = FindSpan(rows, "outer");
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(outer.total_ns, 100);
  EXPECT_EQ(outer.self_ns, 100 - 20 - 30);
  const SpanStats b = FindSpan(rows, "b");
  EXPECT_EQ(b.count, 2u);
  EXPECT_EQ(b.total_ns, 70);
  EXPECT_EQ(b.self_ns, (30 - 10) + 40);
  EXPECT_EQ(b.self_p99_ns, 40);
  EXPECT_EQ(FindSpan(rows, "c").self_ns, 10);
  EXPECT_EQ(FindSpan(rows, "a").self_ns, 20);
  EXPECT_EQ(FindSpan(rows, "missing").count, 0u);
}

TEST(SpanFoldTest, SiblingsStartingTogetherAndSequentialSpans) {
  // A parent and its first child start at the same instant; the next
  // span starts exactly where the parent ends (not a child).
  const std::vector<datacron::obs::TraceSpanRecord> spans = {
      Span("child", 0, 100, 5), Span("parent", 0, 100, 50), Span("next", 0, 150, 10),
  };
  const std::vector<SpanStats> rows = FoldSpans(spans);
  EXPECT_EQ(FindSpan(rows, "parent").self_ns, 45);
  EXPECT_EQ(FindSpan(rows, "child").self_ns, 5);
  EXPECT_EQ(FindSpan(rows, "next").self_ns, 10);
}

// --- output checks ------------------------------------------------------------

struct TinyRun {
  std::vector<datacron::Event> events;
  OutputDigest digest;
};

TinyRun IngestTiny(const std::vector<datacron::PositionReport>& reports, bool batch) {
  datacron::DatacronEngine::Config cfg;
  cfg.num_shards = batch ? 2 : 1;
  datacron::DatacronEngine engine(cfg);
  TinyRun run;
  if (batch) {
    datacron::ThreadPool pool(2);
    run.events = engine.IngestBatch(reports, &pool);
  } else {
    for (const auto& r : reports) {
      const auto ev = engine.Ingest(r);
      run.events.insert(run.events.end(), ev.begin(), ev.end());
    }
  }
  const auto fin = engine.Finish();
  run.events.insert(run.events.end(), fin.begin(), fin.end());
  run.digest = DigestOutputs(run.events, engine.triples(), engine.episodes(),
                             engine.critical_points());
  return run;
}

TEST(DigestTest, MatchingRunsAgreeAndAMismatchIsDetectedAndCounted) {
  datacron::AisGeneratorConfig fleet;
  fleet.num_vessels = 6;
  fleet.num_routes = 2;
  fleet.duration = 10 * datacron::kMinute;
  const auto reports =
      datacron::ObserveFleet(datacron::GenerateAisFleet(fleet), datacron::ObservationConfig{});
  ASSERT_GT(reports.size(), 50u);

  const TinyRun serial = IngestTiny(reports, false);
  const TinyRun sharded = IngestTiny(reports, true);
  EXPECT_GT(serial.digest.num_triples, 0u);
  EXPECT_EQ(serial.digest, sharded.digest);

  // A one-report perturbation of the input changes the outputs.
  std::vector<datacron::PositionReport> bad = reports;
  bad[reports.size() / 2].position.lat_deg += 0.05;
  const TinyRun perturbed = IngestTiny(bad, true);
  EXPECT_NE(perturbed.digest, serial.digest);

  // One flipped attribute bit in the event stream changes the digest.
  ASSERT_FALSE(serial.events.empty());
  std::vector<datacron::Event> events = serial.events;
  events.back().time += 1;
  EXPECT_NE(DigestOutputs(events, {}, {}, 0).events,
            DigestOutputs(serial.events, {}, {}, 0).events);

  CheckTally tally;
  tally.Check(sharded.digest == serial.digest, reports.size());
  tally.Check(perturbed.digest == serial.digest, reports.size());
  EXPECT_EQ(tally.attempted, 2 * reports.size());
  EXPECT_EQ(tally.failed, reports.size());
  EXPECT_EQ(tally.mismatches, 1u);
  EXPECT_FALSE(tally.ok());
}

TEST(DigestTest, RowDigestIsOrderSensitive) {
  const std::vector<datacron::Binding> rows = {{1, 2}, {3, 4}};
  const std::vector<datacron::Binding> swapped = {{3, 4}, {1, 2}};
  EXPECT_EQ(DigestRows(rows), DigestRows(rows));
  EXPECT_NE(DigestRows(rows), DigestRows(swapped));
}

// --- trace capture -------------------------------------------------------------

TEST(TraceCaptureTest, OverflowInAnEarlierPassFailsTheTracedPhase) {
  std::vector<std::string> errors;
  TraceCapture trace;
  trace.Begin();
  // First pass: far more spans than a thread's ring holds, no drain.
  trace.Resume();
  for (int i = 0; i < (1 << 18); ++i) {
    DATACRON_TRACE_SPAN("test.flood", "test");
  }
  trace.Pause();
  const std::uint64_t dropped = trace.Dropped();
  EXPECT_GT(dropped, 0u);
  // A clean last pass does not hide the earlier loss.
  trace.Resume();
  {
    DATACRON_TRACE_SPAN("test.clean", "test");
  }
  trace.Pause();
  EXPECT_EQ(trace.Dropped(), dropped);
  EXPECT_FALSE(CheckLossless(trace, &errors));
  ASSERT_EQ(errors.size(), 1u);

  // A fresh phase starts from zero.
  TraceCapture next;
  next.Begin();
  next.Resume();
  {
    DATACRON_TRACE_SPAN("test.clean", "test");
  }
  next.Pause();
  EXPECT_EQ(next.Dropped(), 0u);
  EXPECT_TRUE(CheckLossless(next, &errors));
  EXPECT_EQ(next.spans.size(), 1u);
}

// --- every workload, tiny -------------------------------------------------------

TEST(WorkloadTest, EveryWorkloadRunsCorrectlyAndReportsEveryMetric) {
  std::set<std::string> layer_names;
  for (const std::string& name : WorkloadNames()) {
    RunOptions opts;
    opts.workload = name;
    opts.seed = 5;
    opts.seconds = 0.2;
    opts.trace = true;
    opts.scale = 0.02;
    RunResult result;
    ASSERT_TRUE(RunWorkload(opts, &result)) << name;
    for (const std::string& e : result.errors) ADD_FAILURE() << name << ": " << e;
    EXPECT_TRUE(result.correct) << name;
    EXPECT_GT(result.attempted, 0u) << name;
    EXPECT_EQ(result.failed, 0u) << name;
    ASSERT_EQ(result.end_to_end.size(), 5u) << name;
    for (const Metric& m : result.end_to_end) {
      EXPECT_GT(m.value, 0.0) << name << " " << m.name;
    }
    std::set<std::string> names;
    for (const Metric& m : result.per_layer) names.insert(m.name);
    EXPECT_EQ(names.size(), result.per_layer.size()) << name << ": duplicate names";
    if (layer_names.empty()) layer_names = names;
    EXPECT_EQ(names, layer_names) << name << ": per-layer set differs";
    for (const Metric& m : result.per_layer) {
      if (m.name == "obs.spans_dropped") {
        EXPECT_EQ(m.value, 0.0) << name;
      }
      EXPECT_TRUE(std::isfinite(m.value)) << name << " " << m.name;
    }
  }
  RunResult unknown;
  RunOptions bad;
  bad.workload = "no_such_workload";
  EXPECT_FALSE(RunWorkload(bad, &unknown));
}

}  // namespace
}  // namespace perfbench
