// The four benchmark workloads. Each drives the system only through its
// public entry points (DecodeAivdm, AdmissionQueue::Push/PopBatch,
// DatacronEngine::IngestBatch/Finish, SubscriptionBroker/SubscriberClient,
// LocalCluster/ClusterEngine::IngestBatch, PartitionedRdfStore::Load,
// QueryEngine::ExecuteGlobal), checks every pass against a reference
// computed in the same process, and reports the end-to-end metrics from
// untraced phases and the per-layer table from a separate traced phase.
#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/local_cluster.h"
#include "common/thread_pool.h"
#include "common/time_utils.h"
#include "datacron/engine.h"
#include "digest.h"
#include "fingerprint.h"
#include "loadgen.h"
#include "net/codec.h"
#include "net/sub_channel.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/partitioned_store.h"
#include "partition/partitioner.h"
#include "query/engine.h"
#include "rdf/vocab.h"
#include "sources/ais_generator.h"
#include "sources/nmea.h"
#include "stream/admission.h"
#include "sub/oracle.h"
#include "sub/registry.h"
#include "trace_capture.h"

namespace perfbench {
namespace {

using datacron::AdmissionQueue;
using datacron::DatacronEngine;
using datacron::Event;
using datacron::PositionReport;
using datacron::ThreadPool;

std::int64_t Now() { return datacron::MonotonicNanos(); }

void SleepUntil(std::int64_t t_ns) {
  using Clock = std::chrono::steady_clock;
  std::this_thread::sleep_until(
      Clock::time_point(std::chrono::nanoseconds(t_ns)));
}

// --- workload constants ----------------------------------------------------
//
// Offered rates are fixed once from the closed-loop rates the parent
// commit sustained on a 4-vCPU x86-64 VM (maritime ~105k reports/s,
// cluster ~65k, subs ~24k, queries ~2.2k/s; see perfbench/README.md) and
// are not re-derived per run, so a later change sees the same load. They
// sit near a third of those rates: the shared host has slow spells of
// 25-50% lasting seconds, and at half load those pushed the open-loop
// latency of whole runs into the queueing knee.

constexpr std::size_t kMaritimeVessels = 1000;  // 10x E10's fleet
constexpr datacron::DurationMs kMaritimeDuration = 8 * datacron::kMinute;
constexpr std::size_t kMaritimeRoutes = 40;
constexpr double kMaritimeRate = 35000.0;
constexpr double kClusterRate = 20000.0;

constexpr std::size_t kSubsVessels = 500;  // E13 shape
constexpr datacron::DurationMs kSubsDuration = 8 * datacron::kMinute;
constexpr std::size_t kSubsCount = 100000;
constexpr datacron::SubscriberId kSubscribers = 4;
constexpr double kSubsRate = 7000.0;
/// Reports of each checked pass compared against SubscriptionOracle.
constexpr std::size_t kOraclePrefixReports = 384;

constexpr int kStorePartitions = 8;
constexpr int kStoreRounds = 3;
constexpr std::size_t kQueryInstances = 512;
constexpr double kQueryRate = 600.0;
/// Open-loop samples per latency window: reports on the ingest
/// workloads (a quarter to one second of offered load), queries on
/// store_query. The latency figures are medians over windows; a window
/// keeps at least 10 samples beyond its p99.
constexpr std::size_t kIngestLatencyWindow = 10000;
constexpr std::size_t kLatencyWindow = 1000;

/// Share of --seconds spent in the closed-loop phase; the open-loop
/// phase gets the rest.
constexpr double kClosedShare = 0.4;

/// Set-up is also timed on its own, in blocks spread over the run: at
/// most kMaxSetups samples or kSetupBudgetNs of set-up time in all.
constexpr std::size_t kMaxSetups = 48;
constexpr std::int64_t kSetupBudgetNs = 1'500'000'000;

unsigned Nproc() {
  static const unsigned n = std::max(1u, TakeFingerprint().nproc);
  return n;
}

/// Pool width so generator + consumer + pool fit in nproc threads.
unsigned PoolThreads() { return Nproc() > 3 ? Nproc() - 2 : 1; }

std::size_t Scaled(std::size_t n, double scale, std::size_t floor) {
  return std::max(floor, static_cast<std::size_t>(std::llround(
                             static_cast<double>(n) * scale)));
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

DatacronEngine::Config EngineConfig(std::size_t num_shards) {
  // E10's two named areas.
  DatacronEngine::Config cfg;
  cfg.areas.push_back(datacron::NamedArea{
      "zone_a", datacron::Polygon::Rectangle(
                    datacron::BoundingBox::Of(35.5, 23.5, 36.5, 24.5))});
  cfg.areas.push_back(datacron::NamedArea{
      "zone_b", datacron::Polygon::Rectangle(
                    datacron::BoundingBox::Of(37.0, 25.0, 38.0, 26.0))});
  cfg.num_shards = num_shards;
  return cfg;
}

/// Seeded AIS fleet with shared lanes and out-of-order arrival.
std::vector<PositionReport> FleetStream(std::size_t vessels,
                                        datacron::DurationMs duration,
                                        std::size_t routes,
                                        std::uint64_t seed) {
  datacron::AisGeneratorConfig fleet;
  fleet.num_vessels = vessels;
  fleet.duration = duration;
  fleet.num_routes = routes;
  fleet.seed = seed;
  datacron::ObservationConfig obs;
  obs.out_of_order_jitter_ms = 5 * datacron::kSecond;
  obs.seed = seed * 0x9E3779B97F4A7C15ull + 7;
  return datacron::ObserveFleet(datacron::GenerateAisFleet(fleet), obs);
}

/// Serial report-by-report Ingest loop: the single-threaded baseline and
/// the reference every ingest pass must reproduce.
struct SerialReference {
  OutputDigest digest;
  double rps = 0.0;
};

SerialReference RunSerial(std::span<const PositionReport> reports,
                          std::unique_ptr<DatacronEngine>* keep = nullptr) {
  auto engine = std::make_unique<DatacronEngine>(EngineConfig(1));
  std::vector<Event> events;
  const std::int64_t t0 = Now();
  for (const PositionReport& r : reports) {
    std::vector<Event> ev = engine->Ingest(r);
    events.insert(events.end(), ev.begin(), ev.end());
  }
  std::vector<Event> fin = engine->Finish();
  const double wall_s = static_cast<double>(Now() - t0) * 1e-9;
  events.insert(events.end(), fin.begin(), fin.end());
  SerialReference ref;
  ref.digest = DigestOutputs(events, engine->triples(), engine->episodes(),
                             engine->critical_points());
  ref.rps = static_cast<double>(reports.size()) / wall_s;
  if (keep != nullptr) *keep = std::move(engine);
  return ref;
}

// --- the generic open/closed-loop pipeline --------------------------------

/// Benchmark-side timings of one pass through generator -> admission
/// queue -> consumer.
struct PassTimes {
  std::int64_t start_ns = 0;  // first push (closed loop: generator start)
  std::int64_t end_ns = 0;    // the finish call returned
  std::size_t pushed = 0;
  std::size_t rejected = 0;
  std::vector<double> latency_ms;     // due -> result observable (open)
  LagRecorder lag;                    // due -> generator started (open)
  std::vector<double> queue_wait_ms;  // Push returned -> PopBatch returned
  std::vector<double> call_ms;        // PopBatch returned -> consume returned
  std::size_t pops = 0;
  std::size_t backlog_max = 0;
  std::int64_t produce_ns = 0;
  std::int64_t finish_ns = 0;

  double wall_s() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Runs `n` items through `queue`. The generator thread produces item i
/// (produce returns false for a rejected input) and pushes it — at its
/// due time when `schedule` is set (open loop), else as fast as the
/// queue admits (closed loop). The calling thread pops batches of at
/// most `max_pop`, hands each to `consume`, and calls `finish` once the
/// queue is closed and drained.
template <typename Item, typename Produce, typename Consume, typename Finish>
PassTimes RunPipeline(std::size_t n, const Schedule* schedule,
                      AdmissionQueue<Item>* queue, std::size_t max_pop,
                      Produce&& produce, Consume&& consume, Finish&& finish) {
  PassTimes t;
  std::vector<std::int64_t> due, sent, push_ret;
  due.reserve(n);
  sent.reserve(n);
  push_ret.reserve(n);
  std::vector<std::int64_t> pop_ns, done_ns;
  pop_ns.reserve(n);
  done_ns.reserve(n);

  // Let the generator thread start before the first arrival is due.
  const std::int64_t t0 = Now() + 2'000'000;
  std::exception_ptr gen_error;
  std::thread generator([&] {
    try {
      std::optional<Schedule> open_loop;
      if (schedule != nullptr) {
        open_loop = *schedule;
        open_loop->reset();
        SleepUntil(t0);
      }
      for (std::size_t i = 0; i < n; ++i) {
        std::size_t index = i;
        std::int64_t due_i = 0;
        if (open_loop) {
          const Arrival a = open_loop->next();
          open_loop->pop();
          index = a.index;
          due_i = t0 + a.due_ns;
          SleepUntil(due_i);
        }
        const std::int64_t s = Now();
        if (!open_loop) due_i = s;
        Item item;
        const bool ok = produce(index, &item);
        t.produce_ns += Now() - s;
        if (!ok) {
          ++t.rejected;
          continue;
        }
        due.push_back(due_i);
        sent.push_back(s);
        if (!queue->Push(std::move(item))) break;
        push_ret.push_back(Now());
      }
    } catch (...) {
      gen_error = std::current_exception();
    }
    queue->Close();
  });

  t.start_ns = schedule != nullptr ? t0 : Now();
  try {
    for (;;) {
      std::vector<Item> batch = queue->PopBatch(max_pop);
      const std::int64_t t_pop = Now();
      if (batch.empty()) break;
      t.backlog_max = std::max(t.backlog_max, batch.size() + queue->size());
      pop_ns.insert(pop_ns.end(), batch.size(), t_pop);
      consume(batch);
      const std::int64_t t_done = Now();
      t.call_ms.push_back(static_cast<double>(t_done - t_pop) * 1e-6);
      done_ns.insert(done_ns.end(), batch.size(), t_done);
      ++t.pops;
    }
    const std::int64_t tf = Now();
    finish();
    t.end_ns = Now();
    t.finish_ns = t.end_ns - tf;
  } catch (...) {
    queue->Close();
    generator.join();
    throw;
  }
  generator.join();
  if (gen_error) std::rethrow_exception(gen_error);

  t.pushed = push_ret.size();
  const std::size_t popped = pop_ns.size();
  if (popped != t.pushed) {
    throw std::runtime_error("admission queue lost items: pushed " +
                             std::to_string(t.pushed) + ", popped " +
                             std::to_string(popped));
  }
  t.queue_wait_ms.resize(popped);
  for (std::size_t k = 0; k < popped; ++k) {
    t.queue_wait_ms[k] =
        static_cast<double>(std::max<std::int64_t>(0, pop_ns[k] - push_ret[k])) * 1e-6;
  }
  if (schedule != nullptr) {
    t.latency_ms.resize(popped);
    for (std::size_t k = 0; k < popped; ++k) {
      t.latency_ms[k] = static_cast<double>(done_ns[k] - due[k]) * 1e-6;
      t.lag.Record(due[k], sent[k]);
    }
  }
  return t;
}

/// Accumulates passes of one phase.
struct PhaseStats {
  std::vector<double> rates;  // ops/s per pass
  std::vector<double> lag_ms, queue_wait_ms, call_ms;
  /// Every open-loop latency sample of the phase, pooled over passes.
  std::vector<double> latency_ms;
  double wall_ns = 0.0;
  double pops = 0.0, popped = 0.0, backlog_max = 0.0;
  double produce_ns = 0.0, finish_ns = 0.0;
  double rejected = 0.0;

  /// Latency percentiles per window of `window` samples (0 = the whole
  /// pass); the end-to-end figures are the medians over windows, so one
  /// stall of the host moves one window rather than the pooled tail. The
  /// pooled tail is reported per layer, so a stall of the program that
  /// hits fewer than half the windows still shows there.
  std::vector<double> window_p50, window_p90;

  void Add(const PassTimes& t, std::size_t window = 0) {
    rates.push_back(static_cast<double>(t.pushed) / t.wall_s());
    const std::size_t n = t.latency_ms.size();
    // Equal windows of at least `window` samples covering the pass.
    const std::size_t w = window == 0 ? n : n / std::max<std::size_t>(1, n / window);
    for (std::size_t lo = 0; w > 0 && lo + w <= n; lo += w) {
      const std::vector<double> part(t.latency_ms.begin() + static_cast<std::ptrdiff_t>(lo),
                                     t.latency_ms.begin() + static_cast<std::ptrdiff_t>(lo + w));
      window_p50.push_back(Percentile(part, 50));
      window_p90.push_back(Percentile(part, 90));
    }
    latency_ms.insert(latency_ms.end(), t.latency_ms.begin(), t.latency_ms.end());
    for (const std::int64_t ns : t.lag.samples()) lag_ms.push_back(static_cast<double>(ns) * 1e-6);
    queue_wait_ms.insert(queue_wait_ms.end(), t.queue_wait_ms.begin(),
                         t.queue_wait_ms.end());
    call_ms.insert(call_ms.end(), t.call_ms.begin(), t.call_ms.end());
    wall_ns += static_cast<double>(t.end_ns - t.start_ns);
    pops += static_cast<double>(t.pops);
    popped += static_cast<double>(t.pushed);
    backlog_max = std::max(backlog_max, static_cast<double>(t.backlog_max));
    produce_ns += static_cast<double>(t.produce_ns);
    finish_ns += static_cast<double>(t.finish_ns);
    rejected += static_cast<double>(t.rejected);
  }
};

/// Times back-to-back set-ups: at least one, then more until
/// `max_samples` or `budget_ns` is used. `timed_setup` returns the set-up
/// time in ns and tears down untimed. Appends seconds to `samples`.
template <typename TimedSetup>
void SampleSetups(std::size_t max_samples, std::int64_t budget_ns,
                  std::vector<double>* samples, TimedSetup&& timed_setup) {
  const std::int64_t t_begin = Now();
  for (std::size_t i = 0; i < max_samples && (i == 0 || Now() - t_begin < budget_ns); ++i) {
    samples->push_back(static_cast<double>(timed_setup()) * 1e-9);
  }
}

// --- per-layer table --------------------------------------------------------

/// Inputs of the per-layer table that are not spans or registry values.
struct LayerInputs {
  const PhaseStats* closed = nullptr;
  const PhaseStats* open = nullptr;
  const TraceCapture* trace = nullptr;
  /// FoldSpans of the traced phase.
  const std::vector<SpanStats>* fold = nullptr;
  double offered_rps = 0.0;
  double decode_ns = 0.0;
  double client_decode_ns = 0.0;
  double register_setup_pct = 0.0;
  double load_setup_pct = 0.0;
  double rows_scanned = 0.0;
  double rows_out = 0.0;
  double parts_scanned = 0.0;
  double parts_total = 0.0;
  double trace_overhead_pct = 0.0;
  double serial_rps = 0.0;
  double failed_frac = 0.0;
};

/// Spans whose self time is reported as a share of the traced phase's
/// wall time (summed over threads, so parallel layers may exceed 100%).
const char* const kSpanLayers[] = {
    "shard.route",          "shard.drain",         "shard.barrier",
    "shard.global",         "engine.term_merge_epoch",
    "engine.global_cep_epoch", "cep.cpa_pairs",    "sub.eval_epoch",
    "cluster.delta_import", "cluster.delta_export", "cluster.epoch_absorb",
    "cluster.epoch_send",   "cluster.epoch_recv",  "cluster.node_batch",
    "query.plan",           "query.scan",          "query.join",
    "query.filter",
};

double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

std::vector<Metric> PerLayer(const LayerInputs& in) {
  static const PhaseStats kEmptyPhase;
  static const TraceCapture kEmptyTrace;
  const PhaseStats& closed = in.closed != nullptr ? *in.closed : kEmptyPhase;
  const PhaseStats& open = in.open != nullptr ? *in.open : kEmptyPhase;
  const TraceCapture& tr = in.trace != nullptr ? *in.trace : kEmptyTrace;
  const RegistryDelta& reg = tr.registry;
  static const std::vector<SpanStats> kNoSpans;
  const std::vector<SpanStats>& fold = in.fold != nullptr ? *in.fold : kNoSpans;
  const auto closed_pct = [&](double ns) { return 100.0 * Ratio(ns, closed.wall_ns); };
  const auto traced_pct = [&](double ns) { return 100.0 * Ratio(ns, tr.wall_ns); };
  const double ops = tr.ops;
  const double epochs = tr.epochs;

  std::vector<Metric> m;
  const auto add = [&m](const std::string& name, double v, const char* unit) {
    m.push_back({name, v, unit});
  };
  add("loadgen.lag_p99_ms", Percentile(open.lag_ms, 99), "ms");
  add("loadgen.offered_rps", in.offered_rps, "1/s");
  add("loadgen.latency_samples", static_cast<double>(open.latency_ms.size()), "count");
  add("latency.p99_ms", Percentile(open.latency_ms, 99), "ms");
  add("latency.max_ms", Percentile(open.latency_ms, 100), "ms");
  add("sources.decode_pct", closed_pct(in.decode_ns), "%");
  add("sources.decode_rejects", closed.rejected + open.rejected, "count");
  add("stream.queue_wait_p50_ms", Percentile(open.queue_wait_ms, 50), "ms");
  add("stream.queue_wait_p99_ms", Percentile(open.queue_wait_ms, 99), "ms");
  add("stream.pop_batch_mean", Ratio(open.popped, open.pops), "count");
  add("stream.backlog_max", open.backlog_max, "count");
  add("admission.dropped", reg.Counter("admission.dropped"), "count");
  add("call.p50_ms", Percentile(open.call_ms, 50), "ms");
  add("call.p99_ms", Percentile(open.call_ms, 99), "ms");
  add("shard.epochs_per_kop", 1000.0 * Ratio(reg.Counter("shard.epochs"), ops), "1/kop");
  add("shard.mailbox_enqueues_per_epoch",
      Ratio(reg.Counter("shard.mailbox_enqueues"), epochs), "count");
  add("shard.barrier_wait_pct",
      traced_pct(reg.Hist("shard.barrier_wait_ns")), "%");
  add("pool.tasks_per_kop", 1000.0 * Ratio(tr.pool_tasks, ops), "1/kop");
  add("pool.queue_wait_pct", traced_pct(tr.pool_wait_ns), "%");
  add("engine.finish_pct", closed_pct(closed.finish_ns), "%");
  add("engine.merge_terms_per_epoch", Ratio(reg.Counter("engine.merge_terms"), epochs), "count");
  add("engine.synopses_pct", traced_pct(reg.Hist("engine.synopses_ns")), "%");
  add("engine.transform_pct", traced_pct(reg.Hist("engine.transform_ns")), "%");
  add("engine.trajectory_pct", traced_pct(reg.Hist("engine.trajectory_ns")), "%");
  add("engine.cep_pct", traced_pct(reg.Hist("engine.cep_ns")), "%");
  add("engine.critical_points_per_report", Ratio(tr.critical_points, ops), "ratio");
  add("engine.triples_per_report", Ratio(tr.triples, ops), "ratio");
  add("cep.cpa_pairs_per_epoch", Ratio(reg.Counter("cep.cpa_pairs"), epochs), "count");
  add("cep.events_per_kreport", 1000.0 * Ratio(tr.events, ops), "1/kop");
  add("sub.eval_reports_per_report", Ratio(reg.Counter("sub.eval_reports"), ops), "ratio");
  add("sub.deltas_per_epoch", Ratio(reg.Counter("sub.deltas"), epochs), "count");
  add("sub.deltas_per_eval_report",
      Ratio(reg.Counter("sub.deltas"), reg.Counter("sub.eval_reports")), "ratio");
  add("sub.push_bytes_per_epoch", Ratio(reg.Counter("sub.push_bytes"), epochs), "B");
  add("sub.push_dropped", reg.Counter("sub.push_dropped"), "count");
  add("sub.register_setup_pct", in.register_setup_pct, "%");
  add("net.tx_bytes_per_report", Ratio(reg.Counter("net.tx_bytes"), ops), "B");
  add("net.tx_frames_per_epoch", Ratio(reg.Counter("net.tx_frames"), epochs), "count");
  add("net.client_decode_pct", closed_pct(in.client_decode_ns), "%");
  add("cluster.delta_import_per_kop",
      1000.0 * Ratio(static_cast<double>(FindSpan(fold, "cluster.delta_import").count), ops),
      "1/kop");
  add("cluster.delta_terms_per_epoch", Ratio(reg.Counter("cluster.delta_terms"), epochs),
      "count");
  for (const char* name : kSpanLayers) {
    add(std::string(name) + ".self_pct",
        traced_pct(static_cast<double>(FindSpan(fold, name).self_ns)), "%");
  }
  add("query.rows_scanned_per_query", Ratio(in.rows_scanned, ops), "count");
  add("query.rows_out_per_scanned", Ratio(in.rows_out, in.rows_scanned), "ratio");
  add("partition.touched_frac", Ratio(in.parts_scanned, in.parts_total), "ratio");
  add("partition.load_setup_pct", in.load_setup_pct, "%");
  add("obs.trace_overhead_pct", in.trace_overhead_pct, "%");
  add("obs.spans_dropped", static_cast<double>(tr.Dropped()), "count");
  add("obs.spans_kept", static_cast<double>(tr.spans.size()), "count");
  add("baseline.serial_rps", in.serial_rps, "1/s");
  add("failed_frac", in.failed_frac, "ratio");
  return m;
}

std::vector<Metric> EndToEnd(double ops_per_s, const PhaseStats& open,
                             const std::vector<double>& setup_s) {
  return {
      {"ops_per_s", ops_per_s, "1/s"},
      {"latency_p50_ms", Median(open.window_p50), "ms"},
      {"latency_p90_ms", Median(open.window_p90), "ms"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

// --- ingest targets ---------------------------------------------------------

/// One freshly set-up system under test for one ingest pass.
class IngestTarget {
 public:
  virtual ~IngestTarget() = default;
  virtual AdmissionQueue<PositionReport>* queue() = 0;
  virtual void Ingest(std::span<const PositionReport> batch) = 0;
  virtual void Finish() = 0;
  /// Outputs of the pass (valid after Finish).
  virtual OutputDigest Digest() = 0;
  /// Extra checks beyond the output digest; appends failures to `errors`.
  virtual bool CheckExtra(std::vector<std::string>* /*errors*/) { return true; }
  virtual double register_ns() const { return 0.0; }
  virtual double client_decode_ns() const { return 0.0; }
  /// Pool tasks and summed queue wait (bucket estimate) so far.
  virtual std::pair<double, double> PoolStats() const { return {0.0, 0.0}; }
};

OutputDigest EngineDigest(const DatacronEngine& engine,
                          const std::vector<Event>& events) {
  return DigestOutputs(events, engine.triples(), engine.episodes(),
                       engine.critical_points());
}

std::pair<double, double> PoolQueueStats(const ThreadPool& pool) {
  const datacron::LogHistogram h = pool.QueueWaitNanos();
  return {static_cast<double>(h.count()), HistSum(h)};
}

/// In-process sharded engine (maritime_open).
class EngineTarget : public IngestTarget {
 public:
  EngineTarget()
      : engine_(EngineConfig(Nproc())),
        pool_(PoolThreads()),
        queue_(engine_.NewAdmissionQueue()) {}

  AdmissionQueue<PositionReport>* queue() override { return queue_.get(); }
  void Ingest(std::span<const PositionReport> batch) override {
    std::vector<Event> ev = engine_.IngestBatch(batch, &pool_);
    events_.insert(events_.end(), ev.begin(), ev.end());
  }
  void Finish() override {
    std::vector<Event> ev = engine_.Finish();
    events_.insert(events_.end(), ev.begin(), ev.end());
  }
  OutputDigest Digest() override { return EngineDigest(engine_, events_); }
  std::pair<double, double> PoolStats() const override { return PoolQueueStats(pool_); }

 private:
  DatacronEngine engine_;
  ThreadPool pool_;
  std::unique_ptr<AdmissionQueue<PositionReport>> queue_;
  std::vector<Event> events_;
};

/// Coordinator + loopback-wired nodes (cluster_loopback).
class ClusterTarget : public IngestTarget {
 public:
  explicit ClusterTarget(std::size_t nodes) {
    datacron::LocalCluster::Options opts;
    opts.engine = EngineConfig(1);
    opts.num_nodes = nodes;
    opts.wire = datacron::LocalCluster::Wire::kLoopback;
    auto started = datacron::LocalCluster::Start(opts);
    if (!started.ok()) {
      throw std::runtime_error("cluster start: " + started.status().ToString());
    }
    cluster_ = std::move(started).value();
    queue_ = cluster_->engine().NewAdmissionQueue();
  }
  AdmissionQueue<PositionReport>* queue() override { return queue_.get(); }
  void Ingest(std::span<const PositionReport> batch) override {
    Append(cluster_->engine().IngestBatch(batch));
  }
  void Finish() override { Append(cluster_->engine().Finish()); }
  OutputDigest Digest() override {
    return EngineDigest(cluster_->engine().engine(), events_);
  }

 private:
  void Append(datacron::Result<std::vector<Event>> r) {
    if (!r.ok()) throw std::runtime_error("cluster ingest: " + r.status().ToString());
    events_.insert(events_.end(), r.value().begin(), r.value().end());
  }

  std::unique_ptr<datacron::LocalCluster> cluster_;
  std::unique_ptr<AdmissionQueue<PositionReport>> queue_;
  std::vector<Event> events_;
};

/// One standing query and the subscriber channel it arrives on.
struct SubEntry {
  datacron::SubscriberId subscriber = 0;
  datacron::SubscriptionSpec spec;
};

std::vector<Event> ProximityOnly(std::span<const Event> events) {
  std::vector<Event> out;
  for (const Event& ev : events) {
    if (ev.kind == datacron::EventKind::kEncounter ||
        ev.kind == datacron::EventKind::kCollisionForecast) {
      out.push_back(ev);
    }
  }
  return out;
}

/// One epoch as the subscription tier saw it, for the oracle replay.
struct RecordedEpoch {
  std::vector<PositionReport> reports;
  std::vector<Event> prox;
  datacron::TimestampMs close_ts = 0;
  std::string bytes;
};

/// Sharded engine with standing queries registered through the broker
/// and deltas pushed to SubscriberClients over loopback (subs_dense).
class SubsTarget : public IngestTarget {
 public:
  SubsTarget(const std::vector<SubEntry>* subs, bool record_prefix)
      : subs_(subs),
        engine_(EngineConfig(Nproc())),
        pool_(PoolThreads()),
        recording_(record_prefix) {
    datacron::SubscriptionBroker::Hooks hooks;
    hooks.subscribe = [this](datacron::SubscriberId client,
                             const datacron::SubscriptionSpec& spec) {
      return engine_.subscriptions()->Subscribe(client, spec);
    };
    hooks.unsubscribe = [this](datacron::SubscriptionId id) {
      return engine_.subscriptions()->Unsubscribe(id);
    };
    broker_ = std::make_unique<datacron::SubscriptionBroker>(hooks);
    for (datacron::SubscriberId c = 1; c <= kSubscribers; ++c) {
      auto [server_side, client_side] = datacron::LoopbackTransport::CreatePair();
      broker_->Attach(c, std::move(server_side));
      clients_.push_back(
          std::make_unique<datacron::SubscriberClient>(c, std::move(client_side)));
    }
    pending_.assign(kSubscribers, 0);

    const std::int64_t t0 = Now();
    for (const SubEntry& e : *subs_) {
      datacron::SubscriberClient& client = *clients_[e.subscriber - 1];
      datacron::Status s = client.SendSubscribe(e.spec);
      if (s.ok()) s = broker_->HandleControl(e.subscriber);
      if (!s.ok()) throw std::runtime_error("subscribe: " + s.ToString());
      const auto ack = client.AwaitAck();
      if (!ack.ok()) throw std::runtime_error("subscribe ack: " + ack.status().ToString());
    }
    register_ns_ = static_cast<double>(Now() - t0);

    engine_.subscriptions()->SetDeltaSink([this](const datacron::DeltaBatch& b) {
      broker_->PushBatch(b);
      ++pending_[b.subscriber - 1];
      ++pushed_;
      if (recording_) epoch_bytes_ += datacron::Encode(datacron::DeltaBatchMsg{b});
    });
    queue_ = engine_.NewAdmissionQueue();
  }

  AdmissionQueue<PositionReport>* queue() override { return queue_.get(); }

  void Ingest(std::span<const PositionReport> batch) override {
    std::vector<Event> ev = engine_.IngestBatch(batch, &pool_);
    if (recording_) {
      // One IngestBatch call of at most epoch_size reports is one epoch.
      RecordedEpoch rec;
      rec.reports.assign(batch.begin(), batch.end());
      rec.prox = ProximityOnly(ev);
      rec.close_ts = batch.back().timestamp;
      rec.bytes = std::move(epoch_bytes_);
      epoch_bytes_.clear();
      recorded_reports_ += batch.size();
      prefix_.push_back(std::move(rec));
      if (recorded_reports_ >= kOraclePrefixReports) recording_ = false;
    }
    events_.insert(events_.end(), ev.begin(), ev.end());
    DrainClients();
  }

  void Finish() override {
    std::vector<Event> ev = engine_.Finish();
    events_.insert(events_.end(), ev.begin(), ev.end());
    DrainClients();
  }

  OutputDigest Digest() override { return EngineDigest(engine_, events_); }

  bool CheckExtra(std::vector<std::string>* errors) override {
    bool ok = true;
    if (received_ != pushed_ || broker_->batches_dropped() != 0) {
      errors->push_back("subs_dense: pushed " + std::to_string(pushed_) +
                        " delta batches, clients decoded " + std::to_string(received_));
      ok = false;
    }
    if (prefix_.empty()) return ok;
    // Byte-for-byte replay of the recorded prefix through the full
    // re-evaluation oracle over an identically registered registry.
    datacron::SubscriptionRegistry oracle_reg;
    for (const SubEntry& e : *subs_) {
      if (!oracle_reg.Subscribe(e.subscriber, e.spec).ok()) {
        errors->push_back("subs_dense: oracle registry rejected a spec");
        return false;
      }
    }
    datacron::SubscriptionOracle oracle(&oracle_reg);
    for (std::size_t i = 0; i < prefix_.size(); ++i) {
      const RecordedEpoch& rec = prefix_[i];
      std::string bytes;
      for (const datacron::DeltaBatch& b :
           oracle.EvalEpoch(rec.reports, rec.prox, rec.close_ts)) {
        bytes += datacron::Encode(datacron::DeltaBatchMsg{b});
      }
      if (bytes != rec.bytes) {
        errors->push_back("subs_dense: epoch " + std::to_string(i) +
                          " differs from SubscriptionOracle (" +
                          std::to_string(rec.bytes.size()) + " vs " +
                          std::to_string(bytes.size()) + " bytes)");
        ok = false;
        break;
      }
    }
    return ok;
  }

  double register_ns() const override { return register_ns_; }
  double client_decode_ns() const override { return client_decode_ns_; }
  std::pair<double, double> PoolStats() const override { return PoolQueueStats(pool_); }

 private:
  /// The result is observable once every client decoded every batch the
  /// call pushed to it.
  void DrainClients() {
    const std::int64_t t0 = Now();
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      while (pending_[c] > 0) {
        const auto batch = clients_[c]->NextBatch();
        if (!batch.ok()) throw std::runtime_error("client recv: " + batch.status().ToString());
        --pending_[c];
        ++received_;
      }
    }
    client_decode_ns_ += static_cast<double>(Now() - t0);
  }

  const std::vector<SubEntry>* subs_;
  DatacronEngine engine_;
  ThreadPool pool_;
  std::unique_ptr<datacron::SubscriptionBroker> broker_;
  std::vector<std::unique_ptr<datacron::SubscriberClient>> clients_;
  std::vector<std::size_t> pending_;
  std::unique_ptr<AdmissionQueue<PositionReport>> queue_;
  std::vector<Event> events_;
  std::uint64_t pushed_ = 0;
  std::uint64_t received_ = 0;
  double register_ns_ = 0.0;
  double client_decode_ns_ = 0.0;
  bool recording_ = false;
  std::string epoch_bytes_;
  std::size_t recorded_reports_ = 0;
  std::vector<RecordedEpoch> prefix_;
};

// --- ingest workload runner -------------------------------------------------

struct IngestInput {
  /// What the engine ingests (the decodable reports for NMEA input).
  std::vector<PositionReport> reports;
  /// When non-empty the generator decodes these AIVDM sentences (with
  /// the matching receive times) instead of copying `reports`. Every
  /// generated sentence is kept; one the decoder rejects is counted as
  /// failed when the generator reaches it.
  std::vector<std::string> sentences;
  std::vector<datacron::TimestampMs> receive_ms;
  double rate = 0.0;
  SerialReference reference;

  std::size_t size() const { return sentences.empty() ? reports.size() : sentences.size(); }
  datacron::TimestampMs timestamp(std::size_t i) const {
    return sentences.empty() ? reports[i].timestamp : receive_ms[i];
  }
};

using TargetFactory = std::function<std::unique_ptr<IngestTarget>(bool record_prefix)>;

void RunIngest(const RunOptions& opts, const IngestInput& input,
               const TargetFactory& make_target, RunResult* out) {
  const std::size_t n = input.size();
  std::vector<std::int64_t> ts(n);
  for (std::size_t i = 0; i < n; ++i) ts[i] = input.timestamp(i);
  const Schedule schedule = Schedule::FromTimestamps(ts, input.rate);
  const std::size_t max_pop = EngineConfig(1).epoch_size;

  CheckTally tally;
  std::vector<double> register_share;
  double client_decode_closed_ns = 0.0;
  double rejected = 0.0;
  // Shed or undeliverable reports, from the process-wide counters.
  auto& registry = datacron::obs::MetricsRegistry::Global();
  const auto shed_count = [&registry] {
    return static_cast<double>(registry.counter("admission.dropped")->Value() +
                               registry.counter("sub.push_dropped")->Value());
  };
  const double shed_before = shed_count();

  // One pass: fresh set-up (timed), one run of the whole input, checks.
  const auto run_pass = [&](bool open, bool record_prefix, TraceCapture* trace,
                            double* client_decode_ns) {
    const std::int64_t s0 = Now();
    std::unique_ptr<IngestTarget> target = make_target(record_prefix);
    const double setup = static_cast<double>(Now() - s0);
    register_share.push_back(100.0 * Ratio(target->register_ns(), setup));
    if (trace != nullptr) trace->Resume();
    const auto produce = [&](std::size_t i, PositionReport* r) {
      if (input.sentences.empty()) {
        *r = input.reports[i];
        return true;
      }
      auto decoded = datacron::DecodeAivdm(input.sentences[i], input.receive_ms[i]);
      if (!decoded.ok()) return false;
      *r = decoded.value();
      return true;
    };
    const auto consume = [&](std::vector<PositionReport>& batch) {
      target->Ingest(batch);
      if (trace != nullptr) trace->Drain();
    };
    const auto pool0 = target->PoolStats();
    PassTimes t = RunPipeline<PositionReport>(
        n, open ? &schedule : nullptr, target->queue(), max_pop, produce, consume,
        [&] { target->Finish(); });
    if (trace != nullptr) {
      trace->Pause();
      const auto pool1 = target->PoolStats();
      trace->pool_tasks += pool1.first - pool0.first;
      trace->pool_wait_ns += pool1.second - pool0.second;
    }
    if (client_decode_ns != nullptr) *client_decode_ns += target->client_decode_ns();
    const OutputDigest got = target->Digest();
    bool ok = got == input.reference.digest;
    if (!ok) {
      out->errors.push_back("output digest mismatch: got " + got.ToString() +
                            ", reference " + input.reference.digest.ToString());
    }
    ok = target->CheckExtra(&out->errors) && ok;
    tally.Check(ok, n);
    rejected += static_cast<double>(t.rejected);
    if (trace != nullptr) {
      trace->wall_ns += static_cast<double>(t.end_ns - t.start_ns);
      trace->ops += static_cast<double>(t.pushed);
      trace->epochs += static_cast<double>(t.pops);
      trace->events += static_cast<double>(got.num_events);
      trace->triples += static_cast<double>(got.num_triples);
      trace->critical_points += static_cast<double>(got.critical_points);
      trace->rates.push_back(static_cast<double>(t.pushed) / t.wall_s());
    }
    return t;
  };

  // setup_s: the median of back-to-back set-ups (each torn down
  // untimed), sampled in three blocks — before, halfway through and after
  // the measured passes — so it spans the run like the other metrics. The
  // passes' own set-ups are not used: they run on a heap the previous
  // pass just released, which makes them far noisier.
  std::vector<double> setup_s;
  const auto sample_setups = [&] {
    SampleSetups(kMaxSetups / 3, kSetupBudgetNs / 3, &setup_s, [&] {
      const std::int64_t t0 = Now();
      const std::unique_ptr<IngestTarget> target = make_target(false);
      return Now() - t0;
    });
  };

  const double closed_budget_ns = kClosedShare * opts.seconds * 1e9;
  const double open_budget_ns = (1.0 - kClosedShare) * opts.seconds * 1e9;
  // Closed- and open-loop passes alternate (whichever phase is further
  // behind its share goes next), so both sample the whole run and a slow
  // spell of the host lands in both rather than in one.
  PhaseStats closed, open;
  sample_setups();
  bool halfway_sampled = false;
  while (closed.wall_ns < closed_budget_ns || open.wall_ns < open_budget_ns) {
    if (closed.wall_ns / closed_budget_ns <= open.wall_ns / open_budget_ns) {
      closed.Add(run_pass(false, closed.rates.empty(), nullptr, &client_decode_closed_ns));
    } else {
      open.Add(run_pass(true, open.rates.empty(), nullptr, nullptr), kIngestLatencyWindow);
    }
    if (!halfway_sampled &&
        closed.wall_ns + open.wall_ns >= 0.5 * (closed_budget_ns + open_budget_ns)) {
      sample_setups();
      halfway_sampled = true;
    }
  }
  sample_setups();

  TraceCapture trace;
  const double untraced_rps = Median(closed.rates);
  double overhead_pct = 0.0;
  if (opts.trace) {
    trace.Begin();
    while (trace.wall_ns < closed_budget_ns) run_pass(false, false, &trace, nullptr);
    overhead_pct = 100.0 * (untraced_rps - Median(trace.rates)) / untraced_rps;
  }

  const double dropped = shed_count() - shed_before;
  out->attempted = tally.attempted;
  out->failed = std::min<std::uint64_t>(
      tally.attempted, tally.failed + static_cast<std::uint64_t>(rejected + dropped));
  out->correct = tally.ok() && rejected == 0.0 && dropped == 0.0;
  out->end_to_end = EndToEnd(untraced_rps, open, setup_s);
  if (opts.trace) {
    if (!CheckLossless(trace, &out->errors)) out->correct = false;
    LayerInputs li;
    li.closed = &closed;
    li.open = &open;
    li.trace = &trace;
    li.offered_rps = schedule.OfferedRate();
    li.decode_ns = input.sentences.empty() ? 0.0 : closed.produce_ns;
    li.client_decode_ns = client_decode_closed_ns;
    li.register_setup_pct = Median(register_share);
    li.trace_overhead_pct = overhead_pct;
    li.serial_rps = input.reference.rps;
    li.failed_frac = Ratio(static_cast<double>(out->failed), static_cast<double>(out->attempted));
    out->fold = FoldSpans(trace.spans);
    li.fold = &out->fold;
    out->per_layer = PerLayer(li);
  }
  out->params.emplace_back("reports_per_pass", Num(static_cast<double>(n)));
  out->params.emplace_back("offered_rps", Num(input.rate));
  out->params.emplace_back("closed_passes", Num(static_cast<double>(closed.rates.size())));
  out->params.emplace_back("open_passes", Num(static_cast<double>(open.rates.size())));
  out->params.emplace_back("epoch_size", Num(static_cast<double>(max_pop)));
}

// --- workloads --------------------------------------------------------------

void MaritimeOpen(const RunOptions& opts, RunResult* out) {
  IngestInput in;
  const std::vector<PositionReport> truth =
      FleetStream(Scaled(kMaritimeVessels, opts.scale, 8),
                  static_cast<datacron::DurationMs>(
                      std::max(60000.0, static_cast<double>(kMaritimeDuration) * opts.scale)),
                  kMaritimeRoutes, opts.seed);
  // The receiver emits AIVDM; the reference ingests what decoding yields.
  // A sentence that does not decode here is still sent: the generator's
  // decode rejects it again and the run counts it as failed.
  in.sentences.reserve(truth.size());
  in.receive_ms.reserve(truth.size());
  in.reports.reserve(truth.size());
  for (const PositionReport& r : truth) {
    in.sentences.push_back(datacron::EncodeAivdm(r));
    in.receive_ms.push_back(r.timestamp);
    auto decoded = datacron::DecodeAivdm(in.sentences.back(), r.timestamp);
    if (decoded.ok()) in.reports.push_back(decoded.value());
  }
  in.rate = kMaritimeRate;
  in.reference = RunSerial(in.reports);
  RunIngest(opts, in, [](bool) { return std::make_unique<EngineTarget>(); }, out);
  out->params.emplace_back("vessels", Num(static_cast<double>(Scaled(kMaritimeVessels, opts.scale, 8))));
  out->params.emplace_back("shards", Num(Nproc()));
  out->params.emplace_back("pool_threads", Num(PoolThreads()));
  out->params.emplace_back("threads_total", Num(PoolThreads() + 2));
  out->params.emplace_back("input", Quote("aivdm"));
}

void ClusterLoopback(const RunOptions& opts, RunResult* out) {
  IngestInput in;
  in.reports = FleetStream(Scaled(kMaritimeVessels, opts.scale, 8),
                           static_cast<datacron::DurationMs>(std::max(
                               60000.0, static_cast<double>(kMaritimeDuration) * opts.scale)),
                           kMaritimeRoutes, opts.seed);
  in.rate = kClusterRate;
  in.reference = RunSerial(in.reports);
  const std::size_t nodes = PoolThreads();
  RunIngest(opts, in,
            [nodes](bool) { return std::make_unique<ClusterTarget>(nodes); }, out);
  out->params.emplace_back("vessels", Num(static_cast<double>(Scaled(kMaritimeVessels, opts.scale, 8))));
  out->params.emplace_back("nodes", Num(static_cast<double>(nodes)));
  out->params.emplace_back("threads_total", Num(static_cast<double>(nodes + 2)));
  out->params.emplace_back("wire", Quote("loopback"));
}

/// The E13 standing-query mix over the fleet's entities: ~70% per-entity
/// geofences (a fifth of them polygons), 10% fleet geofences, 10%
/// proximity watches, 10% hotspot thresholds, round-robin over the
/// subscriber channels.
std::vector<SubEntry> SubscriptionMix(std::size_t count, std::size_t vessels,
                                      std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x5EED5EED5EEDull);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const auto box = [&] {
    const double lat = 35.0 + u(rng) * 3.6;
    const double lon = 23.0 + u(rng) * 3.6;
    const double h = 0.05 + u(rng) * 0.2;
    const double w = 0.05 + u(rng) * 0.2;
    return datacron::BoundingBox::Of(lat, lon, lat + h, lon + w);
  };
  const auto entity = [&](std::size_t i) {
    return static_cast<datacron::EntityId>(200000000 + i % vessels);
  };
  std::vector<SubEntry> subs(count);
  for (std::size_t i = 0; i < count; ++i) {
    subs[i].subscriber = static_cast<datacron::SubscriberId>(1 + i % kSubscribers);
    const std::uint64_t roll = rng() % 10;
    if (roll < 8) {
      datacron::GeofenceSpec g;
      g.bbox = box();
      if (roll < 7) {
        g.entity = entity(i);
        if (rng() % 4 == 0) g.dwell_ms = 5 * datacron::kMinute;
        if (rng() % 5 == 0) {
          const auto& b = g.bbox;
          g.polygon = {{b.min_lat, b.min_lon},
                       {b.min_lat, b.max_lon},
                       {b.max_lat, 0.5 * (b.min_lon + b.max_lon)}};
        }
      } else {
        g.all_entities = true;
      }
      subs[i].spec = datacron::SubscriptionSpec::Geofence(g);
    } else if (roll < 9) {
      datacron::ProximitySpec p;
      p.entity = entity(i);
      p.min_interval_ms = static_cast<datacron::DurationMs>(rng() % 2) * 5 * datacron::kMinute;
      subs[i].spec = datacron::SubscriptionSpec::Proximity(p);
    } else {
      datacron::HotspotSpec h;
      h.bbox = box();
      h.threshold = 1.0 + u(rng) * 20.0;
      h.window_epochs = 1 + static_cast<std::uint32_t>(rng() % 4);
      subs[i].spec = datacron::SubscriptionSpec::Hotspot(h);
    }
  }
  return subs;
}

void SubsDense(const RunOptions& opts, RunResult* out) {
  IngestInput in;
  const std::size_t vessels = Scaled(kSubsVessels, opts.scale, 8);
  in.reports = FleetStream(vessels,
                           static_cast<datacron::DurationMs>(std::max(
                               60000.0, static_cast<double>(kSubsDuration) * opts.scale)),
                           kMaritimeRoutes, opts.seed);
  in.rate = kSubsRate;
  in.reference = RunSerial(in.reports);
  const std::size_t count = Scaled(kSubsCount, opts.scale, 64);
  const std::vector<SubEntry> subs = SubscriptionMix(count, vessels, opts.seed);
  RunIngest(opts, in,
            [&subs](bool record) { return std::make_unique<SubsTarget>(&subs, record); },
            out);
  out->params.emplace_back("vessels", Num(static_cast<double>(vessels)));
  out->params.emplace_back("subscriptions", Num(static_cast<double>(count)));
  out->params.emplace_back("subscribers", Num(kSubscribers));
  out->params.emplace_back("oracle_prefix_reports", Num(kOraclePrefixReports));
  out->params.emplace_back("shards", Num(Nproc()));
  out->params.emplace_back("pool_threads", Num(PoolThreads()));
  out->params.emplace_back("threads_total", Num(PoolThreads() + 2));
}

// --- store_query ------------------------------------------------------------

/// Seeded E5 query instances: spatial range, entity star, two-hop path
/// and vessel/node join, cycling in that order.
std::vector<datacron::Query> QueryMix(DatacronEngine* engine,
                                      std::span<const PositionReport> reports,
                                      std::size_t count, std::size_t vessels,
                                      std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0xC0FFEEull);
  const datacron::Vocab& v = engine->vocab();
  // Boxes are centred on observed positions, so every range query lands
  // on traffic and the mix's cost does not hinge on a few empty boxes.
  const auto box = [&] {
    const datacron::GeoPoint& c = reports[rng() % reports.size()].position;
    return datacron::BoundingBox::Of(c.lat_deg - 0.125, c.lon_deg - 0.125,
                                     c.lat_deg + 0.125, c.lon_deg + 0.125);
  };
  std::vector<datacron::Query> out;
  using datacron::QueryTerm;
  for (std::size_t i = 0; out.size() < count; ++i) {
    datacron::QueryBuilder qb;
    switch (i % 4) {
      case 0:
        qb.Pattern(QueryTerm::Var(qb.Var("node")), QueryTerm::Bound(v.p_type),
                   QueryTerm::Bound(v.c_position_node));
        qb.WhereVar("node", v.p_speed, "speed");
        qb.Within("node", box());
        break;
      case 1: {
        const datacron::TermId entity = engine->dictionary()->Find(
            datacron::EntityIri(static_cast<std::uint32_t>(200000000 + rng() % vessels)));
        if (entity == datacron::kInvalidTermId) continue;
        qb.Where("node", v.p_of_entity, entity);
        qb.WhereVar("node", v.p_speed, "speed");
        break;
      }
      case 2:
        qb.WhereVar("a", v.p_next_node, "b");
        qb.WhereVar("b", v.p_next_node, "c");
        qb.Within("a", box());
        break;
      default:
        qb.Pattern(QueryTerm::Var(qb.Var("v")), QueryTerm::Bound(v.p_type),
                   QueryTerm::Bound(v.c_vessel));
        qb.Pattern(QueryTerm::Var(qb.Var("node")), QueryTerm::Bound(v.p_of_entity),
                   QueryTerm::Var(qb.Var("v")));
        qb.WhereVar("node", v.p_speed, "speed");
        qb.Within("node", box());
        break;
    }
    out.push_back(qb.Build());
  }
  return out;
}

/// Hilbert-partitioned store plus a pooled query engine over it.
struct StoreSetup {
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<datacron::PartitionScheme> scheme;
  std::unique_ptr<datacron::PartitionedRdfStore> store;
  std::unique_ptr<datacron::QueryEngine> engine;
  double load_ns = 0.0;
};

StoreSetup BuildStore(DatacronEngine* ingested) {
  StoreSetup s;
  s.pool = std::make_unique<ThreadPool>(PoolThreads());
  datacron::Rdfizer* rdf = ingested->rdfizer();
  s.scheme = datacron::HilbertPartitioner::Build(kStorePartitions, &rdf->tags(), rdf->grid());
  s.store = std::make_unique<datacron::PartitionedRdfStore>();
  const std::int64_t t0 = Now();
  s.store->Load(ingested->triples(), *s.scheme, rdf->grid(),
                ingested->vocab().p_next_node, s.pool.get());
  s.load_ns = static_cast<double>(Now() - t0);
  s.engine = std::make_unique<datacron::QueryEngine>(s.store.get(), rdf, s.pool.get());
  return s;
}

void StoreQuery(const RunOptions& opts, RunResult* out) {
  const std::size_t vessels = Scaled(kMaritimeVessels, opts.scale, 8);
  const std::vector<PositionReport> reports = FleetStream(
      vessels,
      static_cast<datacron::DurationMs>(
          std::max(60000.0, static_cast<double>(kMaritimeDuration) * opts.scale)),
      kMaritimeRoutes, opts.seed);
  std::unique_ptr<DatacronEngine> ingested;
  const SerialReference serial = RunSerial(reports, &ingested);
  const std::vector<datacron::Query> mix =
      QueryMix(ingested.get(), reports, kQueryInstances, vessels, opts.seed);

  // Set-up is timed back to back, in one block per round (as on the
  // ingest workloads); the store built last is the one queried. Stores
  // built from the same triples are identical.
  std::vector<double> setup_s, load_share;
  StoreSetup setup;
  const auto sample_setups = [&] {
    SampleSetups(kMaxSetups / kStoreRounds, kSetupBudgetNs / kStoreRounds, &setup_s, [&] {
      setup = StoreSetup{};  // tear the previous store down, untimed
      const std::int64_t t0 = Now();
      setup = BuildStore(ingested.get());
      const std::int64_t ns = Now() - t0;
      load_share.push_back(100.0 * Ratio(setup.load_ns, static_cast<double>(ns)));
      return ns;
    });
  };
  sample_setups();

  // Reference rows: pool-less ExecuteGlobal over the same store.
  std::vector<std::uint64_t> reference(mix.size());
  {
    datacron::QueryEngine serial_engine(setup.store.get(), ingested->rdfizer(), nullptr);
    for (std::size_t i = 0; i < mix.size(); ++i) {
      reference[i] = DigestRows(serial_engine.ExecuteGlobal(mix[i]).rows);
    }
  }
  std::mt19937_64 rng(opts.seed ^ 0x9E3779B9ull);
  std::vector<std::uint32_t> sequence(4096);
  for (auto& q : sequence) q = static_cast<std::uint32_t>(rng() % mix.size());

  CheckTally tally;
  double rows_scanned = 0.0, rows_out = 0.0, parts_scanned = 0.0, parts_total = 0.0;
  const auto execute = [&](std::uint32_t instance, bool count_stats) {
    const datacron::ResultSet rs = setup.engine->ExecuteGlobal(mix[instance]);
    const bool ok = DigestRows(rs.rows) == reference[instance];
    if (!ok) out->errors.push_back("query " + std::to_string(instance) + " rows differ");
    tally.Check(ok, 1);
    if (count_stats) {
      rows_scanned += static_cast<double>(rs.stats.intermediate_rows);
      rows_out += static_cast<double>(rs.stats.result_rows);
      parts_scanned += rs.stats.partitions_scanned;
      parts_total += rs.stats.partitions_total;
    }
  };

  // Closed loop: one client, next query when the previous returns. The
  // rate is taken per chunk of queries and reported as the median chunk.
  constexpr std::size_t kChunk = 256;
  const auto closed_loop = [&](double budget_ns, TraceCapture* trace) {
    PhaseStats phase;
    const std::int64_t t0 = Now();
    std::int64_t chunk_start = t0;
    std::size_t done = 0;
    while (static_cast<double>(Now() - t0) < budget_ns || done < kChunk) {
      execute(sequence[done % sequence.size()], trace != nullptr);
      ++done;
      if (done % kChunk == 0) {
        const std::int64_t t = Now();
        phase.rates.push_back(static_cast<double>(kChunk) /
                              (static_cast<double>(t - chunk_start) * 1e-9));
        chunk_start = t;
        if (trace != nullptr) trace->Drain();
      }
    }
    phase.wall_ns = static_cast<double>(Now() - t0);
    phase.popped = static_cast<double>(done);
    return phase;
  };

  // Rounds of set-up samples, a closed-loop segment and an open-loop
  // segment, so each phase samples the whole run.
  const double closed_budget_ns = kClosedShare * opts.seconds * 1e9;
  const double open_budget_s = (1.0 - kClosedShare) * opts.seconds;
  const std::size_t n_open = std::max<std::size_t>(
      100, static_cast<std::size_t>(kQueryRate * open_budget_s / kStoreRounds));
  // Periodic arrivals: dashboards polling at a fixed rate.
  const Schedule schedule = Schedule::Regular(n_open, kQueryRate);
  PhaseStats closed, open;
  for (int round = 0; round < kStoreRounds; ++round) {
    if (round > 0) sample_setups();
    const PhaseStats segment = closed_loop(closed_budget_ns / kStoreRounds, nullptr);
    closed.rates.insert(closed.rates.end(), segment.rates.begin(), segment.rates.end());
    closed.wall_ns += segment.wall_ns;

    AdmissionQueue<std::uint32_t>::Options qopts;
    qopts.capacity = 4096;
    AdmissionQueue<std::uint32_t> queue(qopts);
    const std::size_t offset = static_cast<std::size_t>(round) * n_open;
    open.Add(RunPipeline<std::uint32_t>(
                 n_open, &schedule, &queue, 1,
                 [&](std::size_t i, std::uint32_t* q) {
                   *q = sequence[(offset + i) % sequence.size()];
                   return true;
                 },
                 [&](std::vector<std::uint32_t>& batch) {
                   for (const std::uint32_t q : batch) execute(q, false);
                 },
                 [] {}),
             kLatencyWindow);
  }

  TraceCapture trace;
  const double untraced_qps = Median(closed.rates);
  double overhead_pct = 0.0;
  if (opts.trace) {
    trace.Begin();
    trace.Resume();
    const auto p0 = PoolQueueStats(*setup.pool);
    const PhaseStats traced = closed_loop(closed_budget_ns, &trace);
    const auto p1 = PoolQueueStats(*setup.pool);
    trace.Pause();
    trace.wall_ns = traced.wall_ns;
    trace.ops = traced.popped;
    trace.pool_tasks = p1.first - p0.first;
    trace.pool_wait_ns = p1.second - p0.second;
    overhead_pct = 100.0 * (untraced_qps - Median(traced.rates)) / untraced_qps;
  }

  out->attempted = tally.attempted;
  out->failed = tally.failed;
  out->correct = tally.ok();
  out->end_to_end = EndToEnd(untraced_qps, open, setup_s);
  if (opts.trace) {
    if (!CheckLossless(trace, &out->errors)) out->correct = false;
    LayerInputs li;
    li.closed = &closed;
    li.open = &open;
    li.trace = &trace;
    li.offered_rps = schedule.OfferedRate();
    li.load_setup_pct = Median(load_share);
    li.rows_scanned = rows_scanned;
    li.rows_out = rows_out;
    li.parts_scanned = parts_scanned;
    li.parts_total = parts_total;
    li.trace_overhead_pct = overhead_pct;
    li.serial_rps = serial.rps;
    li.failed_frac = Ratio(static_cast<double>(out->failed), static_cast<double>(out->attempted));
    out->fold = FoldSpans(trace.spans);
    li.fold = &out->fold;
    out->per_layer = PerLayer(li);
  }
  out->params.emplace_back("vessels", Num(static_cast<double>(vessels)));
  out->params.emplace_back("triples", Num(static_cast<double>(ingested->triples().size())));
  out->params.emplace_back("partitions", Num(kStorePartitions));
  out->params.emplace_back("scheme", Quote("hilbert"));
  out->params.emplace_back("query_instances", Num(static_cast<double>(mix.size())));
  out->params.emplace_back("offered_qps", Num(kQueryRate));
  out->params.emplace_back("open_queries", Num(static_cast<double>(n_open)));
  out->params.emplace_back("pool_threads", Num(PoolThreads()));
  out->params.emplace_back("threads_total", Num(PoolThreads() + 2));
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"maritime_open", "subs_dense",
                                                 "cluster_loopback", "store_query"};
  return names;
}

bool RunWorkload(const RunOptions& opts, RunResult* out) {
  out->params.emplace_back("workload", Quote(opts.workload));
  out->params.emplace_back("seed", Num(static_cast<double>(opts.seed)));
  out->params.emplace_back("seconds", Num(opts.seconds));
  out->params.emplace_back("scale", Num(opts.scale));
  if (opts.workload == "maritime_open") {
    MaritimeOpen(opts, out);
  } else if (opts.workload == "subs_dense") {
    SubsDense(opts, out);
  } else if (opts.workload == "cluster_loopback") {
    ClusterLoopback(opts, out);
  } else if (opts.workload == "store_query") {
    StoreQuery(opts, out);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
