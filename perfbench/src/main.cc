// perfbench_runner: runs one benchmark workload and prints its result.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Output: a "fingerprint" JSON line (machine, build, seed and workload
// parameters), with --trace 1 the folded per-layer span table, and as
// the last line one JSON object {"correct", "attempted", "failed",
// "metrics"}. Exits 1 when any output differs from its reference.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "fingerprint.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n  workloads:");
  for (const std::string& w : WorkloadNames()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
}

void PrintFingerprint(const RunResult& r) {
  const Fingerprint f = TakeFingerprint();
  std::printf("{\"fingerprint\": {\"nproc\": %u, \"cpu_model\": \"%s\", "
              "\"simd_backend\": \"%s\", \"build_type\": \"%s\", "
              "\"ndebug\": %s, \"optimized\": %s, \"compiler\": \"%s\"}, "
              "\"params\": {",
              f.nproc, JsonEscape(f.cpu_model).c_str(), f.simd_backend.c_str(),
              JsonEscape(f.build_type).c_str(), f.ndebug ? "true" : "false",
              f.optimized ? "true" : "false", JsonEscape(f.compiler).c_str());
  for (std::size_t i = 0; i < r.params.size(); ++i) {
    std::printf("%s\"%s\": %s", i > 0 ? ", " : "", r.params[i].first.c_str(),
                r.params[i].second.c_str());
  }
  std::printf("}}\n");
}

void PrintFold(const RunResult& r) {
  std::printf("# per-layer span fold of the traced phase\n");
  std::printf("# %-28s %10s %14s %14s %14s\n", "span", "count", "total_ms", "self_ms",
              "self_p99_us");
  for (const SpanStats& s : r.fold) {
    std::printf("# %-28s %10llu %14.3f %14.3f %14.3f\n", s.name.c_str(),
                static_cast<unsigned long long>(s.count), s.total_ns * 1e-6,
                s.self_ns * 1e-6, s.self_p99_ns * 1e-3);
  }
}

void PrintResult(const RunResult& r, bool trace) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const auto& metrics = trace ? r.per_layer : r.end_to_end;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  RunOptions opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_workload || !(opts.seconds > 0.0)) {
    Usage();
    return 2;
  }

  RunResult result;
  try {
    if (!RunWorkload(opts, &result)) {
      Usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(), e.what());
    return 1;
  }
  PrintFingerprint(result);
  if (opts.trace) PrintFold(result);
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }
  std::fflush(stderr);
  PrintResult(result, opts.trace);
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
