#include "fingerprint.h"

#include <sched.h>
#include <sys/resource.h>

#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// CPU brand string from cpuid leaves 0x80000002..4 (no file access).
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                    &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  const auto last = s.find_last_not_of(' ');
  return first == std::string::npos ? "unknown"
                                    : s.substr(first, last - first + 1);
#else
  return "unknown";
#endif
}

}  // namespace

Fingerprint TakeFingerprint() {
  Fingerprint f;
  // Same count as nproc(1): the CPUs this process may run on.
  cpu_set_t set;
  CPU_ZERO(&set);
  f.nproc = sched_getaffinity(0, sizeof set, &set) == 0
                ? static_cast<unsigned>(CPU_COUNT(&set))
                : std::thread::hardware_concurrency();
  f.cpu_model = CpuModel();
#ifdef DATACRON_SIMD_FORCE_SCALAR
  f.simd_backend = "scalar";
#else
  f.simd_backend = "avx2+fma";
#endif
  f.build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  f.ndebug = true;
#endif
#ifdef __OPTIMIZE__
  f.optimized = true;
#endif
  f.compiler = PERFBENCH_COMPILER;
  return f;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
