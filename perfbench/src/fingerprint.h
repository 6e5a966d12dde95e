#ifndef PERFBENCH_FINGERPRINT_H_
#define PERFBENCH_FINGERPRINT_H_

#include <string>

namespace perfbench {

/// Machine and build identity attached to every result, so numbers from
/// different hosts or builds are never compared unknowingly.
struct Fingerprint {
  unsigned nproc = 0;
  std::string cpu_model;
  /// "avx2+fma" or "scalar" (DATACRON_SIMD_FORCE_SCALAR).
  std::string simd_backend;
  std::string build_type;
  bool ndebug = false;
  bool optimized = false;
  std::string compiler;
};

Fingerprint TakeFingerprint();

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_FINGERPRINT_H_
