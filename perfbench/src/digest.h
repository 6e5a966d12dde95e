#ifndef PERFBENCH_DIGEST_H_
#define PERFBENCH_DIGEST_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cep/event.h"
#include "query/query.h"
#include "rdf/triple_store.h"
#include "trajectory/episodes.h"

namespace perfbench {

/// 64-bit FNV-1a over a byte stream; feed fields in a fixed order.
class Fnv64 {
 public:
  void Bytes(const void* data, std::size_t n);
  void U64(std::uint64_t v) { Bytes(&v, sizeof v); }
  void I64(std::int64_t v) { Bytes(&v, sizeof v); }
  /// Hashes the bit pattern, so -0.0 and 0.0 (and NaN payloads) differ.
  void F64(double v);
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// What an ingest run must reproduce exactly: the event stream, the
/// triples, the episodes and the critical-point count, each hashed in
/// output order and counted.
struct OutputDigest {
  std::uint64_t events = 0;
  std::uint64_t triples = 0;
  std::uint64_t episodes = 0;
  std::size_t num_events = 0;
  std::size_t num_triples = 0;
  std::size_t num_episodes = 0;
  std::size_t critical_points = 0;

  bool operator==(const OutputDigest&) const = default;
  std::string ToString() const;
};

OutputDigest DigestOutputs(std::span<const datacron::Event> events,
                           std::span<const datacron::Triple> triples,
                           std::span<const datacron::Episode> episodes,
                           std::size_t critical_points);

/// Hash of a query answer's rows in order.
std::uint64_t DigestRows(std::span<const datacron::Binding> rows);

/// Tally of checked operations: a run whose outputs differ from the
/// reference counts every operation it attempted as failed.
struct CheckTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;

  /// Counts one checked unit of `ops` operations against its reference.
  void Check(bool matches, std::uint64_t ops) {
    attempted += ops;
    if (!matches) {
      failed += ops;
      ++mismatches;
    }
  }
  bool ok() const { return mismatches == 0; }
};

}  // namespace perfbench

#endif  // PERFBENCH_DIGEST_H_
