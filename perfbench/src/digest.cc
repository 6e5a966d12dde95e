#include "digest.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

void Fnv64::Bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ull;
  }
}

void Fnv64::F64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  U64(bits);
}

namespace {

void Point(Fnv64* h, const datacron::GeoPoint& p) {
  h->F64(p.lat_deg);
  h->F64(p.lon_deg);
  h->F64(p.alt_m);
}

}  // namespace

OutputDigest DigestOutputs(std::span<const datacron::Event> events,
                           std::span<const datacron::Triple> triples,
                           std::span<const datacron::Episode> episodes,
                           std::size_t critical_points) {
  OutputDigest d;
  Fnv64 he;
  for (const datacron::Event& e : events) {
    he.U64(static_cast<std::uint64_t>(e.kind));
    he.I64(e.time);
    he.I64(e.predicted_time);
    he.U64(e.entities.size());
    for (const datacron::EntityId id : e.entities) he.U64(id);
    Point(&he, e.position);
    he.Str(e.label);
    he.U64(e.attributes.size());
    for (const auto& [key, value] : e.attributes) {
      he.Str(key);
      he.F64(value);
    }
  }
  Fnv64 ht;
  for (const datacron::Triple& t : triples) {
    ht.U64(t.s);
    ht.U64(t.p);
    ht.U64(t.o);
  }
  Fnv64 hp;
  for (const datacron::Episode& e : episodes) {
    hp.U64(e.entity);
    hp.U64(static_cast<std::uint64_t>(e.kind));
    hp.I64(e.start_time);
    hp.I64(e.end_time);
    Point(&hp, e.start_pos);
    Point(&hp, e.end_pos);
    hp.Str(e.area);
    hp.F64(e.displacement_m);
    hp.F64(e.path_m);
  }
  d.events = he.value();
  d.triples = ht.value();
  d.episodes = hp.value();
  d.num_events = events.size();
  d.num_triples = triples.size();
  d.num_episodes = episodes.size();
  d.critical_points = critical_points;
  return d;
}

std::uint64_t DigestRows(std::span<const datacron::Binding> rows) {
  Fnv64 h;
  h.U64(rows.size());
  for (const datacron::Binding& row : rows) {
    h.U64(row.size());
    for (const datacron::TermId id : row) h.U64(id);
  }
  return h.value();
}

std::string OutputDigest::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "events %zu/%016llx triples %zu/%016llx episodes %zu/%016llx "
                "critical_points %zu",
                num_events, static_cast<unsigned long long>(events),
                num_triples, static_cast<unsigned long long>(triples),
                num_episodes, static_cast<unsigned long long>(episodes),
                critical_points);
  return buf;
}

}  // namespace perfbench
