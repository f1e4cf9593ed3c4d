// Counter-based hashing: the one splitmix64 mixer every stateless draw
// in the repository derives from.
//
// A pure hash of a key (a seed combined with counters such as node,
// step or attempt) replaces a stateful generator wherever a draw must
// not depend on how many draws came before it: replaying a schedule,
// running an epoch out of order or evaluating nodes in any order then
// yields the same values. Users: the simulator's timing noise
// (sim::ClusterJob), the link-fault drop and retry-jitter draws
// (sim::LinkFaults, sim::plan_delivery), the chaos harness's tensors
// and checksum, and EventBackend's channel table.
#pragma once

#include <cstdint>

namespace cannikin {

/// splitmix64 finalizer (Vigna): a bijective 64-bit mixer whose output
/// bits each depend on every input bit.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Folds one more counter into a running key.
constexpr std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ mix64(v));
}

/// Uniform double in [0, 1) from the top 53 bits of a hash.
constexpr double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Uniform double in the open interval (0, 1): the midpoint of one of
/// 2^52 equal cells, so an inverse CDF never sees 0 or 1 and the draws
/// are exactly symmetric about 1/2. (Midpoints of 2^53 cells are not
/// all representable: the top one rounds to 1.)
constexpr double to_open_unit(std::uint64_t h) {
  return (static_cast<double>(h >> 12) + 0.5) * 0x1.0p-52;
}

}  // namespace cannikin
