#pragma once

// Deterministic, named random-number streams.
//
// Every stochastic input to the simulator draws from an RngStream that
// is derived from (master seed, stream name). Two simulations built
// with the same master seed and the same stream names observe exactly
// the same random sequences regardless of construction order, which is
// what makes experiment runs reproducible bit-for-bit.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mrapid {

// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
// implementation re-typed), seeded through splitmix64. Fast, decent
// statistical quality, and — unlike std::mt19937 — a guaranteed stable
// algorithm across standard libraries.
class RngStream {
 public:
  RngStream() : RngStream(0xA5A5A5A5u) {}
  explicit RngStream(std::uint64_t seed);
  RngStream(std::uint64_t master_seed, std::string_view stream_name);

  std::uint64_t next_u64();

  // Uniform in [0, 1).
  double next_double();

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi);

  // Uniform real in [lo, hi).
  double next_real(double lo, double hi);

  // Exponentially distributed with the given mean (> 0).
  double next_exponential(double mean);

  // Zipf-distributed rank in [1, n] with exponent s (> 0): one draw
  // from ZipfSampler::shared(n, s). Loops that draw many ranks should
  // hold the sampler instead and skip the per-call registry lookup.
  std::int64_t next_zipf(std::int64_t n, double s);

  // Fork a child stream whose sequence is independent of the parent's
  // but fully determined by (parent seed material, name).
  RngStream fork(std::string_view name) const;

 private:
  std::uint64_t state_[4];
  std::uint64_t seed_material_;
};

// Zipf-distributed ranks in [1, n] with exponent s (> 0), via
// rejection-inversion (Hörmann & Derflinger). Used by the synthetic
// text generator to draw word ranks.
//
// Everything that depends only on (n, s) is computed once, at
// construction: the two integral bounds and, per rank k, the
// acceptance bound h_integral(k + 0.5) - h(k). Each is the same
// floating-point expression a per-draw computation would evaluate, on
// the same operands, so a draw consumes the same next_double() values
// and returns the same rank. The table costs 8 bytes per rank.
class ZipfSampler {
 public:
  ZipfSampler(std::int64_t n, double s);

  // The process-wide sampler for (n, s), built on first use (at most
  // once per process) and shared by every thread.
  static const ZipfSampler& shared(std::int64_t n, double s);

  std::int64_t operator()(RngStream& rng) const;

 private:
  std::int64_t n_;
  double s_;
  bool log_branch_;  // s == 1 (to 1e-12): h_integral is log
  double h_int_x1_;
  double h_int_n_;
  std::vector<double> accept_;  // accept_[k - 1] = h_integral(k + 0.5) - h(k)
};

// Stable 64-bit FNV-1a hash, used to mix stream names into seeds.
std::uint64_t stable_hash64(std::string_view s);

}  // namespace mrapid
