#include "common/rng.h"

#include <cassert>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

namespace mrapid {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

std::uint64_t stable_hash64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

RngStream::RngStream(std::uint64_t seed) : seed_material_(seed) {
  std::uint64_t x = seed;
  for (auto& s : state_) s = splitmix64(x);
}

RngStream::RngStream(std::uint64_t master_seed, std::string_view stream_name)
    : RngStream(master_seed ^ rotl(stable_hash64(stream_name), 17)) {}

std::uint64_t RngStream::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double RngStream::next_double() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t RngStream::next_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full 64-bit span
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % range + 1) % range;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v > limit);
  return lo + static_cast<std::int64_t>(v % range);
}

double RngStream::next_real(double lo, double hi) { return lo + (hi - lo) * next_double(); }

double RngStream::next_exponential(double mean) {
  assert(mean > 0);
  double u;
  do {
    u = next_double();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

std::int64_t RngStream::next_zipf(std::int64_t n, double s) {
  return ZipfSampler::shared(n, s)(*this);
}

ZipfSampler::ZipfSampler(std::int64_t n, double s)
    : n_(n), s_(s), log_branch_(std::fabs(1.0 - s) < 1e-12) {
  assert(n >= 1 && s > 0);
  auto h_integral = [this](double x) {
    const double log_x = std::log(x);
    if (log_branch_) return log_x;
    return (std::exp((1.0 - s_) * log_x) - 1.0) / (1.0 - s_);
  };
  auto h = [this](double x) { return std::exp(-s_ * std::log(x)); };
  h_int_x1_ = h_integral(1.5) - 1.0;
  h_int_n_ = h_integral(static_cast<double>(n) + 0.5);
  accept_.resize(static_cast<std::size_t>(n));
  for (std::int64_t rank = 1; rank <= n; ++rank) {
    const double k = static_cast<double>(rank);
    accept_[static_cast<std::size_t>(rank - 1)] = h_integral(k + 0.5) - h(k);
  }
}

const ZipfSampler& ZipfSampler::shared(std::int64_t n, double s) {
  static std::mutex mu;
  static std::map<std::pair<std::int64_t, double>, const ZipfSampler> samplers;
  const std::lock_guard lock(mu);
  return samplers.try_emplace({n, s}, n, s).first->second;
}

std::int64_t ZipfSampler::operator()(RngStream& rng) const {
  if (n_ == 1) return 1;
  const double nd = static_cast<double>(n_);
  for (;;) {
    const double u = h_int_n_ + rng.next_double() * (h_int_x1_ - h_int_n_);
    // Inverse of h_integral.
    double x;
    if (log_branch_) {
      x = std::exp(u);
    } else {
      x = std::exp(std::log(1.0 + u * (1.0 - s_)) / (1.0 - s_));
    }
    const double k = std::floor(x + 0.5);
    if (k < 1 || k > nd) continue;
    if (k - x <= h_int_x1_ || u >= accept_[static_cast<std::size_t>(k) - 1]) {
      return static_cast<std::int64_t>(k);
    }
  }
}

RngStream RngStream::fork(std::string_view name) const {
  return RngStream(seed_material_, name);
}

}  // namespace mrapid
