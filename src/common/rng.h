// Deterministic random number generation for simulations and tests.
//
// All stochastic components in this repository draw from an explicitly
// seeded source so every experiment is reproducible from its seed.
// `Rng` wraps std::mt19937_64 with the distributions the training
// substrate and the tests need. The simulator's timing noise instead
// uses the stateless draws at the bottom of this file: each value is a
// pure function of a key (common/hash.h), so it does not depend on how
// many values were drawn before it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.h"

namespace cannikin {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Normal with the given mean and standard deviation.
  double normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    std::shuffle(values.begin(), values.end(), engine_);
  }

  /// Derives an independent child generator; useful for giving each
  /// simulated node its own stream while keeping the parent reproducible.
  Rng fork() { return Rng(engine_()); }

  /// Serializable engine state (std::mt19937_64 stream format). A
  /// restored Rng continues the exact random stream, which is what
  /// makes checkpointed training bit-identical to uninterrupted runs.
  std::string state() const {
    std::ostringstream out;
    out << engine_;
    return out.str();
  }
  void set_state(const std::string& state) {
    std::istringstream in(state);
    in >> engine_;
    if (!in) throw std::invalid_argument("Rng: malformed engine state");
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

namespace detail {

/// c[0] + c[1] x + ... + c[N-1] x^(N-1) by Horner's rule.
template <std::size_t N>
constexpr double polynomial(const double (&c)[N], double x) {
  double y = c[N - 1];
  for (std::size_t i = N - 1; i-- > 0;) y = y * x + c[i];
  return y;
}

}  // namespace detail

/// Inverse of the standard normal CDF for p in (0, 1): Wichura's
/// algorithm AS241 (PPND16, Applied Statistics 37, 1988), accurate to
/// about 1e-16 relative. The central 85% (|p - 0.5| <= 0.425) is one
/// degree-7 rational function; the tails take one log, one sqrt and
/// another rational function. There is no rejection loop, so every key
/// costs the same bounded work.
inline double inverse_normal_cdf(double p) {
  static constexpr double a[] = {
      3.3871328727963666080e+0, 1.3314166789178437745e+2,
      1.9715909503065514427e+3, 1.3731693765509461125e+4,
      4.5921953931549871457e+4, 6.7265770927008700853e+4,
      3.3430575583588128105e+4, 2.5090809287301226727e+3};
  static constexpr double b[] = {
      1.0,                      4.2313330701600911252e+1,
      6.8718700749205790830e+2, 5.3941960214247511077e+3,
      2.1213794301586595867e+4, 3.9307895800092710610e+4,
      2.8729085735721942674e+4, 5.2264952788528545610e+3};
  // Near tail, 1.6 <= r + 1.6 <= 5 (p down to ~1.4e-11).
  static constexpr double c[] = {
      1.42343711074968357734e+0, 4.63033784615654529590e+0,
      5.76949722146069140550e+0, 3.64784832476320460504e+0,
      1.27045825245236838258e+0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4};
  static constexpr double d[] = {
      1.0,                       2.05319162663775882187e+0,
      1.67638483018380384940e+0, 6.89767334985100004550e-1,
      1.48103976427480074590e-1, 1.51986665636164571966e-2,
      5.47593808499534494600e-4, 1.05075007164441684324e-9};
  // Far tail, r > 5.
  static constexpr double e[] = {
      6.65790464350110377720e+0, 5.46378491116411436990e+0,
      1.78482653991729133580e+0, 2.96560571828504891230e-1,
      2.65321895265761230930e-2, 1.24266094738807843860e-3,
      2.71155556874348757815e-5, 2.01033439929228813265e-7};
  static constexpr double f[] = {
      1.0,                       5.99832206555887937690e-1,
      1.36929880922735805310e-1, 1.48753612908506148525e-2,
      7.86869131145613259100e-4, 1.84631831751005468180e-5,
      1.42151175831644588870e-7, 2.04426310338993978564e-15};

  const double q = p - 0.5;
  if (std::abs(q) <= 0.425) {
    const double r = 0.180625 - q * q;
    return q * detail::polynomial(a, r) / detail::polynomial(b, r);
  }
  double r = std::sqrt(-std::log(q < 0.0 ? p : 1.0 - p));
  double z;
  if (r <= 5.0) {
    r -= 1.6;
    z = detail::polynomial(c, r) / detail::polynomial(d, r);
  } else {
    r -= 5.0;
    z = detail::polynomial(e, r) / detail::polynomial(f, r);
  }
  return q < 0.0 ? -z : z;
}

/// Log-normal multiplicative jitter with median 1 and the given sigma of
/// the underlying normal, a pure function of `key` (the normal is the
/// inverse CDF of the key's open-interval uniform). Used to model
/// run-to-run and measurement noise on timings; sigma <= 0 gives
/// exactly 1.
inline double lognormal_jitter(double sigma, std::uint64_t key) {
  if (sigma <= 0.0) return 1.0;
  return std::exp(sigma * inverse_normal_cdf(to_open_unit(key)));
}

}  // namespace cannikin
