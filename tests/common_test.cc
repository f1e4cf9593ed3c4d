// Unit tests for src/common: linear algebra, statistics, RNG.
#include <gtest/gtest.h>

#include <cmath>

#include "common/linalg.h"
#include "common/rng.h"
#include "common/stats.h"

namespace cannikin {
namespace {

// ----------------------------------------------------------------- linalg

TEST(Matrix, InitializerListAndAccess) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, IdentityMultiplicationIsNoop) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix i = Matrix::identity(2);
  EXPECT_EQ(m * i, m);
  EXPECT_EQ(i * m, m);
}

TEST(Matrix, TransposeInvolution) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = m.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t.transpose(), m);
}

TEST(Matrix, ArithmeticOperators) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{4.0, 3.0}, {2.0, 1.0}};
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(sum(1, 1), 5.0);
  const Matrix diff = a - b;
  EXPECT_DOUBLE_EQ(diff(0, 0), -3.0);
  const Matrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
}

TEST(Matrix, MultiplyDimensionMismatchThrows) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{1.0, 2.0}};
  EXPECT_THROW(a * b, std::invalid_argument);
}

TEST(Solve, RecoversKnownSolution) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Vector x = solve(a, Vector{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Solve, RequiresPivoting) {
  // Leading zero forces a row swap.
  Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const Vector x = solve(a, Vector{2.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Solve, SingularThrows) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(solve(a, Vector{1.0, 2.0}), SingularMatrixError);
}

TEST(Solve, RandomRoundTrip) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + trial % 8;
    Matrix a(n, n);
    Vector x_true(n);
    for (std::size_t i = 0; i < n; ++i) {
      x_true[i] = rng.normal();
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
      a(i, i) += 3.0;  // keep well conditioned
    }
    const Vector b = a * x_true;
    const Vector x = solve(a, b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
  }
}

TEST(Inverse, TimesOriginalIsIdentity) {
  Matrix a{{4.0, 7.0}, {2.0, 6.0}};
  const Matrix inv = inverse(a);
  const Matrix product = a * inv;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(product(i, j), i == j ? 1.0 : 0.0, 1e-12);
    }
  }
}

TEST(VectorOps, DotNormSum) {
  const Vector a{1.0, 2.0, 3.0};
  const Vector b{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(norm2({3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(sum(a), 6.0);
  EXPECT_THROW(dot(a, {1.0}), std::invalid_argument);
}

// ------------------------------------------------------------------ stats

TEST(RunningMoments, MatchesClosedForm) {
  RunningMoments moments;
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : xs) moments.add(x);
  EXPECT_EQ(moments.count(), xs.size());
  EXPECT_NEAR(moments.mean(), 5.0, 1e-12);
  EXPECT_NEAR(moments.variance(), sample_variance(xs), 1e-12);
}

TEST(RunningMoments, VarianceZeroUntilTwoSamples) {
  RunningMoments moments;
  moments.add(3.0);
  EXPECT_DOUBLE_EQ(moments.variance(), 0.0);
}

TEST(Ema, BiasCorrectedConvergesToConstant) {
  Ema ema(0.2);
  EXPECT_TRUE(ema.empty());
  for (int i = 0; i < 50; ++i) ema.add(4.0);
  EXPECT_NEAR(ema.value(), 4.0, 1e-9);
}

TEST(Ema, FirstSampleIsExact) {
  // Bias correction makes the first value exact, unlike a raw EMA.
  Ema ema(0.1);
  ema.add(10.0);
  EXPECT_NEAR(ema.value(), 10.0, 1e-12);
}

TEST(Ema, BadAlphaThrows) {
  EXPECT_THROW(Ema(0.0), std::invalid_argument);
  EXPECT_THROW(Ema(1.5), std::invalid_argument);
}

TEST(FitLine, ExactLine) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(2.5 * x + 1.0);
  const auto fit = fit_line(xs, ys);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->slope, 2.5, 1e-12);
  EXPECT_NEAR(fit->intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit->rss, 0.0, 1e-12);
}

TEST(FitLine, DegenerateXReturnsNullopt) {
  EXPECT_FALSE(fit_line({2.0, 2.0}, {1.0, 3.0}).has_value());
  EXPECT_FALSE(fit_line({2.0}, {1.0}).has_value());
}

TEST(FitLine, WeightsPullTowardHeavyPoints) {
  // Two clusters of points on different lines; heavy weights on the
  // first line must dominate the fit.
  const std::vector<double> xs{0.0, 1.0, 0.0, 1.0};
  const std::vector<double> ys{0.0, 1.0, 1.0, 0.0};
  const auto fit = fit_line(xs, ys, {100.0, 100.0, 1.0, 1.0});
  ASSERT_TRUE(fit.has_value());
  EXPECT_GT(fit->slope, 0.9);
}

TEST(FitLine, NonPositiveWeightThrows) {
  EXPECT_THROW(fit_line({1.0, 2.0}, {1.0, 2.0}, {1.0, 0.0}),
               std::invalid_argument);
}

TEST(InverseVarianceCombine, WeightsByPrecision) {
  // Two observations: the combined value must sit closer to the
  // low-variance one, at the textbook position.
  const Observation combined =
      inverse_variance_combine({{10.0, 1.0}, {20.0, 4.0}});
  EXPECT_NEAR(combined.value, (10.0 / 1.0 + 20.0 / 4.0) / (1.0 + 0.25),
              1e-12);
  EXPECT_NEAR(combined.variance, 1.0 / 1.25, 1e-12);
}

TEST(InverseVarianceCombine, ZeroVarianceTreatedAsBest) {
  const Observation combined =
      inverse_variance_combine({{10.0, 0.0}, {20.0, 4.0}});
  // Zero variance borrows the smallest positive variance (4.0), giving
  // equal weights here.
  EXPECT_NEAR(combined.value, 15.0, 1e-12);
}

TEST(InverseVarianceCombine, AllZeroVarianceFallsBackToMean) {
  const Observation combined =
      inverse_variance_combine({{10.0, 0.0}, {20.0, 0.0}});
  EXPECT_NEAR(combined.value, 15.0, 1e-12);
}

TEST(InverseVarianceCombine, LowerVarianceThanMean) {
  // With heteroscedastic inputs, inverse-variance weighting yields a
  // strictly smaller combined variance than plain averaging.
  const std::vector<Observation> obs{{1.0, 1.0}, {2.0, 9.0}, {3.0, 0.25}};
  const Observation ivw = inverse_variance_combine(obs);
  const Observation avg = mean_combine(obs);
  EXPECT_LT(ivw.variance, avg.variance);
}

TEST(Combine, EmptyThrows) {
  EXPECT_THROW(inverse_variance_combine({}), std::invalid_argument);
  EXPECT_THROW(mean_combine({}), std::invalid_argument);
}

TEST(Percentile, Interpolates) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 101.0), std::invalid_argument);
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, ForkIsIndependentButReproducible) {
  Rng a(5), b(5);
  Rng fa = a.fork();
  Rng fb = b.fork();
  EXPECT_DOUBLE_EQ(fa.normal(), fb.normal());
}

TEST(Rng, LognormalJitterHasMedianOne) {
  const std::uint64_t seed = mix64(9);
  std::vector<double> draws;
  for (std::uint64_t i = 0; i < 4001; ++i) {
    draws.push_back(lognormal_jitter(0.3, hash_combine(seed, i)));
  }
  EXPECT_NEAR(percentile(draws, 50.0), 1.0, 0.05);
  EXPECT_DOUBLE_EQ(lognormal_jitter(0.0, 1), 1.0);
}

// AS241 against the forward CDF: Phi(z) = erfc(-z / sqrt 2) / 2. Tail
// probabilities are compared relatively (on 1 - p above the median),
// from p = 1e-300 through the central region and both branch edges
// (|p - 0.5| = 0.425, r = 5) to the extremes a key can produce. An
// error dz in z moves Phi(z) by about |z| dz relative, and erfc's own
// error grows the same way, hence the (1 + z^2) in the tolerance.
TEST(InverseNormalCdf, MatchesErfcFromTailToTail) {
  const auto lower_tail = [](double z) {
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
  };
  const auto tolerance = [](double z) { return 4e-15 * (1.0 + z * z); };
  std::vector<double> grid = {1e-300, 1e-200, 1e-100, 1e-50, 1e-20,
                              1e-12,  1.4e-11, 1e-8,  1e-5,  1e-3,
                              0.01,   0.05,   0.0749, 0.075, 0.0751,
                              0.1,    0.2,    0.3,    0.4,   0.5};
  grid.push_back(to_open_unit(0));  // smallest uniform a key yields
  for (double p : grid) {
    const double z = inverse_normal_cdf(p);
    EXPECT_NEAR(lower_tail(z) / p, 1.0, tolerance(z)) << "p = " << p;
    // Mirror: the upper tail at 1 - p, against its exact complement.
    const double upper = 1.0 - p;
    if (upper < 1.0) {
      const double z_upper = inverse_normal_cdf(upper);
      EXPECT_NEAR(lower_tail(-z_upper) / (1.0 - upper), 1.0,
                  tolerance(z_upper))
          << "1 - p, p = " << p;
    }
  }
  EXPECT_EQ(inverse_normal_cdf(0.5), 0.0);
  // Keys map to cell midpoints symmetric about 1/2, so the extreme
  // draws are finite and mirror each other exactly.
  const double lowest = inverse_normal_cdf(to_open_unit(0));
  EXPECT_NEAR(lowest, -8.2095361516013856, 1e-12);
  EXPECT_EQ(inverse_normal_cdf(to_open_unit(~0ULL)), -lowest);
}

// Over 10^6 keys the log of the jitter must look like N(0, sigma): its
// mean and standard deviation each within 4 standard errors.
TEST(InverseNormalCdf, KeyedLogJitterIsCenteredWithSigmaSpread) {
  const double sigma = 0.04;
  const std::uint64_t n = 1000000;
  const std::uint64_t seed = mix64(20240611);
  RunningMoments moments;
  for (std::uint64_t i = 0; i < n; ++i) {
    moments.add(std::log(lognormal_jitter(sigma, hash_combine(seed, i))));
  }
  EXPECT_NEAR(moments.mean(), 0.0, 4.0 * sigma / std::sqrt(n));
  EXPECT_NEAR(moments.stddev(), sigma,
              4.0 * sigma / std::sqrt(2.0 * n));
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

}  // namespace
}  // namespace cannikin
