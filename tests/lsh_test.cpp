// LSH tests: the analytic collision-probability model is validated against
// Monte-Carlo measurements of the actual hash family; parameter tuning must
// hit the paper's Pr(alpha) >= 95% / Pr(beta) <= 5% working point; and the
// match-probability surface must be monotone in c, k, and l (property
// sweeps, Fig. 1's qualitative content).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>

#include "crypto/sha256.h"
#include "lsh/pstable.h"
#include "lsh/tuning.h"
#include "tensor/rng.h"
#include "tensor/serialize.h"

namespace rpol::lsh {
namespace {

// Empirical single-function collision rate for distance c and width r.
double empirical_collision_rate(double c, double r, int trials,
                                std::uint64_t seed) {
  // One-dimensional projections suffice: collisions depend only on the
  // projected difference, which is N(0, c^2) for any dimension.
  Rng rng(seed);
  int collisions = 0;
  for (int t = 0; t < trials; ++t) {
    const double x = 10.0 * rng.next_double();
    const double y = x + c * rng.next_normal();
    const double b = r * rng.next_double();
    if (std::floor((x + b) / r) == std::floor((y + b) / r)) ++collisions;
  }
  return static_cast<double>(collisions) / trials;
}

TEST(Probability, NormCdfReferencePoints) {
  EXPECT_NEAR(norm_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(norm_cdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(norm_cdf(-1.959963985), 0.025, 1e-6);
}

TEST(Probability, CollisionProbabilityLimits) {
  EXPECT_DOUBLE_EQ(collision_probability(0.0, 1.0), 1.0);
  EXPECT_LT(collision_probability(100.0, 1.0), 0.02);
  EXPECT_GT(collision_probability(0.01, 1.0), 0.98);
  EXPECT_THROW(collision_probability(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(collision_probability(-1.0, 1.0), std::invalid_argument);
}

class CollisionMonteCarlo
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(CollisionMonteCarlo, AnalyticMatchesEmpirical) {
  const auto [c, r] = GetParam();
  const double analytic = collision_probability(c, r);
  const double empirical = empirical_collision_rate(c, r, 40000, 1234);
  EXPECT_NEAR(analytic, empirical, 0.015) << "c=" << c << " r=" << r;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CollisionMonteCarlo,
    ::testing::Values(std::pair{0.5, 1.0}, std::pair{1.0, 1.0},
                      std::pair{2.0, 1.0}, std::pair{4.0, 1.0},
                      std::pair{1.0, 4.0}, std::pair{0.25, 2.0},
                      std::pair{3.0, 2.0}));

TEST(Probability, MatchProbabilityMonotoneDecreasingInDistance) {
  const LshParams params{1.0, 4, 4};
  double prev = 1.1;
  for (double c = 0.1; c < 10.0; c *= 1.5) {
    const double p = match_probability(c, params);
    EXPECT_LT(p, prev);
    prev = p;
  }
}

class MatchMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(MatchMonotonicity, IncreasingInLDecreasingInK) {
  const double c = GetParam();
  for (int k = 1; k <= 6; ++k) {
    // More groups (OR) can only raise the match probability.
    double prev_l = -1.0;
    for (int l = 1; l <= 6; ++l) {
      const double p = match_probability(c, {1.0, k, l});
      EXPECT_GE(p + 1e-12, prev_l) << "k=" << k << " l=" << l;
      prev_l = p;
    }
  }
  for (int l = 1; l <= 6; ++l) {
    // More functions per group (AND) can only lower it.
    double prev_k = 2.0;
    for (int k = 1; k <= 6; ++k) {
      const double p = match_probability(c, {1.0, k, l});
      EXPECT_LE(p - 1e-12, prev_k) << "k=" << k << " l=" << l;
      prev_k = p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Distances, MatchMonotonicity,
                         ::testing::Values(0.2, 0.5, 1.0, 2.0, 5.0));

TEST(Probability, MatchProbabilityFormula) {
  // Pr = 1 - (1 - p^k)^l must reduce to p for k = l = 1.
  const double p1 = collision_probability(0.7, 1.3);
  EXPECT_NEAR(match_probability(0.7, {1.3, 1, 1}), p1, 1e-12);
}

TEST(Probability, FnrFprIntegralsBehave) {
  // A tight error distribution near 0 with a tolerant family => tiny FNR.
  const LshParams params = optimize_lsh(0.1, 0.5, 16).params;
  const double fnr = expected_fnr(normal_pdf(0.08, 0.01), 0.5, params);
  EXPECT_LT(fnr, 0.10);
  // Spoof distances far beyond beta => tiny FPR.
  const double fpr = expected_fpr(normal_pdf(2.0, 0.1), 0.5, 4.0, params);
  EXPECT_LT(fpr, 0.10);
  EXPECT_THROW(expected_fnr(normal_pdf(0, 1), 0.0, params), std::invalid_argument);
  EXPECT_THROW(expected_fpr(normal_pdf(0, 1), 1.0, 1.0, params),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Tuning

TEST(Tuning, NearPaperWorkingPointAtK16) {
  // Sec. VII-D uses beta = 5 alpha with K_lsh = 16 and quotes the working
  // point Pr(alpha) = 95% / Pr(beta) = 5%. Under the strict k*l <= K budget
  // of Eq. (6) the exactly-95/5 point is infeasible at K = 16 (the Pareto
  // frontier passes through ~92.9% / 6.3%); the optimizer must land on that
  // frontier for every scale of alpha.
  for (const double alpha : {0.01, 0.1, 1.0, 10.0}) {
    const TuningResult result = optimize_lsh(alpha, 5.0 * alpha, 16);
    EXPECT_GE(result.pr_alpha, 0.92) << "alpha=" << alpha;
    EXPECT_LE(result.pr_beta, 0.07) << "alpha=" << alpha;
    EXPECT_LE(result.params.k * result.params.l, 16);
  }
}

TEST(Tuning, HitsPaperWorkingPointAtK24) {
  // A budget of 24 hash functions reaches the paper's quoted guarantees.
  for (const double alpha : {0.01, 1.0, 10.0}) {
    const TuningResult result = optimize_lsh(alpha, 5.0 * alpha, 24);
    EXPECT_GE(result.pr_alpha, 0.95) << "alpha=" << alpha;
    EXPECT_LE(result.pr_beta, 0.05) << "alpha=" << alpha;
  }
}

TEST(Tuning, ScaleInvariance) {
  // The optimum is scale-free: (alpha, beta) and (10 alpha, 10 beta) give
  // the same k, l and probabilities with r scaled accordingly.
  const TuningResult a = optimize_lsh(0.1, 0.5, 16);
  const TuningResult b = optimize_lsh(1.0, 5.0, 16);
  EXPECT_EQ(a.params.k, b.params.k);
  EXPECT_EQ(a.params.l, b.params.l);
  EXPECT_NEAR(a.pr_alpha, b.pr_alpha, 0.02);
  EXPECT_NEAR(a.pr_beta, b.pr_beta, 0.02);
}

TEST(Tuning, RespectsBudget) {
  for (const int budget : {1, 2, 4, 8, 32}) {
    const TuningResult result = optimize_lsh(1.0, 5.0, budget);
    EXPECT_LE(result.params.k * result.params.l, budget);
    EXPECT_GE(result.params.k, 1);
    EXPECT_GE(result.params.l, 1);
  }
}

TEST(Tuning, LargerBudgetNeverHurts) {
  const TuningResult small = optimize_lsh(1.0, 3.0, 4);
  const TuningResult large = optimize_lsh(1.0, 3.0, 64);
  EXPECT_LE(large.objective, small.objective + 1e-12);
}

TEST(Tuning, TighterSeparationIsHarder) {
  const TuningResult tight = optimize_lsh(1.0, 1.5, 16);
  const TuningResult wide = optimize_lsh(1.0, 10.0, 16);
  EXPECT_LT(wide.objective, tight.objective);
}

TEST(Tuning, InvalidInputsThrow) {
  EXPECT_THROW(optimize_lsh(0.0, 1.0, 16), std::invalid_argument);
  EXPECT_THROW(optimize_lsh(2.0, 1.0, 16), std::invalid_argument);
  EXPECT_THROW(optimize_lsh(1.0, 2.0, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// PStableLsh (the actual hash family)

std::vector<float> random_vec(std::int64_t dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(dim));
  rng.fill_normal(v, 0.0F, 1.0F);
  return v;
}

std::vector<float> displaced(const std::vector<float>& v, double distance,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> direction(v.size());
  rng.fill_normal(direction, 0.0F, 1.0F);
  double norm = 0.0;
  for (const float d : direction) norm += static_cast<double>(d) * d;
  norm = std::sqrt(norm);
  std::vector<float> out = v;
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] += static_cast<float>(distance * direction[i] / norm);
  }
  return out;
}

TEST(PStableLsh, DeterministicForConfig) {
  const LshConfig cfg{{1.0, 3, 4}, 64, 99};
  PStableLsh a(cfg), b(cfg);
  const auto v = random_vec(64, 5);
  EXPECT_TRUE(lsh_match(a.hash(v), b.hash(v)));
  EXPECT_EQ(a.buckets(v), b.buckets(v));
}

TEST(PStableLsh, DifferentSeedsDifferentFamilies) {
  LshConfig cfg{{1.0, 3, 4}, 64, 99};
  PStableLsh a(cfg);
  cfg.seed = 100;
  PStableLsh b(cfg);
  const auto v = random_vec(64, 5);
  EXPECT_NE(a.buckets(v), b.buckets(v));
}

TEST(PStableLsh, IdenticalVectorsAlwaysMatch) {
  const LshConfig cfg{{0.5, 4, 4}, 128, 7};
  PStableLsh lsh(cfg);
  for (std::uint64_t s = 0; s < 10; ++s) {
    const auto v = random_vec(128, s);
    EXPECT_TRUE(lsh_match(lsh.hash(v), lsh.hash(v)));
  }
}

TEST(PStableLsh, DimensionMismatchThrows) {
  const LshConfig cfg{{1.0, 2, 2}, 32, 1};
  PStableLsh lsh(cfg);
  EXPECT_THROW(lsh.hash(random_vec(16, 1)), std::invalid_argument);
}

TEST(PStableLsh, InvalidConfigThrows) {
  EXPECT_THROW(PStableLsh({{1.0, 0, 2}, 32, 1}), std::invalid_argument);
  EXPECT_THROW(PStableLsh({{0.0, 2, 2}, 32, 1}), std::invalid_argument);
  EXPECT_THROW(PStableLsh({{1.0, 2, 2}, 0, 1}), std::invalid_argument);
}

TEST(PStableLsh, OverflowingFamilySizeThrowsBeforeAllocating) {
  // k * l * dim beyond int64: rejected as a typed error, never a wrapped
  // size handed to the allocator.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW(PStableLsh({{1.0, 4, 4}, kMax / 16 + 1, 1}), std::invalid_argument);
  EXPECT_THROW(PStableLsh({{1.0, std::numeric_limits<int>::max(),
                            std::numeric_limits<int>::max()},
                           kMax, 1}),
               std::invalid_argument);
}

TEST(PStableLsh, BucketsOutsideInt64RangeAreDefined) {
  // One-dimensional family: each hash's dot product is proj * x, so x and
  // -x push every bucket past opposite ends of the int64 range. Those
  // saturate, NaN maps to INT64_MIN, and in-range values floor as before
  // (x = 0 leaves only the offset, which lies in [0, r)).
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const PStableLsh lsh({{1.0, 4, 2}, 1, 5});
  for (const float big : {3e38F, kInf}) {
    const auto up = lsh.buckets({big});
    const auto down = lsh.buckets({-big});
    for (std::size_t g = 0; g < up.size(); ++g) {
      for (std::size_t f = 0; f < up[g].size(); ++f) {
        EXPECT_TRUE((up[g][f] == kMax && down[g][f] == kMin) ||
                    (up[g][f] == kMin && down[g][f] == kMax))
            << big << " g=" << g << " f=" << f << ": " << up[g][f] << ", "
            << down[g][f];
      }
    }
  }
  for (const auto& group :
       lsh.buckets({std::numeric_limits<float>::quiet_NaN()})) {
    for (const std::int64_t b : group) EXPECT_EQ(b, kMin);
  }
  for (const auto& group : lsh.buckets({0.0F})) {
    for (const std::int64_t b : group) EXPECT_EQ(b, 0);
  }
}

TEST(PStableLsh, BucketsGolden) {
  // Pins buckets() bit for bit over a grid that reaches every path of the
  // dot-product kernel: 1, 3, 5, 15, 16, 17 and 24 rows (partial groups of
  // four, one full 16-row block, more than one block), and dims that give
  // every dim % 8 tail, alone and after whole 8-dim steps. At r = 1e-6 a
  // bucket moves with the last bits of its dot product, so any change in
  // summation order shows; the +-1e30 and NaN inputs pin the saturating
  // buckets. Recorded from the row-at-a-time scalar loop.
  constexpr std::pair<int, int> kShapes[] = {{1, 1}, {3, 1}, {1, 5}, {5, 3},
                                             {4, 4}, {17, 1}, {6, 4}};
  constexpr std::int64_t kDims[] = {1, 3, 4, 7, 8, 10, 13, 14, 4099};
  Sha256 h;
  std::uint64_t seed = 0;
  for (const auto& [k, l] : kShapes) {
    for (const std::int64_t dim : kDims) {
      for (const double r : {1e-6, 1.0}) {
        ++seed;
        const PStableLsh lsh({{r, k, l}, dim, seed});
        std::vector<float> huge(static_cast<std::size_t>(dim));
        for (std::size_t i = 0; i < huge.size(); ++i) {
          huge[i] = i % 2 == 0 ? 1e30F : -1e30F;
        }
        std::vector<float> nan = random_vec(dim, seed + 1000);
        nan[nan.size() / 2] = std::numeric_limits<float>::quiet_NaN();
        for (const auto& x : {random_vec(dim, seed + 2000),
                              random_vec(dim, seed + 3000), huge, nan}) {
          Bytes encoded;
          for (const auto& group : lsh.buckets(x)) {
            for (const std::int64_t b : group) append_i64(encoded, b);
          }
          h.update(encoded);
        }
      }
    }
  }
  EXPECT_EQ(digest_to_hex(h.finish()),
            "7dc8383e26a9f3e82d49449092738335607a8d398e044a9227e406a105fc56ee");
}

TEST(PStableLsh, EmpiricalMatchRateTracksAnalytic) {
  // Tuned for (alpha=0.5, beta=2.5): vectors at alpha should almost always
  // match; vectors at beta almost never. This is the end-to-end fuzzy
  // matching property RPoLv2 verification relies on.
  const TuningResult tuned = optimize_lsh(0.5, 2.5, 16);
  const LshConfig cfg{tuned.params, 256, 11};

  int near_matches = 0, far_matches = 0;
  constexpr int kTrials = 120;
  for (int t = 0; t < kTrials; ++t) {
    // A fresh family per trial: match probability is over the random family.
    LshConfig trial_cfg = cfg;
    trial_cfg.seed = static_cast<std::uint64_t>(1000 + t);
    PStableLsh lsh(trial_cfg);
    const auto base = random_vec(256, static_cast<std::uint64_t>(t));
    const auto near = displaced(base, 0.5, static_cast<std::uint64_t>(t) + 1);
    const auto far = displaced(base, 2.5, static_cast<std::uint64_t>(t) + 2);
    near_matches += lsh_match(lsh.hash(base), lsh.hash(near)) ? 1 : 0;
    far_matches += lsh_match(lsh.hash(base), lsh.hash(far)) ? 1 : 0;
  }
  EXPECT_GE(near_matches, static_cast<int>(0.85 * kTrials));
  EXPECT_LE(far_matches, static_cast<int>(0.15 * kTrials));
}

TEST(PStableLsh, DigestSerializationStable) {
  const LshConfig cfg{{1.0, 2, 3}, 16, 3};
  PStableLsh lsh(cfg);
  const auto v = random_vec(16, 2);
  const LshDigest d = lsh.hash(v);
  EXPECT_EQ(d.groups.size(), 3u);
  EXPECT_EQ(serialize_lsh_digest(d), serialize_lsh_digest(lsh.hash(v)));
}

TEST(PStableLsh, MatchRequiresSameGroupCount) {
  const LshConfig a_cfg{{1.0, 2, 2}, 16, 3};
  const LshConfig b_cfg{{1.0, 2, 3}, 16, 3};
  PStableLsh a(a_cfg), b(b_cfg);
  const auto v = random_vec(16, 4);
  EXPECT_FALSE(lsh_match(a.hash(v), b.hash(v)));
}

}  // namespace
}  // namespace rpol::lsh
