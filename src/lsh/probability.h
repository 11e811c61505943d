// Analytic probability model of p-stable (Gaussian, p=2) LSH.
//
// One hash function h_{a,b}(x) = floor((a.x + b) / r) with a ~ N(0, I),
// b ~ U[0, r) collides for two vectors at Euclidean distance c with
// probability (Datar et al. 2004):
//
//   p(c, r) = 1 - 2 Phi(-r/c) - (2 c / (sqrt(2 pi) r)) (1 - exp(-r^2 / 2c^2))
//
// With l groups of k functions, two vectors match if ANY group agrees on
// all k values (Sec. II-C):
//
//   Pr_lsh(c, r, k, l) = 1 - (1 - p(c,r)^k)^l
//
// This file also provides the FNR/FPR functionals of Eq. (5), evaluated by
// numeric quadrature over arbitrary distance densities.

#pragma once

#include <functional>

namespace rpol::lsh {

struct LshParams {
  double r = 1.0;  // bucket width
  int k = 4;       // hash functions per group (AND)
  int l = 4;       // groups (OR)

  bool operator==(const LshParams& other) const = default;
};

// Standard normal CDF.
double norm_cdf(double x);

// Single-function collision probability p(c, r); c >= 0, r > 0.
// p(0, r) == 1 by continuity.
double collision_probability(double c, double r);

// Full-scheme matching probability Pr_lsh(c, r, k, l).
double match_probability(double c, const LshParams& params);

// Expected false-negative rate of LSH matching for honest results whose
// reproduction distance has density `repr_pdf` supported on [0, beta):
//   FNR = integral_0^beta repr_pdf(c) (1 - Pr_lsh(c)) dc          (Eq. 5)
double expected_fnr(const std::function<double(double)>& repr_pdf, double beta,
                    const LshParams& params, int quadrature_steps = 2000);

// Expected false-positive rate for spoofed results whose distance density
// `spoof_pdf` is supported on [beta, upper):
//   FPR = integral_beta^upper spoof_pdf(c) Pr_lsh(c) dc           (Eq. 5)
double expected_fpr(const std::function<double(double)>& spoof_pdf, double beta,
                    double upper, const LshParams& params,
                    int quadrature_steps = 2000);

// Normal density restricted to x >= 0 (unnormalized tail mass is fine for
// the near-worst-case analyses in Sec. V-C).
std::function<double(double)> normal_pdf(double mean, double stddev);

}  // namespace rpol::lsh
