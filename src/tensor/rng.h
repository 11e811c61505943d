// Deterministic pseudo-random number generation for the whole system.
//
// Everything in RPoL that touches randomness — model initialization, dataset
// synthesis, batch selection, LSH hash families, simulated hardware noise —
// must be reproducible bit-for-bit across runs and platforms, because the
// verification protocol re-executes training steps and compares the results.
// We therefore avoid std::mt19937 / std::normal_distribution (whose outputs
// are implementation-defined for floating point) and implement a fixed
// algorithm stack:
//
//   * splitmix64 for seed expansion,
//   * xoshiro256** as the core generator,
//   * an explicit Box-Muller transform for normal variates.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace rpol {

// splitmix64 step; used to expand a single 64-bit seed into generator state.
std::uint64_t splitmix64(std::uint64_t& state);

// Deterministic PRNG (xoshiro256**). Copyable value type; copying forks the
// stream, which is occasionally useful in tests but should be avoided in
// protocol code (derive sub-seeds instead, see derive_seed()).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Raw 64 random bits.
  std::uint64_t next_u64();

  // Uniform in [0, bound). bound must be > 0. Uses rejection sampling to
  // avoid modulo bias (bias matters: batch selection must be uniform).
  std::uint64_t next_below(std::uint64_t bound);

  // Uniform float in [0, 1) with 24 bits of randomness.
  float next_float();

  // Uniform double in [0, 1) with 53 bits of randomness.
  double next_double();

  // Standard normal variate via Box-Muller. Caches the second variate of
  // each pair so consecutive calls consume uniforms in a fixed pattern.
  float next_normal();

  // Normals per stack block of normals(): uniform pairs are drawn serially
  // for a block, then the block is transformed at once.
  static constexpr std::size_t kNormalBlock = 512;

  // Writes the values of out.size() calls to next_normal(), and leaves the
  // generator exactly as those calls would (cached variate included), with
  // the block transform of detail::box_muller_batch.
  void normals(std::span<float> out);

  // x[i] += scale * next_normal() for every i in order, bitwise.
  void add_normals(std::span<float> x, float scale);

  // Convenience fills.
  void fill_normal(std::vector<float>& out, float mean, float stddev);
  void fill_uniform(std::vector<float>& out, float lo, float hi);

  // Fisher-Yates shuffle of indices [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

 private:
  // next_double() redrawn while <= 1e-300, so Box-Muller's log() is finite.
  double next_box_muller_u1();

  std::array<std::uint64_t, 4> s_{};
  bool has_cached_normal_ = false;
  float cached_normal_ = 0.0F;
};

// Derives a statistically independent sub-seed from (seed, stream_id).
// Used to give each worker / device / epoch its own stream without
// correlated outputs.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream_id);

namespace detail {

// Box-Muller on one uniform pair with libm: cosine and sine variates. This
// is the reference every normal variate of the system equals bitwise.
void box_muller(double u1, double u2, float& cos_variate, float& sin_variate);

// Box-Muller on n uniform pairs: out[2i] and out[2i+1] are bitwise the
// variates box_muller(u1[i], u2[i]) gives. Returns the number of pairs the
// scalar box_muller computed (all n without AVX2+FMA).
std::size_t box_muller_batch(const double* u1, const double* u2,
                             std::size_t n, float* out);

}  // namespace detail

}  // namespace rpol
