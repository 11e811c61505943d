#include "tensor/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace rpol {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Seed expansion: xoshiro state must not be all-zero; splitmix64 of any
  // seed guarantees that with overwhelming probability, and we force a
  // non-zero word as a belt-and-braces measure.
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  // Lemire-style rejection: draw until the value falls in the largest
  // multiple of `bound` that fits in 64 bits.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

float Rng::next_float() {
  return static_cast<float>(next_u64() >> 40) * 0x1.0p-24F;
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::next_box_muller_u1() {
  double u1 = 0.0;
  do {
    u1 = next_double();
  } while (u1 <= 1e-300);
  return u1;
}

float Rng::next_normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  const double u1 = next_box_muller_u1();
  const double u2 = next_double();
  float c = 0.0F;
  detail::box_muller(u1, u2, c, cached_normal_);
  has_cached_normal_ = true;
  return c;
}

void Rng::normals(std::span<float> out) {
  std::size_t i = 0;
  if (has_cached_normal_ && !out.empty()) {
    out[i++] = cached_normal_;
    has_cached_normal_ = false;
  }
  double u1[kNormalBlock / 2] = {};
  double u2[kNormalBlock / 2] = {};
  float z[kNormalBlock] = {};
  while (i < out.size()) {
    const std::size_t n = std::min(kNormalBlock, out.size() - i);
    const std::size_t pairs = (n + 1) / 2;
    for (std::size_t p = 0; p < pairs; ++p) {
      u1[p] = next_box_muller_u1();
      u2[p] = next_double();
    }
    detail::box_muller_batch(u1, u2, pairs, z);
    std::copy_n(z, n, out.begin() + static_cast<std::ptrdiff_t>(i));
    i += n;
    if (n % 2 == 1) {  // only the last block can be odd
      cached_normal_ = z[n];
      has_cached_normal_ = true;
    }
  }
}

void Rng::add_normals(std::span<float> x, float scale) {
  float z[kNormalBlock] = {};
  for (std::size_t i = 0; i < x.size(); i += kNormalBlock) {
    const std::size_t n = std::min(kNormalBlock, x.size() - i);
    normals({z, n});
    for (std::size_t j = 0; j < n; ++j) x[i + j] += scale * z[j];
  }
}

void Rng::fill_normal(std::vector<float>& out, float mean, float stddev) {
  normals(out);
  for (auto& v : out) v = mean + stddev * v;
}

void Rng::fill_uniform(std::vector<float>& out, float lo, float hi) {
  for (auto& v : out) v = lo + (hi - lo) * next_float();
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(next_below(i));
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream_id) {
  // Two rounds of splitmix over a mix of seed and stream id. The golden-ratio
  // multiplier decorrelates adjacent stream ids.
  std::uint64_t state = seed ^ (stream_id * 0x9e3779b97f4a7c15ULL + 0x85ebca6bULL);
  (void)splitmix64(state);
  return splitmix64(state);
}

namespace detail {

void box_muller(double u1, double u2, float& cos_variate, float& sin_variate) {
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * 3.141592653589793238462643 * u2;
  sin_variate = static_cast<float>(radius * std::sin(angle));
  cos_variate = static_cast<float>(radius * std::cos(angle));
}

#if defined(__AVX2__) && defined(__FMA__)
namespace {

inline __m256d splat(double v) { return _mm256_set1_pd(v); }
inline __m256i splat64(long long v) { return _mm256_set1_epi64x(v); }

// Horner step acc * x + c.
inline __m256d horner(__m256d acc, __m256d x, double c) {
  return _mm256_fmadd_pd(acc, x, splat(c));
}

// fdlibm e_log.c on four positive normal doubles: x = 2^k (1 + f) with
// 1 + f in [sqrt(2)/2, sqrt(2)), then log(1 + f) from s = f / (2 + f).
__m256d log4(__m256d x) {
  const __m256i bits = _mm256_castpd_si256(x);
  const __m256i mant = _mm256_and_si256(bits, splat64(0x000fffffffffffffLL));
  // 2^52 where the mantissa is at least sqrt(2)'s: that lane halves 1 + f.
  const __m256i carry = _mm256_and_si256(
      _mm256_add_epi64(mant, splat64(0x00095f6400000000LL)),
      splat64(0x0010000000000000LL));
  const __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      mant, _mm256_xor_si256(carry, splat64(0x3ff0000000000000LL))));
  // k as a double: the biased exponent read through 2^52 + e, then unbiased.
  const __m256i e = _mm256_add_epi64(_mm256_srli_epi64(bits, 52),
                                     _mm256_srli_epi64(carry, 52));
  const __m256d k = _mm256_sub_pd(
      _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(e, splat64(0x4330000000000000LL))),
                    splat(0x1p52)),
      splat(1023.0));
  const __m256d f = _mm256_sub_pd(m, splat(1.0));
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(splat(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  const __m256d t1 = _mm256_mul_pd(
      w, horner(horner(splat(1.531383769920937332e-01), w, 2.222219843214978396e-01),
                w, 3.999999999940941908e-01));
  const __m256d t2 = _mm256_mul_pd(
      z, horner(horner(horner(splat(1.479819860511658591e-01), w,
                              1.818357216161805012e-01),
                       w, 2.857142874366239149e-01),
                w, 6.666666666666735130e-01));
  const __m256d r = _mm256_add_pd(t2, t1);
  const __m256d hfsq = _mm256_mul_pd(_mm256_mul_pd(splat(0.5), f), f);
  // k*ln2_hi - ((hfsq - (s*(hfsq + R) + k*ln2_lo)) - f)
  const __m256d tail = _mm256_fmadd_pd(k, splat(1.90821492927058770002e-10),
                                       _mm256_mul_pd(s, _mm256_add_pd(hfsq, r)));
  return _mm256_fmsub_pd(k, splat(6.93147180369123816490e-01),
                         _mm256_sub_pd(_mm256_sub_pd(hfsq, tail), f));
}

// fdlibm __kernel_sin / __kernel_cos on y in [-pi/4, pi/4] (no tail word).
__m256d sin_kernel(__m256d y) {
  const __m256d z = _mm256_mul_pd(y, y);
  const __m256d r = horner(horner(horner(horner(splat(1.58969099521155010221e-10), z,
                                               -2.50507602534068634195e-08),
                                        z, 2.75573137070700676789e-06),
                                 z, -1.98412698298579493134e-04),
                          z, 8.33333333332248946124e-03);
  const __m256d v = _mm256_mul_pd(z, y);
  return _mm256_fmadd_pd(v, horner(r, z, -1.66666666666666324348e-01), y);
}

__m256d cos_kernel(__m256d y) {
  const __m256d z = _mm256_mul_pd(y, y);
  const __m256d r = _mm256_mul_pd(
      z, horner(horner(horner(horner(horner(splat(-1.13596475577881948265e-11), z,
                                            2.08757232129817482790e-09),
                                     z, -2.75573143513906633035e-07),
                              z, 2.48015872894767294178e-05),
                       z, -1.38888888888741095749e-03),
                z, 4.16666666666666019037e-02));
  // 1 - (z/2 - z*r)
  return _mm256_sub_pd(splat(1.0), _mm256_fmsub_pd(splat(0.5), z, _mm256_mul_pd(z, r)));
}

// Four pairs (pointer arguments, so the function leaves with the upper
// vector state cleared): writes the interleaved (cos, sin) variates to
// out[0..8) and returns a mask of the lanes whose float rounding is not certain, which
// the caller recomputes with box_muller().
//
// The double products lie within a few ulps of radius of the exact values,
// and so do libm's. A lane is kept only when (float)(v - m) and
// (float)(v + m), m = radius * 2^-40, have the same bits for both products:
// rounding to float is monotone, so every value within m of v, libm's
// included, rounds to those bits.
unsigned box_muller4(const double* u1_in, const double* u2_in, float* out) {
  const __m256d u1 = _mm256_loadu_pd(u1_in);
  const __m256d u2 = _mm256_loadu_pd(u2_in);
  const __m256d radius = _mm256_sqrt_pd(_mm256_mul_pd(splat(-2.0), log4(u1)));
  const __m256d angle = _mm256_mul_pd(splat(2.0 * 3.141592653589793238462643), u2);
  // Cody-Waite: angle = n * pi/2 + y with fdlibm's pio2_1 (33 bits, so
  // n * pio2_1 is exact for n <= 4) and pio2_1t.
  const __m256d n = _mm256_round_pd(
      _mm256_mul_pd(angle, splat(6.36619772367581382433e-01)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d y = _mm256_fnmadd_pd(
      n, splat(6.07710050650619224932e-11),
      _mm256_fnmadd_pd(n, splat(1.57079632673412561417e+00), angle));
  const __m256d sy = sin_kernel(y);
  const __m256d cy = cos_kernel(y);
  // Quadrant q = n mod 4: odd q swaps sin and cos, q in {2, 3} negates sin,
  // q in {1, 2} negates cos.
  const __m256i q = _mm256_castpd_si256(_mm256_add_pd(n, splat(0x1p52)));
  const __m256d swap = _mm256_castsi256_pd(_mm256_slli_epi64(q, 63));
  const __m256d sin_sign =
      _mm256_castsi256_pd(_mm256_slli_epi64(_mm256_and_si256(q, splat64(2)), 62));
  const __m256d cos_sign = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(_mm256_add_epi64(q, splat64(1)), splat64(2)), 62));
  const __m256d sin_a = _mm256_xor_pd(_mm256_blendv_pd(sy, cy, swap), sin_sign);
  const __m256d cos_a = _mm256_xor_pd(_mm256_blendv_pd(cy, sy, swap), cos_sign);

  const __m256d margin = _mm256_mul_pd(radius, splat(0x1p-40));
  const __m256d vc = _mm256_mul_pd(radius, cos_a);
  const __m256d vs = _mm256_mul_pd(radius, sin_a);
  const __m128 c_lo = _mm256_cvtpd_ps(_mm256_sub_pd(vc, margin));
  const __m128 c_hi = _mm256_cvtpd_ps(_mm256_add_pd(vc, margin));
  const __m128 s_lo = _mm256_cvtpd_ps(_mm256_sub_pd(vs, margin));
  const __m128 s_hi = _mm256_cvtpd_ps(_mm256_add_pd(vs, margin));
  const __m128i same = _mm_and_si128(
      _mm_cmpeq_epi32(_mm_castps_si128(c_lo), _mm_castps_si128(c_hi)),
      _mm_cmpeq_epi32(_mm_castps_si128(s_lo), _mm_castps_si128(s_hi)));
  _mm_storeu_ps(out, _mm_unpacklo_ps(c_lo, s_lo));
  _mm_storeu_ps(out + 4, _mm_unpackhi_ps(c_lo, s_lo));
  return ~static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(same))) & 0xFU;
}

}  // namespace
#endif

std::size_t box_muller_batch(const double* u1, const double* u2, std::size_t n,
                             float* out) {
  std::size_t scalar = 0;
  std::size_t i = 0;
#if defined(__AVX2__) && defined(__FMA__)
  for (; i + 4 <= n; i += 4) {
    for (unsigned unsure = box_muller4(u1 + i, u2 + i, out + 2 * i);
         unsure != 0; unsure &= unsure - 1, ++scalar) {
      const std::size_t p = i + static_cast<std::size_t>(std::countr_zero(unsure));
      box_muller(u1[p], u2[p], out[2 * p], out[2 * p + 1]);
    }
  }
#endif
  for (; i < n; ++i, ++scalar) box_muller(u1[i], u2[i], out[2 * i], out[2 * i + 1]);
  return scalar;
}

}  // namespace detail

}  // namespace rpol
