#include "lsh/pstable.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "tensor/rng.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace rpol::lsh {

namespace {

// floor(v) as an int64 bucket, defined for every double: values at or past
// the int64 range saturate to its ends, and NaN maps to INT64_MIN (the value
// x86's truncating conversion produced when the cast was left undefined).
// In-range values convert exactly as a plain cast would.
std::int64_t bucket_of(double v) {
  constexpr double kTwoTo63 = 9223372036854775808.0;
  const double f = std::floor(v);
  if (f >= kTwoTo63) return std::numeric_limits<std::int64_t>::max();
  if (!(f >= -kTwoTo63)) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(f);
}

#if defined(__AVX2__) && defined(__FMA__)

// Rows one pass over the input advances: four accumulators of four rows.
constexpr std::int64_t kBlockRows = 16;

// acc += c * x for the four rows in c's lanes at one dim: an exact
// float x float product in double, then a separate add (no FMA).
inline __m256d add_products(__m256d acc, __m128 c, __m256d x) {
  return _mm256_add_pd(acc, _mm256_mul_pd(_mm256_cvtps_pd(c), x));
}

// dots[i] = row[i] . x for the 4 * Q rows `row` points at. Lane i of acc[q]
// is row 4q + i's running sum, and it takes that row's products in the
// scalar loop's d order, so each sum has the bits the reference loop gives
// it. Each step loads 8 dims of four rows and transposes them in registers
// as two 4 x 4 blocks (one per 128-bit half), so the family stays row-major.
template <int Q>
void dot_rows(const float* const* row, const float* x, std::int64_t dim,
              double* dots) {
  __m256d acc[Q];
  for (int q = 0; q < Q; ++q) acc[q] = _mm256_setzero_pd();
  std::int64_t d = 0;
  for (; d + 8 <= dim; d += 8) {
    const __m256 xf = _mm256_loadu_ps(x + d);
    const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(xf));
    const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(xf, 1));
    const __m256d xs[8] = {
        _mm256_permute4x64_pd(lo, 0x00), _mm256_permute4x64_pd(lo, 0x55),
        _mm256_permute4x64_pd(lo, 0xAA), _mm256_permute4x64_pd(lo, 0xFF),
        _mm256_permute4x64_pd(hi, 0x00), _mm256_permute4x64_pd(hi, 0x55),
        _mm256_permute4x64_pd(hi, 0xAA), _mm256_permute4x64_pd(hi, 0xFF)};
    for (int q = 0; q < Q; ++q) {
      const float* const* r = row + 4 * q;
      const __m256 r0 = _mm256_loadu_ps(r[0] + d);
      const __m256 r1 = _mm256_loadu_ps(r[1] + d);
      const __m256 r2 = _mm256_loadu_ps(r[2] + d);
      const __m256 r3 = _mm256_loadu_ps(r[3] + d);
      const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
      const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
      const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
      const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
      // cols[j] holds dim d + j of the four rows, and dim d + 4 + j above.
      const __m256 cols[4] = {
          _mm256_shuffle_ps(t0, t2, 0x44), _mm256_shuffle_ps(t0, t2, 0xEE),
          _mm256_shuffle_ps(t1, t3, 0x44), _mm256_shuffle_ps(t1, t3, 0xEE)};
      for (int j = 0; j < 4; ++j) {
        acc[q] = add_products(acc[q], _mm256_castps256_ps128(cols[j]), xs[j]);
      }
      for (int j = 0; j < 4; ++j) {
        acc[q] =
            add_products(acc[q], _mm256_extractf128_ps(cols[j], 1), xs[4 + j]);
      }
    }
  }
  for (; d < dim; ++d) {
    const __m256d xd = _mm256_set1_pd(static_cast<double>(x[d]));
    for (int q = 0; q < Q; ++q) {
      const float* const* r = row + 4 * q;
      acc[q] = add_products(acc[q],
                            _mm_setr_ps(r[0][d], r[1][d], r[2][d], r[3][d]),
                            xd);
    }
  }
  for (int q = 0; q < Q; ++q) _mm256_storeu_pd(dots + 4 * q, acc[q]);
}

// dots[row] = family row . x for every row of the row-major family, 16 rows
// per pass over x. A block's last group of four may hold fewer real rows:
// its spare lanes re-read the block's last row and are dropped.
void project(const float* family, std::int64_t rows, std::int64_t dim,
             const float* x, double* dots) {
  for (std::int64_t first = 0; first < rows; first += kBlockRows) {
    const std::int64_t n = std::min(kBlockRows, rows - first);
    const float* row[kBlockRows];
    for (std::int64_t i = 0; i < kBlockRows; ++i) {
      row[i] = family + (first + std::min(i, n - 1)) * dim;
    }
    double block[kBlockRows];
    switch ((n + 3) / 4) {
      case 1: dot_rows<1>(row, x, dim, block); break;
      case 2: dot_rows<2>(row, x, dim, block); break;
      case 3: dot_rows<3>(row, x, dim, block); break;
      default: dot_rows<4>(row, x, dim, block); break;
    }
    std::copy(block, block + n, dots + first);
  }
}

#else

// dots[row] = family row . x for every row of the row-major family: the
// reference loop, one serial sum of exact products per row in d order.
void project(const float* family, std::int64_t rows, std::int64_t dim,
             const float* x, double* dots) {
  for (std::int64_t row = 0; row < rows; ++row) {
    const float* proj = family + row * dim;
    double dot = 0.0;
    for (std::int64_t d = 0; d < dim; ++d) {
      dot += static_cast<double>(proj[d]) * x[d];
    }
    dots[row] = dot;
  }
}

#endif

}  // namespace

bool lsh_match(const LshDigest& a, const LshDigest& b) {
  if (a.groups.size() != b.groups.size()) return false;
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    if (digest_equal(a.groups[g], b.groups[g])) return true;
  }
  return false;
}

Bytes serialize_lsh_digest(const LshDigest& digest) {
  Bytes out;
  append_u64(out, digest.groups.size());
  for (const auto& g : digest.groups) out.insert(out.end(), g.begin(), g.end());
  return out;
}

PStableLsh::PStableLsh(const LshConfig& config) : config_(config) {
  if (config_.dim <= 0) throw std::invalid_argument("LSH dim must be positive");
  if (config_.params.k < 1 || config_.params.l < 1 || config_.params.r <= 0.0) {
    throw std::invalid_argument("invalid LSH parameters");
  }
  const std::int64_t rows =
      static_cast<std::int64_t>(config_.params.k) * config_.params.l;
  if (config_.dim > std::numeric_limits<std::int64_t>::max() / rows) {
    throw std::invalid_argument("LSH family size overflows");
  }
  Rng rng(derive_seed(config_.seed, /*stream=*/0x15A));
  projections_.resize(static_cast<std::size_t>(rows * config_.dim));
  rng.fill_normal(projections_, 0.0F, 1.0F);
  offsets_.resize(static_cast<std::size_t>(rows));
  for (auto& b : offsets_) b = rng.next_double() * config_.params.r;
}

std::vector<std::vector<std::int64_t>> PStableLsh::buckets(
    const std::vector<float>& x) const {
  if (static_cast<std::int64_t>(x.size()) != config_.dim) {
    throw std::invalid_argument("LSH input dimension mismatch");
  }
  const double r = config_.params.r;
  std::vector<double> dots(offsets_.size());
  project(projections_.data(), static_cast<std::int64_t>(dots.size()),
          config_.dim, x.data(), dots.data());
  std::vector<std::vector<std::int64_t>> out(
      static_cast<std::size_t>(config_.params.l));
  std::size_t row = 0;  // group g's hash f is row g * k + f of the family
  for (auto& group : out) {
    group.resize(static_cast<std::size_t>(config_.params.k));
    for (auto& bucket : group) {
      bucket = bucket_of((dots[row] + offsets_[row]) / r);
      ++row;
    }
  }
  return out;
}

LshDigest PStableLsh::hash(const std::vector<float>& x) const {
  const auto bucket_values = buckets(x);
  LshDigest digest;
  digest.groups.reserve(bucket_values.size());
  for (const auto& group : bucket_values) {
    Bytes encoded;
    for (const auto v : group) append_i64(encoded, v);
    digest.groups.push_back(sha256(encoded));
  }
  return digest;
}

}  // namespace rpol::lsh
