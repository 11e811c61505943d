#include "lsh/pstable.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "tensor/rng.h"

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
  const int k = config_.params.k, l = config_.params.l;
  const double r = config_.params.r;
  std::vector<std::vector<std::int64_t>> out(static_cast<std::size_t>(l));
  for (int g = 0; g < l; ++g) {
    auto& group = out[static_cast<std::size_t>(g)];
    group.resize(static_cast<std::size_t>(k));
    for (int f = 0; f < k; ++f) {
      const std::int64_t row = static_cast<std::int64_t>(g) * k + f;
      const float* proj =
          projections_.data() + static_cast<std::size_t>(row * config_.dim);
      double dot = 0.0;
      for (std::int64_t d = 0; d < config_.dim; ++d) {
        dot += static_cast<double>(proj[d]) * x[static_cast<std::size_t>(d)];
      }
      group[static_cast<std::size_t>(f)] =
          bucket_of((dot + offsets_[static_cast<std::size_t>(row)]) / r);
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
