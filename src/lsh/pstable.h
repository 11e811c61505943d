// p-stable LSH over weight vectors.
//
// The manager broadcasts an LshConfig per epoch (parameters + seed); workers
// hash each checkpoint's output weights into an LshDigest that goes into the
// commitment. During verification the manager hashes its re-executed weights
// under the same config and fuzzy-matches: two digests match if ANY of the
// l groups is identical (all k bucket values in the group agree).
//
// Digests are compact — l SHA-256 hashes instead of k*l raw buckets — so the
// commitment stays small and bucket values don't leak coarse information
// about the weights.

#pragma once

#include <cstdint>
#include <vector>

#include "crypto/sha256.h"
#include "lsh/probability.h"

namespace rpol::lsh {

struct LshConfig {
  LshParams params;
  std::int64_t dim = 0;       // weight-vector length this family hashes
  std::uint64_t seed = 1;     // seeds the projection directions and offsets

  bool operator==(const LshConfig& other) const = default;
};

struct LshDigest {
  std::vector<Digest> groups;  // one digest per group (size l)

  bool operator==(const LshDigest& other) const { return groups == other.groups; }
};

// True if at least one group digest agrees (the OR over l AND-groups).
bool lsh_match(const LshDigest& a, const LshDigest& b);

// Canonical byte encoding (for inclusion in commitments).
Bytes serialize_lsh_digest(const LshDigest& digest);

class PStableLsh {
 public:
  // Throws std::invalid_argument for a non-positive dim, k, l or r, and,
  // before allocating, when k * l * dim overflows.
  explicit PStableLsh(const LshConfig& config);

  const LshConfig& config() const { return config_; }

  // Raw bucket values: l groups of k integers, floor((a.x + b) / r) per
  // hash. Defined for any input: a bucket past the int64 range saturates to
  // INT64_MAX or INT64_MIN, and a NaN one (NaN or Inf weights) is INT64_MIN.
  // Exposed for tests and for empirical collision-rate measurement.
  std::vector<std::vector<std::int64_t>> buckets(const std::vector<float>& x) const;

  // Group digests of the bucket values.
  LshDigest hash(const std::vector<float>& x) const;

 private:
  LshConfig config_;
  // (l*k) x dim, row-major in the order Rng draws it (row g*k + f is group
  // g's hash f). buckets() reads 16 rows per pass over x and transposes
  // them in registers, so building the family never re-lays it out
  // (DESIGN.md "LSH projections").
  std::vector<float> projections_;
  std::vector<double> offsets_;     // l*k, uniform in [0, r)
};

}  // namespace rpol::lsh
