// Merkle hash tree over an ordered list of leaf digests.
//
// Sec. V-B allows the training commitment to be either an ordered list of
// checkpoint hashes or a Merkle root over them. We implement both; the
// Merkle form gives logarithmic-size membership proofs, which matters when
// the number of checkpoints per epoch is large.

#pragma once

#include <cstddef>
#include <vector>

#include "crypto/sha256.h"

namespace rpol {

// One sibling digest per tree level, bottom-up, plus the side each sibling
// sits on (true = sibling is the right child).
struct MerkleProof {
  std::size_t leaf_index = 0;
  std::vector<Digest> siblings;
  std::vector<bool> sibling_is_right;

  // The leaf position actually encoded by the sibling sides. Verifiers
  // that need position binding must compare against THIS, not against the
  // (claimed) leaf_index field.
  std::size_t path_index() const;
};

class MerkleTree {
 public:
  // Builds the tree over the given leaf digests (at least one leaf). Odd
  // nodes at any level are paired with themselves (Bitcoin-style padding).
  explicit MerkleTree(std::vector<Digest> leaves);

  const Digest& root() const { return levels_.back().front(); }
  std::size_t leaf_count() const { return levels_.front().size(); }

  // Digest payload held across every level (~2x the leaf bytes): what the
  // memory accounting charges for a resident tree.
  std::size_t byte_size() const {
    std::size_t nodes = 0;
    for (const auto& level : levels_) nodes += level.size();
    return nodes * sizeof(Digest);
  }

  MerkleProof prove(std::size_t leaf_index) const;

  // Verifies that `leaf` is at `proof.leaf_index` under `root`.
  static bool verify(const Digest& root, const Digest& leaf, const MerkleProof& proof);

 private:
  // levels_[0] = leaves, levels_.back() = {root}.
  std::vector<std::vector<Digest>> levels_;
};

// Domain-separated internal-node hash: SHA256(0x01 || left || right).
// Leaves are expected to be pre-hashed with their own domain by callers.
Digest merkle_parent(const Digest& left, const Digest& right);

}  // namespace rpol
