#include "crypto/merkle.h"

#include <stdexcept>

#include "runtime/thread_pool.h"

namespace rpol {

namespace {

// Pairs below this count are hashed inline; the per-level fan-out only pays
// off once a level has enough independent parent hashes to amortize dispatch.
constexpr std::size_t kParallelPairGrain = 64;

}  // namespace

Digest merkle_parent(const Digest& left, const Digest& right) {
  Sha256 h;
  const std::uint8_t domain = 0x01;
  h.update(&domain, 1);
  h.update(left.data(), left.size());
  h.update(right.data(), right.size());
  return h.finish();
}

MerkleTree::MerkleTree(std::vector<Digest> leaves) {
  if (leaves.empty()) throw std::invalid_argument("Merkle tree needs >= 1 leaf");
  levels_.push_back(std::move(leaves));
  while (levels_.back().size() > 1) {
    const auto& prev = levels_.back();
    const std::size_t pairs = (prev.size() + 1) / 2;
    std::vector<Digest> next(pairs);
    // Parent hashes within a level are independent, so they fan out across
    // the deterministic pool; each index writes only its own slot, and the
    // static partitioning makes the result thread-count invariant.
    runtime::parallel_for(
        0, static_cast<std::int64_t>(pairs),
        static_cast<std::int64_t>(kParallelPairGrain),
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t p = lo; p < hi; ++p) {
            const std::size_t i = static_cast<std::size_t>(p);
            const Digest& left = prev[2 * i];
            const Digest& right =
                (2 * i + 1 < prev.size()) ? prev[2 * i + 1] : prev[2 * i];
            next[i] = merkle_parent(left, right);
          }
        });
    levels_.push_back(std::move(next));
  }
}

std::size_t MerkleProof::path_index() const {
  // sibling_is_right[k] == true means our node was the LEFT child (even
  // index) at level k, so the k-th index bit is 0.
  std::size_t idx = 0;
  for (std::size_t level = sibling_is_right.size(); level-- > 0;) {
    idx = idx * 2 + (sibling_is_right[level] ? 0 : 1);
  }
  return idx;
}

MerkleProof MerkleTree::prove(std::size_t leaf_index) const {
  if (leaf_index >= leaf_count()) {
    throw std::out_of_range("Merkle proof index out of range");
  }
  MerkleProof proof;
  proof.leaf_index = leaf_index;
  std::size_t idx = leaf_index;
  for (std::size_t level = 0; level + 1 < levels_.size(); ++level) {
    const auto& nodes = levels_[level];
    const std::size_t sibling = (idx % 2 == 0) ? idx + 1 : idx - 1;
    const Digest& sib =
        (sibling < nodes.size()) ? nodes[sibling] : nodes[idx];  // self-pair
    proof.siblings.push_back(sib);
    proof.sibling_is_right.push_back(idx % 2 == 0);
    idx /= 2;
  }
  return proof;
}

bool MerkleTree::verify(const Digest& root, const Digest& leaf,
                        const MerkleProof& proof) {
  if (proof.siblings.size() != proof.sibling_is_right.size()) return false;
  Digest acc = leaf;
  for (std::size_t i = 0; i < proof.siblings.size(); ++i) {
    acc = proof.sibling_is_right[i] ? merkle_parent(acc, proof.siblings[i])
                                    : merkle_parent(proof.siblings[i], acc);
  }
  return digest_equal(acc, root);
}

}  // namespace rpol
