#include "core/commitment.h"

#include <bit>
#include <stdexcept>

#include "runtime/thread_pool.h"

namespace rpol::core {

namespace {

// Checkpoint states are megabytes each, so one leaf per slice is the right
// granularity for the deterministic pool; each index writes only its own
// pre-sized slot, preserving bitwise thread-count invariance.
constexpr std::int64_t kLeafGrain = 1;

// Hashes every LSH digest into its domain-separated Merkle leaf, in parallel.
std::vector<Digest> hash_lsh_leaves(const std::vector<lsh::LshDigest>& digests) {
  std::vector<Digest> leaves(digests.size());
  runtime::parallel_for(
      0, static_cast<std::int64_t>(digests.size()), kLeafGrain,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t j = lo; j < hi; ++j) {
          leaves[static_cast<std::size_t>(j)] =
              lsh_leaf_digest(digests[static_cast<std::size_t>(j)]);
        }
      });
  return leaves;
}

const std::vector<Digest>& checked_state_hashes(const Commitment& full) {
  if (full.state_hashes.empty()) {
    throw std::invalid_argument("empty commitment");
  }
  return full.state_hashes;
}

std::optional<MerkleTree> make_lsh_tree(const Commitment& full) {
  if (full.version != CommitmentVersion::kV2) return std::nullopt;
  return MerkleTree(hash_lsh_leaves(full.lsh_digests));
}

}  // namespace

std::uint64_t EpochTrace::storage_bytes() const {
  std::uint64_t total = 0;
  for (const auto& c : checkpoints) total += c.byte_size();
  return total;
}

TrainState EpochTrace::fetch(std::int64_t index) const {
  if (index < 0 || index >= num_checkpoints()) {
    throw std::out_of_range("checkpoint index out of range");
  }
  return checkpoints[static_cast<std::size_t>(index)];
}

Bytes serialize_state(const TrainState& state) {
  Bytes out;
  out.reserve(16 + 4 * (state.model.size() + state.optimizer.size()));
  append_floats(out, state.model);
  append_floats(out, state.optimizer);
  return out;
}

TrainState deserialize_state(const Bytes& in, std::size_t& offset) {
  TrainState state;
  state.model = deserialize_floats(in, offset);
  state.optimizer = deserialize_floats(in, offset);
  return state;
}

void update_with_floats(Sha256& h, const std::vector<float>& v) {
  std::uint8_t prefix[8];
  const std::uint64_t count = v.size();
  for (int i = 0; i < 8; ++i) {
    prefix[i] = static_cast<std::uint8_t>(count >> (8 * i));
  }
  h.update(prefix, sizeof prefix);
  static_assert(sizeof(float) == 4, "canonical encoding assumes fp32");
  if constexpr (std::endian::native == std::endian::little) {
    // The canonical payload (LE IEEE-754 fp32) IS the vector's raw memory.
    h.update(reinterpret_cast<const std::uint8_t*>(v.data()), 4 * v.size());
  } else {
    // Byte-swapping fallback; chunked so the staging buffer stays small.
    std::uint8_t chunk[4 * 256];
    std::size_t fill = 0;
    for (const float f : v) {
      std::uint32_t bits = std::bit_cast<std::uint32_t>(f);
      for (int i = 0; i < 4; ++i) {
        chunk[fill++] = static_cast<std::uint8_t>(bits >> (8 * i));
      }
      if (fill == sizeof chunk) {
        h.update(chunk, fill);
        fill = 0;
      }
    }
    if (fill != 0) h.update(chunk, fill);
  }
}

Digest hash_state(const TrainState& state) {
  Sha256 h;
  update_with_floats(h, state.model);
  update_with_floats(h, state.optimizer);
  return h.finish();
}

std::uint64_t Commitment::byte_size() const {
  std::uint64_t total = 32;  // root
  total += 32ULL * state_hashes.size();
  for (const auto& d : lsh_digests) total += 32ULL * d.groups.size() + 8;
  return total;
}

Commitment commit_v1(const EpochTrace& trace) {
  CommitmentBuilder builder(CommitmentVersion::kV1);
  builder.add_checkpoints(trace.checkpoints);
  return builder.finish();
}

Commitment commit_v2(const EpochTrace& trace, const lsh::PStableLsh& hasher,
                     const std::vector<bool>* mask) {
  CommitmentBuilder builder(CommitmentVersion::kV2, &hasher, mask);
  builder.add_checkpoints(trace.checkpoints);
  return builder.finish();
}

Digest commitment_root(const Commitment& commitment) {
  Sha256 h;
  const std::uint8_t version_byte =
      commitment.version == CommitmentVersion::kV1 ? 0x01 : 0x02;
  h.update(&version_byte, 1);
  for (const auto& d : commitment.state_hashes) h.update(d.data(), d.size());
  for (const auto& lsh_digest : commitment.lsh_digests) {
    const Bytes encoded = lsh::serialize_lsh_digest(lsh_digest);
    h.update(encoded);
  }
  return h.finish();
}

Digest lsh_leaf_digest(const lsh::LshDigest& digest) {
  Sha256 h;
  const std::uint8_t domain = 0x4C;  // 'L'
  h.update(&domain, 1);
  h.update(lsh::serialize_lsh_digest(digest));
  return h.finish();
}

CommitmentIndex::CommitmentIndex(const Commitment& full)
    : full_(&full),
      state_tree_(checked_state_hashes(full)),
      lsh_tree_(make_lsh_tree(full)) {
  mem_.set(state_tree_.byte_size() +
           (lsh_tree_.has_value() ? lsh_tree_->byte_size() : 0));
}

CompactCommitment CommitmentIndex::compact() const {
  CompactCommitment compact;
  compact.version = full_->version;
  compact.num_checkpoints =
      static_cast<std::int64_t>(full_->state_hashes.size());
  compact.state_root = state_tree_.root();
  if (lsh_tree_.has_value()) compact.lsh_root = lsh_tree_->root();
  return compact;
}

TransitionProof CommitmentIndex::prove_transition(
    std::int64_t transition) const {
  const auto count = static_cast<std::int64_t>(full_->state_hashes.size());
  if (transition < 0 || transition + 1 >= count) {
    throw std::out_of_range("transition index out of range");
  }
  TransitionProof proof;
  proof.transition = transition;
  proof.in_hash = full_->state_hashes[static_cast<std::size_t>(transition)];
  proof.in_membership = state_tree_.prove(static_cast<std::size_t>(transition));
  proof.out_hash = full_->state_hashes[static_cast<std::size_t>(transition + 1)];
  proof.out_membership =
      state_tree_.prove(static_cast<std::size_t>(transition + 1));
  if (lsh_tree_.has_value()) {
    proof.out_lsh = full_->lsh_digests[static_cast<std::size_t>(transition + 1)];
    proof.out_lsh_membership =
        lsh_tree_->prove(static_cast<std::size_t>(transition + 1));
  }
  return proof;
}

CompactCommitment compact_commitment(const Commitment& full) {
  return CommitmentIndex(full).compact();
}

CommitmentBuilder::CommitmentBuilder(CommitmentVersion version,
                                     const lsh::PStableLsh* hasher,
                                     const std::vector<bool>* mask)
    : version_(version), hasher_(hasher), mask_(mask) {
  if (version_ == CommitmentVersion::kV2 && hasher_ == nullptr) {
    throw std::invalid_argument("v2 commitment builder needs an LSH hasher");
  }
  acc_.version = version_;
}

bool CommitmentBuilder::append_slots(std::span<const TrainState> states) {
  if (version_ == CommitmentVersion::kV2 && mask_ != nullptr) {
    for (const TrainState& state : states) {
      if (state.model.size() != mask_->size()) fits_mask_ = false;
    }
  }
  if (!fits_mask_) return false;
  const std::size_t n = acc_.state_hashes.size() + states.size();
  acc_.state_hashes.resize(n);
  if (version_ == CommitmentVersion::kV2) acc_.lsh_digests.resize(n);
  return true;
}

void CommitmentBuilder::hash_leaf(const TrainState& state, std::size_t index) {
  if (version_ == CommitmentVersion::kV1) {
    acc_.state_hashes[index] = hash_state(state);
    return;
  }
  // A v2 leaf's two digests are independent: the two slices of one
  // parallel_for, concurrent from add_checkpoint, inline in add_checkpoints.
  // LSH runs on the caller's slice so its weight copy skips a worker's arena.
  runtime::parallel_for(0, 2, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t part = lo; part < hi; ++part) {
      if (part == 0 && mask_ == nullptr) {
        acc_.lsh_digests[index] = hasher_->hash(state.model);  // in place
      } else if (part == 0) {
        acc_.lsh_digests[index] =
            hasher_->hash(extract_trainable(state.model, *mask_));
      } else {
        acc_.state_hashes[index] = hash_state(state);
      }
    }
  });
}

void CommitmentBuilder::add_checkpoint(const TrainState& state) {
  if (!append_slots({&state, 1})) return;
  hash_leaf(state, acc_.state_hashes.size() - 1);
  mem_.set(acc_.byte_size());
}

void CommitmentBuilder::add_checkpoints(std::span<const TrainState> states) {
  const std::size_t first = acc_.state_hashes.size();
  if (!append_slots(states)) return;
  // PStableLsh::hash is const and stateless per call, and each index writes
  // only its own slot, so fanning leaves across the pool is deterministic.
  runtime::parallel_for(
      0, static_cast<std::int64_t>(states.size()), kLeafGrain,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t j = lo; j < hi; ++j) {
          const auto i = static_cast<std::size_t>(j);
          hash_leaf(states[i], first + i);
        }
      });
  mem_.set(acc_.byte_size());
}

Commitment CommitmentBuilder::finish() const {
  if (!fits_mask_) {
    throw std::invalid_argument("trainable mask size mismatch");
  }
  if (acc_.state_hashes.empty()) {
    throw std::invalid_argument("empty trace");
  }
  Commitment out = acc_;
  out.root = commitment_root(out);
  return out;
}

std::uint64_t TransitionProof::byte_size() const {
  std::uint64_t total = 8 + 32 + 32;  // index + two hashes
  total += 33ULL * (in_membership.siblings.size() +
                    out_membership.siblings.size() +
                    out_lsh_membership.siblings.size());
  total += 32ULL * out_lsh.groups.size();
  return total;
}

bool verify_transition_proof(const CompactCommitment& compact,
                             const TransitionProof& proof) {
  if (proof.transition < 0 || proof.transition + 1 >= compact.num_checkpoints) {
    return false;
  }
  // Positions must match the claimed transition. path_index() is derived
  // from the proof's sibling sides, so a valid proof for the wrong leaf
  // cannot be relabelled.
  if (proof.in_membership.path_index() !=
          static_cast<std::size_t>(proof.transition) ||
      proof.out_membership.path_index() !=
          static_cast<std::size_t>(proof.transition + 1)) {
    return false;
  }
  if (!MerkleTree::verify(compact.state_root, proof.in_hash,
                          proof.in_membership) ||
      !MerkleTree::verify(compact.state_root, proof.out_hash,
                          proof.out_membership)) {
    return false;
  }
  if (compact.version == CommitmentVersion::kV2) {
    if (proof.out_lsh_membership.path_index() !=
        static_cast<std::size_t>(proof.transition + 1)) {
      return false;
    }
    if (!MerkleTree::verify(compact.lsh_root, lsh_leaf_digest(proof.out_lsh),
                            proof.out_lsh_membership)) {
      return false;
    }
  }
  return true;
}

bool commitment_consistent(const Commitment& commitment) {
  if (commitment.state_hashes.empty()) return false;
  if (commitment.version == CommitmentVersion::kV2 &&
      commitment.lsh_digests.size() != commitment.state_hashes.size()) {
    return false;
  }
  return digest_equal(commitment.root, commitment_root(commitment));
}

}  // namespace rpol::core
