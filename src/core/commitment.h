// Training proofs and commitments (Sec. V-B, V-C).
//
// During an epoch a worker snapshots its TrainState every
// `checkpoint_interval` steps, producing the checkpoint sequence
//   C_0 (initial), C_1, ..., C_T (final);
// transition j is the claim "running steps [s_j, s_{j+1}) from C_j yields
// C_{j+1}".
//
// Before learning which transitions the manager will sample, the worker
// publishes a commitment binding the entire sequence:
//   * v1 (RPoLv1): SHA-256 of each checkpoint's canonical serialization;
//   * v2 (RPoLv2): the same hashes PLUS the p-stable LSH digest of each
//     checkpoint's model weights, enabling fuzzy verification without
//     transferring output weights.
// The commitment root is either the ordered hash list's digest or a Merkle
// root over it (both constructions from the paper are provided).
//
// CommitmentBuilder is the only code that turns checkpoints into a
// commitment: the batch wrappers commit_v1/commit_v2 feed it a whole trace,
// the streaming pipeline (core/ckptstore.h) one checkpoint at a time, and
// CommitmentIndex derives every Merkle root and proof from its output.

#pragma once

#include <optional>
#include <span>

#include "core/executor.h"
#include "crypto/merkle.h"
#include "lsh/pstable.h"
#include "obs/mem.h"

namespace rpol::core {

// The checkpoint sequence a worker produced in one epoch, held in memory:
// the in-memory custody, a sink while a policy trains and a source while
// the manager verifies (the spill-backed twin is core::CheckpointStore).
struct EpochTrace final : CheckpointSource, CheckpointSink {
  std::vector<TrainState> checkpoints;   // size = num_transitions + 1
  std::vector<std::int64_t> step_of;     // global step index of each checkpoint
  float mean_loss = 0.0F;

  std::int64_t num_transitions() const {
    return static_cast<std::int64_t>(checkpoints.size()) - 1;
  }
  std::uint64_t storage_bytes() const;

  void append(TrainState state) override {
    checkpoints.push_back(std::move(state));
  }
  std::int64_t num_checkpoints() const override {
    return static_cast<std::int64_t>(checkpoints.size());
  }
  TrainState fetch(std::int64_t index) const override;
};

// Canonical serialization of a TrainState (model + optimizer vectors),
// written into one buffer.
Bytes serialize_state(const TrainState& state);
// Inverse of serialize_state, reading from `offset` and advancing it. Throws
// on a truncated buffer or a float count the buffer cannot hold; bytes
// after the state are left for the caller to judge.
TrainState deserialize_state(const Bytes& in, std::size_t& offset);
// SHA-256 over the canonical serialization. Streams the length prefix and
// float payload straight into the hasher (no intermediate Bytes buffer);
// byte-identical to sha256(serialize_state(state)).
Digest hash_state(const TrainState& state);

// Streams serialize_floats(v) — u64 count then little-endian fp32 payload —
// into `h` without materializing the byte vector. On little-endian hosts the
// payload is the vector's raw memory, so this is a zero-copy update.
void update_with_floats(Sha256& h, const std::vector<float>& v);

enum class CommitmentVersion { kV1, kV2 };

struct Commitment {
  CommitmentVersion version = CommitmentVersion::kV1;
  std::vector<Digest> state_hashes;            // one per checkpoint
  std::vector<lsh::LshDigest> lsh_digests;     // v2 only, one per checkpoint
  Digest root{};                               // binds the ordered lists

  std::uint64_t byte_size() const;
};

// Builds a v1 commitment over the trace (CommitmentBuilder over every
// checkpoint).
Commitment commit_v1(const EpochTrace& trace);

// Builds a v2 commitment; `hasher` must be the epoch's manager-distributed
// LSH family and hashes each checkpoint's trainable WEIGHT vector —
// `mask` selects the trainable subset of the model state (pass the model's
// trainable_mask(); nullptr means every element is a weight). Optimizer
// slots and buffers are covered by the SHA hashes only. Throws
// std::invalid_argument when a checkpoint's model does not fit `mask`.
Commitment commit_v2(const EpochTrace& trace, const lsh::PStableLsh& hasher,
                     const std::vector<bool>* mask = nullptr);

// Root over the ordered hash list (+ LSH digests for v2).
Digest commitment_root(const Commitment& commitment);

// Integrity check: recomputes the root from the lists.
bool commitment_consistent(const Commitment& commitment);

// ---------------------------------------------------------------------------
// Compact (Merkle) commitment — Sec. V-B's second construction, worth its
// salt when epochs have many checkpoints: the worker uploads O(1) roots
// instead of O(#checkpoints) hashes, and each sampled transition travels
// with logarithmic membership proofs.

struct CompactCommitment {
  CommitmentVersion version = CommitmentVersion::kV1;
  std::int64_t num_checkpoints = 0;
  Digest state_root{};  // Merkle root over the ordered state hashes
  Digest lsh_root{};    // v2: Merkle root over hashed LSH digests, else zero

  std::uint64_t byte_size() const { return 8 + 32 + 32 + 1; }
};

// Collapses a full commitment into its compact form (CommitmentIndex's
// roots). The Merkle state root is Sec. V-B's second construction,
// verifiable per leaf with MerkleTree::prove/verify.
CompactCommitment compact_commitment(const Commitment& full);

// Everything the manager needs to check one sampled transition under the
// compact scheme without having seen the per-checkpoint lists.
struct TransitionProof {
  std::int64_t transition = 0;
  Digest in_hash{};             // SHA of C_j (state fetched separately)
  MerkleProof in_membership;    // proves in_hash at leaf j under state_root
  Digest out_hash{};            // SHA of C_{j+1}
  MerkleProof out_membership;   // leaf j+1 under state_root
  lsh::LshDigest out_lsh;       // v2: committed LSH digest of C_{j+1}
  MerkleProof out_lsh_membership;  // leaf j+1 under lsh_root

  std::uint64_t byte_size() const;
};

// Memoized Merkle trees over a full commitment. Builds the state tree (and,
// for v2, the LSH-leaf tree) exactly once — with parallel leaf hashing and
// level construction — then answers compact roots and transition proofs in
// O(log n) without re-hashing anything. Borrows `full`, which must outlive
// the index and must not be mutated while the index is alive.
class CommitmentIndex {
 public:
  // Throws std::invalid_argument on an empty commitment.
  explicit CommitmentIndex(const Commitment& full);

  const Commitment& full() const { return *full_; }
  const MerkleTree& state_tree() const { return state_tree_; }
  // Present iff the commitment is v2.
  const std::optional<MerkleTree>& lsh_tree() const { return lsh_tree_; }

  // Equivalent to compact_commitment(full()), from the memoized trees.
  CompactCommitment compact() const;

  // Membership proofs of transition `transition`'s endpoints; throws
  // std::out_of_range on a bad index.
  TransitionProof prove_transition(std::int64_t transition) const;

 private:
  const Commitment* full_;
  MerkleTree state_tree_;
  std::optional<MerkleTree> lsh_tree_;
  // Charges the trees' resident bytes to the "merkle" tag for as long as
  // the index is alive (obs/mem.h); makes the class move-only.
  obs::MemScope mem_{obs::MemTag::kMerkle};
};

// ---------------------------------------------------------------------------
// Commitment construction. The one leaf function is SHA-256 of the state
// plus, for v2, the LSH digest of its trainable weights; the builder keeps
// the O(n) digest lists (never the states) and finish() seals them. The
// streaming worker feeds each fresh state here and can drop (or spill,
// core/ckptstore.h) it immediately; commit_v1/commit_v2 feed a whole trace.
// Compact roots come from compact_commitment(finish()).
//
// Equivalence contract (§6, pinned by tests/core_commitment_golden_test):
// for any checkpoint sequence, finish() is the same bits whether the states
// arrived one at a time, in batches, or at any thread count.
class CommitmentBuilder {
 public:
  // v1: hasher == nullptr. v2: `hasher` is the epoch's manager-distributed
  // LSH family (must outlive the builder) and `mask` selects the trainable
  // weights — the same contract as commit_v2. Throws std::invalid_argument
  // on a v2 builder without a hasher.
  explicit CommitmentBuilder(CommitmentVersion version,
                             const lsh::PStableLsh* hasher = nullptr,
                             const std::vector<bool>* mask = nullptr);

  // Appends the checkpoint's leaf. The state is not retained. Called from
  // outside the compute pool with two or more threads, a v2 leaf's LSH
  // digest and SHA-256 run at the same time on two of them.
  void add_checkpoint(const TrainState& state);
  // Appends every state's leaf, hashing the states in parallel (one per
  // task); the same bits as add_checkpoint over each in order.
  void add_checkpoints(std::span<const TrainState> states);

  // False once a v2 checkpoint's model length differed from the mask's:
  // that state has no trainable weights to hash, so the sequence cannot be
  // committed. The builder ignores every later checkpoint. A worker that
  // produced such a state submitted a malformed epoch.
  bool fits_mask() const { return fits_mask_; }

  // Seals the sequence so far into a full Commitment (ordered lists + root,
  // exactly as commitment_root computes it). Non-destructive: more
  // checkpoints may be added and finish() called again. Throws
  // std::invalid_argument when no checkpoint was added or !fits_mask().
  Commitment finish() const;

 private:
  // The leaf function: writes the leaf of `state` into slot `index`. A v2
  // leaf's LSH digest and SHA-256 are the two slices of one parallel_for
  // (LSH on the calling thread's); nested in a pool worker, as in
  // add_checkpoints, they run inline one after the other.
  void hash_leaf(const TrainState& state, std::size_t index);
  // Grows the digest lists by one slot per state; false (and no slot) once
  // any state seen so far did not fit the mask.
  bool append_slots(std::span<const TrainState> states);

  CommitmentVersion version_;
  const lsh::PStableLsh* hasher_;
  const std::vector<bool>* mask_;
  bool fits_mask_ = true;
  Commitment acc_;                // digest lists only; root filled by finish()
  // Resident digest bytes charged to the merkle tag while the builder lives.
  obs::MemScope mem_{obs::MemTag::kMerkle};
};

// Manager-side check: both state hashes (and, for v2, the LSH digest) are
// bound to the committed roots at the right positions.
bool verify_transition_proof(const CompactCommitment& compact,
                             const TransitionProof& proof);

// Leaf hashing for the LSH tree (domain-separated digest of the serialized
// LSH digest), shared by prover and verifier.
Digest lsh_leaf_digest(const lsh::LshDigest& digest);

}  // namespace rpol::core
