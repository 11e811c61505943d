// Golden-digest regression tests for the commitment pipeline.
//
// The zero-copy/parallel rewrite (streaming hash_state, pooled leaf hashing,
// memoized CommitmentIndex, hardware SHA-256 dispatch) must be a pure
// performance change: every digest, root, and proof must match the original
// serialize-then-hash serial implementation byte for byte. The hex constants
// below were dumped from that pre-rewrite implementation over deterministic
// synthetic traces; any future change that moves one of them is a
// commitment-format break, not a refactor.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/commitment.h"
#include "lsh/pstable.h"
#include "runtime/thread_pool.h"

namespace rpol::core {
namespace {

// Deterministic synthetic state, identical to the generator the goldens were
// dumped with: xorshift64 floats in [-1, 1] seeded from `salt`.
TrainState make_state(std::uint64_t salt, std::size_t model_n,
                      std::size_t opt_n) {
  TrainState s;
  s.model.resize(model_n);
  s.optimizer.resize(opt_n);
  std::uint64_t x = salt * 0x9E3779B97F4A7C15ULL + 1;
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<float>(static_cast<std::int64_t>(x % 2000001) -
                              1000000) /
           1000000.0F;
  };
  for (auto& v : s.model) v = next();
  for (auto& v : s.optimizer) v = next();
  return s;
}

EpochTrace make_trace(std::size_t checkpoints) {
  EpochTrace t;
  for (std::size_t i = 0; i < checkpoints; ++i) {
    t.checkpoints.push_back(make_state(i + 1, 97, 31));
    t.step_of.push_back(static_cast<std::int64_t>(i));
  }
  return t;
}

lsh::PStableLsh golden_hasher() {
  lsh::LshConfig cfg{{1.0, 2, 3}, 97, 9};
  return lsh::PStableLsh(cfg);
}

// Order-sensitive digest of everything a transition proof binds: all three
// sibling paths plus the two state hashes.
std::string proof_transcript_hex(const TransitionProof& proof) {
  Sha256 h;
  for (const auto& sib : proof.in_membership.siblings)
    h.update(sib.data(), sib.size());
  for (const auto& sib : proof.out_membership.siblings)
    h.update(sib.data(), sib.size());
  for (const auto& sib : proof.out_lsh_membership.siblings)
    h.update(sib.data(), sib.size());
  h.update(proof.in_hash.data(), proof.in_hash.size());
  h.update(proof.out_hash.data(), proof.out_hash.size());
  return digest_to_hex(h.finish());
}

struct ThreadGuard {
  int saved;
  explicit ThreadGuard(int n) : saved(runtime::threads()) {
    runtime::set_threads(n);
  }
  ~ThreadGuard() { runtime::set_threads(saved); }
};

// ---------------------------------------------------------------------------
// hash_state: streaming zero-copy path vs frozen goldens and vs the
// serialize-then-hash definition it must stay equivalent to.

struct HashStateGolden {
  std::size_t model_n, opt_n;
  const char* hex;
};

constexpr HashStateGolden kHashStateGoldens[] = {
    {0, 0, "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"},
    {1, 0, "582db64f301b4db8facffb643e4a90d4cf470cd15e1f35dd2d51175a9243eb66"},
    {0, 1, "10ababa0c593ace5b75b8dba5ef32d6dcf16492918f74266afff99a00ed4612b"},
    {13, 7, "3111b176c6a42b1d19bc99e14aac65daabfb63e12f9702f0e72447f1b84bfb68"},
    {14, 14, "8acefc704e088480b591e3f413d865f446adb409def3631252ad045ff4e82ace"},
    {15, 1, "988fcddb9027f9ff8e32f499a9ee95d258937b8a775045cf44004498de80bf05"},
    {16, 16, "e5b16309167c222a958465252ca5f124c78ac0d0abbae4e861817c5b83ceb2d4"},
    {100, 100,
     "f1f81aacdb028128eb6019a2cb05fd9c392b6774be7a4fdaee55c14c08b080f3"},
    {1000, 333,
     "e6a62732ad244ab5d70336bdd251490d0fb0d7bcee452d656177218ca2533057"},
};

TEST(CommitmentGolden, HashStateMatchesPrePipelineDigests) {
  for (const auto& g : kHashStateGoldens) {
    const TrainState st = make_state(g.model_n * 1000 + g.opt_n, g.model_n,
                                     g.opt_n);
    EXPECT_EQ(digest_to_hex(hash_state(st)), g.hex)
        << "model_n=" << g.model_n << " opt_n=" << g.opt_n;
  }
}

TEST(CommitmentGolden, HashStateEqualsSerializeThenHash) {
  // The zero-copy streaming path is DEFINED as sha256(serialize_state(s));
  // sizes straddle SHA-256 block boundaries to exercise buffered tails.
  for (const auto& g : kHashStateGoldens) {
    const TrainState st = make_state(g.model_n + 7 * g.opt_n + 3, g.model_n,
                                     g.opt_n);
    EXPECT_EQ(digest_to_hex(hash_state(st)),
              digest_to_hex(sha256(serialize_state(st))));
  }
}

// ---------------------------------------------------------------------------
// Commitment roots, compact roots, and proof transcripts: odd, even, and
// power-of-two checkpoint counts (self-pairing at every level shape).

struct RootGolden {
  std::size_t n;
  const char* v1_root;
  const char* state_root;  // Merkle root shared by compact v1 and v2
  const char* v2_root;
  const char* lsh_root;
};

constexpr RootGolden kRootGoldens[] = {
    {2, "23af0727ea291c57a2deb5fc108a0f8b48352fcbc6f3406c61d65a7dde86a856",
     "23af0727ea291c57a2deb5fc108a0f8b48352fcbc6f3406c61d65a7dde86a856",
     "9ab9d0db4f9eb41d79876d4824a0bab6c6b4fba4efd6aa323dafe184152be129",
     "486767729ba261f99442472eef89216e6a9eea39056a0642ed92701fee057723"},
    {3, "4d0f5ce84f62ead711fc5af1f07492ae196bb41baf11d6a802428ba867fb402e",
     "982e0e33d2e33a413e13c6412715d1d24316513abb5ca828b47be415db9afa78",
     "e106b255f1503de331b9629485471c701aa21917e71fced6e50378d1ce6eb3ec",
     "6ba863c7cc1ef4c238ac0a3067789b31558da5de9166d866ff0a3c7627f8496a"},
    {4, "cb3b6b846b9af2d0ea01d8339d4c02b4372595e08dce797d2326d5c5486224b5",
     "cf3f373859f39b4576d20c2d6d0ef0f2ce90b1a238745000fa0dedbd6c89a924",
     "f6e74e146568badb20f61bead5a36b7cb32b306c11defd3cead205b80f0e0988",
     "b515479db3b88353501988016b31e351d6fd8ae9721678a88531c0c0ac3a21c6"},
    {5, "483fe87e06600195bed69ababd3788f81b9d844bb6b9eda98f02f0151a4f0927",
     "f49c1ec762c8fe546b75058e0374749e33a1ef25f6a5aeee6beb217b432d0969",
     "d940545adc2c933da701b92c3d9c96c4df872e2aa0eeb29caf883884cff556f9",
     "471c8646fdd9e54c0287b48d394733e909af33f615b64aedd4cdcca44fbe5358"},
    {8, "abc5f76d79e4ee15c2e73555fff5a179e37214a31f3435989ac2b61be92b5bd0",
     "57bbb61f810313401a00b9721bf42ad54aa49d924f65a674455c8881042cb880",
     "15b1acd3612419fb23457f034eb55533abc65cbd7747e8be07915a10fd6f1e07",
     "694a9c8d6d185495d05a21d400303bce1c0cfd1df15dc2d744cac2fe748b78c8"},
    {9, "adfc255b7e94dfdbadc7d4593649bdc15cfe4765ecbbc9d87d7cd1452e7af040",
     "7c12714a1fedb8f5e09e970e25b07b026bf44de2309b4122735857d164cd653c",
     "53d0a64e736be64e6a5b3b4f8f0143288b997a0073de0b4a7776f9a9a9076099",
     "8ea6bae7616c0257387236b18d0bceb36a2bacdaf4d254063899e1fdd89cca61"},
    {16, "1fb68b5f44fc32706a8a2642e55eb01cae2c6b45238867bbc8167110484feb15",
     "e8f978733c5d3c356c483dd5a556d3833afb6ae4a1bcea7bfaa9de7c87e39933",
     "cef66dda63a599603e834e151e25415e7d682537bf771c8cc56b606079a9c357",
     "f3819d600704135587c2dd5689c62799cdd9f91076258773a6e9f3ac475086f3"},
};

TEST(CommitmentGolden, CommitAndCompactRoots) {
  const lsh::PStableLsh hasher = golden_hasher();
  for (const auto& g : kRootGoldens) {
    const EpochTrace trace = make_trace(g.n);
    const Commitment v1 = commit_v1(trace);
    EXPECT_EQ(digest_to_hex(v1.root), g.v1_root) << "n=" << g.n;
    const CompactCommitment c1 = compact_commitment(v1);
    EXPECT_EQ(digest_to_hex(c1.state_root), g.state_root) << "n=" << g.n;

    const Commitment v2 = commit_v2(trace, hasher);
    EXPECT_EQ(digest_to_hex(v2.root), g.v2_root) << "n=" << g.n;
    const CompactCommitment c2 = compact_commitment(v2);
    EXPECT_EQ(digest_to_hex(c2.state_root), g.state_root) << "n=" << g.n;
    EXPECT_EQ(digest_to_hex(c2.lsh_root), g.lsh_root) << "n=" << g.n;
  }
}

// Transition-proof transcripts for the v2 commitment at n = 5 (odd, forces
// self-pairing on two levels) and n = 8 (perfect tree); every transition.
struct ProofGolden {
  std::size_t n, j;
  const char* hex;
};

constexpr ProofGolden kProofGoldens[] = {
    {5, 0, "b3c0043eb996007879f9f7fce7aad6f0371f81e885309d7499475f40ce7fa2ef"},
    {5, 1, "03ab9bb0c4ae72c9a11aa2fa8c42e420ce5e9c1eca80caf3ed0651938854abc3"},
    {5, 2, "f34f8ade49ac7aaf5da534a24516bd4075a5ec7a6d30f4660a29dd61d27ab453"},
    {5, 3, "1016469f6ce88cde498df70105fa870de3a145318df40a79e94cfeebbab11d0f"},
    {8, 0, "89f9ef40ed244165ef028e1207abe65907905a84df79d3dffd505a4bd63d692f"},
    {8, 1, "2e6bb2ab8f1be23deb02d7ba54d29c69ecc38ec5d9aa67ad50b2a9137fbf5db0"},
    {8, 2, "1d6debb433c6a5ebc87f83e79d96252297d8a849c7b771576267c9915ee172af"},
    {8, 3, "f3e067e79136ce9ea08b8273cb5d6c1617c6bd0e2f169393bbc3c5f5599ae6c3"},
    {8, 4, "e2db842b8f163237740899f23215cfe4067e9ff722c55c3b8f0786911417224f"},
    {8, 5, "d3b68575f381608cd32956fb0fb2baac8bb89d98841646e803f84cafdc290fd4"},
    {8, 6, "dab70d24f52f66285c9e463719491dc66ae45da6cf4011565eab730e0fca7591"},
};

TEST(CommitmentGolden, TransitionProofTranscripts) {
  const lsh::PStableLsh hasher = golden_hasher();
  Commitment v2_5 = commit_v2(make_trace(5), hasher);
  Commitment v2_8 = commit_v2(make_trace(8), hasher);
  for (const auto& g : kProofGoldens) {
    const Commitment& full = g.n == 5 ? v2_5 : v2_8;
    const TransitionProof proof = CommitmentIndex(full).prove_transition(
        static_cast<std::int64_t>(g.j));
    EXPECT_EQ(proof_transcript_hex(proof), g.hex)
        << "n=" << g.n << " j=" << g.j;
    // The memoized index must produce the identical proof.
    const CommitmentIndex index(full);
    EXPECT_EQ(proof_transcript_hex(
                  index.prove_transition(static_cast<std::int64_t>(g.j))),
              g.hex);
  }
}

// ---------------------------------------------------------------------------
// Thread-count invariance: the parallel leaf/Merkle fan-out must be bitwise
// identical at 1 and 4 threads — same goldens, not merely self-consistent.

TEST(CommitmentGolden, BitwiseInvariantAcrossThreadCounts) {
  const lsh::PStableLsh hasher = golden_hasher();
  for (const int threads : {1, 4}) {
    ThreadGuard guard(threads);
    for (const auto& g : kRootGoldens) {
      const EpochTrace trace = make_trace(g.n);
      EXPECT_EQ(digest_to_hex(commit_v1(trace).root), g.v1_root)
          << "threads=" << threads << " n=" << g.n;
      const Commitment v2 = commit_v2(trace, hasher);
      EXPECT_EQ(digest_to_hex(v2.root), g.v2_root)
          << "threads=" << threads << " n=" << g.n;
      EXPECT_EQ(digest_to_hex(compact_commitment(v2).lsh_root), g.lsh_root)
          << "threads=" << threads << " n=" << g.n;
    }
  }
}

// ---------------------------------------------------------------------------
// CommitmentIndex contract: equivalent to the one-shot wrappers, including
// the exception behavior callers rely on.

TEST(CommitmentGolden, IndexMatchesOneShotWrappers) {
  const lsh::PStableLsh hasher = golden_hasher();
  const Commitment full = commit_v2(make_trace(7), hasher);
  const CommitmentIndex index(full);

  const CompactCommitment a = index.compact();
  const CompactCommitment b = compact_commitment(full);
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.num_checkpoints, b.num_checkpoints);
  EXPECT_TRUE(digest_equal(a.state_root, b.state_root));
  EXPECT_TRUE(digest_equal(a.lsh_root, b.lsh_root));

  // Every proof must verify against the compact roots it was built for.
  for (std::int64_t j = 0; j + 1 < 7; ++j) {
    EXPECT_TRUE(verify_transition_proof(a, index.prove_transition(j)));
  }
}

TEST(CommitmentGolden, IndexExceptionBehavior) {
  const Commitment empty;
  EXPECT_THROW(CommitmentIndex{empty}, std::invalid_argument);
  EXPECT_THROW(compact_commitment(empty), std::invalid_argument);

  const Commitment full = commit_v1(make_trace(4));
  const CommitmentIndex index(full);
  EXPECT_THROW(index.prove_transition(-1), std::out_of_range);
  EXPECT_THROW(index.prove_transition(3), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Streaming construction: CommitmentBuilder hashes checkpoints one at a time
// and must land on the exact same pinned roots as the batch builders — the
// §6 equivalence contract for the bounded-memory epoch path.

TEST(CommitmentGolden, StreamedBuilderMatchesPinnedRoots) {
  const lsh::PStableLsh hasher = golden_hasher();
  // At 4 threads add_checkpoint runs each v2 leaf's LSH digest and SHA-256
  // on two threads at once; at 1 thread they run inline.
  for (const int threads : {1, 4}) {
    ThreadGuard guard(threads);
    for (const auto& g : kRootGoldens) {
      const EpochTrace trace = make_trace(g.n);

      CommitmentBuilder b1(CommitmentVersion::kV1);
      CommitmentBuilder b2(CommitmentVersion::kV2, &hasher);
      for (const auto& ckpt : trace.checkpoints) {
        b1.add_checkpoint(ckpt);
        b2.add_checkpoint(ckpt);
      }

      const Commitment v1 = b1.finish();
      EXPECT_EQ(digest_to_hex(v1.root), g.v1_root)
          << "threads=" << threads << " n=" << g.n;
      const Commitment v2 = b2.finish();
      EXPECT_EQ(digest_to_hex(v2.root), g.v2_root)
          << "threads=" << threads << " n=" << g.n;

      // Compact roots of the streamed commitment vs the pinned tree roots.
      const CompactCommitment c1 = compact_commitment(b1.finish());
      EXPECT_EQ(digest_to_hex(c1.state_root), g.state_root)
          << "threads=" << threads << " n=" << g.n;
      const CompactCommitment c2 = compact_commitment(b2.finish());
      EXPECT_EQ(digest_to_hex(c2.state_root), g.state_root)
          << "threads=" << threads << " n=" << g.n;
      EXPECT_EQ(digest_to_hex(c2.lsh_root), g.lsh_root)
          << "threads=" << threads << " n=" << g.n;

      EXPECT_EQ(v2.state_hashes.size(), g.n);
      EXPECT_EQ(v2.lsh_digests.size(), g.n);
      EXPECT_TRUE(commitment_consistent(v1));
      EXPECT_TRUE(commitment_consistent(v2));
    }
  }
}

TEST(CommitmentGolden, StreamedProofTranscriptsMatchBatch) {
  // finish() is non-destructive and the resulting Commitment feeds the same
  // proof machinery: transcripts must equal the pinned batch transcripts.
  const lsh::PStableLsh hasher = golden_hasher();
  CommitmentBuilder b5(CommitmentVersion::kV2, &hasher);
  CommitmentBuilder b8(CommitmentVersion::kV2, &hasher);
  const EpochTrace t5 = make_trace(5);
  const EpochTrace t8 = make_trace(8);
  for (const auto& c : t5.checkpoints) b5.add_checkpoint(c);
  for (const auto& c : t8.checkpoints) b8.add_checkpoint(c);
  const Commitment v2_5 = b5.finish();
  const Commitment v2_8 = b8.finish();
  for (const auto& g : kProofGoldens) {
    const Commitment& full = g.n == 5 ? v2_5 : v2_8;
    EXPECT_EQ(proof_transcript_hex(CommitmentIndex(full).prove_transition(
                  static_cast<std::int64_t>(g.j))),
              g.hex)
        << "n=" << g.n << " j=" << g.j;
  }
  // Interleaved finish(): sealing early then adding more checkpoints must
  // not perturb the final roots (finish() only copies the digest lists).
  CommitmentBuilder inc(CommitmentVersion::kV2, &hasher);
  for (std::size_t i = 0; i < t8.checkpoints.size(); ++i) {
    inc.add_checkpoint(t8.checkpoints[i]);
    (void)inc.finish();
    (void)compact_commitment(inc.finish());
  }
  EXPECT_EQ(digest_to_hex(inc.finish().root), digest_to_hex(v2_8.root));
  EXPECT_EQ(digest_to_hex(compact_commitment(inc.finish()).state_root),
            digest_to_hex(compact_commitment(b8.finish()).state_root));
  EXPECT_EQ(digest_to_hex(compact_commitment(inc.finish()).lsh_root),
            digest_to_hex(compact_commitment(b8.finish()).lsh_root));
}

TEST(CommitmentGolden, StreamedBuilderExceptionBehavior) {
  EXPECT_THROW(CommitmentBuilder(CommitmentVersion::kV2, nullptr),
               std::invalid_argument);
  CommitmentBuilder empty(CommitmentVersion::kV1);
  EXPECT_THROW((void)empty.finish(), std::invalid_argument);
  EXPECT_THROW((void)compact_commitment(empty.finish()), std::invalid_argument);
}

}  // namespace
}  // namespace rpol::core
