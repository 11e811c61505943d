// Unit tests for the crypto substrate: SHA-256 against FIPS 180-4 vectors,
// HMAC-SHA256 against RFC 4231 vectors, the protocol PRF, Merkle trees and
// blockchain addresses.

#include <gtest/gtest.h>

#include "crypto/address.h"
#include "crypto/merkle.h"
#include "crypto/prf.h"
#include "runtime/thread_pool.h"

namespace rpol {
namespace {

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4 / NIST test vectors)

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_to_hex(sha256(std::string())),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_to_hex(sha256(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_to_hex(sha256(std::string(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (const char c : msg) {
    h.update(reinterpret_cast<const std::uint8_t*>(&c), 1);
  }
  EXPECT_EQ(digest_to_hex(h.finish()), digest_to_hex(sha256(msg)));
}

TEST(Sha256, PaddingBoundaries) {
  // Lengths around the 55/56/64-byte padding edge cases all hash without
  // error and produce distinct digests.
  std::set<std::string> seen;
  for (std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u}) {
    seen.insert(digest_to_hex(sha256(std::string(len, 'x'))));
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Sha256, FinishResetsForReuse) {
  // finish() leaves the hasher in the fresh-construction state, so one object
  // can hash a sequence of messages (the contract CommitmentIndex and the
  // commit loops rely on).
  Sha256 h;
  h.update(std::string("abc"));
  EXPECT_EQ(digest_to_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // Second use without an explicit reset: must equal a fresh hash, not a
  // continuation of the first message.
  h.update(std::string("abc"));
  EXPECT_EQ(digest_to_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // And an empty third message hashes to the empty-string digest.
  EXPECT_EQ(digest_to_hex(h.finish()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, ResetDiscardsBufferedInput) {
  Sha256 h;
  h.update(std::string(100, 'z'));  // leaves a partial block buffered
  h.reset();
  h.update(std::string("abc"));
  EXPECT_EQ(digest_to_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, DigestToU64IsLittleEndianPrefix) {
  const Digest d = sha256(std::string("abc"));
  std::uint64_t expected = 0;
  for (int i = 0; i < 8; ++i) expected |= static_cast<std::uint64_t>(d[i]) << (8 * i);
  EXPECT_EQ(digest_to_u64(d), expected);
}

// ---------------------------------------------------------------------------
// HMAC-SHA256 (RFC 4231)

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const std::string msg = "Hi There";
  const Bytes msg_bytes(msg.begin(), msg.end());
  EXPECT_EQ(digest_to_hex(hmac_sha256(key, msg_bytes)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const std::string key_s = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  const Bytes key(key_s.begin(), key_s.end());
  const Bytes msg_bytes(msg.begin(), msg.end());
  EXPECT_EQ(digest_to_hex(hmac_sha256(key, msg_bytes)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Bytes msg_bytes(msg.begin(), msg.end());
  EXPECT_EQ(digest_to_hex(hmac_sha256(key, msg_bytes)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// ---------------------------------------------------------------------------
// PRF

TEST(Prf, DeterministicAndKeySeparated) {
  const Prf a(std::uint64_t{1});
  const Prf b(std::uint64_t{1});
  const Prf c(std::uint64_t{2});
  EXPECT_EQ(a.eval(0), b.eval(0));
  EXPECT_NE(a.eval(0), c.eval(0));
  EXPECT_NE(a.eval(0), a.eval(1));
}

TEST(Prf, ModulusReduction) {
  const Prf prf(std::uint64_t{99});
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_LT(prf.eval_mod(i, 10), 10u);
  }
  EXPECT_THROW(prf.eval_mod(0, 0), std::invalid_argument);
}

TEST(Prf, ModOutputsCoverResidues) {
  const Prf prf(std::uint64_t{123});
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 200; ++i) seen.insert(prf.eval_mod(i, 7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Prf, StringKeyMatchesBytesKey) {
  const Prf a(std::string("nonce"));
  const Prf b(Bytes{'n', 'o', 'n', 'c', 'e'});
  EXPECT_EQ(a.eval(5), b.eval(5));
}

// ---------------------------------------------------------------------------
// Merkle tree

Digest leaf_digest(int i) {
  Bytes b;
  append_u64(b, static_cast<std::uint64_t>(i));
  return sha256(b);
}

TEST(Merkle, SingleLeafRootIsLeaf) {
  const Digest d = leaf_digest(0);
  MerkleTree tree({d});
  EXPECT_TRUE(digest_equal(tree.root(), d));
}

TEST(Merkle, EmptyLeavesThrows) {
  EXPECT_THROW(MerkleTree(std::vector<Digest>{}), std::invalid_argument);
}

TEST(Merkle, ProofsVerifyForAllLeafCounts) {
  for (int n : {1, 2, 3, 4, 5, 8, 13, 16, 33}) {
    std::vector<Digest> leaves;
    for (int i = 0; i < n; ++i) leaves.push_back(leaf_digest(i));
    MerkleTree tree(leaves);
    for (int i = 0; i < n; ++i) {
      const MerkleProof proof = tree.prove(static_cast<std::size_t>(i));
      EXPECT_TRUE(MerkleTree::verify(tree.root(), leaves[static_cast<std::size_t>(i)],
                                     proof))
          << "n=" << n << " leaf=" << i;
    }
  }
}

TEST(Merkle, WrongLeafFailsVerification) {
  std::vector<Digest> leaves;
  for (int i = 0; i < 8; ++i) leaves.push_back(leaf_digest(i));
  MerkleTree tree(leaves);
  const MerkleProof proof = tree.prove(3);
  EXPECT_FALSE(MerkleTree::verify(tree.root(), leaf_digest(4), proof));
}

TEST(Merkle, TamperedProofFails) {
  std::vector<Digest> leaves;
  for (int i = 0; i < 8; ++i) leaves.push_back(leaf_digest(i));
  MerkleTree tree(leaves);
  MerkleProof proof = tree.prove(2);
  proof.siblings[0][0] ^= 0x01;
  EXPECT_FALSE(MerkleTree::verify(tree.root(), leaf_digest(2), proof));
}

TEST(Merkle, RootChangesWithAnyLeaf) {
  std::vector<Digest> leaves;
  for (int i = 0; i < 5; ++i) leaves.push_back(leaf_digest(i));
  const Digest root = MerkleTree(leaves).root();
  for (int i = 0; i < 5; ++i) {
    auto mutated = leaves;
    mutated[static_cast<std::size_t>(i)] = leaf_digest(100 + i);
    EXPECT_FALSE(digest_equal(MerkleTree(mutated).root(), root));
  }
}

TEST(Merkle, OutOfRangeProofThrows) {
  MerkleTree tree({leaf_digest(0)});
  EXPECT_THROW(tree.prove(1), std::out_of_range);
}

TEST(Merkle, ParallelBuildMatchesSerialFold) {
  // The pooled per-level construction must equal a serial bottom-up fold at
  // leaf counts below, at, and above the parallel grain (64 pairs), odd and
  // even, at both thread settings.
  const int saved = runtime::threads();
  for (int n : {255, 256, 257, 1000}) {
    std::vector<Digest> leaves;
    for (int i = 0; i < n; ++i) leaves.push_back(leaf_digest(i));

    std::vector<Digest> level = leaves;
    while (level.size() > 1) {
      std::vector<Digest> next;
      for (std::size_t i = 0; i < level.size(); i += 2) {
        const Digest& right = i + 1 < level.size() ? level[i + 1] : level[i];
        next.push_back(merkle_parent(level[i], right));
      }
      level = std::move(next);
    }

    for (int threads : {1, 4}) {
      runtime::set_threads(threads);
      EXPECT_TRUE(digest_equal(MerkleTree(leaves).root(), level[0]))
          << "n=" << n << " threads=" << threads;
    }
  }
  runtime::set_threads(saved);
}

// ---------------------------------------------------------------------------
// Address

TEST(Address, DerivationIsDeterministic) {
  EXPECT_EQ(Address::from_seed(7).str(), Address::from_seed(7).str());
  EXPECT_NE(Address::from_seed(7).str(), Address::from_seed(8).str());
}

TEST(Address, CanonicalFormat) {
  const Address a = Address::from_seed(1);
  EXPECT_EQ(a.str().size(), 42u);
  EXPECT_EQ(a.str().substr(0, 2), "0x");
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(Address{}.valid());
}

TEST(Address, ParseRoundTrip) {
  const Address a = Address::from_seed(99);
  const Address b = Address::from_string(a.str());
  EXPECT_EQ(a, b);
}

TEST(Address, MalformedStringsThrow) {
  EXPECT_THROW(Address::from_string("0x123"), std::invalid_argument);
  EXPECT_THROW(Address::from_string(std::string(42, 'f')), std::invalid_argument);
  // Uppercase hex is rejected (canonical form is lowercase).
  std::string upper = Address::from_seed(1).str();
  upper[2] = 'A';
  EXPECT_THROW(Address::from_string(upper), std::invalid_argument);
}

TEST(Address, OrderingAndEquality) {
  const Address a = Address::from_seed(1);
  const Address b = Address::from_seed(2);
  EXPECT_TRUE(a != b);
  EXPECT_TRUE((a < b) || (b < a));
}

}  // namespace
}  // namespace rpol
