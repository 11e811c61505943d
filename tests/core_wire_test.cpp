// Wire-protocol tests: canonical round trips, malformed-input rejection,
// and cross-party hash agreement.

#include <gtest/gtest.h>

#include <limits>

#include "core/wire.h"
#include "task_fixture.h"

namespace rpol::core {
namespace {

using rpol::testing::TinyTask;

TaskAnnouncement sample_announcement(bool with_lsh) {
  TaskAnnouncement msg;
  msg.epoch = 7;
  msg.nonce = 0xFEEDBEEF;
  msg.hp.optimizer = nn::OptimizerKind::kAdam;
  msg.hp.learning_rate = 0.01F;
  msg.hp.momentum = 0.8F;
  msg.hp.batch_size = 64;
  msg.hp.steps_per_epoch = 25;
  msg.hp.checkpoint_interval = 5;
  msg.initial_state_hash = sha256(std::string("genesis"));
  if (with_lsh) {
    msg.lsh = lsh::LshConfig{{2.5, 4, 4}, 1234, 99};
  }
  return msg;
}

TEST(Wire, TaskAnnouncementRoundTrip) {
  for (const bool with_lsh : {false, true}) {
    const TaskAnnouncement msg = sample_announcement(with_lsh);
    const TaskAnnouncement decoded =
        decode_task_announcement(encode_task_announcement(msg));
    EXPECT_TRUE(decoded == msg) << "with_lsh=" << with_lsh;
  }
}

// Recomputes the trailing seal of a mutated announcement, so a test reaches
// the field checks behind it.
Bytes reseal(Bytes b) {
  b.resize(b.size() - 32);
  const Digest seal = sha256(b);
  b.insert(b.end(), seal.begin(), seal.end());
  return b;
}

TEST(Wire, TaskAnnouncementCarriesExactR) {
  // r travels as f64: a bucket width with no float representation comes
  // back exactly, so the worker builds the manager's very family.
  TaskAnnouncement msg = sample_announcement(true);
  msg.lsh->params.r = 1.0 / 3.0;
  const TaskAnnouncement decoded =
      decode_task_announcement(encode_task_announcement(msg));
  EXPECT_TRUE(decoded == msg);
  EXPECT_EQ(decoded.lsh->params.r, 1.0 / 3.0);
}

TEST(Wire, TaskAnnouncementSealRejectsFlippedFields) {
  // Byte offsets of batch_size, k, l and dim in the sealed layout (wire.h).
  const Bytes encoded = encode_task_announcement(sample_announcement(true));
  ASSERT_EQ(encoded.size(), 162u);
  const std::pair<const char*, std::size_t> fields[] = {
      {"batch_size", 33}, {"k", 98}, {"l", 106}, {"dim", 114}};
  for (const auto& [name, at] : fields) {
    for (std::size_t byte = at; byte < at + 8; ++byte) {
      for (const std::uint8_t mask : {0x01, 0x80}) {
        Bytes mutated = encoded;
        mutated[byte] ^= mask;
        EXPECT_THROW(decode_task_announcement(mutated), std::invalid_argument)
            << name << " byte " << byte << " mask " << int{mask};
      }
    }
    // Without the seal the flip would have decoded to another task.
    Bytes flipped = encoded;
    flipped[at] ^= 0x01;
    EXPECT_FALSE(decode_task_announcement(reseal(flipped)) ==
                 sample_announcement(true))
        << name;
  }
}

TEST(Wire, TaskAnnouncementRejectsNonFiniteR) {
  for (const double r : {std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    TaskAnnouncement msg = sample_announcement(true);
    msg.lsh->params.r = r;
    EXPECT_THROW(decode_task_announcement(encode_task_announcement(msg)),
                 std::invalid_argument)
        << r;
  }
}

TEST(Wire, TaskAnnouncementRejectsGarbage) {
  Bytes garbage{0x42, 0x00};
  EXPECT_THROW(decode_task_announcement(garbage), std::invalid_argument);
  Bytes truncated = encode_task_announcement(sample_announcement(true));
  truncated.resize(truncated.size() / 2);
  EXPECT_ANY_THROW(decode_task_announcement(truncated));
}

TEST(Wire, TaskAnnouncementRejectsBadFields) {
  Bytes encoded = encode_task_announcement(sample_announcement(false));
  // Corrupt the optimizer kind field (first u64 after tag+epoch+nonce),
  // re-sealed so the field check itself must reject it.
  encoded[1 + 8 + 8] = 0xFF;
  EXPECT_THROW(decode_task_announcement(reseal(encoded)), std::invalid_argument);
}

TEST(Wire, TaskAnnouncementRejectsTrailingBytes) {
  Bytes encoded = encode_task_announcement(sample_announcement(false));
  encoded.push_back(0x00);
  EXPECT_THROW(decode_task_announcement(encoded), std::invalid_argument);
}

struct WireFixture : public ::testing::Test {
  void SetUp() override {
    task = TinyTask::make(/*seed=*/81);
    view = data::DatasetView::whole(task.dataset);
    context = task.context(12345, view);
    StepExecutor executor(task.factory, task.hp);
    sim::DeviceExecution device(sim::device_ga10(), 6);
    HonestPolicy honest;
    trace = honest.produce_trace(executor, context, device);
  }

  TinyTask task{TinyTask::make()};
  data::DatasetView view;
  EpochContext context;
  EpochTrace trace;
};

TEST_F(WireFixture, CommitmentV1RoundTrip) {
  const Commitment original = commit_v1(trace);
  const Commitment decoded = decode_commitment(encode_commitment(original));
  EXPECT_EQ(decoded.version, original.version);
  EXPECT_EQ(decoded.state_hashes, original.state_hashes);
  EXPECT_TRUE(digest_equal(decoded.root, original.root));
}

TEST_F(WireFixture, CommitmentV2RoundTrip) {
  const lsh::LshConfig cfg{{1.0, 2, 3},
                           static_cast<std::int64_t>(trace.checkpoints[0].model.size()),
                           5};
  const lsh::PStableLsh hasher(cfg);
  const Commitment original = commit_v2(trace, hasher);
  const Commitment decoded = decode_commitment(encode_commitment(original));
  EXPECT_EQ(decoded.lsh_digests.size(), original.lsh_digests.size());
  for (std::size_t i = 0; i < decoded.lsh_digests.size(); ++i) {
    EXPECT_TRUE(decoded.lsh_digests[i] == original.lsh_digests[i]);
  }
  EXPECT_TRUE(digest_equal(decoded.root, original.root));
}

TEST_F(WireFixture, TamperedCommitmentRejectedAtDecode) {
  Bytes encoded = encode_commitment(commit_v1(trace));
  // Flip one byte inside the first state hash: the root check must fail.
  encoded[10] ^= 0x01;
  EXPECT_THROW(decode_commitment(encoded), std::invalid_argument);
}

TEST_F(WireFixture, ProofRequestRoundTripAndValidation) {
  const ProofRequest req{{0, 2, 3}};
  EXPECT_TRUE(decode_proof_request(encode_proof_request(req)) == req);

  // Non-ascending indices are rejected.
  Bytes bad;
  bad.push_back(0x03);
  append_u64(bad, 2);
  append_i64(bad, 3);
  append_i64(bad, 1);
  EXPECT_THROW(decode_proof_request(bad), std::invalid_argument);
}

TEST_F(WireFixture, ProofResponseRoundTrip) {
  ProofResponse resp;
  resp.input_states.push_back(trace.checkpoints[0]);
  resp.input_states.push_back(trace.checkpoints[1]);
  resp.output_states.push_back(trace.checkpoints[2]);
  const ProofResponse decoded = decode_proof_response(encode_proof_response(resp));
  ASSERT_EQ(decoded.input_states.size(), 2u);
  ASSERT_EQ(decoded.output_states.size(), 1u);
  EXPECT_EQ(decoded.input_states[0].model, trace.checkpoints[0].model);
  EXPECT_EQ(decoded.input_states[1].optimizer, trace.checkpoints[1].optimizer);
  EXPECT_EQ(decoded.output_states[0].model, trace.checkpoints[2].model);
}

TEST_F(WireFixture, StateEncodingMatchesCommitmentHashing) {
  // The wire encoding of a state is the exact byte string the commitment
  // hashes — both parties hash identical bytes.
  const Bytes encoded = encode_train_state(trace.checkpoints[1]);
  EXPECT_TRUE(digest_equal(sha256(encoded), hash_state(trace.checkpoints[1])));
}

TEST_F(WireFixture, DecodedStateReloadsIntoExecutor) {
  const Bytes encoded = encode_train_state(trace.checkpoints.back());
  std::size_t offset = 0;
  const TrainState decoded = decode_train_state(encoded, offset);
  StepExecutor executor(task.factory, task.hp);
  executor.load_state(decoded);  // must not throw: sizes align with the model
  EXPECT_EQ(executor.save_state().model, trace.checkpoints.back().model);
}

}  // namespace
}  // namespace rpol::core
