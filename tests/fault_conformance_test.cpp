// Adversarial conformance suite for the fault-injection harness and the
// robust protocol session (src/fault/ + core/session.h's retry state
// machine), plus pool-level graceful degradation.
//
// The table below sweeps fault plans x byzantine behaviors and pins four
// contracts:
//   (a) honest workers are never rejected under pure transport faults that
//       stay within the retry budget;
//   (b) every scripted byzantine behavior ends rejected or evicted — never
//       accepted;
//   (c) outcomes are bitwise seed-reproducible: the same plan seed yields
//       identical verdicts, byte counts, retry counts, fault stats, and
//       final models;
//   (d) byte accounting balances: the per-message-type counters sum to the
//       direction totals, with retransmitted and duplicated bytes counted
//       under their message type.

#include <gtest/gtest.h>

#include <limits>

#include "core/async_pool.h"
#include "core/session.h"
#include "task_fixture.h"

namespace rpol::core {
namespace {

using rpol::testing::TinyTask;

// Message-type shorthands for building per-type profiles.
constexpr int kIdxAnnouncement = static_cast<int>(MessageType::kAnnouncement);
constexpr int kIdxState = static_cast<int>(MessageType::kGlobalState);
constexpr int kIdxCommitment = static_cast<int>(MessageType::kCommitment);
constexpr int kIdxUpdate = static_cast<int>(MessageType::kUpdate);
constexpr int kIdxProofRequest = static_cast<int>(MessageType::kProofRequest);
constexpr int kIdxProofResponse = static_cast<int>(MessageType::kProofResponse);

struct Scenario {
  const char* name;
  Scheme scheme = Scheme::kRPoLv2;
  bool has_plan = true;  // false = null plan (the zero-cost path)
  fault::FaultPlan plan;
  fault::RetryPolicy retry;
  bool expect_accept = false;
  // Exact expected status when the scenario is deterministic by design;
  // nullopt when only the accept/not-accept class is pinned.
  std::optional<SessionStatus> expect_status;
};

fault::FaultProfile uniform(double drop, double delay, double truncate,
                            double corrupt, double duplicate) {
  fault::FaultProfile p;
  p.drop = drop;
  p.delay = delay;
  p.truncate = truncate;
  p.corrupt = corrupt;
  p.duplicate = duplicate;
  return p;
}

// Corruption is only recoverable on messages whose receiver can validate
// integrity and NACK (state and update: chunk digests, and the state's
// announced hash; commitment: root binding; proof response: commitment
// hashes; announcement: its trailing seal, see
// SealedAnnouncementSurvivesCorruption). The proof request carries no
// binding, so a corrupted-but-decodable copy would silently change protocol
// semantics — honest-transport scenarios keep corruption off it.
void add_validated_corruption(fault::FaultPlan& plan, double probability) {
  for (const int type : {kIdxState, kIdxCommitment, kIdxProofResponse}) {
    plan.profile(type).corrupt = probability;
  }
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> table;

  {
    Scenario s;
    s.name = "lossless_null_plan_v2";
    s.has_plan = false;
    s.expect_accept = true;
    s.expect_status = SessionStatus::kAccepted;
    table.push_back(s);
  }
  {
    Scenario s;
    s.name = "lossless_empty_plan_v1";
    s.scheme = Scheme::kRPoLv1;
    s.plan = fault::FaultPlan::transport({}, /*seed=*/11);
    s.expect_accept = true;
    s.expect_status = SessionStatus::kAccepted;
    table.push_back(s);
  }
  {
    Scenario s;
    s.name = "light_drop_v1";
    s.scheme = Scheme::kRPoLv1;
    s.plan = fault::FaultPlan::transport(uniform(0.05, 0, 0, 0, 0), 21);
    s.expect_accept = true;
    s.expect_status = SessionStatus::kAccepted;
    table.push_back(s);
  }
  {
    Scenario s;
    s.name = "light_drop_v2";
    s.plan = fault::FaultPlan::transport(uniform(0.05, 0, 0, 0, 0), 22);
    s.expect_accept = true;
    s.expect_status = SessionStatus::kAccepted;
    table.push_back(s);
  }
  {
    Scenario s;
    s.name = "delay_v2";
    s.plan = fault::FaultPlan::transport(uniform(0, 0.15, 0, 0, 0), 23);
    s.expect_accept = true;
    s.expect_status = SessionStatus::kAccepted;
    table.push_back(s);
  }
  {
    Scenario s;
    s.name = "truncate_v2";
    s.plan = fault::FaultPlan::transport(uniform(0, 0, 0.12, 0, 0), 24);
    s.expect_accept = true;
    s.expect_status = SessionStatus::kAccepted;
    table.push_back(s);
  }
  {
    Scenario s;
    s.name = "corrupt_validated_v2";
    s.plan = fault::FaultPlan::transport({}, 25);
    add_validated_corruption(s.plan, 0.15);
    s.expect_accept = true;
    s.expect_status = SessionStatus::kAccepted;
    table.push_back(s);
  }
  {
    Scenario s;
    s.name = "duplicate_v1";
    s.scheme = Scheme::kRPoLv1;
    s.plan = fault::FaultPlan::transport(uniform(0, 0, 0, 0, 0.25), 26);
    s.expect_accept = true;
    s.expect_status = SessionStatus::kAccepted;
    table.push_back(s);
  }
  {
    Scenario s;
    s.name = "mixed_transport_v2";
    s.plan = fault::FaultPlan::transport(uniform(0.04, 0.04, 0.04, 0, 0.05), 27);
    add_validated_corruption(s.plan, 0.04);
    s.expect_accept = true;
    s.expect_status = SessionStatus::kAccepted;
    table.push_back(s);
  }
  {
    // Transport hostile enough that no honest worker survives the budget:
    // the typed outcome must be timeout, not a verdict against the worker.
    Scenario s;
    s.name = "blackout_drop_v2";
    s.plan = fault::FaultPlan::transport(uniform(0.995, 0, 0, 0, 0), 28);
    s.retry.max_attempts = 3;
    s.expect_accept = false;
    s.expect_status = SessionStatus::kTimeout;
    table.push_back(s);
  }
  {
    Scenario s;
    s.name = "stale_replay_v1";
    s.scheme = Scheme::kRPoLv1;
    s.plan = fault::FaultPlan::adversary(
        fault::Byzantine::kStaleCommitmentReplay, 31);
    s.expect_accept = false;
    s.expect_status = SessionStatus::kVerdictRejected;
    table.push_back(s);
  }
  {
    Scenario s;
    s.name = "stale_replay_v2";
    s.plan = fault::FaultPlan::adversary(
        fault::Byzantine::kStaleCommitmentReplay, 32);
    s.expect_accept = false;
    s.expect_status = SessionStatus::kVerdictRejected;
    table.push_back(s);
  }
  {
    Scenario s;
    s.name = "forged_proofs_v1";
    s.scheme = Scheme::kRPoLv1;
    s.plan = fault::FaultPlan::adversary(
        fault::Byzantine::kForgedCheckpointState, 33);
    s.expect_accept = false;
    s.expect_status = SessionStatus::kDecodeRejected;
    table.push_back(s);
  }
  {
    Scenario s;
    s.name = "forged_proofs_v2";
    s.plan = fault::FaultPlan::adversary(
        fault::Byzantine::kForgedCheckpointState, 34);
    s.expect_accept = false;
    s.expect_status = SessionStatus::kDecodeRejected;
    table.push_back(s);
  }
  {
    Scenario s;
    s.name = "proof_withholding_v1";
    s.scheme = Scheme::kRPoLv1;
    s.plan =
        fault::FaultPlan::adversary(fault::Byzantine::kProofWithholding, 35);
    s.expect_accept = false;
    s.expect_status = SessionStatus::kTimeout;
    table.push_back(s);
  }
  {
    Scenario s;
    s.name = "proof_withholding_v2";
    s.plan =
        fault::FaultPlan::adversary(fault::Byzantine::kProofWithholding, 36);
    s.expect_accept = false;
    s.expect_status = SessionStatus::kTimeout;
    table.push_back(s);
  }
  {
    // The junk payload must be rejected by the size cap BEFORE decoding.
    Scenario s;
    s.name = "oversized_payload_v2";
    s.plan =
        fault::FaultPlan::adversary(fault::Byzantine::kOversizedPayload, 37);
    s.plan.oversized_payload_bytes = 1ull << 20;
    s.retry.max_message_bytes = 1ull << 16;
    s.expect_accept = false;
    s.expect_status = SessionStatus::kDecodeRejected;
    table.push_back(s);
  }
  {
    // Byzantine behavior under a lossy transport: whichever typed failure
    // wins, the session must not accept.
    Scenario s;
    s.name = "forged_proofs_plus_drop_v2";
    s.plan = fault::FaultPlan::adversary(
        fault::Byzantine::kForgedCheckpointState, 38);
    for (int t = 0; t < kNumMessageTypes; ++t) s.plan.profile(t).drop = 0.05;
    s.expect_accept = false;
    table.push_back(s);
  }

  return table;
}

struct FaultConformance : public ::testing::Test {
  void SetUp() override {
    task = TinyTask::make(/*seed=*/131, /*steps=*/12, /*interval=*/3);
    view = data::DatasetView::whole(task.dataset);
    StepExecutor init(task.factory, task.hp);
    global = init.save_state();
    model_dim = static_cast<std::int64_t>(
        extract_trainable(global.model, init.trainable_mask()).size());
  }

  SessionConfig config(const Scenario& scenario) {
    SessionConfig cfg;
    cfg.scheme = scenario.scheme;
    cfg.samples_q = 3;
    cfg.beta = 2e-3;
    if (scenario.scheme == Scheme::kRPoLv2) {
      lsh::LshConfig lcfg;
      lcfg.params = lsh::optimize_lsh(cfg.beta / 5.0, cfg.beta, 16).params;
      lcfg.dim = model_dim;
      lcfg.seed = 44;
      cfg.lsh = lcfg;
    }
    if (scenario.has_plan) cfg.fault_plan = &scenario.plan;
    cfg.retry = scenario.retry;
    return cfg;
  }

  SessionOutcome run(const Scenario& scenario) {
    HonestPolicy honest;  // byzantine behaviors are scripted by the plan
    return run_protocol_session(task.factory, task.hp, config(scenario),
                                global, /*nonce=*/505, view, honest,
                                sim::device_ga10(), /*worker_seed=*/3,
                                sim::device_g3090(), /*manager_seed=*/4);
  }

  TinyTask task{TinyTask::make()};
  data::DatasetView view;
  TrainState global;
  std::int64_t model_dim = 0;
};

TEST_F(FaultConformance, SealedAnnouncementSurvivesCorruption) {
  // Only announcements are corrupted. Unsealed, a flipped byte that still
  // decodes hands the worker another batch size or LSH family; sealed, the
  // worker NACKs and the manager retransmits, so an honest worker is
  // accepted and the session never throws.
  std::uint64_t announcement_retries = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Scenario s;
    s.name = "corrupt_announcement_v2";
    s.plan = fault::FaultPlan::transport({}, seed * 104729);
    s.plan.profile(kIdxAnnouncement).corrupt = 0.5;
    s.retry.max_attempts = 16;
    SessionOutcome outcome;
    ASSERT_NO_THROW(outcome = run(s)) << "seed " << seed;
    EXPECT_EQ(outcome.status, SessionStatus::kAccepted)
        << "seed " << seed << ": " << session_status_name(outcome.status);
    announcement_retries += outcome.retries_by_type[kIdxAnnouncement];
  }
  EXPECT_GT(announcement_retries, 0u);  // the plan did corrupt announcements
}

TEST_F(FaultConformance, CorruptedUpdateNeverChangesThePaidModel) {
  // Only the update upload is corrupted. The worker is paid for the model
  // the manager takes, so an accepted session must carry the model the
  // worker trained, bit for bit; a corrupted update that would still decode
  // is refused by its chunk digest, and a session whose retries run out
  // ends in a typed decode rejection.
  for (const Scheme scheme : {Scheme::kRPoLv1, Scheme::kRPoLv2}) {
    SCOPED_TRACE(scheme_name(scheme));
    Scenario lossless;
    lossless.scheme = scheme;
    lossless.has_plan = false;
    const SessionOutcome reference = run(lossless);
    ASSERT_EQ(reference.status, SessionStatus::kAccepted);

    std::uint64_t update_retries = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      Scenario s;
      s.scheme = scheme;
      s.plan = fault::FaultPlan::transport({}, seed);
      s.plan.profile(kIdxUpdate).corrupt = 0.5;
      const SessionOutcome outcome = run(s);
      if (outcome.accepted) {
        EXPECT_EQ(outcome.final_model, reference.final_model)
            << "seed " << seed << " accepted an altered update";
      } else {
        EXPECT_EQ(outcome.status, SessionStatus::kDecodeRejected)
            << "seed " << seed << ": " << session_status_name(outcome.status);
      }
      update_retries += outcome.retries_by_type[kIdxUpdate];
    }
    EXPECT_GT(update_retries, 0u);  // the plan did corrupt updates
  }
}

TEST_F(FaultConformance, ScenarioTable) {
  const auto table = scenarios();
  ASSERT_GE(table.size(), 12u);
  for (const Scenario& scenario : table) {
    SCOPED_TRACE(scenario.name);
    const SessionOutcome first = run(scenario);
    const SessionOutcome second = run(scenario);

    // (a)/(b): the verdict class, and the exact typed status where pinned.
    EXPECT_EQ(first.accepted, scenario.expect_accept);
    EXPECT_EQ(first.accepted, first.status == SessionStatus::kAccepted);
    if (scenario.expect_status.has_value()) {
      EXPECT_EQ(first.status, *scenario.expect_status)
          << "got " << session_status_name(first.status);
    }

    // (c): bitwise seed-reproducibility of the complete outcome.
    EXPECT_EQ(first.status, second.status);
    EXPECT_EQ(first.final_model, second.final_model);
    EXPECT_EQ(first.bytes_to_worker, second.bytes_to_worker);
    EXPECT_EQ(first.bytes_to_manager, second.bytes_to_manager);
    EXPECT_EQ(first.bytes_by_type, second.bytes_by_type);
    EXPECT_EQ(first.retries_by_type, second.retries_by_type);
    EXPECT_EQ(first.total_retries, second.total_retries);
    EXPECT_EQ(first.backoff_ticks, second.backoff_ticks);
    EXPECT_TRUE(first.faults == second.faults);

    // (d): every byte crossing the channel is attributed to exactly one
    // message type, retransmissions and duplicates included.
    std::uint64_t typed_total = 0;
    for (const std::uint64_t b : first.bytes_by_type) typed_total += b;
    EXPECT_EQ(typed_total, first.bytes_to_worker + first.bytes_to_manager);

    // Fault bookkeeping coherence: a retry implies a prior fault, and the
    // zero-cost path reports no faults at all.
    if (!scenario.has_plan || !scenario.plan.has_transport_faults()) {
      if (scenario.plan.byzantine != fault::Byzantine::kProofWithholding &&
          scenario.plan.byzantine != fault::Byzantine::kOversizedPayload &&
          scenario.plan.byzantine != fault::Byzantine::kForgedCheckpointState) {
        EXPECT_EQ(first.total_retries, 0);
      }
      EXPECT_EQ(first.faults.total_faults(), 0u);
    }
    if (first.total_retries > 0) {
      EXPECT_GT(first.backoff_ticks, 0);
    }
  }
}

TEST_F(FaultConformance, HonestNeverRejectedAcrossSeedsWithinBudget) {
  // (a) strengthened: sweep plan seeds under a light mixed plan; an honest
  // worker must come through every time (each message has 5 attempts and
  // per-attempt fault probability ~0.1 — the budget absorbs it).
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Scenario s;
    s.name = "seed_sweep";
    s.plan = fault::FaultPlan::transport(uniform(0.04, 0.03, 0.03, 0, 0.03),
                                         seed * 1009);
    add_validated_corruption(s.plan, 0.04);
    const SessionOutcome outcome = run(s);
    EXPECT_EQ(outcome.status, SessionStatus::kAccepted) << "seed " << seed;
  }
}

TEST_F(FaultConformance, RetriesHappenAndAreTyped) {
  Scenario s;
  s.name = "drop_heavy_but_within_budget";
  s.plan = fault::FaultPlan::transport(uniform(0.30, 0, 0, 0, 0), 97);
  const SessionOutcome outcome = run(s);
  EXPECT_TRUE(outcome.accepted);
  EXPECT_GT(outcome.total_retries, 0);
  std::int64_t typed = 0;
  for (const std::uint64_t r : outcome.retries_by_type) {
    typed += static_cast<std::int64_t>(r);
  }
  EXPECT_EQ(typed, outcome.total_retries);
  EXPECT_GT(outcome.faults.total_faults(), 0u);
}

TEST_F(FaultConformance, StatusNamesPinned) {
  EXPECT_STREQ(session_status_name(SessionStatus::kAccepted), "accepted");
  EXPECT_STREQ(session_status_name(SessionStatus::kVerdictRejected),
               "verdict_rejected");
  EXPECT_STREQ(session_status_name(SessionStatus::kDecodeRejected),
               "decode_rejected");
  EXPECT_STREQ(session_status_name(SessionStatus::kTimeout), "timeout");
  EXPECT_STREQ(fault::byzantine_name(fault::Byzantine::kNone), "none");
  EXPECT_STREQ(
      fault::byzantine_name(fault::Byzantine::kStaleCommitmentReplay),
      "stale_commitment_replay");
  EXPECT_STREQ(fault::byzantine_name(fault::Byzantine::kForgedCheckpointState),
               "forged_checkpoint_state");
  EXPECT_STREQ(fault::byzantine_name(fault::Byzantine::kProofWithholding),
               "proof_withholding");
  EXPECT_STREQ(fault::byzantine_name(fault::Byzantine::kOversizedPayload),
               "oversized_payload");
}

TEST(FaultPrimitives, BackoffIsExponentialAndCapped) {
  fault::RetryPolicy policy;
  policy.backoff_base_ticks = 2;
  policy.backoff_cap_ticks = 16;
  EXPECT_EQ(fault::backoff_ticks(policy, 0), 2);
  EXPECT_EQ(fault::backoff_ticks(policy, 1), 4);
  EXPECT_EQ(fault::backoff_ticks(policy, 2), 8);
  EXPECT_EQ(fault::backoff_ticks(policy, 3), 16);
  EXPECT_EQ(fault::backoff_ticks(policy, 10), 16);  // capped
}

// Regression: the doubling loop used to run `base << retry` arithmetic that
// overflowed (signed UB) once `retry` grew past the cap's bit width, or when
// the cap itself sat in the top half of the int64 range. The saturating
// rewrite must pin to the cap instead, for ANY attempt index — asan/ubsan
// tier-1 passes run this test, so an overflow would trip the sanitizer too.
TEST(FaultPrimitives, BackoffSaturatesAtExtremeAttemptCounts) {
  fault::RetryPolicy policy;
  policy.backoff_base_ticks = 2;
  policy.backoff_cap_ticks = 16;
  // Way past the doubling range: stays exactly at the cap.
  EXPECT_EQ(fault::backoff_ticks(policy, 1000), 16);
  EXPECT_EQ(fault::backoff_ticks(policy, std::numeric_limits<int>::max()), 16);

  // Cap in the top half of the int64 range: doubling from 1 would overflow
  // after 62 shifts; the result must saturate at the cap, never wrap.
  policy.backoff_base_ticks = 1;
  policy.backoff_cap_ticks = std::numeric_limits<std::int64_t>::max();
  const std::int64_t at62 = fault::backoff_ticks(policy, 62);
  EXPECT_EQ(at62, std::int64_t{1} << 62);
  EXPECT_EQ(fault::backoff_ticks(policy, 63),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(fault::backoff_ticks(policy, 10000),
            std::numeric_limits<std::int64_t>::max());

  // Degenerate policies clamp instead of producing negative waits.
  policy.backoff_base_ticks = -5;
  policy.backoff_cap_ticks = 16;
  EXPECT_EQ(fault::backoff_ticks(policy, 0), 0);
  EXPECT_EQ(fault::backoff_ticks(policy, 7), 0);
  policy.backoff_base_ticks = 4;
  policy.backoff_cap_ticks = -1;
  EXPECT_EQ(fault::backoff_ticks(policy, 3), 0);
  // Base above the cap: the cap wins from attempt zero.
  policy.backoff_base_ticks = 100;
  policy.backoff_cap_ticks = 16;
  EXPECT_EQ(fault::backoff_ticks(policy, 0), 16);
  // Negative attempt indices are treated as attempt zero.
  policy.backoff_base_ticks = 2;
  EXPECT_EQ(fault::backoff_ticks(policy, -3), 2);
}

TEST(FaultPrimitives, ExpectedTransmissionsMatchesGeometricSum) {
  EXPECT_DOUBLE_EQ(fault::expected_transmissions(0.0, 5), 1.0);
  EXPECT_NEAR(fault::expected_transmissions(0.5, 3), 1.75, 1e-12);
  EXPECT_DOUBLE_EQ(fault::expected_transmissions(1.0, 4), 4.0);
}

TEST(FaultPrimitives, InjectorStreamsAreIndependentButReproducible) {
  fault::FaultPlan plan =
      fault::FaultPlan::transport(uniform(0.5, 0, 0, 0, 0), 1234);
  fault::FaultInjector a1(plan, /*stream=*/0);
  fault::FaultInjector a2(plan, /*stream=*/0);
  fault::FaultInjector b(plan, /*stream=*/1);
  bool diverged = false;
  for (int i = 0; i < 64; ++i) {
    const auto d1 = a1.attempt(0);
    const auto d2 = a2.attempt(0);
    const auto d3 = b.attempt(0);
    EXPECT_EQ(static_cast<int>(d1.status), static_cast<int>(d2.status));
    diverged = diverged || d1.status != d3.status;
  }
  EXPECT_TRUE(diverged);  // different streams, different fault sequences
  EXPECT_TRUE(a1.stats() == a2.stats());
}

// Pins what the session transport delivers, attempt by attempt: every
// attempt's status, flags and received bytes, then the inner channel's byte
// counts per message type. Sizes cover the empty message, messages shorter
// than a float, one that is not a whole number of floats and two large ones,
// and truncation, corruption and duplication each fire on every one of them.
// The digest was recorded while the channel still copied every attempt, so
// the copy-free channel delivers the same bytes and counts.
TEST(FaultPrimitives, TransmitDeliveriesMatchGolden) {
  const fault::FaultPlan plan = fault::FaultPlan::transport(
      uniform(0.1, 0.1, 0.1, 0.1, 0.1), /*seed=*/2024);
  CountingChannel counting;
  fault::FaultyChannel<CountingChannel> channel(counting, &plan);
  const std::size_t sizes[] = {0, 1, 3, 65541, 1u << 20};
  Bytes log;
  for (std::size_t k = 0; k < std::size(sizes); ++k) {
    Bytes message(sizes[k]);
    for (std::size_t i = 0; i < message.size(); ++i) {
      message[i] = static_cast<std::uint8_t>(i * 131 + k);
    }
    const auto type = static_cast<MessageType>(k);
    for (int a = 0; a < 40; ++a) {
      const fault::Delivery d = k % 2 == 0
                                    ? channel.send_to_worker(type, message)
                                    : channel.send_to_manager(type, message);
      const Bytes& received = d.received(message);
      if (d.status == fault::DeliveryStatus::kDelivered && !d.corrupted) {
        // A clean delivery owns no copy: the receiver reads the sender's
        // own buffer.
        EXPECT_TRUE(d.mangled.empty());
        EXPECT_EQ(&received, &message);
      }
      log.push_back(static_cast<std::uint8_t>(d.status));
      log.push_back(d.corrupted ? 1 : 0);
      log.push_back(d.duplicated ? 1 : 0);
      append_u64(log, received.size());
      const Digest h = sha256(received);
      log.insert(log.end(), h.begin(), h.end());
    }
  }
  for (const std::uint64_t bytes : counting.bytes_by_type()) {
    append_u64(log, bytes);
  }
  const fault::FaultStats& stats = *channel.stats();
  for (std::size_t k = 0; k < std::size(sizes); ++k) {
    EXPECT_GT(stats.truncations[k], 0u);
    EXPECT_GT(stats.corruptions[k], 0u);
    EXPECT_GT(stats.duplicates[k], 0u);
  }
  EXPECT_EQ(digest_to_hex(sha256(log)),
            "7dbc7180b9b636c52085a4aa38abbbf9a50aa69c6b1e3ea5ca2b32e31fe86b1c");
}

// ---------------------------------------------------------------------------
// Chunked state transfer under faults (bounded-memory sessions): the global
// state and the model update travel as independently integrity-checked
// chunks (core/wire.h StateChunk) under their logical MessageType, so the
// per-type fault profiles and retry budgets apply to every chunk. The
// contracts mirror the table above at small chunk sizes, plus one new one:
// a transfer that loses a middle chunk ends in a TYPED failure — a torn or
// partially-assembled state is never accepted.

struct ChunkedSession : public FaultConformance {
  SessionOutcome run_chunked(const Scenario& scenario,
                             std::size_t chunk_bytes) {
    HonestPolicy honest;
    SessionConfig cfg = config(scenario);
    cfg.chunk_bytes = chunk_bytes;
    return run_protocol_session(task.factory, task.hp, cfg, global,
                                /*nonce=*/505, view, honest,
                                sim::device_ga10(), /*worker_seed=*/3,
                                sim::device_g3090(), /*manager_seed=*/4);
  }
};

TEST_F(ChunkedSession, LosslessChunkedMatchesOneChunkModelBits) {
  // Chunking is pure transport framing: on a clean channel the verdict and
  // every model bit must match the default session, which sends each state
  // as one chunk, at any chunk size, including one larger than the whole
  // encoding. The default chunk size is SIZE_MAX, where a ceiling formed as
  // total + size - 1 would wrap to zero chunks and the worker would send
  // nothing.
  Scenario s;
  s.name = "lossless_chunked";
  s.has_plan = false;
  const SessionOutcome one_chunk = run(s);
  ASSERT_EQ(one_chunk.status, SessionStatus::kAccepted);
  for (const std::size_t chunk_bytes : {48ul, 256ul, 1ul << 20}) {
    SCOPED_TRACE(chunk_bytes);
    const SessionOutcome chunked = run_chunked(s, chunk_bytes);
    EXPECT_EQ(chunked.status, SessionStatus::kAccepted);
    EXPECT_EQ(chunked.final_model, one_chunk.final_model);
    // Byte accounting still balances with chunk framing in play.
    std::uint64_t typed_total = 0;
    for (const std::uint64_t b : chunked.bytes_by_type) typed_total += b;
    EXPECT_EQ(typed_total,
              chunked.bytes_to_worker + chunked.bytes_to_manager);
  }
}

TEST_F(ChunkedSession, SurvivesTransportFaultsWithinBudget) {
  // Per-chunk integrity + per-chunk retry: a lossy-but-bounded channel
  // heals chunk by chunk, and the accepted model is bitwise the lossless
  // one. Retries must actually occur (the plan is hot enough to hit some of
  // the dozens of chunk legs).
  Scenario lossless;
  lossless.name = "reference";
  lossless.has_plan = false;
  const SessionOutcome reference = run_chunked(lossless, 64);

  Scenario s;
  s.name = "chunked_mixed_transport";
  s.plan = fault::FaultPlan::transport(uniform(0.06, 0.04, 0, 0, 0.05), 41);
  add_validated_corruption(s.plan, 0.06);
  const SessionOutcome outcome = run_chunked(s, 64);
  EXPECT_EQ(outcome.status, SessionStatus::kAccepted);
  EXPECT_EQ(outcome.final_model, reference.final_model);
  EXPECT_GT(outcome.total_retries, 0);
  EXPECT_GT(outcome.faults.total_faults(), 0u);
}

TEST_F(ChunkedSession, PersistentChunkLossIsTypedTimeout) {
  // Every state chunk dropped: the first chunk leg exhausts its budget and
  // the session reports transport timeout — not a verdict, not a crash.
  Scenario s;
  s.name = "chunk_blackout";
  s.plan = fault::FaultPlan::transport({}, 42);
  s.plan.profile(kIdxState).drop = 1.0;
  s.retry.max_attempts = 3;
  const SessionOutcome outcome = run_chunked(s, 64);
  EXPECT_EQ(outcome.status, SessionStatus::kTimeout);
  EXPECT_FALSE(outcome.accepted);
}

TEST_F(ChunkedSession, PersistentTruncationAndCorruptionAreDecodeRejected) {
  // Chunks that always arrive mangled fail their framing/digest check every
  // attempt; exhaustion through NACKs is the typed decode rejection. Sweep
  // both legs (download of the global state, upload of the update).
  for (const int target : {kIdxState, kIdxUpdate}) {
    for (const bool truncate : {true, false}) {
      SCOPED_TRACE(target);
      SCOPED_TRACE(truncate);
      Scenario s;
      s.name = "chunk_mangled";
      s.plan = fault::FaultPlan::transport({}, 43);
      if (truncate) {
        s.plan.profile(target).truncate = 1.0;
      } else {
        s.plan.profile(target).corrupt = 1.0;
      }
      s.retry.max_attempts = 3;
      const SessionOutcome outcome = run_chunked(s, 64);
      EXPECT_EQ(outcome.status, SessionStatus::kDecodeRejected);
      EXPECT_FALSE(outcome.accepted);
    }
  }
}

TEST_F(ChunkedSession, MiddleChunkFaultSweepNeverAcceptsTornState) {
  // Seed sweep over a plan hostile to state chunks (drop + truncate +
  // duplicate at rates that overwhelm a 2-attempt budget on SOME middle
  // chunk most runs): every outcome must carry a typed status, and any
  // accepted run must reproduce the lossless model bits exactly — the
  // assembler's ordered offsets make a torn accept structurally impossible,
  // and this pins it end to end.
  Scenario lossless;
  lossless.name = "reference";
  lossless.has_plan = false;
  const SessionOutcome reference = run_chunked(lossless, 48);

  int failed = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Scenario s;
    s.name = "chunk_fault_sweep";
    s.plan = fault::FaultPlan::transport({}, seed * 7919);
    s.plan.profile(kIdxState).drop = 0.25;
    s.plan.profile(kIdxState).truncate = 0.15;
    s.plan.profile(kIdxUpdate).drop = 0.25;
    s.plan.profile(kIdxUpdate).duplicate = 0.20;
    s.retry.max_attempts = 2;
    const SessionOutcome outcome = run_chunked(s, 48);
    switch (outcome.status) {
      case SessionStatus::kAccepted:
        EXPECT_TRUE(outcome.accepted);
        EXPECT_EQ(outcome.final_model, reference.final_model)
            << "seed " << seed << " accepted a torn state";
        break;
      case SessionStatus::kTimeout:
      case SessionStatus::kDecodeRejected:
        ++failed;
        EXPECT_FALSE(outcome.accepted);
        EXPECT_TRUE(outcome.final_model.empty());
        break;
      case SessionStatus::kVerdictRejected:
        ADD_FAILURE() << "transport faults must not produce a verdict "
                         "against an honest worker (seed "
                      << seed << ")";
        break;
      case SessionStatus::kAdmissionRejected:
      case SessionStatus::kRequeued:
        ADD_FAILURE() << "no session produces this status (seed "
                      << seed << ", status "
                      << session_status_name(outcome.status) << ")";
        break;
    }
  }
  // The sweep must actually exercise the failure path (the rates above
  // guarantee it overwhelmingly; a silent all-accept would mean the plan
  // never touched a chunk).
  EXPECT_GT(failed, 0);
}

// ---------------------------------------------------------------------------
// Pool-level graceful degradation.

struct PoolDegradation : public ::testing::Test {
  void SetUp() override {
    task = TinyTask::make(/*seed=*/61, /*steps=*/10, /*interval=*/3);
    split = std::make_unique<data::TrainTestSplit>(
        data::train_test_split(task.dataset, 0.25, 17));
  }

  PoolConfig config(std::int64_t epochs) {
    PoolConfig cfg;
    cfg.scheme = Scheme::kRPoLv1;
    cfg.hp = task.hp;
    cfg.epochs = epochs;
    cfg.samples_q = 2;
    cfg.seed = 71;
    return cfg;
  }

  std::vector<WorkerSpec> honest_workers(std::size_t count) {
    std::vector<WorkerSpec> specs;
    const auto devices = sim::all_devices();
    for (std::size_t w = 0; w < count; ++w) {
      WorkerSpec spec;
      spec.policy = std::make_unique<HonestPolicy>();
      spec.device = devices[w % devices.size()];
      specs.push_back(std::move(spec));
    }
    return specs;
  }

  TinyTask task{TinyTask::make()};
  std::unique_ptr<data::TrainTestSplit> split;
};

TEST_F(PoolDegradation, LightFaultsRetransmitWithoutEvicting) {
  PoolConfig cfg = config(/*epochs=*/3);
  const fault::FaultPlan plan = fault::FaultPlan::transport(
      uniform(0.10, 0, 0, 0, 0), /*seed=*/7);
  cfg.fault_plan = &plan;
  ShardedPool pool({cfg}, task.factory, task.dataset, split->test,
                   honest_workers(4));
  const PoolRunReport report = pool.run();
  EXPECT_GT(report.total_retransmissions, 0);
  for (const auto& epoch : report.epochs) {
    EXPECT_EQ(epoch.evicted_count, 0);
    for (const bool p : epoch.participated) EXPECT_TRUE(p);
    for (const bool a : epoch.accepted) EXPECT_TRUE(a);
  }
}

TEST_F(PoolDegradation, BlackoutEvictsAndPoolSurvives) {
  PoolConfig cfg = config(/*epochs=*/4);
  const fault::FaultPlan plan = fault::FaultPlan::transport(
      uniform(0.999, 0, 0, 0, 0), /*seed=*/9);
  cfg.fault_plan = &plan;
  cfg.retry.max_attempts = 2;
  cfg.eviction_threshold = 2;
  ShardedPool pool({cfg}, task.factory, task.dataset, split->test,
                   honest_workers(3));
  const PoolRunReport report = pool.run();
  ASSERT_EQ(report.epochs.size(), 4u);
  EXPECT_GT(report.total_session_failures, 0);
  // All workers unreachable => evicted once the threshold trips...
  EXPECT_EQ(report.epochs.back().evicted_count, 3);
  for (const bool e : report.epochs.back().evicted) EXPECT_TRUE(e);
  // ...and later epochs still complete (evaluation runs, nothing crashes,
  // evicted workers sit out).
  for (const bool p : report.epochs.back().participated) EXPECT_FALSE(p);
  EXPECT_GT(report.epochs.back().test_accuracy, 0.0);
  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_TRUE(pool.pool().worker_evicted(w));
  }
}

TEST_F(PoolDegradation, EpochReportsAreSeedReproducible) {
  const fault::FaultPlan plan = fault::FaultPlan::transport(
      uniform(0.15, 0.05, 0, 0, 0.05), /*seed=*/13);
  auto run_once = [&]() {
    PoolConfig cfg = config(/*epochs=*/2);
    cfg.fault_plan = &plan;
    ShardedPool pool({cfg}, task.factory, task.dataset, split->test,
                     honest_workers(4));
    return pool.run();
  };
  const PoolRunReport r1 = run_once();
  const PoolRunReport r2 = run_once();
  ASSERT_EQ(r1.epochs.size(), r2.epochs.size());
  EXPECT_EQ(r1.total_bytes, r2.total_bytes);
  EXPECT_EQ(r1.total_retransmissions, r2.total_retransmissions);
  EXPECT_EQ(r1.total_session_failures, r2.total_session_failures);
  for (std::size_t e = 0; e < r1.epochs.size(); ++e) {
    EXPECT_EQ(r1.epochs[e].accepted, r2.epochs[e].accepted);
    EXPECT_EQ(r1.epochs[e].participated, r2.epochs[e].participated);
    EXPECT_EQ(r1.epochs[e].bytes_this_epoch, r2.epochs[e].bytes_this_epoch);
    EXPECT_EQ(r1.epochs[e].test_accuracy, r2.epochs[e].test_accuracy);
  }
}

TEST_F(PoolDegradation, AsyncPoolEvictsUnreachableWorkerAndContinues) {
  AsyncPoolConfig cfg;
  cfg.hp = task.hp;
  cfg.ticks = 10;
  cfg.beta = 2e-3;
  cfg.seed = 19;
  const fault::FaultPlan plan = fault::FaultPlan::transport(
      uniform(0.999, 0, 0, 0, 0), /*seed=*/5);
  cfg.fault_plan = &plan;
  cfg.retry.max_attempts = 2;
  cfg.eviction_threshold = 2;

  std::vector<AsyncWorkerSpec> specs;
  const auto devices = sim::all_devices();
  for (std::size_t w = 0; w < 3; ++w) {
    AsyncWorkerSpec spec;
    spec.policy = std::make_unique<HonestPolicy>();
    spec.device = devices[w % devices.size()];
    spec.period = static_cast<std::int64_t>(w) + 1;
    specs.push_back(std::move(spec));
  }
  AsyncMiningPool pool(cfg, task.factory, task.dataset, split->test,
                       std::move(specs));
  const AsyncRunReport report = pool.run();
  EXPECT_GT(report.lost, 0);
  EXPECT_EQ(report.applied, 0);
  // Everyone blacked out => eventually evicted, but the scheduler kept
  // ticking and evaluating to the end.
  EXPECT_EQ(report.accuracy_curve.size(), 10u);
  for (const auto& sub : report.submissions) EXPECT_FALSE(sub.delivered);
}

TEST_F(PoolDegradation, NullPlanMatchesLegacyAccountingExactly) {
  // The fault layer must be zero-cost when not installed: a pool with no
  // plan produces byte-for-byte the same report as before the layer existed
  // (cross-checked against a pool with an explicit all-zero plan, which
  // draws RNG but never faults).
  const fault::FaultPlan zero = fault::FaultPlan::transport({}, /*seed=*/3);
  auto run_with = [&](const fault::FaultPlan* plan) {
    PoolConfig cfg = config(/*epochs=*/2);
    cfg.fault_plan = plan;
    ShardedPool pool({cfg}, task.factory, task.dataset, split->test,
                     honest_workers(4));
    return pool.run();
  };
  const PoolRunReport without = run_with(nullptr);
  const PoolRunReport with_zero = run_with(&zero);
  ASSERT_EQ(without.epochs.size(), with_zero.epochs.size());
  EXPECT_EQ(without.total_bytes, with_zero.total_bytes);
  EXPECT_EQ(without.total_retransmissions, 0);
  EXPECT_EQ(with_zero.total_retransmissions, 0);
  for (std::size_t e = 0; e < without.epochs.size(); ++e) {
    EXPECT_EQ(without.epochs[e].test_accuracy, with_zero.epochs[e].test_accuracy);
    EXPECT_EQ(without.epochs[e].bytes_this_epoch,
              with_zero.epochs[e].bytes_this_epoch);
  }
}

}  // namespace
}  // namespace rpol::core
