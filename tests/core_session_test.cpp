// Protocol-session tests: the full manager<->worker exchange over encoded
// bytes, traffic structure vs the analytic cost model, and scheme parity
// with the in-process Verifier.

#include <gtest/gtest.h>

#include "core/session.h"
#include "task_fixture.h"

namespace rpol::core {
namespace {

using rpol::testing::TinyTask;

struct SessionFixture : public ::testing::Test {
  void SetUp() override {
    task = TinyTask::make(/*seed=*/131, /*steps=*/12, /*interval=*/3);
    view = data::DatasetView::whole(task.dataset);
    StepExecutor init(task.factory, task.hp);
    global = init.save_state();
    model_dim = static_cast<std::int64_t>(
        extract_trainable(global.model, init.trainable_mask()).size());
  }

  SessionConfig config(Scheme scheme) {
    SessionConfig cfg;
    cfg.scheme = scheme;
    cfg.samples_q = 3;
    cfg.beta = 2e-3;
    if (scheme == Scheme::kRPoLv2) {
      lsh::LshConfig lcfg;
      lcfg.params = lsh::optimize_lsh(cfg.beta / 5.0, cfg.beta, 16).params;
      lcfg.dim = model_dim;
      lcfg.seed = 44;
      cfg.lsh = lcfg;
    }
    return cfg;
  }

  SessionOutcome run(Scheme scheme, WorkerPolicy& policy) {
    return run_protocol_session(task.factory, task.hp, config(scheme), global,
                                /*nonce=*/505, view, policy, sim::device_ga10(),
                                /*worker_seed=*/3, sim::device_g3090(),
                                /*manager_seed=*/4);
  }

  TinyTask task{TinyTask::make()};
  data::DatasetView view;
  TrainState global;
  std::int64_t model_dim = 0;
};

TEST_F(SessionFixture, HonestWorkerAcceptedBothSchemes) {
  for (const Scheme scheme : {Scheme::kRPoLv1, Scheme::kRPoLv2}) {
    HonestPolicy honest;
    const SessionOutcome outcome = run(scheme, honest);
    EXPECT_TRUE(outcome.accepted) << scheme_name(scheme);
    EXPECT_EQ(outcome.final_model.size(), global.model.size());
    EXPECT_GT(outcome.bytes_to_worker, 0u);
    EXPECT_GT(outcome.bytes_to_manager, 0u);
  }
}

TEST_F(SessionFixture, AdversariesRejectedOverTheWire) {
  for (const Scheme scheme : {Scheme::kRPoLv1, Scheme::kRPoLv2}) {
    ReplayPolicy replay;
    EXPECT_FALSE(run(scheme, replay).accepted) << scheme_name(scheme);
    SpoofPolicy spoof(0.1, 0.5);
    EXPECT_FALSE(run(scheme, spoof).accepted) << scheme_name(scheme);
    FabricationPolicy fabricate;
    EXPECT_FALSE(run(scheme, fabricate).accepted) << scheme_name(scheme);
  }
}

TEST_F(SessionFixture, V2SavesUplinkBytes) {
  HonestPolicy honest;
  const SessionOutcome v1 = run(Scheme::kRPoLv1, honest);
  const SessionOutcome v2 = run(Scheme::kRPoLv2, honest);
  ASSERT_TRUE(v1.accepted);
  ASSERT_TRUE(v2.accepted);
  EXPECT_LT(v2.bytes_to_manager, v1.bytes_to_manager);
}

TEST_F(SessionFixture, TrafficStructureMatchesCostModel) {
  // RPoLv1 uplink = update + commitment + q * (input + output) states.
  HonestPolicy honest;
  const SessionOutcome v1 = run(Scheme::kRPoLv1, honest);
  const std::uint64_t state_bytes =
      static_cast<std::uint64_t>(encode_train_state(global).size());
  // update (model only, lighter than a full state) + 3 * 2 full states;
  // commitment adds hashes. Bound the structure rather than exact bytes:
  EXPECT_GT(v1.bytes_to_manager, 6 * state_bytes / 2);
  EXPECT_LT(v1.bytes_to_manager, 8 * state_bytes);

  // RPoLv2 uplink when no double-check fires: update + commitment(+LSH) +
  // q * input states.
  const SessionOutcome v2 = run(Scheme::kRPoLv2, honest);
  if (v2.double_checks == 0) {
    EXPECT_LT(v2.bytes_to_manager, 5 * state_bytes);
  }
}

TEST_F(SessionFixture, BytesByTypeAccountsForEveryMessage) {
  for (const Scheme scheme : {Scheme::kRPoLv1, Scheme::kRPoLv2}) {
    HonestPolicy honest;
    const SessionOutcome outcome = run(scheme, honest);
    ASSERT_TRUE(outcome.accepted) << scheme_name(scheme);
    std::uint64_t typed_total = 0;
    for (const std::uint64_t b : outcome.bytes_by_type) typed_total += b;
    // The taxonomy is exhaustive: every byte crossing the channel is
    // attributed to exactly one message type.
    EXPECT_EQ(typed_total, outcome.bytes_to_worker + outcome.bytes_to_manager)
        << scheme_name(scheme);
    // An honest exchange uses every message type at least once.
    for (int t = 0; t < kNumMessageTypes; ++t) {
      EXPECT_GT(outcome.bytes_by_type[static_cast<std::size_t>(t)], 0u)
          << scheme_name(scheme) << " "
          << message_type_name(static_cast<MessageType>(t));
    }
    // The global state download dominates announcements, and proofs carry
    // full states so responses dominate requests.
    EXPECT_GT(outcome.bytes_by_type[static_cast<std::size_t>(
                  MessageType::kGlobalState)],
              outcome.bytes_by_type[static_cast<std::size_t>(
                  MessageType::kAnnouncement)]);
    EXPECT_GT(outcome.bytes_by_type[static_cast<std::size_t>(
                  MessageType::kProofResponse)],
              outcome.bytes_by_type[static_cast<std::size_t>(
                  MessageType::kProofRequest)]);
  }
}

TEST_F(SessionFixture, MessageTypeNamesAreStable) {
  // These names form the "bytes.<type>" counter namespace in trace exports
  // (docs/observability.md) — renaming them breaks trace consumers.
  EXPECT_STREQ(message_type_name(MessageType::kAnnouncement), "announcement");
  EXPECT_STREQ(message_type_name(MessageType::kGlobalState), "state");
  EXPECT_STREQ(message_type_name(MessageType::kCommitment), "commitment");
  EXPECT_STREQ(message_type_name(MessageType::kUpdate), "update");
  EXPECT_STREQ(message_type_name(MessageType::kProofRequest), "proof_request");
  EXPECT_STREQ(message_type_name(MessageType::kProofResponse),
               "proof_response");
}

TEST_F(SessionFixture, BaselineSchemeRejected) {
  HonestPolicy honest;
  EXPECT_THROW(run(Scheme::kBaseline, honest), std::invalid_argument);
  SessionConfig missing_lsh;
  missing_lsh.scheme = Scheme::kRPoLv2;
  EXPECT_THROW(
      run_protocol_session(task.factory, task.hp, missing_lsh, global, 1, view,
                           honest, sim::device_ga10(), 1, sim::device_g3090(), 2),
      std::invalid_argument);
}

TEST_F(SessionFixture, AgreesWithInProcessVerifier) {
  // The wire path and the in-process Verifier must reach the same verdicts.
  for (const Scheme scheme : {Scheme::kRPoLv1, Scheme::kRPoLv2}) {
    for (const bool honest : {true, false}) {
      std::unique_ptr<WorkerPolicy> policy;
      if (honest) {
        policy = std::make_unique<HonestPolicy>();
      } else {
        policy = std::make_unique<SpoofPolicy>(0.1, 0.5);
      }
      const SessionOutcome wire_outcome = run(scheme, *policy);
      EXPECT_EQ(wire_outcome.accepted, honest)
          << scheme_name(scheme) << " honest=" << honest;
    }
  }
}

// ---------------------------------------------------------------------------
// SessionStatus taxonomy: the typed failure reason distinguishes protocol
// verdicts from transport pathologies. Pinned here so downstream consumers
// (pool eviction, trace analysis, the fault-conformance suite) can rely on
// the classification.
// ---------------------------------------------------------------------------

TEST_F(SessionFixture, StatusTaxonomyNamesArePinned) {
  // These names feed "session.fail.<status>" obs counters and trace
  // exports — renaming them breaks consumers.
  EXPECT_STREQ(session_status_name(SessionStatus::kAccepted), "accepted");
  EXPECT_STREQ(session_status_name(SessionStatus::kVerdictRejected),
               "verdict_rejected");
  EXPECT_STREQ(session_status_name(SessionStatus::kDecodeRejected),
               "decode_rejected");
  EXPECT_STREQ(session_status_name(SessionStatus::kTimeout), "timeout");
  EXPECT_STREQ(session_status_name(SessionStatus::kAdmissionRejected),
               "admission_rejected");
  EXPECT_STREQ(session_status_name(SessionStatus::kRequeued), "requeued");
  // perfbench casts these values to its own Outcome enum and names its
  // session.status.* rows from them, so renumbering breaks the benchmark.
  EXPECT_EQ(static_cast<int>(SessionStatus::kAccepted), 0);
  EXPECT_EQ(static_cast<int>(SessionStatus::kVerdictRejected), 1);
  EXPECT_EQ(static_cast<int>(SessionStatus::kDecodeRejected), 2);
  EXPECT_EQ(static_cast<int>(SessionStatus::kTimeout), 3);
  EXPECT_EQ(static_cast<int>(SessionStatus::kAdmissionRejected), 4);
  EXPECT_EQ(static_cast<int>(SessionStatus::kRequeued), 5);
}

TEST_F(SessionFixture, AcceptedSessionsCarryAcceptedStatus) {
  for (const Scheme scheme : {Scheme::kRPoLv1, Scheme::kRPoLv2}) {
    HonestPolicy honest;
    const SessionOutcome outcome = run(scheme, honest);
    ASSERT_TRUE(outcome.accepted) << scheme_name(scheme);
    EXPECT_EQ(outcome.status, SessionStatus::kAccepted) << scheme_name(scheme);
    // A fault-free session never retries and never backs off.
    EXPECT_EQ(outcome.total_retries, 0);
    EXPECT_EQ(outcome.backoff_ticks, 0);
    EXPECT_EQ(outcome.faults.total_faults(), 0);
  }
}

TEST_F(SessionFixture, AdversarialPoliciesClassifyAsVerdictRejected) {
  // A worker that completes the exchange but fails verification is a
  // protocol verdict, not a transport failure: the distinction is what lets
  // pools evict flaky transports without misclassifying cheaters (and vice
  // versa).
  for (const Scheme scheme : {Scheme::kRPoLv1, Scheme::kRPoLv2}) {
    ReplayPolicy replay;
    const SessionOutcome r = run(scheme, replay);
    EXPECT_FALSE(r.accepted) << scheme_name(scheme);
    EXPECT_EQ(r.status, SessionStatus::kVerdictRejected) << scheme_name(scheme);
    SpoofPolicy spoof(0.1, 0.5);
    const SessionOutcome s = run(scheme, spoof);
    EXPECT_FALSE(s.accepted) << scheme_name(scheme);
    EXPECT_EQ(s.status, SessionStatus::kVerdictRejected) << scheme_name(scheme);
  }
}

TEST_F(SessionFixture, StatusAndAcceptedAreCoherent) {
  // accepted is exactly (status == kAccepted) — redundant storage, but both
  // fields are public API, so their coherence is an invariant.
  HonestPolicy honest;
  SpoofPolicy spoof(0.1, 0.5);
  for (const Scheme scheme : {Scheme::kRPoLv1, Scheme::kRPoLv2}) {
    for (WorkerPolicy* policy :
         std::initializer_list<WorkerPolicy*>{&honest, &spoof}) {
      const SessionOutcome outcome = run(scheme, *policy);
      EXPECT_EQ(outcome.accepted, outcome.status == SessionStatus::kAccepted)
          << scheme_name(scheme);
    }
  }
}

TEST_F(SessionFixture, InvalidRetryPolicyRejected) {
  HonestPolicy honest;
  SessionConfig cfg = config(Scheme::kRPoLv1);
  cfg.retry.max_attempts = 0;
  EXPECT_THROW(
      run_protocol_session(task.factory, task.hp, cfg, global, 505, view,
                           honest, sim::device_ga10(), 3, sim::device_g3090(),
                           4),
      std::invalid_argument);
}

TEST_F(SessionFixture, ZeroChunkSizeRejected) {
  // Every state crosses as digest-checked chunks; a chunk holds >= 1 byte.
  HonestPolicy honest;
  SessionConfig cfg = config(Scheme::kRPoLv2);
  cfg.chunk_bytes = 0;
  EXPECT_THROW(
      run_protocol_session(task.factory, task.hp, cfg, global, 505, view,
                           honest, sim::device_ga10(), 3, sim::device_g3090(),
                           4),
      std::invalid_argument);
}

TEST_F(SessionFixture, NoSamplesRejectedBeforeTraining) {
  // With q < 1 no sample could fail, so every worker would pass: the
  // session refuses the config before the worker trains.
  struct CountingPolicy : HonestPolicy {
    int trained = 0;
    EpochTrace produce_trace(StepExecutor& executor,
                             const EpochContext& context,
                             sim::DeviceExecution& device) override {
      ++trained;
      return HonestPolicy::produce_trace(executor, context, device);
    }
  };
  CountingPolicy policy;
  for (const std::int64_t q : {0, -1}) {
    SessionConfig cfg = config(Scheme::kRPoLv1);
    cfg.samples_q = q;
    EXPECT_THROW(
        run_protocol_session(task.factory, task.hp, cfg, global, 505, view,
                             policy, sim::device_ga10(), 3, sim::device_g3090(),
                             4),
        std::invalid_argument)
        << "q=" << q;
  }
  EXPECT_EQ(policy.trained, 0);
}

// ---------------------------------------------------------------------------
// What a session counts: one verdict for each session that reaches one, one
// `verify.double_check` for each double-check its outcome reports (one whose
// exchange then fails included), and one `verify.reject.<reason>` for each
// rejection.

struct VerdictCounters {
  std::uint64_t verdicts = 0;  // verify.accept + verify.reject
  std::uint64_t double_checks = 0;
  std::vector<std::uint64_t> reasons;  // verify.reject.<reason>, by failure

  static VerdictCounters read() {
    VerdictCounters c;
    c.verdicts = obs::counter("verify.accept").value() +
                 obs::counter("verify.reject").value();
    c.double_checks = obs::counter("verify.double_check").value();
    for (int f = static_cast<int>(VerifyFailure::kMalformed);
         f <= static_cast<int>(VerifyFailure::kNonFinite); ++f) {
      c.reasons.push_back(
          obs::counter(std::string("verify.reject.") +
                       verify_failure_name(static_cast<VerifyFailure>(f)))
              .value());
    }
    return c;
  }
};

TEST_F(SessionFixture, CountersMatchEveryOutcome) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  int rejections = 0;
  int failed_after_double_check = 0;
  for (const Scheme scheme : {Scheme::kRPoLv1, Scheme::kRPoLv2}) {
    SessionConfig cfg = config(scheme);
    // The verdict goldens' tight family: honest replays miss it, so every
    // RPoLv2 sample takes the double-check.
    if (cfg.lsh.has_value()) cfg.lsh->params = lsh::LshParams{1e-6, 2, 2};
    cfg.retry.max_attempts = 2;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      fault::FaultPlan plan;
      plan.seed = seed;
      plan.profile(static_cast<int>(MessageType::kProofRequest)).drop = 0.5;
      plan.profile(static_cast<int>(MessageType::kProofResponse)).drop = 0.5;
      cfg.fault_plan = &plan;
      HonestPolicy honest;
      ReplayPolicy replay;
      SpoofPolicy spoof(0.1, 0.5);
      for (WorkerPolicy* policy :
           std::initializer_list<WorkerPolicy*>{&honest, &replay, &spoof}) {
        const VerdictCounters before = VerdictCounters::read();
        const SessionOutcome outcome = run_protocol_session(
            task.factory, task.hp, cfg, global, /*nonce=*/505, view, *policy,
            sim::device_ga10(), /*worker_run_seed=*/3, sim::device_g3090(),
            /*manager_run_seed=*/4);
        const VerdictCounters after = VerdictCounters::read();
        const std::string where = std::string(scheme_name(scheme)) +
                                  " seed " + std::to_string(seed) + " " +
                                  session_status_name(outcome.status);

        const bool rejected =
            outcome.status == SessionStatus::kVerdictRejected;
        const bool decided =
            rejected || outcome.status == SessionStatus::kAccepted;
        EXPECT_EQ(after.verdicts - before.verdicts, decided ? 1u : 0u)
            << where;
        EXPECT_EQ(after.double_checks - before.double_checks,
                  static_cast<std::uint64_t>(outcome.double_checks))
            << where;
        std::uint64_t reasons_raised = 0;
        for (std::size_t f = 0; f < after.reasons.size(); ++f) {
          reasons_raised += after.reasons[f] - before.reasons[f];
        }
        EXPECT_EQ(reasons_raised, rejected ? 1u : 0u) << where;
        rejections += rejected ? 1 : 0;
        failed_after_double_check +=
            !decided && outcome.double_checks > 0 ? 1 : 0;
      }
    }
  }
  obs::set_enabled(was_enabled);
  // The sweep reaches both kinds of session the counters could miss.
  EXPECT_GT(rejections, 0);
  EXPECT_GT(failed_after_double_check, 0);
}

}  // namespace
}  // namespace rpol::core
