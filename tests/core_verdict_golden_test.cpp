// Verdict goldens: every field of every verdict path, pinned as SHA-256
// digests of order-sensitive transcripts.
//
// The determinism suites compare two configurations of the same code, so a
// change that moved every verdict the same way would still pass them. The
// constants below were recorded from the four separate verdict
// implementations (list, Merkle, wire session, committee) before they were
// merged behind one transition judge, and the merged code reproduced them
// bit for bit.
//
// Each Verifier golden and the committee golden also pin a decision
// transcript: the verdict, its reason and every check through the first
// failed one. A change that moves a decision or session transcript changes
// what the protocol decides, not just how it is coded. When every path
// began to stop at its first failed sample, the full Verifier and committee
// transcripts were re-recorded, as a rejection now holds fewer checks,
// re-executed steps and proof bytes; the decision transcripts, recorded
// before that change, did not move.
//
// Covered:
//   * Verifier::verify and Verifier::verify_compact, RPoLv1 and RPoLv2,
//     from an EpochTrace and from a CheckpointStore (both sources must give
//     the same transcript), for honest, replay, spoof and fabrication
//     workers and a wrong initial hash, under two sampling seeds;
//   * run_protocol_session, RPoLv1 and RPoLv2, for honest, replay and spoof
//     workers and each fault::Byzantine script, lossless and under a seeded
//     drop/corrupt/truncate plan, one transcript per chunk size;
//   * DecentralizedVerifier votes and verdicts for an honest and a spoofed
//     trace, with one colluding and one slandering committee member.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>

#include "core/ckptstore.h"
#include "core/decentralized.h"
#include "core/session.h"
#include "obs/obs.h"
#include "task_fixture.h"

namespace rpol::core {
namespace {

using rpol::testing::TinyTask;

// Order-sensitive transcript of verdict fields; doubles enter by their bits.
class Transcript {
 public:
  void u64(std::uint64_t v) { append_u64(bytes_, v); }
  void i64(std::int64_t v) { append_i64(bytes_, v); }
  void flag(bool v) { bytes_.push_back(v ? 1 : 0); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void digest(const Digest& d) { bytes_.insert(bytes_.end(), d.begin(), d.end()); }
  std::string hex() const { return digest_to_hex(sha256(bytes_)); }

 private:
  Bytes bytes_;
};

void add_result(Transcript& t, const VerifyResult& r) {
  t.flag(r.accepted);
  t.i64(static_cast<std::int64_t>(r.failure));
  t.u64(r.checks.size());
  for (const TransitionCheck& c : r.checks) {
    t.i64(c.transition);
    // Where a retired hash_ok flag, always this expression, sat.
    t.flag(c.failure != VerifyFailure::kHashMismatch);
    t.flag(c.lsh_matched);
    t.flag(c.double_checked);
    t.f64(c.distance);
    t.flag(c.passed);
  }
  t.u64(r.proof_bytes);
  t.i64(r.reexecuted_steps);
  // Hashed twice: the first lands where a retired LSH-miss count, always
  // equal to it, sat when the digests were recorded.
  t.i64(r.double_checks);
  t.i64(r.double_checks);
}

// The decision alone: the verdict, its reason and every check through the
// first failed one, which decides a rejection.
void add_decision(Transcript& t, const VerifyResult& r) {
  t.flag(r.accepted);
  t.i64(static_cast<std::int64_t>(r.failure));
  const auto failed = std::ranges::find_if(
      r.checks, [](const TransitionCheck& c) { return !c.passed; });
  const auto end = failed == r.checks.end() ? failed : failed + 1;
  t.i64(end - r.checks.begin());
  for (auto c = r.checks.begin(); c != end; ++c) {
    t.i64(c->transition);
    t.flag(c->lsh_matched);
    t.flag(c->double_checked);
    t.f64(c->distance);
    t.flag(c->passed);
    t.i64(static_cast<std::int64_t>(c->failure));
  }
}

// A committee sample passes on a strict majority of its votes.
bool majority_passes(const std::vector<VerifierVote>& votes) {
  const auto passes = std::ranges::count_if(
      votes, [](const VerifierVote& v) { return v.pass; });
  return 2 * passes > std::ssize(votes);
}

template <std::size_t N>
void add_array(Transcript& t, const std::array<std::uint64_t, N>& values) {
  for (const std::uint64_t v : values) t.u64(v);
}

void add_outcome(Transcript& t, const SessionOutcome& o) {
  t.flag(o.accepted);
  t.i64(static_cast<std::int64_t>(o.status));
  add_array(t, o.bytes_by_type);
  add_array(t, o.retries_by_type);
  t.i64(o.total_retries);
  t.i64(o.backoff_ticks);
  t.i64(o.double_checks);
  Bytes model;
  for (const float v : o.final_model) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    append_u64(model, bits);
  }
  t.digest(sha256(model));
}

constexpr double kBeta = 2e-3;

struct VerifierGolden {
  bool compact;
  bool use_lsh;
  bool tight;  // see VerdictGoldenFixture::lsh_config
  const char* hex;
  const char* decision_hex;  // add_decision over the same results
};

// SessionConfig's default: each state crosses as one chunk.
constexpr std::size_t kOneChunk = std::numeric_limits<std::size_t>::max();

struct SessionGolden {
  Scheme scheme;
  bool tight;  // see VerdictGoldenFixture::lsh_config
  std::size_t chunk_bytes;
  const char* hex;
};

struct VerdictGoldenFixture : public ::testing::Test {
  void SetUp() override {
    task = TinyTask::make(/*seed=*/131, /*steps=*/12, /*interval=*/3);
    view = data::DatasetView::whole(task.dataset);
    context = task.context(/*nonce=*/505, view);
    StepExecutor probe(task.factory, task.hp);
    mask = probe.trainable_mask();
    dim = static_cast<std::int64_t>(
        extract_trainable(context.initial.model, mask).size());
  }

  // The LSH family tuned to beta, or a `tight` one whose buckets are far
  // narrower than honest reproduction error, so honest transitions miss it
  // and take the double-check.
  lsh::LshConfig lsh_config(bool tight) const {
    lsh::LshConfig cfg;
    cfg.params = tight ? lsh::LshParams{1e-6, 2, 2}
                       : lsh::optimize_lsh(kBeta / 5.0, kBeta, 16).params;
    cfg.dim = dim;
    cfg.seed = 44;
    return cfg;
  }

  // The four worker behaviours every verifier path is pinned on.
  std::vector<std::unique_ptr<WorkerPolicy>> workers() const {
    std::vector<std::unique_ptr<WorkerPolicy>> out;
    out.push_back(std::make_unique<HonestPolicy>());
    out.push_back(std::make_unique<ReplayPolicy>());
    out.push_back(std::make_unique<SpoofPolicy>(0.5, 0.5));
    out.push_back(std::make_unique<FabricationPolicy>());
    return out;
  }

  EpochTrace produce(WorkerPolicy& policy, std::uint64_t run_seed) const {
    StepExecutor exec(task.factory, task.hp);
    sim::DeviceExecution device(sim::device_ga10(), run_seed);
    return policy.produce_trace(exec, context, device);
  }

  // RPoLv2 when `family` is set: the verifier borrows the commitment's.
  VerifierConfig verifier_config(const lsh::PStableLsh* family,
                                 std::uint64_t sampling_seed) const {
    VerifierConfig cfg;
    cfg.samples_q = 2;
    cfg.beta = kBeta;
    cfg.lsh_family = family;
    cfg.sampling_seed = sampling_seed;
    return cfg;
  }

  // Every pinned Verifier case of `g`: each worker, then an honest worker
  // with a wrong initial hash, under two sampling seeds. Each result is
  // handed to `visit`, from the trace and then from a CheckpointStore.
  void run_verifier_cases(
      const VerifierGolden& g,
      const std::function<void(const VerifyResult&, bool from_store)>& visit)
      const {
    const Digest initial_hash = hash_state(context.initial);
    const Digest wrong_initial =
        sha256(std::string("not the distributed state"));
    struct Case {
      EpochTrace trace;
      Digest expected_initial;
    };
    std::vector<Case> cases;
    std::uint64_t run_seed = 3;
    for (const auto& policy : workers()) {
      cases.push_back({produce(*policy, run_seed++), initial_hash});
    }
    HonestPolicy honest;
    cases.push_back({produce(honest, run_seed), wrong_initial});

    const lsh::PStableLsh hasher(lsh_config(g.tight));
    for (const Case& c : cases) {
      const Commitment full =
          g.use_lsh ? commit_v2(c.trace, hasher, &mask) : commit_v1(c.trace);
      const CompactCommitment compact = compact_commitment(full);
      CheckpointStore store;
      for (const TrainState& state : c.trace.checkpoints) store.append(state);

      for (const std::uint64_t sampling_seed : {42ULL, 7ULL}) {
        for (const bool from_store : {false, true}) {
          Verifier verifier(
              task.factory, task.hp,
              verifier_config(g.use_lsh ? &hasher : nullptr, sampling_seed));
          sim::DeviceExecution manager(sim::device_g3090(), 1234);
          VerifyResult r;
          if (g.compact && from_store) {
            r = verifier.verify_compact(compact, full, store, c.trace.step_of,
                                        context, c.expected_initial, manager);
          } else if (g.compact) {
            r = verifier.verify_compact(compact, full, c.trace, context,
                                        c.expected_initial, manager);
          } else if (from_store) {
            r = verifier.verify(full, store, c.trace.step_of, context,
                                c.expected_initial, manager);
          } else {
            r = verifier.verify(full, c.trace, context, c.expected_initial,
                                manager);
          }
          visit(r, from_store);
        }
      }
    }
  }

  // Every pinned session of `g`, lossless and then under a seeded
  // drop/corrupt/truncate plan: the worker policies with an honest
  // transport, then an honest policy under each scripted byzantine
  // behaviour. Each outcome is handed to `visit`.
  void run_sessions(const SessionGolden& g,
                    const std::function<void(const SessionOutcome&)>& visit)
      const {
    const fault::Byzantine scripts[] = {
        fault::Byzantine::kStaleCommitmentReplay,
        fault::Byzantine::kForgedCheckpointState,
        fault::Byzantine::kProofWithholding,
        fault::Byzantine::kOversizedPayload,
    };
    fault::FaultProfile lossy;
    lossy.drop = 0.05;
    lossy.corrupt = 0.05;
    lossy.truncate = 0.05;

    std::uint64_t plan_seed = 900;
    for (const bool faulty : {false, true}) {
      struct Peer {
        std::unique_ptr<WorkerPolicy> policy;
        fault::Byzantine script;
      };
      std::vector<Peer> peers;
      peers.push_back({std::make_unique<HonestPolicy>(), fault::Byzantine::kNone});
      peers.push_back({std::make_unique<ReplayPolicy>(), fault::Byzantine::kNone});
      peers.push_back(
          {std::make_unique<SpoofPolicy>(0.5, 0.5), fault::Byzantine::kNone});
      for (const fault::Byzantine script : scripts) {
        peers.push_back({std::make_unique<HonestPolicy>(), script});
      }

      for (Peer& peer : peers) {
        ++plan_seed;
        std::optional<fault::FaultPlan> plan;
        if (faulty) {
          plan = fault::FaultPlan::transport(lossy, plan_seed);
          plan->byzantine = peer.script;
        } else if (peer.script != fault::Byzantine::kNone) {
          plan = fault::FaultPlan::adversary(peer.script, plan_seed);
        }
        if (plan.has_value()) plan->oversized_payload_bytes = 2u << 20;

        SessionConfig cfg;
        cfg.scheme = g.scheme;
        cfg.samples_q = kSessionSamples;
        cfg.beta = kBeta;
        if (g.scheme == Scheme::kRPoLv2) cfg.lsh = lsh_config(g.tight);
        cfg.fault_plan = plan.has_value() ? &*plan : nullptr;
        cfg.retry.max_message_bytes = 1u << 20;
        cfg.chunk_bytes = g.chunk_bytes;

        visit(run_protocol_session(
            task.factory, task.hp, cfg, context.initial, /*nonce=*/505, view,
            *peer.policy, sim::device_ga10(), /*worker_seed=*/3,
            sim::device_g3090(), /*manager_seed=*/4));
      }
    }
  }

  // The committee, one colluding and one slandering member of five, on an
  // honest and then a spoofed trace; each result is handed to `visit`.
  void run_committee(
      const std::function<void(const DecentralizedResult&)>& visit) const {
    std::vector<VerifierNode> nodes;
    const auto devices = sim::all_devices();
    for (int i = 0; i < 5; ++i) {
      VerifierNode node;
      if (i == 0) node.behavior = VerifierBehavior::kColludeAccept;
      if (i == 1) node.behavior = VerifierBehavior::kSlandererReject;
      node.device = devices[static_cast<std::size_t>(i) % devices.size()];
      node.run_seed = static_cast<std::uint64_t>(100 + i);
      nodes.push_back(node);
    }
    DecentralizedConfig cfg;
    cfg.samples_q = 3;
    cfg.verifiers_per_sample = 3;
    cfg.beta = kBeta;

    HonestPolicy honest;
    SpoofPolicy spoof(0.25, 0.5);
    std::uint64_t run_seed = 11;
    for (WorkerPolicy* policy : {static_cast<WorkerPolicy*>(&honest),
                                 static_cast<WorkerPolicy*>(&spoof)}) {
      const EpochTrace trace = produce(*policy, run_seed++);
      DecentralizedVerifier committee(task.factory, task.hp, cfg);
      visit(committee.verify(commit_v1(trace), trace, context,
                             hash_state(context.initial), nodes));
    }
  }

  static constexpr std::int64_t kSessionSamples = 3;

  TinyTask task{TinyTask::make()};
  data::DatasetView view;
  EpochContext context;
  std::vector<bool> mask;
  std::int64_t dim = 0;
};

// ---------------------------------------------------------------------------
// Verifier: list and Merkle commitments, v1 and v2, trace and store sources.

constexpr VerifierGolden kVerifierGoldens[] = {
    {false, false, false,
     "82ada49f7e2aadedc4c56ab9079cedd1a126d5014152692407d08c32177558fb",
     "2da3b05a34b6994fd449e83db323e872cfe9b4c5fbbb26ad2dff8996f45466b4"},
    {false, true, false,
     "ba0a94781eea11cb2e8a661d4b8587d388bbd7d2f3740ebfcf86f0d8c0623858",
     "08c03fa0c7d0fe678bd086a530481cf4467cf71fdbd048658e2eba1fbab963f3"},
    {false, true, true,
     "a6577b14022a8e1524a51692fcae9e1c3679b9858470071b8e891a418c424e8b",
     "f3a784fbb4a0e12f8ce351998e018b4a98d3df071accfe5149f5c4b21fbb6edc"},
    {true, false, false,
     "e4cfe12983a83540f93a7ee6d5a2cb657d8454db8967d1011907f260683f6d35",
     "cbb6a644593c593c4881ffa449dbff186e6e322006699d9115bc9ff76d9c36bb"},
    {true, true, false,
     "629bfce95e33d2e3c66a1084aaa245f028b4939b37e3dfc9c5cbc9b6028ef73a",
     "98de3c5f164010cb1120244d0f6f4e9a7731c60c7e8855c3a4475f236925ea73"},
    {true, true, true,
     "19aab4c7308055443f93df532c18b6be35369c2265963ff49a249f1df54fba1f",
     "58bb386d4472612f9190303fcbea89e0971bdfdaf98519e3887ead243b89c3fa"},
};

TEST_F(VerdictGoldenFixture, VerifierResultsMatchGoldens) {
  for (const VerifierGolden& g : kVerifierGoldens) {
    // Both sources must give the same transcripts.
    Transcript full[2], decision[2];
    run_verifier_cases(g, [&](const VerifyResult& r, bool from_store) {
      add_result(full[from_store], r);
      add_decision(decision[from_store], r);
    });
    for (const bool from_store : {false, true}) {
      EXPECT_EQ(full[from_store].hex(), g.hex)
          << "store=" << from_store << " compact=" << g.compact
          << " use_lsh=" << g.use_lsh << " tight=" << g.tight;
      EXPECT_EQ(decision[from_store].hex(), g.decision_hex)
          << "decision, store=" << from_store << " compact=" << g.compact
          << " use_lsh=" << g.use_lsh << " tight=" << g.tight;
    }
  }
}

// ---------------------------------------------------------------------------
// Wire sessions: every peer, lossless and faulty, at each chunk size. Each
// chunk size is its own transcript and draws the same plan seeds, so a
// transcript does not depend on which other sizes are pinned.

constexpr SessionGolden kSessionGoldens[] = {
    {Scheme::kRPoLv1, false, 512,
     "99a4b51ba5ad0e5b24ce7143d685e5cc8f94acb15fb0314a8a0e73944d128c89"},
    {Scheme::kRPoLv1, false, kOneChunk,
     "a0a10d108497736bf1c5f5620574e8c9bd712315a65450bd7b498b175fbebf2b"},
    {Scheme::kRPoLv2, false, 512,
     "12f6423cc86cb40233384509e8867ae7ca59298f736c8dd00547cc56d39c0216"},
    {Scheme::kRPoLv2, false, kOneChunk,
     "629c6172aeab08b1c8753648560ac1b914a9de917c211ff42a62238f26596e79"},
    {Scheme::kRPoLv2, true, 512,
     "adba67ceb3f4957ab8df868d0289e66db0adaa8c715091fccfcc06312b5690da"},
    {Scheme::kRPoLv2, true, kOneChunk,
     "f3129a82633c969028d5aeaed9c05de0ab79e1d5bb3959a5ca8065bf39a634f5"},
};

TEST_F(VerdictGoldenFixture, SessionOutcomesMatchGoldens) {
  for (const SessionGolden& g : kSessionGoldens) {
    Transcript t;
    run_sessions(g, [&](const SessionOutcome& o) { add_outcome(t, o); });
    EXPECT_EQ(t.hex(), g.hex) << scheme_name(g.scheme) << " tight=" << g.tight
                              << " chunk_bytes=" << g.chunk_bytes;
  }
}

// ---------------------------------------------------------------------------
// Committee: votes and verdicts with one colluding and one slandering member.

constexpr const char* kCommitteeGolden =
    "6773e58a477b720bbf08a732bfa82d6b303b15b1b06678d21976a3ba2116be77";
// The verdict and each sample's votes through the first failed majority.
constexpr const char* kCommitteeDecisionGolden =
    "4c3c43f547af331133a23756297820ebcd6c2b27022f20e7f562cbf0d7b4b36d";

TEST_F(VerdictGoldenFixture, CommitteeVotesMatchGolden) {
  Transcript t, decision;
  run_committee([&](const DecentralizedResult& r) {
    t.flag(r.accepted);
    t.u64(r.samples.size());
    for (const std::int64_t j : r.samples) t.i64(j);
    for (const auto& votes : r.votes) {
      t.u64(votes.size());
      for (const VerifierVote& v : votes) {
        t.u64(v.verifier);
        t.flag(v.pass);
        t.f64(v.distance);
      }
    }
    t.i64(r.total_reexecuted_steps);
    t.i64(r.critical_path_steps);

    decision.flag(r.accepted);
    for (std::size_t s = 0; s < r.votes.size(); ++s) {
      decision.i64(r.samples[s]);
      for (const VerifierVote& v : r.votes[s]) {
        decision.u64(v.verifier);
        decision.flag(v.pass);
        decision.f64(v.distance);
      }
      if (!majority_passes(r.votes[s])) break;
    }
  });
  EXPECT_EQ(t.hex(), kCommitteeGolden);
  EXPECT_EQ(decision.hex(), kCommitteeDecisionGolden);
}

// ---------------------------------------------------------------------------
// One stop rule: on every path a rejection ends at the check that decides
// it, and nothing is re-executed past it.

TEST_F(VerdictGoldenFixture, RejectionsEndAtTheirDecidingCheck) {
  const std::vector<std::int64_t> step_of = task.hp.checkpoint_boundaries();
  int sampled_rejections = 0;
  for (const VerifierGolden& g : kVerifierGoldens) {
    run_verifier_cases(g, [&](const VerifyResult& r, bool from_store) {
      SCOPED_TRACE(::testing::Message()
                   << "store=" << from_store << " compact=" << g.compact
                   << " use_lsh=" << g.use_lsh << " tight=" << g.tight);
      EXPECT_EQ(r.accepted, r.failure == VerifyFailure::kNone);
      std::int64_t checked_steps = 0;
      for (const TransitionCheck& c : r.checks) {
        const auto j = static_cast<std::size_t>(c.transition);
        checked_steps += step_of[j + 1] - step_of[j];
      }
      EXPECT_LE(r.reexecuted_steps, checked_steps);
      if (r.accepted || r.checks.empty()) return;
      ++sampled_rejections;
      const auto failed = std::ranges::count_if(
          r.checks, [](const TransitionCheck& c) { return !c.passed; });
      EXPECT_EQ(failed, 1);
      EXPECT_FALSE(r.checks.back().passed);
      EXPECT_EQ(r.failure, r.checks.back().failure);
    });
  }
  EXPECT_GT(sampled_rejections, 0);

  // A session's checks are seen through its "reexecute" spans: sample
  // order, and every sample when accepted. Its verdict is counted once.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Registry& registry = obs::Registry::instance();
  for (const SessionGolden& g : kSessionGoldens) {
    registry.reset();
    run_sessions(g, [&](const SessionOutcome& o) {
      SCOPED_TRACE(::testing::Message()
                   << scheme_name(g.scheme) << " tight=" << g.tight
                   << " chunk_bytes=" << g.chunk_bytes << " "
                   << session_status_name(o.status));
      std::vector<std::int64_t> reexecuted;
      for (const obs::SpanRecord& span : registry.spans()) {
        if (span.name != "reexecute") continue;
        for (const obs::SpanAttr& a : span.attrs) {
          if (a.key == "transition") reexecuted.push_back(std::stoll(a.value));
        }
      }
      const std::uint64_t accepts = obs::counter("verify.accept").value();
      const std::uint64_t rejects = obs::counter("verify.reject").value();
      registry.reset();
      EXPECT_EQ(o.accepted, o.status == SessionStatus::kAccepted);
      EXPECT_EQ(accepts, o.accepted ? 1u : 0u);
      EXPECT_EQ(rejects,
                o.status == SessionStatus::kVerdictRejected ? 1u : 0u);
      EXPECT_TRUE(std::ranges::adjacent_find(
                      reexecuted, std::greater_equal<>()) == reexecuted.end());
      EXPECT_LE(std::ssize(reexecuted), kSessionSamples);
      if (o.accepted) {
        EXPECT_EQ(std::ssize(reexecuted), kSessionSamples);
      }
    });
  }
  obs::set_enabled(was_enabled);

  int committee_rejections = 0;
  run_committee([&](const DecentralizedResult& r) {
    ASSERT_EQ(r.votes.size(), r.samples.size());
    for (std::size_t s = 0; s < r.votes.size(); ++s) {
      const bool deciding = !r.accepted && s + 1 == r.votes.size();
      EXPECT_EQ(majority_passes(r.votes[s]), !deciding) << "sample " << s;
    }
    committee_rejections += r.accepted ? 0 : 1;
  });
  EXPECT_EQ(committee_rejections, 1);
}

}  // namespace
}  // namespace rpol::core
