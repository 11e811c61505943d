// Verdict goldens: every field of every verdict path, pinned as SHA-256
// digests of order-sensitive transcripts.
//
// The determinism suites compare two configurations of the same code, so a
// change that moved every verdict the same way would still pass them. The
// constants below were recorded from the four separate verdict
// implementations (list, Merkle, wire session, committee) before they were
// merged behind one transition judge; the merged code must reproduce them
// bit for bit. A change that moves one of them changes what the protocol
// decides, not just how it is coded.
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

#include <cstring>
#include <limits>
#include <memory>

#include "core/ckptstore.h"
#include "core/decentralized.h"
#include "core/session.h"
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
    t.flag(c.hash_ok);
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

  TinyTask task{TinyTask::make()};
  data::DatasetView view;
  EpochContext context;
  std::vector<bool> mask;
  std::int64_t dim = 0;
};

// ---------------------------------------------------------------------------
// Verifier: list and Merkle commitments, v1 and v2, trace and store sources.

struct VerifierGolden {
  bool compact;
  bool use_lsh;
  bool tight;  // see VerdictGoldenFixture::lsh_config
  const char* hex;
};

constexpr VerifierGolden kVerifierGoldens[] = {
    {false, false, false,
     "35e072045339009046f8a8fcb467ff574e23e0bf36940bb6cca7d47766207607"},
    {false, true, false,
     "ce039a9eb60e2e005056ff5d0e098dd0b9f96bc59d31c0eccf11ef320c433850"},
    {false, true, true,
     "1ed9c597f2967e598a74ad21f7a08aa366ab842145f910b8c9218655a69af307"},
    {true, false, false,
     "36cef217605dbb2e0f8fa47dcb58771a41e22df44a49b159c0174fa914ac1c7e"},
    {true, true, false,
     "a90059a4ee4fb1b4e11251d22d930fa125401e9b4ffaa9e2074d534cb3705238"},
    {true, true, true,
     "7479abf4dec62c50f94243c9b7996356f866dadbb26854de73505a3e0ec903a0"},
};

TEST_F(VerdictGoldenFixture, VerifierResultsMatchGoldens) {
  const Digest initial_hash = hash_state(context.initial);
  const Digest wrong_initial = sha256(std::string("not the distributed state"));
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

  for (const VerifierGolden& g : kVerifierGoldens) {
    const lsh::PStableLsh hasher(lsh_config(g.tight));
    Transcript via_trace, via_store;
    for (const Case& c : cases) {
      const Commitment full =
          g.use_lsh ? commit_v2(c.trace, hasher, &mask) : commit_v1(c.trace);
      const CompactCommitment compact = compact_commitment(full);
      CheckpointStore store;
      for (const TrainState& state : c.trace.checkpoints) store.append(state);

      for (const std::uint64_t sampling_seed : {42ULL, 7ULL}) {
        const auto run = [&](Transcript& t, bool from_store) {
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
          add_result(t, r);
        };
        run(via_trace, /*from_store=*/false);
        run(via_store, /*from_store=*/true);
      }
    }
    EXPECT_EQ(via_trace.hex(), g.hex) << "compact=" << g.compact
                                      << " use_lsh=" << g.use_lsh
                                      << " tight=" << g.tight;
    EXPECT_EQ(via_store.hex(), g.hex) << "store, compact=" << g.compact
                                      << " use_lsh=" << g.use_lsh
                                      << " tight=" << g.tight;
  }
}

// ---------------------------------------------------------------------------
// Wire sessions: every peer, lossless and faulty, at each chunk size. Each
// chunk size is its own transcript and draws the same plan seeds, so a
// transcript does not depend on which other sizes are pinned.

// SessionConfig's default: each state crosses as one chunk.
constexpr std::size_t kOneChunk = std::numeric_limits<std::size_t>::max();

struct SessionGolden {
  Scheme scheme;
  bool tight;  // see VerdictGoldenFixture::lsh_config
  std::size_t chunk_bytes;
  const char* hex;
};

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

  for (const SessionGolden& g : kSessionGoldens) {
    Transcript t;
    std::uint64_t plan_seed = 900;
    for (const bool faulty : {false, true}) {
      // Peers: the worker policies with an honest transport, then an honest
      // policy under each scripted byzantine behaviour.
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
        cfg.samples_q = 3;
        cfg.beta = kBeta;
        if (g.scheme == Scheme::kRPoLv2) cfg.lsh = lsh_config(g.tight);
        cfg.fault_plan = plan.has_value() ? &*plan : nullptr;
        cfg.retry.max_message_bytes = 1u << 20;
        cfg.chunk_bytes = g.chunk_bytes;

        const SessionOutcome outcome = run_protocol_session(
            task.factory, task.hp, cfg, context.initial, /*nonce=*/505, view,
            *peer.policy, sim::device_ga10(), /*worker_seed=*/3,
            sim::device_g3090(), /*manager_seed=*/4);
        add_outcome(t, outcome);
      }
    }
    EXPECT_EQ(t.hex(), g.hex) << scheme_name(g.scheme) << " tight=" << g.tight
                              << " chunk_bytes=" << g.chunk_bytes;
  }
}

// ---------------------------------------------------------------------------
// Committee: votes and verdicts with one colluding and one slandering member.

constexpr const char* kCommitteeGolden =
    "9dd7e653a5b0e9ec49a28ae58c892bd7f63342bca8cddec6e2a1308fc1de95c7";

TEST_F(VerdictGoldenFixture, CommitteeVotesMatchGolden) {
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
  Transcript t;
  std::uint64_t run_seed = 11;
  for (WorkerPolicy* policy : {static_cast<WorkerPolicy*>(&honest),
                               static_cast<WorkerPolicy*>(&spoof)}) {
    const EpochTrace trace = produce(*policy, run_seed++);
    DecentralizedVerifier committee(task.factory, task.hp, cfg);
    const DecentralizedResult r =
        committee.verify(commit_v1(trace), trace, context,
                         hash_state(context.initial), nodes);
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
  }
  EXPECT_EQ(t.hex(), kCommitteeGolden);
}

}  // namespace
}  // namespace rpol::core
