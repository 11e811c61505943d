#include "core/session.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>

#include "obs/mem.h"
#include "obs/obs.h"

namespace rpol::core {

const char* message_type_name(MessageType type) {
  switch (type) {
    case MessageType::kAnnouncement: return "announcement";
    case MessageType::kGlobalState: return "state";
    case MessageType::kCommitment: return "commitment";
    case MessageType::kUpdate: return "update";
    case MessageType::kProofRequest: return "proof_request";
    case MessageType::kProofResponse: return "proof_response";
  }
  return "unknown";
}

static_assert(kNumMessageTypes <= fault::kMaxMessageTypes,
              "fault plans must be able to profile every message type");

namespace {

void mirror_to_registry(MessageType type, std::uint64_t bytes) {
  if (!obs::enabled()) return;
  obs::counter(std::string("bytes.") + message_type_name(type)).add(bytes);
}

// One message exchange under the session's retry state machine: transmit
// through the (possibly faulty) channel, decode-and-validate on the
// receiving side, retry with exponential backoff on loss or mangling, and
// classify the failure when the budget runs out. `decode` must throw on any
// payload the receiver cannot accept; its return value is the exchange's
// result. `withheld` scripts a byzantine peer that never transmits at all
// (the sender's timeouts still burn the retry budget).
struct ExchangeDriver {
  fault::FaultyChannel<CountingChannel>& channel;
  const SessionConfig& config;
  SessionOutcome& outcome;
  bool failed = false;
  // Trace context of the sender of the last successfully decoded message:
  // what the receiving side's spans adopt as their remote parent.
  obs::TraceContext last_rx{};

  // `sender` is the transmitting span's trace context. It crosses by value,
  // beside the message and never inside it, so fault injection, size caps,
  // byte accounting and decoding see the same bytes whether or not a run is
  // traced (the determinism contract).
  template <typename DecodeFn>
  auto run(MessageType type, const Bytes& encoded, bool to_worker,
           DecodeFn&& decode, const obs::TraceContext& sender = {},
           bool withheld = false)
      -> std::optional<decltype(decode(encoded))> {
    const auto type_index = static_cast<std::size_t>(type);
    bool last_failure_was_decode = false;
    // The encoded message is buffered for the whole exchange (every retry
    // retransmits it); mangled receive copies are charged per attempt below.
    obs::MemScope wire_mem(obs::MemTag::kWire, encoded.size());
    for (int attempt = 0; attempt < config.retry.max_attempts; ++attempt) {
      if (attempt > 0) {
        ++outcome.retries_by_type[type_index];
        ++outcome.total_retries;
        // Saturating accumulate: per-retry waits can themselves sit at the
        // cap (fault::backoff_ticks saturates), so a long exchange under a
        // huge cap must not overflow the session total either.
        const std::int64_t wait =
            fault::backoff_ticks(config.retry, attempt - 1);
        outcome.backoff_ticks =
            outcome.backoff_ticks >
                    std::numeric_limits<std::int64_t>::max() - wait
                ? std::numeric_limits<std::int64_t>::max()
                : outcome.backoff_ticks + wait;
        obs::count("session.retry", 1);
      }
      if (withheld) {
        // The peer stays silent: nothing crosses the wire, the sender's
        // timer expires, and the retry loop spins down to a timeout.
        last_failure_was_decode = false;
        continue;
      }
      const fault::Delivery delivery =
          to_worker ? channel.send_to_worker(type, encoded)
                    : channel.send_to_manager(type, encoded);
      if (delivery.status != fault::DeliveryStatus::kDelivered) {
        last_failure_was_decode = false;
        continue;
      }
      // A clean delivery is `encoded` itself, decoded in place; only a
      // mangled copy is a receive-side buffer, live until this attempt
      // decodes or rejects.
      const Bytes& received = delivery.received(encoded);
      obs::MemScope rx_mem(obs::MemTag::kWire, delivery.mangled.size());
      if (received.size() > config.retry.max_message_bytes) {
        // Size cap enforced before parsing: a hostile peer cannot force
        // the receiver to buffer or decode unbounded payloads.
        obs::count("session.oversize_rejected", 1);
        last_failure_was_decode = true;
        continue;
      }
      try {
        auto result = decode(received);
        last_rx = sender;
        return result;
      } catch (const std::exception&) {
        obs::count("session.decode_reject", 1);
        last_failure_was_decode = true;
        continue;
      }
    }
    failed = true;
    outcome.status = last_failure_was_decode ? SessionStatus::kDecodeRejected
                                             : SessionStatus::kTimeout;
    obs::count(std::string("session.fail.") +
                   session_status_name(outcome.status),
               1);
    return std::nullopt;
  }
};

// Deterministic checkpoint mutation for the scripted byzantine behaviors;
// large enough that no honest threshold can absorb it.
void perturb_state(TrainState& state, float delta) {
  if (!state.model.empty()) state.model[0] += delta;
}

// Transfers one TrainState as a sequence of digest-checked chunks, each
// chunk a full exchange (timeout/retry/backoff, fault injection, byte
// accounting) under the logical `type`; it is the only way a session moves
// a state. A chunk whose payload does not match its digest NACKs and is
// retransmitted. `validate` (may be empty) runs once over the fully
// assembled state; a throw NACKs the final chunk, and since the assembler
// has already consumed that offset, the retransmits exhaust the budget into
// kDecodeRejected — a state that fails validation is never taken, so a torn
// or forged transfer cannot be accepted.
std::optional<TrainState> exchange_state_chunked(
    ExchangeDriver& exchange, MessageType type, const TrainState& state,
    bool to_worker, const SessionConfig& config,
    const std::function<void(const TrainState&)>& validate,
    const obs::TraceContext& sender) {
  ChunkedStateEncoder encoder(state, config.chunk_bytes);
  ChunkedStateAssembler assembler(config.max_state_bytes);
  const std::int64_t n = encoder.num_chunks();
  for (std::int64_t i = 0; i < n; ++i) {
    // Materialized per iteration: the sender's resident wire footprint is
    // one encoded chunk.
    const Bytes frame = encode_state_chunk(encoder.chunk(i));
    const auto ok = exchange.run(
        type, frame, to_worker,
        [&](const Bytes& b) {
          assembler.accept(decode_state_chunk(b));
          if (assembler.complete() && validate) validate(assembler.peek());
          return true;
        },
        sender);
    if (!ok.has_value()) return std::nullopt;
  }
  if (!assembler.complete()) {
    // Unreachable with the local encoder (chunk totals add up by
    // construction), kept as a typed failure rather than a crash.
    exchange.failed = true;
    exchange.outcome.status = SessionStatus::kDecodeRejected;
    return std::nullopt;
  }
  return assembler.take();
}

}  // namespace

void CountingChannel::count_to_worker(MessageType type, std::uint64_t bytes) {
  to_worker_ += bytes;
  by_type_[static_cast<std::size_t>(type)] += bytes;
  mirror_to_registry(type, bytes);
}

void CountingChannel::count_to_manager(MessageType type,
                                       std::uint64_t bytes) {
  to_manager_ += bytes;
  by_type_[static_cast<std::size_t>(type)] += bytes;
  mirror_to_registry(type, bytes);
}

SessionOutcome run_protocol_session(
    const nn::ModelFactory& factory, const Hyperparams& hp,
    const SessionConfig& config, const TrainState& global_state,
    std::uint64_t nonce, const data::DatasetView& worker_data,
    WorkerPolicy& policy, const sim::DeviceProfile& worker_device,
    std::uint64_t worker_run_seed, const sim::DeviceProfile& manager_device,
    std::uint64_t manager_run_seed) {
  if (config.scheme == Scheme::kBaseline) {
    throw std::invalid_argument("protocol session requires an RPoL scheme");
  }
  if (config.scheme == Scheme::kRPoLv2 && !config.lsh.has_value()) {
    throw std::invalid_argument("RPoLv2 session needs an LSH config");
  }
  if (config.retry.max_attempts < 1) {
    throw std::invalid_argument("retry budget needs >= 1 attempt");
  }
  if (config.chunk_bytes == 0) {
    throw std::invalid_argument("state chunks need >= 1 payload byte");
  }
  if (config.samples_q < 1) {
    throw std::invalid_argument("verification needs >= 1 sample");
  }

  obs::Span session_span("session", config.trace_parent);
  const bool use_lsh = config.scheme == Scheme::kRPoLv2;
  const std::vector<std::int64_t> step_of = hp.checkpoint_boundaries();
  CountingChannel counting;
  fault::FaultyChannel<CountingChannel> channel(counting, config.fault_plan);
  SessionOutcome outcome;
  ExchangeDriver exchange{channel, config, outcome};
  const fault::Byzantine byzantine =
      config.fault_plan ? config.fault_plan->byzantine
                        : fault::Byzantine::kNone;

  // Fills transport accounting before any return; keeps every exit path
  // consistent with the "typed bytes sum to the totals" invariant.
  const auto finish = [&](SessionOutcome&& out) {
    out.bytes_to_worker = counting.bytes_to_worker();
    out.bytes_to_manager = counting.bytes_to_manager();
    out.bytes_by_type = counting.bytes_by_type();
    if (const fault::FaultStats* stats = channel.stats()) out.faults = *stats;
    session_span.attr("status", session_status_name(out.status));
    session_span.attr("retries", out.total_retries);
    session_span.attr("backoff_ticks", out.backoff_ticks);
    return std::move(out);
  };

  // --- Manager -> worker: task announcement + global state. ---------------
  TaskAnnouncement announcement;
  announcement.nonce = nonce;
  announcement.hp = hp;
  announcement.initial_state_hash = hash_state(global_state);
  announcement.lsh = config.lsh;
  std::optional<TaskAnnouncement> worker_view;
  std::optional<TrainState> worker_initial;
  {
    obs::Span s("announce", session_span);
    worker_view = exchange.run(
        MessageType::kAnnouncement, encode_task_announcement(announcement),
        /*to_worker=*/true,
        [](const Bytes& b) { return decode_task_announcement(b); },
        s.context());
    if (!worker_view.has_value()) return finish(std::move(outcome));

    // Per-chunk digests catch transport corruption chunk by chunk; once the
    // stream assembles, the worker also checks it against the announced
    // hash. A mismatch NACKs the last chunk like any other decode failure.
    worker_initial = exchange_state_chunked(
        exchange, MessageType::kGlobalState, global_state, /*to_worker=*/true,
        config,
        [&](const TrainState& state) {
          if (!digest_equal(hash_state(state),
                            worker_view->initial_state_hash)) {
            throw std::runtime_error("state transfer corrupted");
          }
        },
        s.context());
    if (!worker_initial.has_value()) return finish(std::move(outcome));
  }

  // --- Worker side: decode, train, commit. --------------------------------
  StepExecutor worker_executor(factory, worker_view->hp);
  EpochContext ctx;
  ctx.nonce = worker_view->nonce;
  ctx.initial = std::move(*worker_initial);
  ctx.dataset = &worker_data;
  sim::DeviceExecution worker_gpu(worker_device, worker_run_seed);
  EpochTrace trace;
  Commitment commitment;
  Bytes commit_wire;
  std::optional<Commitment> manager_commitment;
  std::optional<TrainState> manager_update;
  {
    // The worker agent's spans hang off the context that arrived with the
    // announcement, stitching both sides of the wire into one causal tree.
    obs::Span worker_span("worker_epoch", exchange.last_rx, /*worker=*/0);
    {
      obs::Span s("train", worker_span, /*worker=*/0);
      trace = policy.produce_trace(worker_executor, ctx, worker_gpu);
      s.attr("storage_bytes", trace.storage_bytes());
    }

    // Scripted byzantine mutations of what the worker is about to commit.
    if (byzantine == fault::Byzantine::kStaleCommitmentReplay) {
      // Replay of a commitment built for an older global state: internally
      // consistent (hashes match its own checkpoints) but C_0 no longer
      // matches the state the manager distributed this epoch.
      for (auto& checkpoint : trace.checkpoints) {
        perturb_state(checkpoint, 0.5F);
      }
    }

    {
      obs::Span s("commit", worker_span, /*worker=*/0);
      bool fits_mask = true;
      if (use_lsh) {
        // The LSH family is freed before any wire buffer is built.
        const lsh::PStableLsh hasher(*worker_view->lsh);
        CommitmentBuilder builder(CommitmentVersion::kV2, &hasher,
                                  &worker_executor.trainable_mask());
        builder.add_checkpoints(trace.checkpoints);
        fits_mask = builder.fits_mask();
        if (fits_mask) commitment = builder.finish();
      } else {
        commitment = commit_v1(trace);
      }
      if (!fits_mask) {
        // No LSH leaf exists for a model that does not fit the trainable
        // mask, so the worker cannot commit: rejected like the RPoLv1 twin
        // whose short state the judge finds malformed, with nothing sent.
        record_verdict(VerifyFailure::kMalformed);
        outcome.status = SessionStatus::kVerdictRejected;
        return finish(std::move(outcome));
      }
      commit_wire = encode_commitment(commitment);
      if (byzantine == fault::Byzantine::kOversizedPayload) {
        commit_wire.assign(
            static_cast<std::size_t>(
                config.fault_plan->oversized_payload_bytes),
            0xEE);
      }
    }

    {
      obs::Span s("submit", worker_span, /*worker=*/0);
      // The manager's pre-check: a commitment of the wrong version or chain
      // length is refused at decode, like any other malformed payload.
      manager_commitment = exchange.run(
          MessageType::kCommitment, commit_wire, /*to_worker=*/false,
          [&](const Bytes& b) {
            Commitment c = decode_commitment(b);
            const auto n = static_cast<std::int64_t>(c.state_hashes.size());
            if (!commitment_fits_task(c.version, n, use_lsh, hp)) {
              throw std::invalid_argument("commitment does not fit the task");
            }
            return c;
          },
          s.context());
      if (!manager_commitment.has_value()) return finish(std::move(outcome));

      // The model update itself (final weights) travels with the commitment;
      // its chunk digests bind it in transit.
      TrainState update;
      update.model = trace.checkpoints.back().model;
      manager_update = exchange_state_chunked(
          exchange, MessageType::kUpdate, update, /*to_worker=*/false, config,
          /*validate=*/nullptr, s.context());
      if (!manager_update.has_value()) return finish(std::move(outcome));
    }
  }

  // Manager side: a received proof state must hash to its committed entry.
  const auto require_committed = [&](const TrainState& state,
                                     std::size_t index) {
    if (!digest_equal(hash_state(state),
                      manager_commitment->state_hashes[index])) {
      throw std::runtime_error("proof state does not match commitment");
    }
  };

  // Worker-side proof store: what proof responses are served from. A forger
  // keeps an honest commitment but answers requests with doctored states.
  const auto serve_checkpoint = [&](std::int64_t j) {
    TrainState state = trace.checkpoints[static_cast<std::size_t>(j)];
    if (byzantine == fault::Byzantine::kForgedCheckpointState) {
      perturb_state(state, 1.0e-2F);
    }
    return state;
  };
  const bool withholds_proofs =
      byzantine == fault::Byzantine::kProofWithholding;

  // --- Manager: sample post-commitment, request proofs. -------------------
  // Sampled over the agreed hp, which the commitment's length matched.
  ProofRequest request;
  request.transitions = sample_transitions(
      config.sampling_seed, manager_commitment->root,
      static_cast<std::int64_t>(step_of.size()) - 1, config.samples_q);
  std::optional<ProofResponse> manager_response;
  {
    obs::Span s("proof_exchange", session_span);
    const auto worker_request = exchange.run(
        MessageType::kProofRequest, encode_proof_request(request),
        /*to_worker=*/true,
        [&](const Bytes& b) {
          ProofRequest decoded = decode_proof_request(b);
          for (const auto j : decoded.transitions) {
            if (j < 0 || j >= trace.num_transitions()) {
              throw std::runtime_error("proof request out of range");
            }
          }
          return decoded;
        },
        s.context());
    if (!worker_request.has_value()) return finish(std::move(outcome));

    // --- Worker: answer the proof request (or withhold it). ---------------
    obs::Span serve_span("serve_proof", exchange.last_rx, /*worker=*/0);
    ProofResponse response;
    for (const auto j : worker_request->transitions) {
      response.input_states.push_back(serve_checkpoint(j));
      if (!use_lsh) response.output_states.push_back(serve_checkpoint(j + 1));
    }
    // The manager validates received proof states against the commitment at
    // decode time: transport corruption of a proof is indistinguishable from
    // any other mangled payload, so it NACKs and refetches instead of
    // blaming the worker. A peer that persistently serves states that do
    // not hash to its own commitment (forgery) exhausts the budget and is
    // rejected with kDecodeRejected.
    manager_response = exchange.run(
        MessageType::kProofResponse, encode_proof_response(response),
        /*to_worker=*/false,
        [&](const Bytes& b) {
          ProofResponse decoded = decode_proof_response(b);
          if (decoded.input_states.size() != request.transitions.size() ||
              decoded.output_states.size() !=
                  (use_lsh ? 0u : request.transitions.size())) {
            throw std::invalid_argument("proof response shape mismatch");
          }
          for (std::size_t s = 0; s < request.transitions.size(); ++s) {
            const auto j = static_cast<std::size_t>(request.transitions[s]);
            require_committed(decoded.input_states[s], j);
            if (!use_lsh) require_committed(decoded.output_states[s], j + 1);
          }
          return decoded;
        },
        serve_span.context(), withholds_proofs);
    if (!manager_response.has_value()) return finish(std::move(outcome));
  }

  // --- Manager: re-execute and decide. -------------------------------------
  obs::Span verify_span("verify", session_span, /*worker=*/0);
  const auto manager_hasher =
      use_lsh ? std::make_unique<lsh::PStableLsh>(*config.lsh) : nullptr;
  Verifier verifier(factory, hp,
                    {.samples_q = config.samples_q, .beta = config.beta,
                     .lsh_family = manager_hasher.get(),
                     .sampling_seed = config.sampling_seed});
  sim::DeviceExecution manager_gpu(manager_device, manager_run_seed);

  // Double-check round trip for the raw C_{j+1}, under the same retry
  // machinery as every other exchange; a failed one sets `exchange.failed`.
  const auto double_check = [&](std::int64_t j) -> std::optional<TrainState> {
    ProofRequest dc_request;
    dc_request.transitions = {j};  // re-request: raw output this time
    const auto dc_seen = exchange.run(
        MessageType::kProofRequest, encode_proof_request(dc_request),
        /*to_worker=*/true,
        [](const Bytes& b) { return decode_proof_request(b); },
        verify_span.context());
    if (!dc_seen.has_value()) return std::nullopt;
    obs::Span dc_serve("serve_proof", exchange.last_rx, /*worker=*/0);
    ProofResponse dc_response;
    dc_response.output_states.push_back(serve_checkpoint(j + 1));
    auto dc_decoded = exchange.run(
        MessageType::kProofResponse, encode_proof_response(dc_response),
        /*to_worker=*/false,
        [&](const Bytes& b) {
          ProofResponse decoded = decode_proof_response(b);
          if (decoded.output_states.size() != 1) {
            throw std::invalid_argument("double-check shape mismatch");
          }
          require_committed(decoded.output_states.front(),
                            static_cast<std::size_t>(j + 1));
          return decoded;
        },
        dc_serve.context(), withholds_proofs);
    if (!dc_decoded.has_value()) return std::nullopt;
    return std::move(dc_decoded->output_states.front());
  };

  // Every state in manager_response already hash-matched the commitment in
  // the decode validator above (mismatches NACK and exhaust the retry
  // budget before reaching the loop), so the states are moved in without
  // re-hashing multi-megabyte checkpoints here.
  const auto slot = [&](std::int64_t j) {  // j's place in the response
    const std::vector<std::int64_t>& t = request.transitions;
    return static_cast<std::size_t>(std::ranges::lower_bound(t, j) - t.begin());
  };
  VerifyResult verdict;
  verdict.failure = verifier.precheck(*manager_commitment, std::ssize(step_of),
                                      step_of, announcement.initial_state_hash);
  if (verdict.failure == VerifyFailure::kNone) {
    verdict = verifier.verify_samples(
        request.transitions,
        {.input = [&](std::int64_t j) -> std::optional<TrainState> {
           return std::move(manager_response->input_states[slot(j)]);
         },
         .output = [&](std::int64_t j) -> std::optional<TrainState> {
           if (use_lsh) return double_check(j);
           return std::move(manager_response->output_states[slot(j)]);
         },
         .output_lsh = [&](std::int64_t j) -> const lsh::LshDigest& {
           const auto next = static_cast<std::size_t>(j + 1);
           return manager_commitment->lsh_digests[next];
         }},
        step_of, worker_data, nonce, manager_gpu, verify_span.context());
  }
  outcome.double_checks = verdict.double_checks;
  if (exchange.failed) return finish(std::move(outcome));

  record_verdict(verdict.failure);
  outcome.accepted = verdict.accepted;
  outcome.status = verdict.accepted ? SessionStatus::kAccepted
                                    : SessionStatus::kVerdictRejected;
  outcome.final_model = manager_update->model;
  verify_span.attr("accepted", outcome.accepted);
  verify_span.attr("double_checks", outcome.double_checks);
  return finish(std::move(outcome));
}

}  // namespace rpol::core
