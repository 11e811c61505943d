// Canonical wire encoding of RPoL protocol messages.
//
// The pool protocol exchanges these message kinds per epoch (Fig. 2):
//   manager -> worker : TaskAnnouncement (epoch, nonce, hyper-parameters,
//                       global-state hash, LSH configuration for RPoLv2)
//   manager -> worker : StateChunks (the global TrainState)
//   worker  -> manager: CommitmentMessage (the checkpoint commitment)
//   worker  -> manager: StateChunks (the update: the final model)
//   manager -> worker : ProofRequest (sampled transition indices)
//   worker  -> manager: ProofResponse (the requested TrainStates)
//
// Encodings are canonical (little-endian, fixed field order, length-
// prefixed lists) so both sides hash identical bytes; every decode
// validates lengths and rejects malformed input. The byte sizes of these
// encodings are what the traffic accounting measures.

#pragma once

#include <optional>

#include "core/commitment.h"

namespace rpol::core {

// Leading tag byte of each framed message kind. Exposed so structure-aware
// fuzzers (tests/core_wire_fuzz_test.cpp) can build seeds and lie about
// framing without re-deriving magic numbers.
inline constexpr std::uint8_t kTagTask = 0x01;
inline constexpr std::uint8_t kTagCommitment = 0x02;
inline constexpr std::uint8_t kTagProofRequest = 0x03;
inline constexpr std::uint8_t kTagProofResponse = 0x04;
inline constexpr std::uint8_t kTagStateChunk = 0x05;

struct TaskAnnouncement {
  std::int64_t epoch = 0;
  std::uint64_t nonce = 0;
  Hyperparams hp;
  Digest initial_state_hash{};
  std::optional<lsh::LshConfig> lsh;  // present for RPoLv2 epochs

  bool operator==(const TaskAnnouncement& other) const;
};

struct ProofRequest {
  std::vector<std::int64_t> transitions;  // sampled indices, ascending

  bool operator==(const ProofRequest& other) const {
    return transitions == other.transitions;
  }
};

struct ProofResponse {
  // For each requested transition: the input state, and (RPoLv1 or
  // double-check) optionally the output state.
  std::vector<TrainState> input_states;
  std::vector<TrainState> output_states;  // may be empty (RPoLv2 fast path)
};

// Sealed announcement:
//
//   [kTagTask][epoch i64][nonce u64][optimizer u64][lr f32][momentum f32]
//   [batch_size i64][steps_per_epoch i64][checkpoint_interval i64]
//   [initial_state_hash 32B][lsh flag u8: 0 or 1]
//   (flag 1) [r f64][k i64][l i64][dim i64][seed u64]
//   [sha256(all preceding bytes) 32B]
//
// r travels as f64, so decode(encode(a)) == a and the worker builds the
// exact family the manager hashes with. The decoder checks the trailing
// digest right after the tag, before reading any field: corruption in
// transit that would still parse (another k, l, dim or batch size) throws,
// the worker NACKs, and the manager retransmits.
Bytes encode_task_announcement(const TaskAnnouncement& msg);
TaskAnnouncement decode_task_announcement(const Bytes& in);

Bytes encode_commitment(const Commitment& commitment);
Commitment decode_commitment(const Bytes& in);

Bytes encode_proof_request(const ProofRequest& msg);
ProofRequest decode_proof_request(const Bytes& in);

Bytes encode_proof_response(const ProofResponse& msg);
ProofResponse decode_proof_response(const Bytes& in);

Bytes encode_train_state(const TrainState& state);
TrainState decode_train_state(const Bytes& in, std::size_t& offset);

// ---------------------------------------------------------------------------
// Chunked TrainState transfer: how every global state and every update
// crosses the wire.
//
// A full model state can dwarf every other message in the protocol; sending
// it as one frame forces both endpoints to materialize the whole encoding.
// StateChunk splits the CANONICAL encoding — the exact bytes of
// encode_train_state, so hashes and golden digests are untouched — into
// windows of a negotiated size:
//
//   [kTagStateChunk][total u64][offset u64][payload_len u64]
//   [payload bytes][sha256(payload) 32B]
//
// `total` is the full encoding's byte count (identical in every chunk of a
// transfer); `offset` is the window position. The trailing digest makes
// each chunk independently integrity-checked: a transport bit-flip is
// caught at decode (throw -> NACK) and heals via the per-chunk retry
// budget, instead of poisoning a multi-megabyte transfer.
struct StateChunk {
  std::uint64_t total_bytes = 0;
  std::uint64_t offset = 0;
  Bytes payload;
  Digest payload_hash{};

  bool operator==(const StateChunk& other) const {
    return total_bytes == other.total_bytes && offset == other.offset &&
           payload == other.payload && payload_hash == other.payload_hash;
  }
};

Bytes encode_state_chunk(const StateChunk& chunk);
// Validates framing (tag, lengths, offset+len <= total, len >= 1) and the
// payload digest; throws std::invalid_argument / std::out_of_range on any
// violation. decode(encode(x)) == x and the encoding is canonical.
StateChunk decode_state_chunk(const Bytes& in);

// Produces the chunks of one state's canonical encoding ON DEMAND: chunk(i)
// materializes only that window (plus its digest), so the sender's resident
// wire footprint is one chunk.
class ChunkedStateEncoder {
 public:
  // `state` must outlive the encoder. chunk_payload_bytes >= 1 or throws.
  ChunkedStateEncoder(const TrainState& state, std::size_t chunk_payload_bytes);

  std::uint64_t total_bytes() const { return total_; }
  std::int64_t num_chunks() const;
  // Chunk `index` in [0, num_chunks()); throws std::out_of_range outside.
  StateChunk chunk(std::int64_t index) const;

 private:
  void copy_window(std::uint64_t pos, std::size_t n, std::uint8_t* out) const;

  const TrainState* state_;
  std::size_t chunk_bytes_;
  std::uint64_t total_ = 0;
};

// Receiver side: consumes chunks strictly in offset order, decoding the
// float stream incrementally so the full encoding is never buffered: whole
// floats are block-copied into the state, and a byte machine handles only
// the two u64 counts and a float split across chunks (a carry of at most 3
// bytes). accept() leaves the assembler UNCHANGED when it throws, so a
// NACKed chunk can simply be retried. Rejected input:
// out-of-order/duplicate/overlapping offsets, total_bytes disagreement
// between chunks, totals above `max_total_bytes` (resource cap), and
// streams whose float counts contradict the announced total.
class ChunkedStateAssembler {
 public:
  explicit ChunkedStateAssembler(std::uint64_t max_total_bytes);

  void accept(const StateChunk& chunk);
  bool complete() const;
  std::uint64_t bytes_received() const { return received_; }
  // Read-only view of the assembled state, for end-of-stream validation
  // (hash checks) before committing to take(); throws std::logic_error
  // before complete().
  const TrainState& peek() const;
  // Moves out the assembled state; throws std::logic_error before
  // complete() or after a previous take().
  TrainState take();

 private:
  enum class Phase { kModelCount, kModelData, kOptCount, kOptData, kDone };

  void feed(const std::uint8_t* data, std::size_t n);
  // Moves up to width - scalar_fill_ bytes into `scalar_`; returns how many.
  std::size_t fill_scalar(const std::uint8_t* data, std::size_t n, int width);
  // Validates the completed count in `scalar_` and enters its vector.
  void start_vector();

  std::uint64_t max_total_;
  std::uint64_t total_ = 0;       // 0 until the first chunk announces it
  std::uint64_t received_ = 0;
  bool taken_ = false;
  Phase phase_ = Phase::kModelCount;
  std::uint64_t scalar_ = 0;      // u64 count / split f32 under assembly
  int scalar_fill_ = 0;           // bytes of `scalar_` filled so far
  std::uint64_t floats_left_ = 0; // remaining floats of the current vector
  TrainState state_;
};

}  // namespace rpol::core
