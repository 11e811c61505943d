#include "core/wire.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace rpol::core {

namespace {

void append_digest(Bytes& out, const Digest& d) {
  out.insert(out.end(), d.begin(), d.end());
}

Digest read_digest(const Bytes& in, std::size_t& offset) {
  if (offset + 32 > in.size()) throw std::out_of_range("truncated digest");
  Digest d{};
  std::copy(in.begin() + static_cast<std::ptrdiff_t>(offset),
            in.begin() + static_cast<std::ptrdiff_t>(offset + 32), d.begin());
  offset += 32;
  return d;
}

void expect_tag(const Bytes& in, std::size_t& offset, std::uint8_t tag) {
  if (offset >= in.size() || in[offset] != tag) {
    throw std::invalid_argument("unexpected message tag");
  }
  ++offset;
}

void check_consumed(const Bytes& in, std::size_t offset) {
  if (offset != in.size()) {
    throw std::invalid_argument("trailing bytes in message");
  }
}

void append_hyperparams(Bytes& out, const Hyperparams& hp) {
  append_u64(out, static_cast<std::uint64_t>(hp.optimizer));
  append_f32(out, hp.learning_rate);
  append_f32(out, hp.momentum);
  append_i64(out, hp.batch_size);
  append_i64(out, hp.steps_per_epoch);
  append_i64(out, hp.checkpoint_interval);
}

// Byte count of encode_train_state(state): two u64 counts, then fp32s.
std::uint64_t train_state_bytes(const TrainState& state) {
  return 16 + 4 * (static_cast<std::uint64_t>(state.model.size()) +
                   static_cast<std::uint64_t>(state.optimizer.size()));
}

Hyperparams read_hyperparams(const Bytes& in, std::size_t& offset) {
  Hyperparams hp;
  const std::uint64_t opt = read_u64(in, offset);
  if (opt > static_cast<std::uint64_t>(nn::OptimizerKind::kAdam)) {
    throw std::invalid_argument("bad optimizer kind");
  }
  hp.optimizer = static_cast<nn::OptimizerKind>(opt);
  hp.learning_rate = read_f32(in, offset);
  hp.momentum = read_f32(in, offset);
  hp.batch_size = read_i64(in, offset);
  hp.steps_per_epoch = read_i64(in, offset);
  hp.checkpoint_interval = read_i64(in, offset);
  if (hp.batch_size <= 0 || hp.steps_per_epoch <= 0 ||
      hp.checkpoint_interval <= 0) {
    throw std::invalid_argument("bad hyperparameters");
  }
  return hp;
}

}  // namespace

bool TaskAnnouncement::operator==(const TaskAnnouncement& other) const {
  return epoch == other.epoch && nonce == other.nonce &&
         hp.optimizer == other.hp.optimizer &&
         hp.learning_rate == other.hp.learning_rate &&
         hp.momentum == other.hp.momentum && hp.batch_size == other.hp.batch_size &&
         hp.steps_per_epoch == other.hp.steps_per_epoch &&
         hp.checkpoint_interval == other.hp.checkpoint_interval &&
         digest_equal(initial_state_hash, other.initial_state_hash) &&
         lsh == other.lsh;
}

Bytes encode_task_announcement(const TaskAnnouncement& msg) {
  Bytes out;
  out.push_back(kTagTask);
  append_i64(out, msg.epoch);
  append_u64(out, msg.nonce);
  append_hyperparams(out, msg.hp);
  append_digest(out, msg.initial_state_hash);
  out.push_back(msg.lsh.has_value() ? 1 : 0);
  if (msg.lsh.has_value()) {
    append_u64(out, std::bit_cast<std::uint64_t>(msg.lsh->params.r));
    append_i64(out, msg.lsh->params.k);
    append_i64(out, msg.lsh->params.l);
    append_i64(out, msg.lsh->dim);
    append_u64(out, msg.lsh->seed);
  }
  append_digest(out, sha256(out));
  return out;
}

TaskAnnouncement decode_task_announcement(const Bytes& in) {
  std::size_t offset = 0;
  expect_tag(in, offset, kTagTask);
  // The seal: a corrupted announcement that still parses would hand the
  // worker another task (or an LSH family of any size), so the body must
  // hash to the trailing digest before any field is read.
  if (in.size() < 1 + 32) throw std::out_of_range("truncated announcement");
  const Bytes body(in.begin(), in.end() - 32);
  std::size_t seal_offset = body.size();
  if (!digest_equal(sha256(body), read_digest(in, seal_offset))) {
    throw std::invalid_argument("announcement digest mismatch");
  }
  TaskAnnouncement msg;
  msg.epoch = read_i64(body, offset);
  msg.nonce = read_u64(body, offset);
  msg.hp = read_hyperparams(body, offset);
  msg.initial_state_hash = read_digest(body, offset);
  if (offset >= body.size()) throw std::out_of_range("truncated announcement");
  // Only 0/1 are canonical: any other flag byte would decode to a message
  // that re-encodes differently, breaking encode(decode(x)) == x.
  const std::uint8_t lsh_flag = body[offset++];
  if (lsh_flag > 1) throw std::invalid_argument("bad lsh flag");
  if (lsh_flag == 1) {
    lsh::LshConfig cfg;
    cfg.params.r = std::bit_cast<double>(read_u64(body, offset));
    // k and l travel as i64 but live in int fields: values beyond int range
    // would truncate on decode and re-encode differently, so they are
    // rejected to keep the encoding canonical.
    const std::int64_t k = read_i64(body, offset);
    const std::int64_t l = read_i64(body, offset);
    cfg.dim = read_i64(body, offset);
    cfg.seed = read_u64(body, offset);
    constexpr std::int64_t kMaxHashes = std::numeric_limits<int>::max();
    if (!std::isfinite(cfg.params.r) || cfg.params.r <= 0.0 || k < 1 ||
        k > kMaxHashes || l < 1 || l > kMaxHashes || cfg.dim <= 0) {
      throw std::invalid_argument("bad LSH config");
    }
    cfg.params.k = static_cast<int>(k);
    cfg.params.l = static_cast<int>(l);
    msg.lsh = cfg;
  }
  check_consumed(body, offset);
  return msg;
}

Bytes encode_commitment(const Commitment& commitment) {
  Bytes out;
  out.push_back(kTagCommitment);
  out.push_back(commitment.version == CommitmentVersion::kV1 ? 1 : 2);
  append_u64(out, commitment.state_hashes.size());
  for (const auto& d : commitment.state_hashes) append_digest(out, d);
  append_u64(out, commitment.lsh_digests.size());
  for (const auto& lsh_digest : commitment.lsh_digests) {
    append_u64(out, lsh_digest.groups.size());
    for (const auto& g : lsh_digest.groups) append_digest(out, g);
  }
  append_digest(out, commitment.root);
  return out;
}

Commitment decode_commitment(const Bytes& in) {
  std::size_t offset = 0;
  expect_tag(in, offset, kTagCommitment);
  if (offset >= in.size()) throw std::out_of_range("truncated commitment");
  const std::uint8_t version = in[offset++];
  if (version != 1 && version != 2) {
    throw std::invalid_argument("bad commitment version");
  }
  Commitment c;
  c.version = version == 1 ? CommitmentVersion::kV1 : CommitmentVersion::kV2;
  const std::uint64_t hash_count = read_u64(in, offset);
  if (hash_count > (in.size() - offset) / 32) {
    throw std::invalid_argument("bad hash count");
  }
  c.state_hashes.reserve(static_cast<std::size_t>(hash_count));
  for (std::uint64_t i = 0; i < hash_count; ++i) {
    c.state_hashes.push_back(read_digest(in, offset));
  }
  const std::uint64_t lsh_count = read_u64(in, offset);
  if (lsh_count > in.size()) throw std::invalid_argument("bad lsh count");
  c.lsh_digests.reserve(static_cast<std::size_t>(lsh_count));
  for (std::uint64_t i = 0; i < lsh_count; ++i) {
    const std::uint64_t groups = read_u64(in, offset);
    if (groups > (in.size() - offset) / 32) {
      throw std::invalid_argument("bad group count");
    }
    lsh::LshDigest d;
    d.groups.reserve(static_cast<std::size_t>(groups));
    for (std::uint64_t g = 0; g < groups; ++g) {
      d.groups.push_back(read_digest(in, offset));
    }
    c.lsh_digests.push_back(std::move(d));
  }
  c.root = read_digest(in, offset);
  check_consumed(in, offset);
  if (!commitment_consistent(c)) {
    throw std::invalid_argument("inconsistent commitment");
  }
  return c;
}

Bytes encode_proof_request(const ProofRequest& msg) {
  Bytes out;
  out.push_back(kTagProofRequest);
  append_u64(out, msg.transitions.size());
  for (const auto t : msg.transitions) append_i64(out, t);
  return out;
}

ProofRequest decode_proof_request(const Bytes& in) {
  std::size_t offset = 0;
  expect_tag(in, offset, kTagProofRequest);
  const std::uint64_t count = read_u64(in, offset);
  if (count > (in.size() - offset) / 8) throw std::invalid_argument("bad count");
  ProofRequest msg;
  msg.transitions.reserve(static_cast<std::size_t>(count));
  std::int64_t prev = -1;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::int64_t t = read_i64(in, offset);
    if (t < 0 || t <= prev) {
      throw std::invalid_argument("proof request indices must ascend");
    }
    msg.transitions.push_back(t);
    prev = t;
  }
  check_consumed(in, offset);
  return msg;
}

Bytes encode_train_state(const TrainState& state) {
  return serialize_state(state);
}

Bytes encode_state_chunk(const StateChunk& chunk) {
  Bytes out;
  out.reserve(1 + 8 + 8 + 8 + chunk.payload.size() + 32);
  out.push_back(kTagStateChunk);
  append_u64(out, chunk.total_bytes);
  append_u64(out, chunk.offset);
  append_u64(out, chunk.payload.size());
  out.insert(out.end(), chunk.payload.begin(), chunk.payload.end());
  append_digest(out, chunk.payload_hash);
  return out;
}

StateChunk decode_state_chunk(const Bytes& in) {
  std::size_t offset = 0;
  expect_tag(in, offset, kTagStateChunk);
  StateChunk chunk;
  chunk.total_bytes = read_u64(in, offset);
  chunk.offset = read_u64(in, offset);
  const std::uint64_t len = read_u64(in, offset);
  if (len == 0) throw std::invalid_argument("empty state chunk");
  if (len > in.size() - offset) throw std::invalid_argument("bad chunk length");
  if (chunk.offset > chunk.total_bytes ||
      len > chunk.total_bytes - chunk.offset) {
    throw std::invalid_argument("chunk window outside announced total");
  }
  chunk.payload.assign(in.begin() + static_cast<std::ptrdiff_t>(offset),
                       in.begin() + static_cast<std::ptrdiff_t>(offset + len));
  offset += static_cast<std::size_t>(len);
  chunk.payload_hash = read_digest(in, offset);
  check_consumed(in, offset);
  // Per-chunk integrity: transport corruption of any payload byte fails
  // here, turning into a NACK the per-chunk retry budget can heal.
  if (sha256(chunk.payload) != chunk.payload_hash) {
    throw std::invalid_argument("state chunk payload hash mismatch");
  }
  return chunk;
}

ChunkedStateEncoder::ChunkedStateEncoder(const TrainState& state,
                                         std::size_t chunk_payload_bytes)
    : state_(&state),
      chunk_bytes_(chunk_payload_bytes),
      total_(train_state_bytes(state)) {
  if (chunk_payload_bytes == 0) {
    throw std::invalid_argument("chunk payload size must be >= 1");
  }
}

std::int64_t ChunkedStateEncoder::num_chunks() const {
  // The ceiling without forming total_ + chunk_bytes_ - 1, which wraps for
  // chunk sizes near SIZE_MAX and would announce zero chunks.
  return static_cast<std::int64_t>(total_ / chunk_bytes_ +
                                   (total_ % chunk_bytes_ != 0 ? 1 : 0));
}

namespace {

// Copies bytes [pos, pos+n) of serialize_floats(v)'s PAYLOAD section (the
// 4*|v| little-endian fp32 bytes, counts excluded) into `out`. On
// little-endian hosts that section IS the vector's memory, so a run of any
// length, split floats at either end included, is one memcpy, as in
// append_floats.
void copy_float_run(const std::vector<float>& v, std::uint64_t pos,
                    std::size_t n, std::uint8_t* out) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, reinterpret_cast<const std::uint8_t*>(v.data()) + pos, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t byte = pos + i;
      const auto bits =
          std::bit_cast<std::uint32_t>(v[static_cast<std::size_t>(byte / 4)]);
      out[i] = static_cast<std::uint8_t>(bits >> (8 * (byte % 4)));
    }
  }
}

}  // namespace

void ChunkedStateEncoder::copy_window(std::uint64_t pos, std::size_t n,
                                      std::uint8_t* out) const {
  // Logical stream (== encode_train_state):
  //   [u64 model_count][4*m model][u64 opt_count][4*o optimizer]
  const std::uint64_t m = state_->model.size();
  const std::uint64_t o = state_->optimizer.size();
  const std::uint64_t seg_bounds[4] = {8, 8 + 4 * m, 16 + 4 * m,
                                       16 + 4 * m + 4 * o};
  std::uint64_t seg_start = 0;
  for (int seg = 0; seg < 4 && n > 0; ++seg) {
    const std::uint64_t seg_end = seg_bounds[seg];
    if (pos < seg_end) {
      const std::uint64_t local = pos - seg_start;
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(n, seg_end - pos));
      switch (seg) {
        case 0:
          for (std::size_t i = 0; i < take; ++i) {
            out[i] = static_cast<std::uint8_t>(m >> (8 * (local + i)));
          }
          break;
        case 1:
          copy_float_run(state_->model, local, take, out);
          break;
        case 2:
          for (std::size_t i = 0; i < take; ++i) {
            out[i] = static_cast<std::uint8_t>(o >> (8 * (local + i)));
          }
          break;
        default:
          copy_float_run(state_->optimizer, local, take, out);
          break;
      }
      out += take;
      pos += take;
      n -= take;
    }
    seg_start = seg_end;
  }
}

StateChunk ChunkedStateEncoder::chunk(std::int64_t index) const {
  if (index < 0 || index >= num_chunks()) {
    throw std::out_of_range("state chunk index out of range");
  }
  StateChunk out;
  out.total_bytes = total_;
  out.offset = static_cast<std::uint64_t>(index) * chunk_bytes_;
  const std::size_t len = static_cast<std::size_t>(
      std::min<std::uint64_t>(chunk_bytes_, total_ - out.offset));
  out.payload.resize(len);
  copy_window(out.offset, len, out.payload.data());
  out.payload_hash = sha256(out.payload);
  return out;
}

ChunkedStateAssembler::ChunkedStateAssembler(std::uint64_t max_total_bytes)
    : max_total_(max_total_bytes) {}

std::size_t ChunkedStateAssembler::fill_scalar(const std::uint8_t* data,
                                               std::size_t n, int width) {
  const std::size_t used =
      std::min(n, static_cast<std::size_t>(width - scalar_fill_));
  for (std::size_t i = 0; i < used; ++i) {
    scalar_ |= static_cast<std::uint64_t>(data[i]) << (8 * scalar_fill_++);
  }
  return used;
}

void ChunkedStateAssembler::start_vector() {
  const std::uint64_t count = scalar_;
  const bool model = phase_ == Phase::kModelCount;
  // A lying count is rejected the moment it completes, not at end-of-stream:
  // the model vector must leave room for the optimizer count behind it, and
  // the optimizer vector must land EXACTLY on the announced total
  // (total_ >= 16 was enforced at accept()).
  if (model) {
    if (count > (total_ - 16) / 4) {
      throw std::invalid_argument("state chunk float count exceeds total");
    }
  } else {
    const std::uint64_t room =
        total_ - 16 - 4 * static_cast<std::uint64_t>(state_.model.size());
    if (count != room / 4) {
      throw std::invalid_argument("state chunk float count exceeds total");
    }
  }
  auto& vec = model ? state_.model : state_.optimizer;
  vec.reserve(static_cast<std::size_t>(count));
  floats_left_ = count;
  scalar_ = 0;
  scalar_fill_ = 0;
  phase_ = model ? (count > 0 ? Phase::kModelData : Phase::kOptCount)
                 : (count > 0 ? Phase::kOptData : Phase::kDone);
}

void ChunkedStateAssembler::feed(const std::uint8_t* data, std::size_t n) {
  // The canonical little-endian fp32 bytes are the vector's memory only on
  // little-endian hosts; elsewhere every float takes the byte machine.
  constexpr bool kBlockCopy = std::endian::native == std::endian::little;
  while (n > 0) {
    std::size_t used = 0;
    switch (phase_) {
      case Phase::kModelCount:
      case Phase::kOptCount:
        used = fill_scalar(data, n, 8);
        if (scalar_fill_ == 8) start_vector();
        break;
      case Phase::kModelData:
      case Phase::kOptData: {
        auto& vec =
            phase_ == Phase::kModelData ? state_.model : state_.optimizer;
        if (kBlockCopy && scalar_fill_ == 0 && n >= 4) {
          // Whole floats, as many as this chunk holds: one block copy.
          const auto count = static_cast<std::size_t>(
              std::min<std::uint64_t>(n / 4, floats_left_));
          const std::size_t at = vec.size();
          vec.resize(at + count);
          std::memcpy(vec.data() + at, data, 4 * count);
          used = 4 * count;
          floats_left_ -= count;
        } else {
          // A float split across chunks: carry its first 1-3 bytes, then
          // complete it from the next chunk.
          used = fill_scalar(data, n, 4);
          if (scalar_fill_ == 4) {
            vec.push_back(
                std::bit_cast<float>(static_cast<std::uint32_t>(scalar_)));
            scalar_ = 0;
            scalar_fill_ = 0;
            --floats_left_;
          }
        }
        if (floats_left_ == 0) {
          phase_ =
              phase_ == Phase::kModelData ? Phase::kOptCount : Phase::kDone;
        }
        break;
      }
      case Phase::kDone:
        throw std::invalid_argument("trailing bytes after state stream");
    }
    data += used;
    n -= used;
  }
}

void ChunkedStateAssembler::accept(const StateChunk& chunk) {
  if (taken_) throw std::logic_error("assembler already consumed");
  // Validate everything BEFORE mutating so a thrown (NACKed) chunk can be
  // retried against unchanged assembler state.
  if (chunk.payload.empty()) throw std::invalid_argument("empty state chunk");
  if (total_ == 0 && received_ == 0) {
    if (chunk.total_bytes < 16) {
      throw std::invalid_argument("state stream shorter than its counts");
    }
    if (chunk.total_bytes > max_total_) {
      throw std::invalid_argument("state stream exceeds receiver cap");
    }
  } else if (chunk.total_bytes != total_) {
    throw std::invalid_argument("chunk disagrees on total size");
  }
  if (chunk.offset != received_) {
    throw std::invalid_argument("chunk out of order");
  }
  const std::uint64_t cap = total_ == 0 ? chunk.total_bytes : total_;
  if (chunk.payload.size() > cap - received_) {
    throw std::invalid_argument("chunk overruns announced total");
  }
  // The phase machine can still reject content (a lying float count). Its
  // scalar state is snapshotted and the vectors trimmed back on throw, so
  // failure leaves the assembler exactly as it was.
  const Phase phase0 = phase_;
  const std::uint64_t scalar0 = scalar_;
  const int fill0 = scalar_fill_;
  const std::uint64_t left0 = floats_left_;
  const std::size_t model0 = state_.model.size();
  const std::size_t opt0 = state_.optimizer.size();
  total_ = cap;
  try {
    feed(chunk.payload.data(), chunk.payload.size());
  } catch (...) {
    phase_ = phase0;
    scalar_ = scalar0;
    scalar_fill_ = fill0;
    floats_left_ = left0;
    state_.model.resize(model0);
    state_.optimizer.resize(opt0);
    if (received_ == 0) total_ = 0;
    throw;
  }
  received_ += chunk.payload.size();
}

bool ChunkedStateAssembler::complete() const {
  return !taken_ && received_ > 0 && received_ == total_ &&
         phase_ == Phase::kDone;
}

const TrainState& ChunkedStateAssembler::peek() const {
  if (!complete()) throw std::logic_error("state stream incomplete");
  return state_;
}

TrainState ChunkedStateAssembler::take() {
  if (!complete()) throw std::logic_error("state stream incomplete");
  taken_ = true;
  return std::move(state_);
}

TrainState decode_train_state(const Bytes& in, std::size_t& offset) {
  return deserialize_state(in, offset);
}

Bytes encode_proof_response(const ProofResponse& msg) {
  // Sized up front, and each state's encoding appended in place: the
  // response is written once, with no per-state temporary.
  const std::vector<TrainState>* lists[] = {&msg.input_states,
                                            &msg.output_states};
  std::uint64_t size = 1;
  for (const auto* states : lists) {
    size += 8;
    for (const auto& s : *states) size += 8 + train_state_bytes(s);
  }
  Bytes out;
  out.reserve(static_cast<std::size_t>(size));
  out.push_back(kTagProofResponse);
  for (const auto* states : lists) {
    append_u64(out, states->size());
    for (const auto& s : *states) {
      append_u64(out, train_state_bytes(s));
      append_floats(out, s.model);
      append_floats(out, s.optimizer);
    }
  }
  return out;
}

ProofResponse decode_proof_response(const Bytes& in) {
  std::size_t offset = 0;
  expect_tag(in, offset, kTagProofResponse);
  ProofResponse msg;
  auto read_states = [&](std::vector<TrainState>& states) {
    const std::uint64_t count = read_u64(in, offset);
    if (count > in.size()) throw std::invalid_argument("bad state count");
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t len = read_u64(in, offset);
      if (len > in.size() - offset) throw std::invalid_argument("bad state len");
      const std::size_t end = offset + static_cast<std::size_t>(len);
      states.push_back(decode_train_state(in, offset));
      if (offset != end) throw std::invalid_argument("state length mismatch");
    }
  };
  read_states(msg.input_states);
  read_states(msg.output_states);
  check_consumed(in, offset);
  return msg;
}

}  // namespace rpol::core
