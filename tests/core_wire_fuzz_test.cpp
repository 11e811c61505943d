// Decode-robustness fuzzing: every wire decoder must handle arbitrary and
// mutated inputs by either decoding successfully or throwing a standard
// exception — never crashing, hanging, or over-reading. Seeded and
// deterministic so failures reproduce.

#include <gtest/gtest.h>

#include <functional>
#include <limits>

#include "core/wire.h"
#include "task_fixture.h"

namespace rpol::core {
namespace {

using rpol::testing::TinyTask;

template <typename Decoder>
void fuzz_decoder(const Bytes& valid, Decoder&& decode, std::uint64_t seed,
                  int mutations) {
  // 1. Single-byte mutations of a valid message.
  Rng rng(seed);
  for (int i = 0; i < mutations; ++i) {
    Bytes mutated = valid;
    const std::size_t pos =
        static_cast<std::size_t>(rng.next_below(mutated.size()));
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    try {
      decode(mutated);
    } catch (const std::exception&) {
      // rejecting is fine; crashing is not.
    }
  }
  // 2. Random truncations.
  for (int i = 0; i < mutations; ++i) {
    Bytes truncated = valid;
    truncated.resize(static_cast<std::size_t>(rng.next_below(valid.size())));
    try {
      decode(truncated);
    } catch (const std::exception&) {
    }
  }
  // 3. Pure garbage of assorted lengths.
  for (int i = 0; i < mutations; ++i) {
    Bytes garbage(static_cast<std::size_t>(rng.next_below(256)));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next_below(256));
    try {
      decode(garbage);
    } catch (const std::exception&) {
    }
  }
}

struct FuzzFixture : public ::testing::Test {
  void SetUp() override {
    task = TinyTask::make(/*seed=*/151);
    view = data::DatasetView::whole(task.dataset);
    context = task.context(909, view);
    StepExecutor executor(task.factory, task.hp);
    sim::DeviceExecution device(sim::device_gt4(), 2);
    HonestPolicy honest;
    trace = honest.produce_trace(executor, context, device);
  }

  TinyTask task{TinyTask::make()};
  data::DatasetView view;
  EpochContext context;
  EpochTrace trace;
};

TEST_F(FuzzFixture, TaskAnnouncementDecoderSurvivesFuzz) {
  TaskAnnouncement msg;
  msg.epoch = 3;
  msg.nonce = 42;
  msg.hp = task.hp;
  msg.initial_state_hash = hash_state(context.initial);
  msg.lsh = lsh::LshConfig{{1.5, 3, 4}, 100, 9};
  fuzz_decoder(encode_task_announcement(msg),
               [](const Bytes& b) { decode_task_announcement(b); }, 1, 300);
}

TEST_F(FuzzFixture, CommitmentDecoderSurvivesFuzz) {
  fuzz_decoder(encode_commitment(commit_v1(trace)),
               [](const Bytes& b) { decode_commitment(b); }, 2, 300);
}

TEST_F(FuzzFixture, ProofRequestDecoderSurvivesFuzz) {
  fuzz_decoder(encode_proof_request(ProofRequest{{0, 1, 3}}),
               [](const Bytes& b) { decode_proof_request(b); }, 3, 300);
}

TEST_F(FuzzFixture, ProofResponseDecoderSurvivesFuzz) {
  ProofResponse resp;
  resp.input_states.push_back(trace.checkpoints[0]);
  resp.output_states.push_back(trace.checkpoints[1]);
  fuzz_decoder(encode_proof_response(resp),
               [](const Bytes& b) { decode_proof_response(b); }, 4, 200);
}

// ---------------------------------------------------------------------------
// Structure-aware mutation suite: seeds are valid encodings of all six
// MessageTypes; mutations are systematic bit flips, truncations at every
// byte boundary, and lies written into known length fields. Two properties:
//   * decode never crashes (throwing std::exception is the only exit), and
//   * any mutation that still decodes must round-trip to EXACTLY the bytes
//     it was decoded from — the encodings are canonical, so a wire attacker
//     cannot produce two distinct byte strings for one message value.

// A decode/encode pair closed over one message kind.
struct Codec {
  const char* name;
  std::function<Bytes(const Bytes&)> reencode;  // decode + encode, may throw
};

// Valid seed encodings of all six protocol message types. The global state
// and the model update share TrainState framing but are seeded separately
// so both taxonomy entries are fuzzed.
struct StructuredSeeds {
  Bytes announcement;
  Bytes state;
  Bytes commitment;
  Bytes update;
  Bytes proof_request;
  Bytes proof_response;

  std::vector<std::pair<Bytes, Codec>> all() const {
    const Codec announcement_codec{
        "announcement", [](const Bytes& b) {
          return encode_task_announcement(decode_task_announcement(b));
        }};
    const Codec state_codec{"train_state", [](const Bytes& b) {
                              std::size_t offset = 0;
                              const TrainState s = decode_train_state(b, offset);
                              if (offset != b.size()) {
                                throw std::invalid_argument("trailing bytes");
                              }
                              return encode_train_state(s);
                            }};
    const Codec commitment_codec{"commitment", [](const Bytes& b) {
                                   return encode_commitment(decode_commitment(b));
                                 }};
    const Codec request_codec{"proof_request", [](const Bytes& b) {
                                return encode_proof_request(decode_proof_request(b));
                              }};
    const Codec response_codec{"proof_response", [](const Bytes& b) {
                                 return encode_proof_response(
                                     decode_proof_response(b));
                               }};
    return {{announcement, announcement_codec}, {state, state_codec},
            {commitment, commitment_codec},     {update, state_codec},
            {proof_request, request_codec},     {proof_response, response_codec}};
  }
};

// Decodes `candidate`; if it decodes at all, the re-encoding must be
// byte-identical to the candidate.
void expect_rejects_or_roundtrips(const Codec& codec, const Bytes& candidate) {
  Bytes reencoded;
  try {
    reencoded = codec.reencode(candidate);
  } catch (const std::exception&) {
    return;  // rejecting is always conformant
  }
  EXPECT_EQ(reencoded, candidate)
      << codec.name << ": accepted bytes are not canonical";
}

struct StructuredFuzz : public FuzzFixture {
  void SetUp() override {
    FuzzFixture::SetUp();
    TaskAnnouncement announcement;
    announcement.epoch = 3;
    announcement.nonce = 42;
    announcement.hp = task.hp;
    announcement.initial_state_hash = hash_state(context.initial);
    announcement.lsh = lsh::LshConfig{{1.5, 3, 4}, 100, 9};
    seeds.announcement = encode_task_announcement(announcement);
    seeds.state = encode_train_state(context.initial);
    seeds.commitment = encode_commitment(commit_v1(trace));
    TrainState update;
    update.model = trace.checkpoints.back().model;
    seeds.update = encode_train_state(update);
    seeds.proof_request = encode_proof_request(ProofRequest{{0, 1, 3}});
    ProofResponse response;
    response.input_states.push_back(trace.checkpoints[0]);
    response.output_states.push_back(trace.checkpoints[1]);
    seeds.proof_response = encode_proof_response(response);
  }

  StructuredSeeds seeds;
};

TEST_F(StructuredFuzz, ValidEncodingsOfAllSixTypesRoundTripExactly) {
  for (const auto& [valid, codec] : seeds.all()) {
    SCOPED_TRACE(codec.name);
    EXPECT_EQ(codec.reencode(valid), valid);
  }
}

TEST_F(StructuredFuzz, BitFlipsNeverRoundTripToADifferentValue) {
  // Every single-bit flip of every seed byte: the decoder either rejects or
  // accepts a message that re-encodes to the flipped bytes themselves (so
  // the flip changed the VALUE, never created an alias of another value).
  for (const auto& [valid, codec] : seeds.all()) {
    SCOPED_TRACE(codec.name);
    for (std::size_t pos = 0; pos < valid.size(); ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes mutated = valid;
        mutated[pos] ^= static_cast<std::uint8_t>(1u << bit);
        expect_rejects_or_roundtrips(codec, mutated);
      }
    }
  }
}

TEST_F(StructuredFuzz, TruncationAtEveryBoundaryIsRejected) {
  // Every strict prefix must throw: all six encodings are self-delimiting
  // with trailing-byte checks, so losing any suffix is always detectable.
  for (const auto& [valid, codec] : seeds.all()) {
    SCOPED_TRACE(codec.name);
    for (std::size_t len = 0; len < valid.size(); ++len) {
      Bytes truncated(valid.begin(),
                      valid.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_THROW(codec.reencode(truncated), std::exception)
          << "prefix of length " << len << " decoded";
    }
  }
}

TEST_F(StructuredFuzz, LengthFieldLiesAreRejected) {
  // Overwrite each known length field with lie values. A lied length either
  // over-reads (throws) or leaves trailing bytes (throws): no lie may
  // decode.
  const std::uint64_t lies[] = {0,          1,          1000,
                                1ull << 32, 1ull << 63, ~0ull};
  const auto lie_at = [&](const Codec& codec, const Bytes& valid,
                          std::size_t offset, std::uint64_t original) {
    for (const std::uint64_t lie : lies) {
      if (lie == original) continue;
      Bytes mutated = valid;
      for (int i = 0; i < 8; ++i) {
        mutated[offset + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(lie >> (8 * i));
      }
      EXPECT_THROW(codec.reencode(mutated), std::exception)
          << codec.name << ": length lie " << lie << " at offset " << offset
          << " decoded";
    }
  };

  const auto table = seeds.all();
  const std::size_t num_checkpoints = trace.checkpoints.size();

  // Commitment: hash count at offset 2, LSH-digest count after the hashes.
  lie_at(table[2].second, seeds.commitment, 2, num_checkpoints);
  lie_at(table[2].second, seeds.commitment, 2 + 8 + 32 * num_checkpoints, 0);

  // Proof request: index count at offset 1.
  lie_at(table[4].second, seeds.proof_request, 1, 3);

  // Proof response: input-state count at offset 1, then the first state's
  // byte length, then the output-state count after that state.
  const std::uint64_t state_len =
      encode_train_state(trace.checkpoints[0]).size();
  lie_at(table[5].second, seeds.proof_response, 1, 1);
  lie_at(table[5].second, seeds.proof_response, 9, state_len);
  lie_at(table[5].second, seeds.proof_response,
         17 + static_cast<std::size_t>(state_len), 1);

  // TrainState: model float count at offset 0, optimizer count after it.
  const std::uint64_t model_floats = context.initial.model.size();
  lie_at(table[1].second, seeds.state, 0, model_floats);
  lie_at(table[1].second, seeds.state, 8 + 4 * model_floats,
         context.initial.optimizer.size());
}

TEST_F(StructuredFuzz, LshPresenceFlagAcceptsOnlyCanonicalBytes) {
  // The announcement's has-LSH flag is the one bool on the wire; only 0x00
  // and 0x01 are canonical. Any other byte must be rejected, otherwise 254
  // distinct encodings would decode to the same message value. Each mutation
  // is re-sealed, so the flag check itself (not the seal) must reject it.
  const std::size_t flag_offset =
      seeds.announcement.size() - 32 - 41;  // seal, 40B cfg
  ASSERT_EQ(seeds.announcement[flag_offset], 1);
  const auto reseal = [](Bytes b) {
    b.resize(b.size() - 32);
    const Digest seal = sha256(b);
    b.insert(b.end(), seal.begin(), seal.end());
    return b;
  };
  ASSERT_EQ(reseal(seeds.announcement), seeds.announcement);
  for (int v = 2; v < 256; ++v) {
    Bytes mutated = seeds.announcement;
    mutated[flag_offset] = static_cast<std::uint8_t>(v);
    EXPECT_THROW(decode_task_announcement(reseal(mutated)), std::exception)
        << "flag byte " << v << " decoded";
  }
}

// ---------------------------------------------------------------------------
// State-chunk codec (bounded-memory transfers): the chunk frame carries its
// own payload digest, so the conformance bar is higher than round-trip —
// every content mutation must be REJECTED, not merely re-encoded.

struct ChunkFuzz : public FuzzFixture {
  // The fixture state's canonical encoding, the ground truth every chunk
  // stream must reassemble to.
  Bytes canonical() const { return encode_train_state(context.initial); }
};

TEST_F(ChunkFuzz, RoundTripAtManyChunkSizesReassemblesCanonicalBytes) {
  const Bytes whole = canonical();
  // Sizes 1-9 put a chunk edge at every offset inside a float and inside
  // each u64 count. SIZE_MAX must give one chunk, although a ceiling formed
  // as total + size - 1 wraps to zero.
  for (const std::size_t chunk_bytes :
       {1ul, 2ul, 3ul, 4ul, 5ul, 6ul, 7ul, 8ul, 9ul, 16ul, 64ul, 1024ul,
        whole.size(), whole.size() + 100,
        std::numeric_limits<std::size_t>::max()}) {
    SCOPED_TRACE(chunk_bytes);
    ChunkedStateEncoder encoder(context.initial, chunk_bytes);
    ASSERT_EQ(encoder.total_bytes(), whole.size());
    EXPECT_EQ(encoder.num_chunks(),
              chunk_bytes >= whole.size()
                  ? 1
                  : static_cast<std::int64_t>(
                        (whole.size() + chunk_bytes - 1) / chunk_bytes));

    Bytes concatenated;
    ChunkedStateAssembler assembler(whole.size());
    for (std::int64_t i = 0; i < encoder.num_chunks(); ++i) {
      const StateChunk chunk = encoder.chunk(i);
      // decode(encode(x)) == x, and the encoding is canonical.
      const Bytes frame = encode_state_chunk(chunk);
      EXPECT_TRUE(decode_state_chunk(frame) == chunk);
      EXPECT_EQ(encode_state_chunk(decode_state_chunk(frame)), frame);
      concatenated.insert(concatenated.end(), chunk.payload.begin(),
                          chunk.payload.end());
      assembler.accept(chunk);
    }
    // Payload concatenation IS the canonical encoding — chunking never
    // re-frames, so hashes computed over the assembled state are untouched.
    EXPECT_EQ(concatenated, whole);
    ASSERT_TRUE(assembler.complete());
    const TrainState out = assembler.take();
    EXPECT_EQ(out.model, context.initial.model);
    EXPECT_EQ(out.optimizer, context.initial.optimizer);
  }
}

TEST_F(ChunkFuzz, ChunkDecoderSurvivesFuzz) {
  ChunkedStateEncoder encoder(context.initial, 64);
  fuzz_decoder(encode_state_chunk(encoder.chunk(1)),
               [](const Bytes& b) { decode_state_chunk(b); }, 6, 300);
}

TEST_F(ChunkFuzz, TruncationAtEveryBoundaryIsRejected) {
  ChunkedStateEncoder encoder(context.initial, 48);
  const Bytes frame = encode_state_chunk(encoder.chunk(0));
  for (std::size_t len = 0; len < frame.size(); ++len) {
    Bytes truncated(frame.begin(),
                    frame.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(decode_state_chunk(truncated), std::exception)
        << "prefix of length " << len << " decoded";
  }
}

TEST_F(ChunkFuzz, HeaderLiesAreRejected) {
  ChunkedStateEncoder encoder(context.initial, 48);
  const StateChunk middle = encoder.chunk(1);
  const Bytes frame = encode_state_chunk(middle);
  const auto lie_at = [&](std::size_t offset, std::uint64_t original) {
    const std::uint64_t lies[] = {0, 1, 1000, 1ull << 32, 1ull << 63, ~0ull};
    for (const std::uint64_t lie : lies) {
      if (lie == original) continue;
      Bytes mutated = frame;
      for (int i = 0; i < 8; ++i) {
        mutated[offset + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(lie >> (8 * i));
      }
      EXPECT_THROW(decode_state_chunk(mutated), std::exception)
          << "header lie " << lie << " at offset " << offset << " decoded";
    }
  };
  // payload_len lies always break the frame parse (short read leaves
  // trailing bytes, long read over-reads) — every lie is rejected.
  lie_at(17, middle.payload.size());
  // total/offset lies that push the window outside [0, total) break the
  // framing invariant offset+len <= total and are rejected at decode.
  // In-window relabelings still decode (the digest binds only the payload);
  // those are the ASSEMBLER's job — strict offset ordering and total
  // agreement (AssemblerRejectsMisuseAndStaysRetrySafe below).
  const std::uint64_t len = middle.payload.size();
  for (const std::uint64_t total_lie :
       {std::uint64_t{0}, std::uint64_t{1}, middle.offset, middle.offset + len - 1}) {
    Bytes mutated = frame;
    for (int i = 0; i < 8; ++i) {
      mutated[1 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(total_lie >> (8 * i));
    }
    EXPECT_THROW(decode_state_chunk(mutated), std::exception)
        << "shrunken total " << total_lie << " decoded";
  }
  for (const std::uint64_t offset_lie :
       {middle.total_bytes - len + 1, middle.total_bytes,
        std::uint64_t{1} << 63, ~std::uint64_t{0}}) {
    Bytes mutated = frame;
    for (int i = 0; i < 8; ++i) {
      mutated[9 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(offset_lie >> (8 * i));
    }
    EXPECT_THROW(decode_state_chunk(mutated), std::exception)
        << "out-of-window offset " << offset_lie << " decoded";
  }
  // Wrong tag byte: every non-0x05 value is rejected.
  for (int v = 0; v < 256; ++v) {
    if (v == kTagStateChunk) continue;
    Bytes mutated = frame;
    mutated[0] = static_cast<std::uint8_t>(v);
    EXPECT_THROW(decode_state_chunk(mutated), std::exception);
  }
}

TEST_F(ChunkFuzz, EveryPayloadOrDigestBitFlipIsRejected) {
  // The per-chunk digest must catch EVERY single-bit payload corruption,
  // and a corrupted digest must never validate: content mutations are
  // always typed rejections, never silently-altered floats.
  ChunkedStateEncoder encoder(context.initial, 32);
  const Bytes frame = encode_state_chunk(encoder.chunk(2));
  for (std::size_t pos = 25; pos < frame.size(); ++pos) {  // payload + digest
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutated = frame;
      mutated[pos] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_THROW(decode_state_chunk(mutated), std::exception)
          << "payload flip at byte " << pos << " bit " << bit << " decoded";
    }
  }
}

TEST_F(ChunkFuzz, AssemblerRejectsMisuseAndStaysRetrySafe) {
  const Bytes whole = canonical();
  ChunkedStateEncoder encoder(context.initial, 40);
  ASSERT_GE(encoder.num_chunks(), 3);

  // Resource cap: a first chunk announcing more than max_total_bytes.
  {
    ChunkedStateAssembler capped(whole.size() - 1);
    EXPECT_THROW(capped.accept(encoder.chunk(0)), std::exception);
  }

  ChunkedStateAssembler assembler(whole.size());
  EXPECT_FALSE(assembler.complete());
  EXPECT_THROW((void)assembler.peek(), std::logic_error);
  EXPECT_THROW((void)assembler.take(), std::logic_error);

  // Out-of-order start, then recovery with the true first chunk.
  EXPECT_THROW(assembler.accept(encoder.chunk(1)), std::exception);
  assembler.accept(encoder.chunk(0));

  // Duplicate, skipped, and total-lying chunks are all rejected without
  // corrupting the stream: the correct next chunk still lands (retry-safe).
  EXPECT_THROW(assembler.accept(encoder.chunk(0)), std::exception);
  EXPECT_THROW(assembler.accept(encoder.chunk(2)), std::exception);
  StateChunk lying = encoder.chunk(1);
  lying.total_bytes += 8;
  EXPECT_THROW(assembler.accept(lying), std::exception);
  assembler.accept(encoder.chunk(1));

  for (std::int64_t i = 2; i < encoder.num_chunks(); ++i) {
    assembler.accept(encoder.chunk(i));
  }
  ASSERT_TRUE(assembler.complete());
  // Trailing chunk beyond the announced total is rejected.
  StateChunk extra = encoder.chunk(0);
  extra.offset = encoder.total_bytes();
  EXPECT_THROW(assembler.accept(extra), std::exception);

  EXPECT_EQ(assembler.peek().model, context.initial.model);
  const TrainState out = assembler.take();
  EXPECT_EQ(out.model, context.initial.model);
  EXPECT_EQ(out.optimizer, context.initial.optimizer);
  // Moved-from assembler refuses further use.
  EXPECT_THROW((void)assembler.take(), std::logic_error);
  EXPECT_THROW(assembler.accept(encoder.chunk(0)), std::logic_error);
}

TEST_F(ChunkFuzz, StreamLevelFloatCountLiesAreRejected) {
  // Forge a structurally valid chunk STREAM whose leading float count
  // contradicts the announced total: the assembler's phase machine must
  // reject it rather than over-allocate or mis-slice.
  const Bytes whole = canonical();
  Bytes forged = whole;
  const std::uint64_t lie = ~0ull;
  for (int i = 0; i < 8; ++i) {
    forged[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(lie >> (8 * i));
  }
  StateChunk chunk;
  chunk.total_bytes = forged.size();
  chunk.offset = 0;
  chunk.payload = forged;
  chunk.payload_hash = sha256(chunk.payload);
  ChunkedStateAssembler assembler(forged.size());
  EXPECT_THROW(assembler.accept(chunk), std::exception);
  // The throw must not have torn state: the honest stream still assembles.
  ChunkedStateAssembler retry(whole.size());
  StateChunk honest;
  honest.total_bytes = whole.size();
  honest.offset = 0;
  honest.payload = whole;
  honest.payload_hash = sha256(honest.payload);
  retry.accept(honest);
  ASSERT_TRUE(retry.complete());
  EXPECT_EQ(retry.take().model, context.initial.model);
}

TEST_F(ChunkFuzz, RejectedChunkRollsBackSplitFloatAndBlockCopies) {
  // The first chunk ends two bytes into a model float. The second finishes
  // that float from the carry, block-copies the remaining model floats, and
  // then carries an optimizer count that contradicts the total. Its throw
  // must undo all of that, vector sizes and carry alike, so the honest
  // second chunk still lands and the stream reassembles bit for bit.
  const Bytes whole = canonical();
  const std::size_t m = context.initial.model.size();
  ASSERT_GE(m, 4u);
  const std::size_t split = 8 + 4 * 2 + 2;
  const std::size_t past_opt_count = 16 + 4 * m;
  Bytes forged = whole;
  const std::uint64_t lie = context.initial.optimizer.size() + 1;
  for (std::size_t i = 0; i < 8; ++i) {
    forged[8 + 4 * m + i] = static_cast<std::uint8_t>(lie >> (8 * i));
  }
  const auto window = [&](const Bytes& stream, std::size_t begin,
                          std::size_t end) {
    StateChunk chunk;
    chunk.total_bytes = stream.size();
    chunk.offset = begin;
    chunk.payload.assign(stream.begin() + static_cast<std::ptrdiff_t>(begin),
                         stream.begin() + static_cast<std::ptrdiff_t>(end));
    chunk.payload_hash = sha256(chunk.payload);
    return chunk;
  };

  ChunkedStateAssembler assembler(whole.size());
  assembler.accept(window(whole, 0, split));
  EXPECT_THROW(assembler.accept(window(forged, split, past_opt_count)),
               std::invalid_argument);
  EXPECT_EQ(assembler.bytes_received(), split);
  EXPECT_FALSE(assembler.complete());
  assembler.accept(window(whole, split, past_opt_count));
  if (past_opt_count < whole.size()) {
    assembler.accept(window(whole, past_opt_count, whole.size()));
  }
  ASSERT_TRUE(assembler.complete());
  const TrainState out = assembler.take();
  EXPECT_EQ(out.model, context.initial.model);
  EXPECT_EQ(out.optimizer, context.initial.optimizer);
}

TEST_F(FuzzFixture, MutatedCommitmentNeverDecodesToDifferentValidRoot) {
  // Stronger property: any mutation that still decodes must decode to a
  // commitment whose recomputed root matches its own lists (the decoder
  // runs commitment_consistent), so a wire attacker cannot smuggle in a
  // root/list mismatch.
  const Bytes valid = encode_commitment(commit_v1(trace));
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    Bytes mutated = valid;
    const std::size_t pos =
        static_cast<std::size_t>(rng.next_below(mutated.size()));
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    try {
      const Commitment decoded = decode_commitment(mutated);
      EXPECT_TRUE(commitment_consistent(decoded));
    } catch (const std::exception&) {
    }
  }
}

}  // namespace
}  // namespace rpol::core
