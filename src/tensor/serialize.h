// Byte-level serialization for tensors and weight vectors.
//
// The protocol hashes and transmits model weights (checkpoints, proofs,
// commitments), so serialization must be canonical: little-endian IEEE-754
// fp32, dimensions as little-endian int64, no padding. Two parties hashing
// the same weights must produce identical bytes.

#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace rpol {

using Bytes = std::vector<std::uint8_t>;

// Appends primitives in canonical little-endian form.
void append_u32(Bytes& out, std::uint32_t v);
void append_u64(Bytes& out, std::uint64_t v);
void append_i64(Bytes& out, std::int64_t v);
void append_f32(Bytes& out, float v);

std::uint64_t read_u64(const Bytes& in, std::size_t& offset);
std::int64_t read_i64(const Bytes& in, std::size_t& offset);
float read_f32(const Bytes& in, std::size_t& offset);

// Tensor wire format: rank (i64), dims (i64 each), data (f32 each).
Bytes serialize_tensor(const Tensor& t);
Tensor deserialize_tensor(const Bytes& in, std::size_t& offset);

// Flat weight vector wire format: count (u64), data (f32 each).
Bytes serialize_floats(const std::vector<float>& v);
// Appends serialize_floats(v)'s bytes to `out`; on little-endian hosts the
// payload is one memcpy of the vector's memory.
void append_floats(Bytes& out, const std::vector<float>& v);
std::vector<float> deserialize_floats(const Bytes& in, std::size_t& offset);

}  // namespace rpol
