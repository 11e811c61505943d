#include "tensor/serialize.h"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace rpol {

void append_u32(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_u64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_i64(Bytes& out, std::int64_t v) {
  append_u64(out, static_cast<std::uint64_t>(v));
}

void append_f32(Bytes& out, float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  append_u32(out, bits);
}

namespace {
void check_avail(const Bytes& in, std::size_t offset, std::size_t need) {
  if (offset + need > in.size()) {
    throw std::out_of_range("serialized buffer truncated");
  }
}
}  // namespace

std::uint64_t read_u64(const Bytes& in, std::size_t& offset) {
  check_avail(in, offset, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[offset + i]) << (8 * i);
  offset += 8;
  return v;
}

std::int64_t read_i64(const Bytes& in, std::size_t& offset) {
  return static_cast<std::int64_t>(read_u64(in, offset));
}

float read_f32(const Bytes& in, std::size_t& offset) {
  check_avail(in, offset, 4);
  std::uint32_t bits = 0;
  for (int i = 0; i < 4; ++i) bits |= static_cast<std::uint32_t>(in[offset + i]) << (8 * i);
  offset += 4;
  float v = 0.0F;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

Bytes serialize_tensor(const Tensor& t) {
  Bytes out;
  out.reserve(8 + 8 * t.rank() + 4 * static_cast<std::size_t>(t.numel()));
  append_i64(out, static_cast<std::int64_t>(t.rank()));
  for (const auto d : t.shape()) append_i64(out, d);
  for (const float v : t.vec()) append_f32(out, v);
  return out;
}

Tensor deserialize_tensor(const Bytes& in, std::size_t& offset) {
  const std::int64_t rank = read_i64(in, offset);
  if (rank < 0 || rank > 8) throw std::invalid_argument("bad tensor rank");
  Shape shape(static_cast<std::size_t>(rank));
  for (auto& d : shape) d = read_i64(in, offset);
  const std::int64_t n = shape_numel(shape);
  std::vector<float> data(static_cast<std::size_t>(n));
  for (auto& v : data) v = read_f32(in, offset);
  return Tensor(std::move(shape), std::move(data));
}

Bytes serialize_floats(const std::vector<float>& v) {
  Bytes out;
  out.reserve(8 + 4 * v.size());
  append_floats(out, v);
  return out;
}

void append_floats(Bytes& out, const std::vector<float>& v) {
  append_u64(out, v.size());
  static_assert(sizeof(float) == 4, "canonical encoding assumes fp32");
  if constexpr (std::endian::native == std::endian::little) {
    // The canonical payload (LE IEEE-754 fp32) IS the vector's raw memory.
    const std::size_t at = out.size();
    out.resize(at + 4 * v.size());
    if (!v.empty()) std::memcpy(out.data() + at, v.data(), 4 * v.size());
  } else {
    for (const float f : v) append_f32(out, f);
  }
}

std::vector<float> deserialize_floats(const Bytes& in, std::size_t& offset) {
  const std::uint64_t n = read_u64(in, offset);
  check_avail(in, offset, 0);
  if (n > (in.size() - offset) / 4) throw std::invalid_argument("bad float count");
  std::vector<float> v(static_cast<std::size_t>(n));
  if constexpr (std::endian::native == std::endian::little) {
    if (n != 0) std::memcpy(v.data(), in.data() + offset, 4 * v.size());
    offset += 4 * v.size();
  } else {
    for (auto& f : v) f = read_f32(in, offset);
  }
  return v;
}

}  // namespace rpol
