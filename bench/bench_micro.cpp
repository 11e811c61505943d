// Microbenchmarks (google-benchmark) for the primitives on RPoL's hot
// paths: hashing (commitments), p-stable LSH digests, AMLayer derivation,
// training-step execution, and checkpoint state capture — plus a
// deterministic kernel harness that times the runtime's blocked GEMM /
// im2col kernels at the paper models' layer shapes
// (src/sim/model_specs.cpp) and writes BENCH_micro.json so future PRs have
// a perf trajectory (ops/sec, speedup vs. the seed scalar kernels, and
// thread scaling).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/amlayer.h"
#include "core/ckptstore.h"
#include "core/commitment.h"
#include "core/detsel.h"
#include "data/synthetic.h"
#include "lsh/pstable.h"
#include "nn/layers.h"
#include "nn/models.h"
#include "runtime/thread_pool.h"
#include "sim/model_specs.h"
#include "tensor/ops.h"

namespace {
using namespace rpol;

// ---------------------------------------------------------------------------
// Seed scalar reference kernels (frozen copies of the pre-runtime
// implementations) — the baseline BENCH_micro.json speedups are measured
// against. Do not "optimize" these; they exist to keep the comparison
// honest across PRs.

Tensor seed_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aik = pa[i * k + kk];
      if (aik == 0.0F) continue;
      const float* brow = pb + kk * n;
      float* crow = pc + i * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Tensor seed_im2col(const Tensor& input, const Conv2dSpec& spec) {
  const std::int64_t n = input.dim(0), c = input.dim(1);
  const std::int64_t h = input.dim(2), w = input.dim(3);
  const std::int64_t oh = spec.out_size(h), ow = spec.out_size(w);
  const std::int64_t patch = c * spec.kernel * spec.kernel;
  Tensor cols({patch, n * oh * ow});
  float* pc = cols.data();
  const std::int64_t col_stride = n * oh * ow;
  for (std::int64_t img = 0; img < n; ++img) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      for (std::int64_t kh = 0; kh < spec.kernel; ++kh) {
        for (std::int64_t kw = 0; kw < spec.kernel; ++kw) {
          const std::int64_t prow = (ch * spec.kernel + kh) * spec.kernel + kw;
          for (std::int64_t y = 0; y < oh; ++y) {
            const std::int64_t in_y = y * spec.stride + kh - spec.padding;
            for (std::int64_t x = 0; x < ow; ++x) {
              const std::int64_t in_x = x * spec.stride + kw - spec.padding;
              const std::int64_t pcol = (img * oh + y) * ow + x;
              float v = 0.0F;
              if (in_y >= 0 && in_y < h && in_x >= 0 && in_x < w) {
                v = input.at4(img, ch, in_y, in_x);
              }
              pc[prow * col_stride + pcol] = v;
            }
          }
        }
      }
    }
  }
  return cols;
}

// ---------------------------------------------------------------------------
// Frozen seed crypto reference (pre-pipeline implementations): staging-buffer
// SHA-256, copy-then-hash state hashing, serial commitments, and
// rebuild-the-tree-per-proof transition proofs. Same "do not optimize" rule
// as the scalar kernels above — these anchor the crypto speedup records.

class SeedSha256 {
 public:
  void update(const std::uint8_t* data, std::size_t len) {
    total_len_ += len;
    while (len > 0) {
      const std::size_t take = std::min(len, buffer_.size() - buffer_len_);
      std::memcpy(buffer_.data() + buffer_len_, data, take);
      buffer_len_ += take;
      data += take;
      len -= take;
      if (buffer_len_ == buffer_.size()) {
        process_block(buffer_.data());
        buffer_len_ = 0;
      }
    }
  }
  void update(const Bytes& data) { update(data.data(), data.size()); }

  Digest finish() {
    const std::uint64_t bit_len = total_len_ * 8;
    const std::uint8_t pad_byte = 0x80;
    update(&pad_byte, 1);
    const std::uint8_t zero = 0x00;
    while (buffer_len_ != 56) update(&zero, 1);
    std::array<std::uint8_t, 8> len_bytes{};
    for (int i = 0; i < 8; ++i) {
      len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    }
    std::memcpy(buffer_.data() + buffer_len_, len_bytes.data(), 8);
    process_block(buffer_.data());
    Digest out{};
    for (int i = 0; i < 8; ++i) {
      out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
      out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
      out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
      out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    return out;
  }

 private:
  static std::uint32_t rotr(std::uint32_t x, int n) {
    return (x >> n) | (x << (32 - n));
  }
  void process_block(const std::uint8_t* block) {
    static constexpr std::array<std::uint32_t, 64> kk = {
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
        0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
        0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
        0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
        0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
        0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
        0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
        0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
        0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
        0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
    std::array<std::uint32_t, 64> w{};
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
             (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    auto a = state_[0], b = state_[1], c = state_[2], d = state_[3];
    auto e = state_[4], f = state_[5], g = state_[6], h = state_[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kk[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    state_[0] += a; state_[1] += b; state_[2] += c; state_[3] += d;
    state_[4] += e; state_[5] += f; state_[6] += g; state_[7] += h;
  }

  std::array<std::uint32_t, 8> state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                         0xa54ff53a, 0x510e527f, 0x9b05688c,
                                         0x1f83d9ab, 0x5be0cd19};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

Digest seed_sha256(const Bytes& data) {
  SeedSha256 h;
  h.update(data);
  return h.finish();
}

Digest seed_hash_state(const core::TrainState& s) {
  return seed_sha256(core::serialize_state(s));  // full serialize copy
}

Digest seed_lsh_leaf(const lsh::LshDigest& d) {
  SeedSha256 h;
  const std::uint8_t domain = 0x4C;
  h.update(&domain, 1);
  h.update(lsh::serialize_lsh_digest(d));
  return h.finish();
}

Digest seed_merkle_parent(const Digest& left, const Digest& right) {
  SeedSha256 h;
  const std::uint8_t domain = 0x01;
  h.update(&domain, 1);
  h.update(left.data(), left.size());
  h.update(right.data(), right.size());
  return h.finish();
}

// Serial bottom-up tree build; returns all levels (leaves first).
std::vector<std::vector<Digest>> seed_merkle_levels(std::vector<Digest> leaves) {
  std::vector<std::vector<Digest>> levels;
  levels.push_back(std::move(leaves));
  while (levels.back().size() > 1) {
    const auto& prev = levels.back();
    std::vector<Digest> next;
    next.reserve((prev.size() + 1) / 2);
    for (std::size_t i = 0; i < prev.size(); i += 2) {
      const Digest& left = prev[i];
      const Digest& right = (i + 1 < prev.size()) ? prev[i + 1] : prev[i];
      next.push_back(seed_merkle_parent(left, right));
    }
    levels.push_back(std::move(next));
  }
  return levels;
}

std::vector<Digest> seed_merkle_prove(
    const std::vector<std::vector<Digest>>& levels, std::size_t leaf) {
  std::vector<Digest> siblings;
  std::size_t idx = leaf;
  for (std::size_t level = 0; level + 1 < levels.size(); ++level) {
    const auto& nodes = levels[level];
    const std::size_t sib = (idx % 2 == 0) ? idx + 1 : idx - 1;
    siblings.push_back(sib < nodes.size() ? nodes[sib] : nodes[idx]);
    idx /= 2;
  }
  return siblings;
}

core::Commitment seed_commit_v2(const core::EpochTrace& trace,
                                const lsh::PStableLsh& hasher) {
  core::Commitment c;
  c.version = core::CommitmentVersion::kV2;
  c.state_hashes.reserve(trace.checkpoints.size());
  c.lsh_digests.reserve(trace.checkpoints.size());
  for (const auto& state : trace.checkpoints) {
    c.state_hashes.push_back(seed_hash_state(state));
    c.lsh_digests.push_back(hasher.hash(state.model));
  }
  c.root = core::commitment_root(c);
  return c;
}

// Seed-shaped proof generation: rebuilds the state tree AND re-hashes every
// LSH leaf for each transition, exactly like the proof generation that
// predates CommitmentIndex.
std::vector<Digest> seed_transition_proof(const core::Commitment& full,
                                          std::size_t transition) {
  const auto state_levels = seed_merkle_levels(full.state_hashes);
  std::vector<Digest> lsh_leaves;
  lsh_leaves.reserve(full.lsh_digests.size());
  for (const auto& d : full.lsh_digests) lsh_leaves.push_back(seed_lsh_leaf(d));
  const auto lsh_levels = seed_merkle_levels(std::move(lsh_leaves));
  std::vector<Digest> out = seed_merkle_prove(state_levels, transition);
  const auto second = seed_merkle_prove(state_levels, transition + 1);
  const auto third = seed_merkle_prove(lsh_levels, transition + 1);
  out.insert(out.end(), second.begin(), second.end());
  out.insert(out.end(), third.begin(), third.end());
  return out;
}

// Best-of-k wall-clock seconds for fn(), with one warmup call. The sample
// set is reduced through bench::summarize_latencies so the "best" reported
// here and the quantiles elsewhere share one definition.
template <typename Fn>
double time_best(Fn&& fn, double min_total_s = 0.3, int max_iters = 5) {
  fn();  // warmup
  std::vector<double> samples;
  double total = 0.0;
  while ((total < min_total_s &&
          samples.size() < static_cast<std::size_t>(max_iters)) ||
         samples.size() < 2) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    samples.push_back(s);
    total += s;
  }
  return bench::summarize_latencies(samples).best;
}

struct KernelResult {
  std::string model, layer;
  std::int64_t m = 0, k = 0, cols = 0, batch = 0, in_h = 0;
  double gemm_flops = 0.0;
  double seed_s = 0.0, new1_s = 0.0, new4_s = 0.0;       // conv GEMM (im2col+matmul)
  double mm_seed_s = 0.0, mm_new1_s = 0.0, mm_new4_s = 0.0;  // pure GEMM
};

KernelResult run_shape(const std::string& model, const sim::ConvLayerShape& shape,
                       std::int64_t batch, std::int64_t spatial_div) {
  KernelResult r;
  r.model = model;
  r.layer = shape.layer;
  sim::ConvLayerShape s = shape;
  s.in_h /= spatial_div;
  s.in_w /= spatial_div;
  r.batch = batch;
  r.in_h = s.in_h;
  r.m = s.gemm_m();
  r.k = s.gemm_k();
  r.cols = s.gemm_n(batch);
  r.gemm_flops = 2.0 * static_cast<double>(r.m) * static_cast<double>(r.k) *
                 static_cast<double>(r.cols);

  Rng rng(7);
  const Tensor input =
      Tensor::randn({batch, s.in_channels, s.in_h, s.in_w}, rng, 1.0F);
  const Tensor weight = Tensor::randn({r.m, r.k}, rng, 0.05F);
  const Conv2dSpec spec{s.in_channels, s.out_channels, s.kernel, s.stride,
                        s.padding};

  const Tensor cols = im2col(input, spec);
  r.seed_s = time_best([&] {
    benchmark::DoNotOptimize(seed_matmul(weight, seed_im2col(input, spec)));
  });
  r.mm_seed_s = time_best([&] {
    benchmark::DoNotOptimize(seed_matmul(weight, cols));
  });
  runtime::set_threads(1);
  r.new1_s = time_best([&] {
    benchmark::DoNotOptimize(matmul(weight, im2col(input, spec)));
  });
  r.mm_new1_s = time_best([&] { benchmark::DoNotOptimize(matmul(weight, cols)); });
  runtime::set_threads(4);
  r.new4_s = time_best([&] {
    benchmark::DoNotOptimize(matmul(weight, im2col(input, spec)));
  });
  r.mm_new4_s = time_best([&] { benchmark::DoNotOptimize(matmul(weight, cols)); });
  return r;
}

void write_kernel_json(const std::vector<KernelResult>& results,
                       int default_threads) {
  std::FILE* f = std::fopen("BENCH_micro.json", "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"bench\": \"micro_kernels\",\n");
  std::fprintf(f, "  \"threads_default\": %d,\n", default_threads);
  std::fprintf(f, "  \"note\": \"conv_gemm = im2col + GEMM at the layer shape; "
                  "seed = frozen scalar kernels from the seed tree; "
                  "speedups are wall-clock, new kernels at 1/4 threads\",\n");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    std::fprintf(
        f,
        "    {\"model\": \"%s\", \"layer\": \"%s\", \"batch\": %lld, "
        "\"in_h\": %lld, \"m\": %lld, \"k\": %lld, \"cols\": %lld,\n"
        "     \"conv_gemm\": {\"seed_gflops\": %.3f, \"new_1t_gflops\": %.3f, "
        "\"new_4t_gflops\": %.3f, \"speedup_1t_vs_seed\": %.2f, "
        "\"speedup_4t_vs_seed\": %.2f, \"speedup_4t_vs_1t\": %.2f},\n"
        "     \"matmul\": {\"seed_gflops\": %.3f, \"new_1t_gflops\": %.3f, "
        "\"new_4t_gflops\": %.3f, \"speedup_1t_vs_seed\": %.2f, "
        "\"speedup_4t_vs_seed\": %.2f, \"speedup_4t_vs_1t\": %.2f}}%s\n",
        r.model.c_str(), r.layer.c_str(), static_cast<long long>(r.batch),
        static_cast<long long>(r.in_h), static_cast<long long>(r.m),
        static_cast<long long>(r.k), static_cast<long long>(r.cols),
        r.gemm_flops / r.seed_s / 1e9, r.gemm_flops / r.new1_s / 1e9,
        r.gemm_flops / r.new4_s / 1e9, r.seed_s / r.new1_s,
        r.seed_s / r.new4_s, r.new1_s / r.new4_s,
        r.gemm_flops / r.mm_seed_s / 1e9, r.gemm_flops / r.mm_new1_s / 1e9,
        r.gemm_flops / r.mm_new4_s / 1e9, r.mm_seed_s / r.mm_new1_s,
        r.mm_seed_s / r.mm_new4_s, r.mm_new1_s / r.mm_new4_s,
        i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

void run_kernel_harness() {
  const int default_threads = runtime::threads();
  std::vector<KernelResult> results;
  // ResNet18 residual-stage shapes at full 224px spatial resolution,
  // batch 1; VGG16's early layers at 1/4 spatial (their GEMMs are ~16x
  // larger — same shape class, bench-sized spatial extent).
  for (const auto& s : sim::resnet18_conv_shapes()) {
    if (s.layer == "conv1" || s.layer.find("entry") != std::string::npos) continue;
    results.push_back(run_shape("ResNet18", s, /*batch=*/1, /*spatial_div=*/1));
  }
  for (const auto& s : sim::vgg16_conv_shapes()) {
    if (s.layer != "conv3_x" && s.layer != "conv5_x") continue;
    results.push_back(run_shape("VGG16", s, /*batch=*/1, /*spatial_div=*/4));
  }
  runtime::set_threads(default_threads);
  write_kernel_json(results, default_threads);

  // Registry records (rpol.bench.v1) for the bench-diff trajectory: GFLOP/s
  // per shape at 1 and 4 threads, keyed so baseline comparisons survive
  // reordering.
  // The measurements above ran at explicitly pinned thread counts and the
  // ambient pool was restored before this point, so every record carries its
  // measurement-time count (stamping the ambient value here mislabeled every
  // .4t row as threads:1).
  bench::BenchRecorder recorder("bench_micro");
  for (const KernelResult& r : results) {
    const std::string key = r.model + "." + r.layer;
    recorder.add("conv_gemm." + key + ".gflops.1t", "gflop/s",
                 r.gemm_flops / r.new1_s / 1e9, /*higher_is_better=*/true,
                 /*threads=*/1);
    recorder.add("conv_gemm." + key + ".gflops.4t", "gflop/s",
                 r.gemm_flops / r.new4_s / 1e9, /*higher_is_better=*/true,
                 /*threads=*/4);
    recorder.add("matmul." + key + ".gflops.4t", "gflop/s",
                 r.gemm_flops / r.mm_new4_s / 1e9, /*higher_is_better=*/true,
                 /*threads=*/4);
  }
  recorder.write();

  std::printf("kernel harness (threads default %d) -> BENCH_micro.json\n",
              default_threads);
  std::printf("%-10s %-10s %5s %5s %6s | conv_gemm gflops seed/1t/4t | speedup 4t vs seed\n",
              "model", "layer", "m", "k", "cols");
  for (const KernelResult& r : results) {
    std::printf("%-10s %-10s %5lld %5lld %6lld | %7.3f %7.3f %7.3f | %.2fx\n",
                r.model.c_str(), r.layer.c_str(), static_cast<long long>(r.m),
                static_cast<long long>(r.k), static_cast<long long>(r.cols),
                r.gemm_flops / r.seed_s / 1e9, r.gemm_flops / r.new1_s / 1e9,
                r.gemm_flops / r.new4_s / 1e9, r.seed_s / r.new4_s);
  }
}

// ---------------------------------------------------------------------------
// Layout harness: nn::Conv2d's blocked direct-conv path (tensor/layout.h)
// against a bench-local im2col + GEMM reference conv, both measured end to
// end so the numbers include everything a verifier re-execution pays —
// nchw<->nChw8c reorders and the pack cache on one side, column-buffer
// management and GEMM-layout reorders on the other. Emits nn.layout.*
// rpol.bench.v1 records; the geometric-mean forward speedup over the
// ResNet18 shapes at 4 threads is the harness's headline row.

// im2col + GEMM convolution built from the tensor/ops kernels, the way
// Conv2d computed before the direct kernels became its only path: it runs
// on the layer's own parameters, the column buffer's capacity is reused
// across calls, and the bias add and every reorder are channel-parallel.
// Bitwise-equal to nn::Conv2d.
class RefConv {
 public:
  explicit RefConv(nn::Conv2d& conv)
      : spec_(conv.spec()), weight_(conv.weight()), bias_(conv.bias()) {}

  Tensor forward(const Tensor& input) {
    input_shape_ = input.shape();
    im2col_into(input, spec_, cols_);
    Tensor gemm = matmul(weight_.value, cols_);
    const std::int64_t c = spec_.out_channels, cols = gemm.dim(1);
    float* pg = gemm.data();
    const float* pb = bias_.value.data();
    runtime::parallel_for(0, c, 1, [&](std::int64_t c0, std::int64_t c1) {
      for (std::int64_t ch = c0; ch < c1; ++ch) {
        for (std::int64_t j = 0; j < cols; ++j) pg[ch * cols + j] += pb[ch];
      }
    });
    Tensor out({input.dim(0), c, spec_.out_size(input.dim(2)),
                spec_.out_size(input.dim(3))});
    reorder(gemm.data(), out.data(), out.dim(0), c, out.dim(2) * out.dim(3),
            /*to_nchw=*/true);
    return out;
  }

  Tensor backward(const Tensor& grad_output) {
    const std::int64_t n = grad_output.dim(0), c = grad_output.dim(1);
    const std::int64_t hw = grad_output.dim(2) * grad_output.dim(3);
    Tensor grad_gemm({c, n * hw});
    reorder(grad_output.data(), grad_gemm.data(), n, c, hw, /*to_nchw=*/false);
    weight_.grad += matmul_nt(grad_gemm, cols_);
    const float* pg = grad_output.data();
    float* pbg = bias_.grad.data();
    runtime::parallel_for(0, c, 1, [&](std::int64_t c0, std::int64_t c1) {
      for (std::int64_t ch = c0; ch < c1; ++ch) {
        double acc = 0.0;
        for (std::int64_t img = 0; img < n; ++img) {
          const float* plane = pg + (img * c + ch) * hw;
          for (std::int64_t i = 0; i < hw; ++i) acc += plane[i];
        }
        pbg[ch] += static_cast<float>(acc);
      }
    });
    const Tensor dcols = matmul_tn(weight_.value, grad_gemm);
    cols_.clear_keep_capacity();
    return col2im(dcols, spec_, input_shape_);
  }

 private:
  // Copies between the GEMM layout (C, N*HW) and NCHW, one channel per
  // parallel slice.
  static void reorder(const float* src, float* dst, std::int64_t n,
                      std::int64_t c, std::int64_t hw, bool to_nchw) {
    runtime::parallel_for(0, c, 1, [&](std::int64_t c0, std::int64_t c1) {
      for (std::int64_t ch = c0; ch < c1; ++ch) {
        for (std::int64_t img = 0; img < n; ++img) {
          const std::int64_t gemm_at = ch * n * hw + img * hw;
          const std::int64_t nchw_at = (img * c + ch) * hw;
          const float* s = src + (to_nchw ? gemm_at : nchw_at);
          float* d = dst + (to_nchw ? nchw_at : gemm_at);
          for (std::int64_t i = 0; i < hw; ++i) d[i] = s[i];
        }
      }
    });
  }

  Conv2dSpec spec_;
  nn::Param& weight_;
  nn::Param& bias_;
  Tensor cols_;
  Shape input_shape_;
};

struct LayoutResult {
  std::string model, layer;
  std::int64_t batch = 0, in_h = 0;
  double ref_fwd_1t = 0.0, ref_fwd_4t = 0.0;  // im2col + GEMM forward seconds
  double dir_fwd_1t = 0.0, dir_fwd_4t = 0.0;  // Conv2d forward seconds
  double ref_train_4t = 0.0, dir_train_4t = 0.0;  // forward + backward
};

LayoutResult run_layout_shape(const std::string& model,
                              const sim::ConvLayerShape& shape,
                              std::int64_t batch, std::int64_t spatial_div) {
  LayoutResult r;
  r.model = model;
  r.layer = shape.layer;
  sim::ConvLayerShape s = shape;
  s.in_h /= spatial_div;
  s.in_w /= spatial_div;
  r.batch = batch;
  r.in_h = s.in_h;

  Rng rng(7);
  const Conv2dSpec spec{s.in_channels, s.out_channels, s.kernel, s.stride,
                        s.padding};
  nn::Conv2d conv(spec, rng, /*bias=*/true);
  RefConv ref(conv);
  const Tensor input =
      Tensor::randn({batch, s.in_channels, s.in_h, s.in_w}, rng, 1.0F);
  Rng grng(9);
  const Tensor dy = Tensor::randn(conv.output_shape(input.shape()), grng, 0.1F);

  auto ref_fwd = [&] { benchmark::DoNotOptimize(ref.forward(input)); };
  auto ref_train = [&] {
    ref.forward(input);
    benchmark::DoNotOptimize(ref.backward(dy));
  };
  auto dir_fwd = [&] { benchmark::DoNotOptimize(conv.forward(input, true)); };
  auto dir_train = [&] {
    conv.forward(input, true);
    benchmark::DoNotOptimize(conv.backward(dy));
  };

  // These shapes run in single-digit milliseconds, so the default 5-sample
  // cap leaves the direct-vs-reference ratio at the mercy of one scheduler
  // stall; give each measurement a real time budget instead.
  constexpr double kMinS = 0.25;
  constexpr int kMaxIters = 60;
  runtime::set_threads(1);
  r.ref_fwd_1t = time_best(ref_fwd, kMinS, kMaxIters);
  runtime::set_threads(4);
  r.ref_fwd_4t = time_best(ref_fwd, kMinS, kMaxIters);
  r.ref_train_4t = time_best(ref_train, kMinS, kMaxIters);

  runtime::set_threads(1);
  r.dir_fwd_1t = time_best(dir_fwd, kMinS, kMaxIters);
  runtime::set_threads(4);
  r.dir_fwd_4t = time_best(dir_fwd, kMinS, kMaxIters);
  r.dir_train_4t = time_best(dir_train, kMinS, kMaxIters);
  return r;
}

void run_layout_harness() {
  const int default_threads = runtime::threads();
  std::vector<LayoutResult> results;
  // Same shape selection as the kernel harness: ResNet18 residual stages at
  // full spatial resolution (batch 1 — the verifier's re-execution regime),
  // VGG16 mid/late stages at 1/4 spatial.
  for (const auto& s : sim::resnet18_conv_shapes()) {
    if (s.layer == "conv1" || s.layer.find("entry") != std::string::npos) continue;
    results.push_back(run_layout_shape("ResNet18", s, /*batch=*/1, /*spatial_div=*/1));
  }
  for (const auto& s : sim::vgg16_conv_shapes()) {
    if (s.layer != "conv3_x" && s.layer != "conv5_x") continue;
    results.push_back(run_layout_shape("VGG16", s, /*batch=*/1, /*spatial_div=*/4));
  }
  runtime::set_threads(default_threads);

  bench::BenchRecorder recorder("bench_micro");
  double log_sum = 0.0;
  int resnet_rows = 0;
  for (const LayoutResult& r : results) {
    const std::string key = r.model + "." + r.layer;
    recorder.add("nn.layout.fwd." + key + ".speedup.1t", "x",
                 r.ref_fwd_1t / r.dir_fwd_1t, /*higher_is_better=*/true,
                 /*threads=*/1);
    recorder.add("nn.layout.fwd." + key + ".speedup.4t", "x",
                 r.ref_fwd_4t / r.dir_fwd_4t, /*higher_is_better=*/true,
                 /*threads=*/4);
    recorder.add("nn.layout.train." + key + ".speedup.4t", "x",
                 r.ref_train_4t / r.dir_train_4t, /*higher_is_better=*/true,
                 /*threads=*/4);
    recorder.add("nn.layout.fwd." + key + ".ms.4t", "ms", r.dir_fwd_4t * 1e3,
                 /*higher_is_better=*/false, /*threads=*/4);
    if (r.model == "ResNet18") {
      log_sum += std::log(r.ref_fwd_4t / r.dir_fwd_4t);
      ++resnet_rows;
    }
  }
  const double geomean =
      resnet_rows > 0 ? std::exp(log_sum / resnet_rows) : 0.0;
  recorder.add("nn.layout.fwd.resnet18.geomean_speedup.4t", "x", geomean,
               /*higher_is_better=*/true, /*threads=*/4);
  recorder.write();

  std::printf("\nlayout harness: Conv2d (nChw8c + packed weights) vs "
              "im2col+GEMM reference, end to end\n");
  std::printf("%-10s %-10s | fwd 1t ref/dir (ms) | fwd 4t ref/dir (ms) | "
              "speedup 4t fwd/train\n",
              "model", "layer");
  for (const LayoutResult& r : results) {
    std::printf("%-10s %-10s | %8.2f %8.2f | %8.2f %8.2f | %5.2fx %5.2fx\n",
                r.model.c_str(), r.layer.c_str(), r.ref_fwd_1t * 1e3,
                r.dir_fwd_1t * 1e3, r.ref_fwd_4t * 1e3, r.dir_fwd_4t * 1e3,
                r.ref_fwd_4t / r.dir_fwd_4t, r.ref_train_4t / r.dir_train_4t);
  }
  std::printf("ResNet18 forward geomean speedup (4t): %.2fx\n", geomean);
}

// Crypto/commitment harness: SHA-256 streaming throughput, batched state
// hashing, end-to-end commit_v1/commit_v2 at ResNet18-scale state sizes,
// Merkle construction, and memoized transition proofs — each against the
// frozen seed reference above, recorded in the rpol.bench.v1 registry.
void run_crypto_harness() {
  const int default_threads = runtime::threads();
  bench::BenchRecorder recorder("bench_micro");

  // SHA-256 streaming throughput (single-threaded, one-shot over 8 MiB).
  const double stream_mb = 8.0;
  Bytes stream(static_cast<std::size_t>(stream_mb * (1 << 20)));
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  const double seed_sha_s =
      time_best([&] { benchmark::DoNotOptimize(seed_sha256(stream)); });
  const double new_sha_s =
      time_best([&] { benchmark::DoNotOptimize(sha256(stream)); });
  recorder.add("crypto.sha256.stream.mb_s", "MB/s", stream_mb / new_sha_s,
               /*higher_is_better=*/true, /*threads=*/1);

  // ResNet18-scale trace: 11.7M model floats + momentum-sized optimizer per
  // checkpoint, 4 checkpoints (3 transitions).
  const std::size_t model_n = 11'689'512;
  const std::size_t opt_n = model_n / 2;
  const std::size_t checkpoints = 4;
  core::EpochTrace trace;
  Rng rng(11);
  for (std::size_t i = 0; i < checkpoints; ++i) {
    core::TrainState s;
    s.model.resize(model_n);
    s.optimizer.resize(opt_n);
    rng.fill_normal(s.model, 0.0F, 0.1F);
    rng.fill_normal(s.optimizer, 0.0F, 0.1F);
    trace.checkpoints.push_back(std::move(s));
    trace.step_of.push_back(static_cast<std::int64_t>(i));
  }
  const double commit_mb = static_cast<double>(checkpoints) *
                           (16.0 + 4.0 * static_cast<double>(model_n + opt_n)) /
                           (1 << 20);

  // Small LSH family (1x2 projections) so the records isolate the hashing
  // pipeline rather than LSH projection arithmetic.
  lsh::LshConfig lsh_cfg{{1.0, 1, 2}, static_cast<std::int64_t>(model_n), 17};
  const lsh::PStableLsh hasher(lsh_cfg);

  const double seed_v2_s = time_best(
      [&] { benchmark::DoNotOptimize(seed_commit_v2(trace, hasher)); });

  runtime::set_threads(1);
  const double v1_1t_s =
      time_best([&] { benchmark::DoNotOptimize(core::commit_v1(trace)); });
  const double v2_1t_s = time_best(
      [&] { benchmark::DoNotOptimize(core::commit_v2(trace, hasher)); });
  runtime::set_threads(4);
  const double v1_4t_s =
      time_best([&] { benchmark::DoNotOptimize(core::commit_v1(trace)); });
  const double v2_4t_s = time_best(
      [&] { benchmark::DoNotOptimize(core::commit_v2(trace, hasher)); });

  recorder.add("crypto.state_hash.batch.mb_s.1t", "MB/s", commit_mb / v1_1t_s,
               /*higher_is_better=*/true, /*threads=*/1);
  recorder.add("crypto.state_hash.batch.mb_s.4t", "MB/s", commit_mb / v1_4t_s,
               /*higher_is_better=*/true, /*threads=*/4);
  recorder.add("crypto.commit_v1.resnet18.s.4t", "s", v1_4t_s,
               /*higher_is_better=*/false, /*threads=*/4);
  recorder.add("crypto.commit_v2.resnet18.s.1t", "s", v2_1t_s,
               /*higher_is_better=*/false, /*threads=*/1);
  recorder.add("crypto.commit_v2.resnet18.s.4t", "s", v2_4t_s,
               /*higher_is_better=*/false, /*threads=*/4);
  recorder.add("crypto.commit_v2.resnet18.speedup_vs_seed", "x",
               seed_v2_s / v2_4t_s, /*higher_is_better=*/true, /*threads=*/4);

  // Merkle construction over 65536 leaves (parallel per-level build).
  std::vector<Digest> leaves(65'536);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    Bytes b(8);
    for (int j = 0; j < 8; ++j) b[j] = static_cast<std::uint8_t>(i >> (8 * j));
    leaves[i] = sha256(b);
  }
  const double seed_merkle_s = time_best(
      [&] { benchmark::DoNotOptimize(seed_merkle_levels(leaves)); });
  const double merkle_s =
      time_best([&] { benchmark::DoNotOptimize(MerkleTree(leaves)); });
  recorder.add("crypto.merkle.build_65536.s", "s", merkle_s,
               /*higher_is_better=*/false, /*threads=*/4);

  // Transition proofs: n=1024 small checkpoints, q=16 sampled transitions.
  // Seed rebuilds both trees per sample (O(n) hashing each); the pipeline
  // builds a CommitmentIndex once and answers each sample in O(log n).
  core::EpochTrace small_trace;
  for (std::size_t i = 0; i < 1024; ++i) {
    core::TrainState s;
    s.model.resize(32);
    s.optimizer.resize(16);
    rng.fill_normal(s.model, 0.0F, 0.1F);
    rng.fill_normal(s.optimizer, 0.0F, 0.1F);
    small_trace.checkpoints.push_back(std::move(s));
    small_trace.step_of.push_back(static_cast<std::int64_t>(i));
  }
  lsh::LshConfig small_cfg{{1.0, 2, 3}, 32, 23};
  const lsh::PStableLsh small_hasher(small_cfg);
  const core::Commitment small_full =
      core::commit_v2(small_trace, small_hasher);
  std::vector<std::size_t> samples;
  for (std::size_t q = 0; q < 16; ++q) samples.push_back((q * 61) % 1023);
  const double seed_proofs_s = time_best([&] {
    for (const std::size_t j : samples) {
      benchmark::DoNotOptimize(seed_transition_proof(small_full, j));
    }
  });
  const double new_proofs_s = time_best([&] {
    const core::CommitmentIndex index(small_full);
    for (const std::size_t j : samples) {
      benchmark::DoNotOptimize(
          index.prove_transition(static_cast<std::int64_t>(j)));
    }
  });
  recorder.add("crypto.transition_proof.n1024.q16.speedup_vs_seed", "x",
               seed_proofs_s / new_proofs_s, /*higher_is_better=*/true,
               /*threads=*/4);

  runtime::set_threads(default_threads);
  recorder.write();

  std::printf("\ncrypto harness (state = %.1f MB/commit)\n", commit_mb);
  std::printf("  sha256 stream 8MiB      : seed %7.1f MB/s, new %7.1f MB/s (%.2fx)\n",
              stream_mb / seed_sha_s, stream_mb / new_sha_s,
              seed_sha_s / new_sha_s);
  std::printf("  commit_v1 resnet18      : 1t %.3fs, 4t %.3fs\n", v1_1t_s,
              v1_4t_s);
  std::printf("  commit_v2 resnet18      : seed %.3fs, 1t %.3fs, 4t %.3fs "
              "(%.2fx vs seed)\n",
              seed_v2_s, v2_1t_s, v2_4t_s, seed_v2_s / v2_4t_s);
  std::printf("  merkle build 65536      : seed %.4fs, new %.4fs (%.2fx)\n",
              seed_merkle_s, merkle_s, seed_merkle_s / merkle_s);
  std::printf("  transition proofs q16   : seed %.4fs, indexed %.4fs (%.1fx)\n",
              seed_proofs_s, new_proofs_s, seed_proofs_s / new_proofs_s);
}

// ---------------------------------------------------------------------------
// Streaming bounded-memory harness (core.stream.*): one epoch's checkpoint
// pipeline at 10x the crypto harness's checkpoint count (40 vs 4), under a
// hot-cache budget a fraction of the epoch's footprint. Commit phase streams
// every checkpoint through CommitmentBuilder + CheckpointStore (hash, spill,
// evict) and derives the compact roots; verify phase fetches sampled transition endpoints back
// through the store (mostly cold reloads) and re-checks them against the
// commitment. Each record carries env.peak_rss_bytes, so the tier-1
// bench-diff's --mem-tolerance gates the bounded-memory claim: if streaming
// ever starts materializing the epoch, peak RSS jumps and the diff fails.
void run_stream_harness() {
  bench::BenchRecorder recorder("bench_micro");

  const std::size_t checkpoints = 40;  // 10x the crypto harness's trace
  const std::size_t model_n = 250'000;
  const std::size_t opt_n = model_n / 2;
  const std::uint64_t budget_bytes = 4ull << 20;  // ~2.8 hot states

  // One resident state, permuted cheaply per checkpoint: the harness times
  // the hashing/spill pipeline, not synthetic data generation.
  core::TrainState state;
  state.model.resize(model_n);
  state.optimizer.resize(opt_n);
  Rng rng(13);
  rng.fill_normal(state.model, 0.0F, 0.1F);
  rng.fill_normal(state.optimizer, 0.0F, 0.1F);

  const double state_mb =
      (16.0 + 4.0 * static_cast<double>(model_n + opt_n)) / (1 << 20);
  const double epoch_mb = static_cast<double>(checkpoints) * state_mb;

  core::CkptStoreConfig store_cfg;
  store_cfg.budget_bytes = budget_bytes;

  std::unique_ptr<core::CheckpointStore> store;
  core::Commitment full;
  core::CompactCommitment compact;
  const double commit_s = time_best([&] {
    store = std::make_unique<core::CheckpointStore>(store_cfg);
    core::CommitmentBuilder builder(core::CommitmentVersion::kV1);
    for (std::size_t i = 0; i < checkpoints; ++i) {
      state.model[i % model_n] += 0.25F;  // new bits every checkpoint
      builder.add_checkpoint(state);
      store->append(state);
    }
    full = builder.finish();
    compact = core::compact_commitment(full);
    benchmark::DoNotOptimize(compact);
  });

  // Verify phase: q=16 sampled transitions; fetch both endpoints through
  // the store (the scattered stride defeats the LRU, so most reads are
  // cold spill reloads) and re-check their hashes against the commitment.
  std::vector<std::size_t> samples;
  for (std::size_t q = 0; q < 16; ++q) {
    samples.push_back((q * 23) % (checkpoints - 1));
  }
  bool verified = true;
  const double verify_s = time_best([&] {
    for (const std::size_t j : samples) {
      const core::TrainState in =
          store->fetch(static_cast<std::int64_t>(j));
      const core::TrainState out =
          store->fetch(static_cast<std::int64_t>(j + 1));
      verified = verified &&
                 digest_equal(core::hash_state(in), full.state_hashes[j]) &&
                 digest_equal(core::hash_state(out), full.state_hashes[j + 1]);
    }
    benchmark::DoNotOptimize(verified);
  });

  const core::CkptStoreStats stats = store->stats();
  const double peak_hot_mb =
      static_cast<double>(
          obs::mem_stats(obs::MemTag::kCkptStore).peak_bytes) /
      (1 << 20);

  recorder.add("core.stream.commit.epoch40.mb_s", "MB/s", epoch_mb / commit_s,
               /*higher_is_better=*/true, /*threads=*/runtime::threads());
  recorder.add("core.stream.commit.epoch40.s", "s", commit_s,
               /*higher_is_better=*/false, /*threads=*/runtime::threads());
  recorder.add("core.stream.verify.q16.s", "s", verify_s,
               /*higher_is_better=*/false, /*threads=*/runtime::threads());
  recorder.add("core.stream.peak_hot_mb", "MB", peak_hot_mb,
               /*higher_is_better=*/false, /*threads=*/runtime::threads());
  recorder.write();

  std::printf("\nstream harness (epoch = %zu checkpoints x %.1f MB = %.0f MB, "
              "hot budget %.0f MB)\n",
              checkpoints, state_mb, epoch_mb,
              static_cast<double>(budget_bytes) / (1 << 20));
  std::printf("  commit+spill            : %.3fs (%.1f MB/s)\n", commit_s,
              epoch_mb / commit_s);
  std::printf("  verify fetch q16        : %.3fs (%llu reloads, %llu "
              "evictions)\n",
              verify_s, static_cast<unsigned long long>(stats.reloads),
              static_cast<unsigned long long>(stats.evictions));
  std::printf("  hot peak                : %.1f MB (budget %.1f MB), "
              "verified=%s\n",
              peak_hot_mb, static_cast<double>(budget_bytes) / (1 << 20),
              verified ? "yes" : "NO");
}

void BM_Sha256_1MB(benchmark::State& state) {
  Bytes data(1 << 20, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (1 << 20));
}
BENCHMARK(BM_Sha256_1MB);

void BM_HashState_100k(benchmark::State& state) {
  core::TrainState s;
  s.model.resize(100'000, 0.5F);
  s.optimizer.resize(100'000, 0.25F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::hash_state(s));
  }
}
BENCHMARK(BM_HashState_100k);

void BM_LshDigest(benchmark::State& state) {
  const std::int64_t dim = state.range(0);
  lsh::LshConfig cfg{{1.0, 4, 4}, dim, 7};
  lsh::PStableLsh hasher(cfg);
  Rng rng(1);
  std::vector<float> v(static_cast<std::size_t>(dim));
  rng.fill_normal(v, 0.0F, 1.0F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher.hash(v));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * dim *
                          16);
}
BENCHMARK(BM_LshDigest)->Arg(10'000)->Arg(100'000);

void BM_AmLayerDerivation(benchmark::State& state) {
  const Address address = Address::from_seed(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::derive_amlayer_weight(address, core::AmLayerConfig{}));
  }
}
BENCHMARK(BM_AmLayerDerivation);

void BM_PrfBatchSelection(benchmark::State& state) {
  core::DeterministicSelector selector(99);
  std::int64_t step = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.batch_indices(step++, 128, 50'000));
  }
}
BENCHMARK(BM_PrfBatchSelection);

struct StepFixtureData {
  data::Dataset dataset;
  data::DatasetView view;
  std::unique_ptr<core::StepExecutor> executor;
  core::DeterministicSelector selector{5};

  StepFixtureData() {
    data::SyntheticImageConfig cfg;
    cfg.num_examples = 256;
    cfg.image_size = 8;
    cfg.seed = 3;
    dataset = data::make_synthetic_images(cfg);
    view = data::DatasetView::whole(dataset);
    nn::ModelConfig mc;
    mc.image_size = 8;
    mc.width = 4;
    mc.num_classes = 10;
    core::Hyperparams hp;
    hp.batch_size = 16;
    hp.steps_per_epoch = 1;
    executor = std::make_unique<core::StepExecutor>(
        nn::mini_resnet18_factory(mc, 1), hp);
  }
};

void BM_TrainingStep_MiniResNet18(benchmark::State& state) {
  static StepFixtureData fixture;
  std::int64_t step = 0;
  for (auto _ : state) {
    fixture.executor->run_steps(step++, 1, fixture.view, fixture.selector,
                                nullptr);
  }
}
BENCHMARK(BM_TrainingStep_MiniResNet18);

void BM_CheckpointSaveRestore(benchmark::State& state) {
  static StepFixtureData fixture;
  for (auto _ : state) {
    core::TrainState s = fixture.executor->save_state();
    fixture.executor->load_state(s);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_CheckpointSaveRestore);

void BM_ConvGemm_ResNet18_conv2(benchmark::State& state) {
  const auto shapes = sim::resnet18_conv_shapes();
  const sim::ConvLayerShape& s = shapes[1];  // conv2_x
  Rng rng(7);
  const Tensor input = Tensor::randn({1, s.in_channels, s.in_h, s.in_w}, rng);
  const Tensor weight = Tensor::randn({s.gemm_m(), s.gemm_k()}, rng, 0.05F);
  const Conv2dSpec spec{s.in_channels, s.out_channels, s.kernel, s.stride,
                        s.padding};
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(weight, im2col(input, spec)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConvGemm_ResNet18_conv2);

constexpr const char* kUsage =
    "usage: bench_micro [MODE] [--benchmark_...]\n"
    "  (no mode)       every harness, then the google-benchmark suites\n"
    "  --crypto-only   crypto/commitment harness only\n"
    "  --layout-only   blocked-layout conv harness only\n"
    "  --stream-only   streaming checkpoint harness only\n"
    "  --help          print this and exit\n"
    "Other arguments go to google-benchmark (--benchmark_filter=...).\n";

}  // namespace

int main(int argc, char** argv) {
  // Every argument is checked before a harness runs, so --help or a typo
  // exits at once and writes no BENCH_*.json. The --*-only modes run one
  // harness (the tier-1 advisory bench-diff runs these; the kernel harness
  // + google-benchmark suite take much longer).
  void (*only)() = nullptr;
  std::vector<char*> rest{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    }
    void (*mode)() = arg == "--crypto-only"   ? run_crypto_harness
                     : arg == "--layout-only" ? run_layout_harness
                     : arg == "--stream-only" ? run_stream_harness
                                              : nullptr;
    if (mode == nullptr) {
      rest.push_back(argv[i]);
    } else if (only == nullptr) {
      only = mode;  // the first mode wins
    }
  }
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) {
    std::fputs(kUsage, stderr);
    return 1;
  }
  if (only != nullptr) {
    only();
    return 0;
  }
  run_kernel_harness();
  run_layout_harness();
  run_crypto_harness();
  run_stream_harness();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
