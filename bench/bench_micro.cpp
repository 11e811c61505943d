// Microbenchmarks (google-benchmark) for the primitives on RPoL's hot
// paths: hashing (commitments), p-stable LSH digests, AMLayer derivation,
// training-step execution, and checkpoint state capture — plus three
// harnesses that time production code and write rpol.bench.v1 records: the
// crypto/commitment harness, the blocked-layout conv harness (Conv2d
// against a bench-local im2col + GEMM reference), and the streaming
// checkpoint harness.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
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

// The conv_pool model's training step at one thread: MiniResNet18 width 8,
// one block per stage, batch 32 on 16x16 inputs, so its convs run on
// planes from 16x16 down to 2x2 — the step the pool's workers, verifier
// and calibration all execute. Best-of-N forward and backward seconds; each
// backward sample runs its own untimed forward first.
struct StepResult {
  double fwd_s = 0.0, bwd_s = 0.0;
};

StepResult run_mini_resnet18_step() {
  nn::ModelConfig mc;
  mc.image_size = 16;
  mc.num_classes = 10;
  mc.width = 8;
  nn::Model model = nn::make_mini_resnet18(mc, /*blocks_per_stage=*/1);
  Rng rng(11);
  const Tensor input = Tensor::randn({32, 3, 16, 16}, rng, 1.0F);
  const Tensor dy = Tensor::randn({32, mc.num_classes}, rng, 0.1F);
  constexpr double kMinS = 0.5;
  constexpr int kMaxIters = 60;
  StepResult r;
  r.fwd_s = time_best(
      [&] { benchmark::DoNotOptimize(model.forward(input, true)); }, kMinS,
      kMaxIters);
  model.forward(input, true);
  model.backward(dy);  // warmup
  std::vector<double> samples;
  double total = 0.0;
  while (total < kMinS &&
         samples.size() < static_cast<std::size_t>(kMaxIters)) {
    model.forward(input, true);
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(model.backward(dy));
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    samples.push_back(sec);
    total += sec;
  }
  r.bwd_s = bench::summarize_latencies(samples).best;
  return r;
}

void run_layout_harness() {
  const int default_threads = runtime::threads();
  std::vector<LayoutResult> results;
  // ResNet18 residual stages at full spatial resolution (batch 1 — the
  // verifier's re-execution regime), VGG16 mid/late stages at 1/4 spatial
  // (their GEMMs are ~16x larger: same shape class, bench-sized extent).
  for (const auto& s : sim::resnet18_conv_shapes()) {
    if (s.layer == "conv1" || s.layer.find("entry") != std::string::npos) continue;
    results.push_back(run_layout_shape("ResNet18", s, /*batch=*/1, /*spatial_div=*/1));
  }
  for (const auto& s : sim::vgg16_conv_shapes()) {
    if (s.layer != "conv3_x" && s.layer != "conv5_x") continue;
    results.push_back(run_layout_shape("VGG16", s, /*batch=*/1, /*spatial_div=*/4));
  }
  runtime::set_threads(1);
  const StepResult step = run_mini_resnet18_step();
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
  recorder.add("nn.step.MiniResNet18w8.fwd.ms.1t", "ms", step.fwd_s * 1e3,
               /*higher_is_better=*/false, /*threads=*/1);
  recorder.add("nn.step.MiniResNet18w8.bwd.ms.1t", "ms", step.bwd_s * 1e3,
               /*higher_is_better=*/false, /*threads=*/1);
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
  std::printf("MiniResNet18 w8 step, batch 32 on 16x16 (1t): forward %.2f ms, "
              "backward %.2f ms\n",
              step.fwd_s * 1e3, step.bwd_s * 1e3);
}

// Crypto/commitment harness: SHA-256 streaming throughput, batched state
// hashing, end-to-end commit_v1/commit_v2 at ResNet18-scale state sizes,
// Merkle construction, and memoized transition proofs, recorded in the
// rpol.bench.v1 registry.
void run_crypto_harness() {
  const int default_threads = runtime::threads();
  bench::BenchRecorder recorder("bench_micro");

  // SHA-256 streaming throughput (single-threaded, one-shot over 8 MiB).
  const double stream_mb = 8.0;
  Bytes stream(static_cast<std::size_t>(stream_mb * (1 << 20)));
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  const double sha_s =
      time_best([&] { benchmark::DoNotOptimize(sha256(stream)); });
  recorder.add("crypto.sha256.stream.mb_s", "MB/s", stream_mb / sha_s,
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

  // Merkle construction over 65536 leaves (parallel per-level build).
  std::vector<Digest> leaves(65'536);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    Bytes b(8);
    for (int j = 0; j < 8; ++j) b[j] = static_cast<std::uint8_t>(i >> (8 * j));
    leaves[i] = sha256(b);
  }
  const double merkle_s =
      time_best([&] { benchmark::DoNotOptimize(MerkleTree(leaves)); });
  recorder.add("crypto.merkle.build_65536.s", "s", merkle_s,
               /*higher_is_better=*/false, /*threads=*/4);

  // Transition proofs: n=1024 small checkpoints, q=16 sampled transitions;
  // a CommitmentIndex is built once and answers each sample in O(log n).
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
  const double proofs_s = time_best([&] {
    const core::CommitmentIndex index(small_full);
    for (const std::size_t j : samples) {
      benchmark::DoNotOptimize(
          index.prove_transition(static_cast<std::int64_t>(j)));
    }
  });
  recorder.add("crypto.transition_proof.n1024.q16.s", "s", proofs_s,
               /*higher_is_better=*/false, /*threads=*/4);

  runtime::set_threads(default_threads);
  recorder.write();

  std::printf("\ncrypto harness (state = %.1f MB/commit)\n", commit_mb);
  std::printf("  sha256 stream 8MiB      : %7.1f MB/s\n", stream_mb / sha_s);
  std::printf("  commit_v1 resnet18      : 1t %.3fs, 4t %.3fs\n", v1_1t_s,
              v1_4t_s);
  std::printf("  commit_v2 resnet18      : 1t %.3fs, 4t %.3fs\n", v2_1t_s,
              v2_4t_s);
  std::printf("  merkle build 65536      : %.4fs\n", merkle_s);
  std::printf("  transition proofs q16   : %.3f ms\n", proofs_s * 1e3);
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

constexpr const char* kUsage =
    "usage: bench_micro [MODE] [--benchmark_...]\n"
    "  (no mode)       the layout, crypto and stream harnesses, then the\n"
    "                  google-benchmark suites\n"
    "  --crypto-only   crypto/commitment harness only\n"
    "  --layout-only   blocked-layout conv harness only\n"
    "  --stream-only   streaming checkpoint harness only\n"
    "  --help          print this and exit\n"
    "Other arguments go to google-benchmark (--benchmark_filter=...).\n";

}  // namespace

int main(int argc, char** argv) {
  // Every argument is checked before a harness runs, so --help or a typo
  // exits at once and writes no BENCH_*.json. The --*-only modes run one
  // harness (the tier-1 advisory bench-diff runs these; the whole set plus
  // the google-benchmark suites takes much longer).
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
  run_layout_harness();
  run_crypto_harness();
  run_stream_harness();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
