#include "tensor/layout.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <type_traits>
#include <vector>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
// The pinned-ISA (RPOL_SIMD=ON) kernels below use explicit __m256 FMAs.
// vfmadd231ps performs an independent single-rounding fma per lane —
// exactly __builtin_fmaf (ops.h madd) applied to 8 elements — so the
// vector kernels are bitwise equal to the scalar reference loops they
// shadow; the scalar loops remain the RPOL_SIMD=OFF build's kernels.
#define RPOL_LAYOUT_AVX2 1
#endif

#include "obs/obs.h"
#include "runtime/thread_pool.h"

namespace rpol::layout {

namespace {

// Same sampled kernel timer as tensor/ops.cpp (1-in-8 while tracing).
class KernelTimer {
 public:
  KernelTimer(std::atomic<std::uint64_t>& tick, const char* histogram)
      : sampled_(obs::sample_tick(tick, 8)),
        name_(histogram),
        start_(sampled_ ? obs::now_ns() : 0) {}
  ~KernelTimer() {
    if (sampled_) obs::histogram(name_).record(obs::now_ns() - start_);
  }
  KernelTimer(const KernelTimer&) = delete;
  KernelTimer& operator=(const KernelTimer&) = delete;

 private:
  bool sampled_;
  const char* name_;
  std::uint64_t start_;
};

#ifdef RPOL_LAYOUT_AVX2
// In-register 8x8 transpose: v[i] lane j becomes v[j] lane i. Shuffles move
// bits and compute nothing.
inline void transpose8x8(__m256 (&v)[kBlock]) {
  const __m256 t0 = _mm256_unpacklo_ps(v[0], v[1]);
  const __m256 t1 = _mm256_unpackhi_ps(v[0], v[1]);
  const __m256 t2 = _mm256_unpacklo_ps(v[2], v[3]);
  const __m256 t3 = _mm256_unpackhi_ps(v[2], v[3]);
  const __m256 t4 = _mm256_unpacklo_ps(v[4], v[5]);
  const __m256 t5 = _mm256_unpackhi_ps(v[4], v[5]);
  const __m256 t6 = _mm256_unpacklo_ps(v[6], v[7]);
  const __m256 t7 = _mm256_unpackhi_ps(v[6], v[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  v[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  v[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  v[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  v[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  v[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  v[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  v[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  v[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}
#endif

// Copies one nChw8c block plane (hw pixels of 8 lanes at src) to `lanes`
// NCHW channel planes, channel ci at dst + ci * hw.
void block_to_planes(const float* src, std::int64_t hw, std::int64_t lanes,
                     float* dst) {
  std::int64_t i = 0;
#ifdef RPOL_LAYOUT_AVX2
  // Eight pixels at a time: eight pixels in, eight channel rows out. A
  // partial block takes the scalar loop, which skips its padded lanes.
  if (lanes == kBlock) {
    for (; i + kBlock <= hw; i += kBlock) {
      __m256 v[kBlock];
      for (std::int64_t p = 0; p < kBlock; ++p) {
        v[p] = _mm256_loadu_ps(src + (i + p) * kBlock);
      }
      transpose8x8(v);
      for (std::int64_t ci = 0; ci < kBlock; ++ci) {
        _mm256_storeu_ps(dst + ci * hw + i, v[ci]);
      }
    }
  }
#endif
  for (; i < hw; ++i) {
    for (std::int64_t ci = 0; ci < lanes; ++ci) {
      dst[ci * hw + i] = src[i * kBlock + ci];
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Reorders. Pure gathers/scatters — each destination element is written by
// exactly one thread and no arithmetic is performed, so they cannot perturb
// results regardless of partitioning.

Tensor nchw_to_nchw8c(const Tensor& input, std::int64_t padding) {
  if (input.rank() != 4) {
    throw std::invalid_argument("nchw_to_nchw8c expects NCHW input");
  }
  const std::int64_t n = input.dim(0), c = input.dim(1);
  const std::int64_t h = input.dim(2), w = input.dim(3);
  const std::int64_t hp = h + 2 * padding, wp = w + 2 * padding;
  const std::int64_t cb = blocks(c);
  static std::atomic<std::uint64_t> tick{0};
  KernelTimer timer(tick, "kernel.reorder_nchw8c_ns");
  // Zero-init covers the padded lanes AND the spatial padding ring: the
  // conv kernels then multiply explicit +0s exactly where im2col writes
  // them, so no tap ever needs a bounds check.
  Tensor out({n, cb, hp, wp, kBlock});
  const float* pin = input.data();
  float* pout = out.data();
  runtime::parallel_for(0, n * cb, 1, [&](std::int64_t s0, std::int64_t s1) {
    for (std::int64_t slice = s0; slice < s1; ++slice) {
      const std::int64_t img = slice / cb;
      const std::int64_t b = slice % cb;
      const std::int64_t lanes = std::min(kBlock, c - b * kBlock);
      const float* src = pin + (img * c + b * kBlock) * h * w;
      float* dst = pout + slice * hp * wp * kBlock;
      // One run of pixels per row, or one over the whole plane when there is
      // no padding ring: its rows are then contiguous on both sides.
      const std::int64_t runs = padding == 0 ? 1 : h;
      const std::int64_t len = padding == 0 ? h * w : w;
      for (std::int64_t r = 0; r < runs; ++r) {
        const float* srun = src + r * len;  // channel ci at + ci * h * w
        float* drun = dst + ((r + padding) * wp + padding) * kBlock;
        std::int64_t x = 0;
#ifdef RPOL_LAYOUT_AVX2
        // Eight pixels at a time: eight channel rows in, eight pixels out.
        for (; x + kBlock <= len; x += kBlock) {
          __m256 v[kBlock];
          for (std::int64_t ci = 0; ci < kBlock; ++ci) {
            v[ci] = ci < lanes ? _mm256_loadu_ps(srun + ci * h * w + x)
                               : _mm256_setzero_ps();
          }
          transpose8x8(v);
          for (std::int64_t p = 0; p < kBlock; ++p) {
            _mm256_storeu_ps(drun + (x + p) * kBlock, v[p]);
          }
        }
#endif
        for (; x < len; ++x) {
          for (std::int64_t ci = 0; ci < lanes; ++ci) {
            drun[x * kBlock + ci] = srun[ci * h * w + x];
          }
        }
      }
    }
  });
  return out;
}

Tensor nchw8c_to_nchw(const Tensor& blocked, std::int64_t channels) {
  if (blocked.rank() != 5 || blocked.dim(4) != kBlock) {
    throw std::invalid_argument("nchw8c_to_nchw expects nChw8c input");
  }
  const std::int64_t n = blocked.dim(0), cb = blocked.dim(1);
  const std::int64_t h = blocked.dim(2), w = blocked.dim(3);
  if (cb != blocks(channels)) {
    throw std::invalid_argument("nchw8c_to_nchw channel-block mismatch");
  }
  const std::int64_t hw = h * w;
  static std::atomic<std::uint64_t> tick{0};
  KernelTimer timer(tick, "kernel.reorder_nchw_ns");
  Tensor out({n, channels, h, w});
  const float* pin = blocked.data();
  float* pout = out.data();
  runtime::parallel_for(0, n * cb, 1, [&](std::int64_t s0, std::int64_t s1) {
    for (std::int64_t slice = s0; slice < s1; ++slice) {
      const std::int64_t img = slice / cb;
      const std::int64_t b = slice % cb;
      const std::int64_t lanes = std::min(kBlock, channels - b * kBlock);
      block_to_planes(pin + slice * hw * kBlock, hw, lanes,
                      pout + (img * channels + b * kBlock) * hw);
    }
  });
  return out;
}

Tensor oihw_to_oihw8i8o(const Tensor& weight, const Conv2dSpec& spec) {
  const std::int64_t o = spec.out_channels, c = spec.in_channels;
  const std::int64_t k = spec.kernel;
  const std::int64_t ckk = c * k * k;
  if (weight.rank() != 2 || weight.dim(0) != o || weight.dim(1) != ckk) {
    throw std::invalid_argument("oihw_to_oihw8i8o weight shape mismatch");
  }
  const std::int64_t ob = blocks(o), cb = blocks(c);
  static std::atomic<std::uint64_t> tick{0};
  KernelTimer timer(tick, "kernel.reorder_oihw8i8o_ns");
  Tensor out({ob, cb, k, k, kBlock, kBlock});  // zero-init pads both axes
  const float* pw = weight.data();
  float* po = out.data();
  runtime::parallel_for(0, ob * cb, 1, [&](std::int64_t s0, std::int64_t s1) {
    for (std::int64_t slice = s0; slice < s1; ++slice) {
      const std::int64_t obi = slice / cb;
      const std::int64_t ibi = slice % cb;
      const std::int64_t o_lanes = std::min(kBlock, o - obi * kBlock);
      const std::int64_t i_lanes = std::min(kBlock, c - ibi * kBlock);
      float* blk = po + slice * k * k * kBlock * kBlock;
      for (std::int64_t kh = 0; kh < k; ++kh) {
        for (std::int64_t kw = 0; kw < k; ++kw) {
          for (std::int64_t ii = 0; ii < i_lanes; ++ii) {
            const std::int64_t kk =
                ((ibi * kBlock + ii) * k + kh) * k + kw;
            float* dst = blk + ((kh * k + kw) * kBlock + ii) * kBlock;
            for (std::int64_t oo = 0; oo < o_lanes; ++oo) {
              dst[oo] = pw[(obi * kBlock + oo) * ckk + kk];
            }
          }
        }
      }
    }
  });
  return out;
}

Tensor oihw8i8o_to_oihw(const Tensor& blocked, const Conv2dSpec& spec) {
  const std::int64_t o = spec.out_channels, c = spec.in_channels;
  const std::int64_t k = spec.kernel;
  const std::int64_t ob = blocks(o), cb = blocks(c);
  if (blocked.rank() != 6 || blocked.dim(0) != ob || blocked.dim(1) != cb) {
    throw std::invalid_argument("oihw8i8o_to_oihw shape mismatch");
  }
  const std::int64_t ckk = c * k * k;
  static std::atomic<std::uint64_t> tick{0};
  KernelTimer timer(tick, "kernel.reorder_oihw_ns");
  Tensor out({o, ckk});
  const float* pb = blocked.data();
  float* pw = out.data();
  runtime::parallel_for(0, o, 1, [&](std::int64_t o0, std::int64_t o1) {
    for (std::int64_t oc = o0; oc < o1; ++oc) {
      const std::int64_t obi = oc / kBlock, oo = oc % kBlock;
      for (std::int64_t ic = 0; ic < c; ++ic) {
        const std::int64_t ibi = ic / kBlock, ii = ic % kBlock;
        const float* blk =
            pb + (obi * cb + ibi) * k * k * kBlock * kBlock;
        for (std::int64_t kh = 0; kh < k; ++kh) {
          for (std::int64_t kw = 0; kw < k; ++kw) {
            pw[oc * ckk + (ic * k + kh) * k + kw] =
                blk[((kh * k + kw) * kBlock + ii) * kBlock + oo];
          }
        }
      }
    }
  });
  return out;
}

ConvWeightPack make_conv_weight_pack(const Tensor& weight,
                                     const Conv2dSpec& spec) {
  ConvWeightPack pack;
  pack.blocked = oihw_to_oihw8i8o(weight, spec);
  // Times only the Ihwo8i reorder below; the blocked reorder above has its
  // own histogram (kernel.reorder_oihw8i8o_ns).
  static std::atomic<std::uint64_t> tick{0};
  KernelTimer timer(tick, "kernel.weight_pack_ns");
  const std::int64_t o = spec.out_channels, c = spec.in_channels;
  const std::int64_t ktaps = spec.kernel * spec.kernel;
  const std::int64_t cb = blocks(c);
  pack.ihwo8i = Tensor({cb, spec.kernel, spec.kernel, o, kBlock});  // zero lanes
  const float* pw = weight.data();
  float* pi = pack.ihwo8i.data();
  runtime::parallel_for(0, cb, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t icb = b0; icb < b1; ++icb) {
      const std::int64_t lanes = std::min(kBlock, c - icb * kBlock);
      for (std::int64_t oc = 0; oc < o; ++oc) {
        for (std::int64_t t = 0; t < ktaps; ++t) {
          float* dst = pi + ((icb * ktaps + t) * o + oc) * kBlock;
          for (std::int64_t ii = 0; ii < lanes; ++ii) {
            dst[ii] = pw[oc * c * ktaps + (icb * kBlock + ii) * ktaps + t];
          }
        }
      }
    }
  });
  return pack;
}

// ---------------------------------------------------------------------------
// Direct forward.
//
// Work item = one (img, ocb-pair) output plane; each plane is owned by one
// thread and every output element accumulates serially over taps in the
// im2col patch-row order (ic, kh, kw), so the result is bitwise equal to
// matmul(W, im2col(X)) for any thread count (see layout.h header).

Tensor conv2d_direct_forward(const Tensor& input_blocked,
                             const Tensor& weight_blocked, const Tensor& bias,
                             const Conv2dSpec& spec, std::int64_t in_h,
                             std::int64_t in_w) {
  const std::int64_t n = input_blocked.dim(0);
  const std::int64_t cb = input_blocked.dim(1);
  const std::int64_t c = spec.in_channels, o = spec.out_channels;
  const std::int64_t ob = blocks(o);
  const std::int64_t kernel = spec.kernel, stride = spec.stride,
                     pad = spec.padding;
  const std::int64_t hp = in_h + 2 * pad, wp = in_w + 2 * pad;
  if (cb != blocks(c) || input_blocked.dim(2) != hp ||
      input_blocked.dim(3) != wp) {
    throw std::invalid_argument(
        "conv2d_direct_forward expects pre-padded blocked input");
  }
  const std::int64_t oh = spec.out_size(in_h), ow = spec.out_size(in_w);
  static std::atomic<std::uint64_t> tick{0};
  KernelTimer timer(tick, "kernel.conv_direct_fwd_ns");
  Tensor out({n, ob, oh, ow, kBlock});
  const float* px = input_blocked.data();
  const float* pw = weight_blocked.data();
  const float* pbias = bias.empty() ? nullptr : bias.data();
  float* py = out.data();
  constexpr std::int64_t XB = 4;  // max x positions per register tile

  // A work unit is an (img, ocb-pair) output plane. Within a unit the input-
  // channel block loop is OUTERMOST so one (pair, icb) weight sub-panel
  // (2*k*k*64 floats) stays L1-resident across the whole plane — with the x
  // loop outermost, deep-channel shapes re-stream the full weight panel per
  // x-block and go memory-bound. Partial sums live in a per-unit plane
  // buffer; spilling an fp32 accumulator to memory and reloading it is
  // exact, and every output element still sees its taps in the im2col
  // (ic, kh, kw) order, so the result is unchanged bitwise.
  //
  // The pre-padded input makes every tap unconditionally loadable: padding
  // taps multiply the explicit +0s the reorder wrote, the very values
  // im2col materializes, so the chains match term for term and
  // no x position needs a slower edge path.
  //
  // The 2xCNT (ocb, x) register tile holds up to eight independent fma
  // chains — enough to hide FMA latency on one core — and halves the
  // weight-vector loads per fma. Chain independence is free bitwise:
  // different output elements never share an accumulator.
  const std::int64_t obp = (ob + 1) / 2;  // ocb pairs; last may be a single

  runtime::parallel_for(0, n * obp, 1, [&](std::int64_t u0, std::int64_t u1) {
#ifdef RPOL_LAYOUT_AVX2
    std::vector<float> accbuf(2 * oh * ow * kBlock);
#endif
    for (std::int64_t unit = u0; unit < u1; ++unit) {
      const std::int64_t pair = unit % obp;
      const std::int64_t img = unit / obp;
      const std::int64_t obi0 = 2 * pair;
      const bool has2 = obi0 + 1 < ob;
      const std::int64_t wblk_sz = cb * kernel * kernel * kBlock * kBlock;

      // Stores acc (+ bias once, matching the post-GEMM bias add).
      const auto store = [&](std::int64_t obi, std::int64_t y, std::int64_t x,
                             const float* acc) {
        float* dst = py + (((img * ob + obi) * oh + y) * ow + x) * kBlock;
        const std::int64_t o_lanes = std::min(kBlock, o - obi * kBlock);
        if (pbias != nullptr) {
          for (std::int64_t jj = 0; jj < o_lanes; ++jj) {
            dst[jj] = acc[jj] + pbias[obi * kBlock + jj];
          }
          for (std::int64_t jj = o_lanes; jj < kBlock; ++jj) dst[jj] = acc[jj];
        } else {
          for (std::int64_t jj = 0; jj < kBlock; ++jj) dst[jj] = acc[jj];
        }
      };

#ifdef RPOL_LAYOUT_AVX2
      const float* wbase0 = pw + obi0 * wblk_sz;
      const float* wbase1 = wbase0 + wblk_sz;
      std::fill(accbuf.begin(), accbuf.end(), 0.0F);
      float* abuf0 = accbuf.data();
      float* abuf1 = abuf0 + oh * ow * kBlock;

      for (std::int64_t icb = 0; icb < cb; ++icb) {
        const std::int64_t i_lanes = std::min(kBlock, c - icb * kBlock);
        const float* xplane = px + ((img * cb + icb) * hp) * wp * kBlock;
        const float* wblk0 = wbase0 + icb * kernel * kernel * kBlock * kBlock;
        const float* wblk1 = wbase1 + icb * kernel * kernel * kBlock * kBlock;
        for (std::int64_t y = 0; y < oh; ++y) {
          float* arow0 = abuf0 + y * ow * kBlock;
          float* arow1 = abuf1 + y * ow * kBlock;
          const float* xrow0 = xplane + y * stride * wp * kBlock;

          // Prefetch the next icb's weight sub-panels, a few lines per y
          // row: the fma loop otherwise stalls on L2 at every panel switch.
          // (Prefetching never touches results — purely a timing hint.)
          if (icb + 1 < cb) {
            const std::int64_t pbytes =
                kernel * kernel * kBlock * kBlock *
                static_cast<std::int64_t>(sizeof(float));
            const std::int64_t chunk = (pbytes + oh - 1) / oh;
            const char* p0 = reinterpret_cast<const char*>(wblk0) + pbytes;
            const char* p1 = reinterpret_cast<const char*>(wblk1) + pbytes;
            const std::int64_t b1 = std::min((y + 1) * chunk, pbytes);
            for (std::int64_t b = y * chunk; b < b1; b += 64) {
              _mm_prefetch(p0 + b, _MM_HINT_T0);
              _mm_prefetch(p1 + b, _MM_HINT_T0);
            }
          }

          // One register tile: CNT x positions for two ocb blocks. cnt_c is
          // an integral_constant so each width compiles to a fixed-size
          // register tile (a variable bound would spill the accumulators).
          // sb_c is the x step in floats (stride * kBlock) as a compile-time
          // constant for stride 1, or 0 meaning "read the runtime stride" —
          // a runtime step costs a shift+add per broadcast, which for the
          // stride-1 shapes is a third of the loop's issue slots.
          const auto tile2 = [&](std::int64_t x, auto cnt_c, auto sb_c) {
            constexpr std::int64_t CNT = decltype(cnt_c)::value;
            constexpr std::int64_t SB = decltype(sb_c)::value;
            const std::int64_t sb = SB != 0 ? SB : stride * kBlock;
            __m256 a[CNT], b[CNT];
            #pragma GCC unroll 8
            for (std::int64_t l = 0; l < CNT; ++l) {
              a[l] = _mm256_loadu_ps(arow0 + (x + l) * kBlock);
              b[l] = _mm256_loadu_ps(arow1 + (x + l) * kBlock);
            }
            if (kernel == 3) {
              // 3x3 specialization: the nine taps are spelled out with
              // literal (kh, kw) so the compiler folds every offset and the
              // loop body carries no per-tap address arithmetic — the
              // generic version spends as many issue slots on bookkeeping
              // as on fmas. Tap order per element is unchanged: ici
              // ascending, then (kh, kw) ascending.
              const float* xb0 = xrow0 + x * stride * kBlock;
              for (std::int64_t ici = 0; ici < i_lanes; ++ici) {
                const float* wt0 = wblk0 + ici * kBlock;
                const float* wt1 = wblk1 + ici * kBlock;
                const float* xt = xb0 + ici;
                const auto tap = [&](std::int64_t kh, std::int64_t kw) {
                  const std::int64_t toff = (kh * 3 + kw) * kBlock * kBlock;
                  const __m256 w0 = _mm256_loadu_ps(wt0 + toff);
                  const __m256 w1 = _mm256_loadu_ps(wt1 + toff);
                  const float* xb = xt + (kh * wp + kw) * kBlock;
                  #pragma GCC unroll 8
                  for (std::int64_t l = 0; l < CNT; ++l) {
                    const __m256 xv =
                        _mm256_broadcast_ss(xb + l * sb);
                    a[l] = _mm256_fmadd_ps(xv, w0, a[l]);
                    b[l] = _mm256_fmadd_ps(xv, w1, b[l]);
                  }
                };
                tap(0, 0);
                tap(0, 1);
                tap(0, 2);
                tap(1, 0);
                tap(1, 1);
                tap(1, 2);
                tap(2, 0);
                tap(2, 1);
                tap(2, 2);
              }
            } else {
              for (std::int64_t ici = 0; ici < i_lanes; ++ici) {
                for (std::int64_t kh = 0; kh < kernel; ++kh) {
                  const float* xrow = xrow0 + kh * wp * kBlock + ici;
                  for (std::int64_t kw = 0; kw < kernel; ++kw) {
                    const std::int64_t toff =
                        ((kh * kernel + kw) * kBlock + ici) * kBlock;
                    const __m256 w0 = _mm256_loadu_ps(wblk0 + toff);
                    const __m256 w1 = _mm256_loadu_ps(wblk1 + toff);
                    const float* xb = xrow + (x * stride + kw) * kBlock;
                    #pragma GCC unroll 8
                    for (std::int64_t l = 0; l < CNT; ++l) {
                      const __m256 xv =
                          _mm256_broadcast_ss(xb + l * sb);
                      a[l] = _mm256_fmadd_ps(xv, w0, a[l]);
                      b[l] = _mm256_fmadd_ps(xv, w1, b[l]);
                    }
                  }
                }
              }
            }
            #pragma GCC unroll 8
            for (std::int64_t l = 0; l < CNT; ++l) {
              _mm256_storeu_ps(arow0 + (x + l) * kBlock, a[l]);
              _mm256_storeu_ps(arow1 + (x + l) * kBlock, b[l]);
            }
          };
          const auto tile1 = [&](std::int64_t x, auto cnt_c, auto sb_c) {
            constexpr std::int64_t CNT = decltype(cnt_c)::value;
            constexpr std::int64_t SB = decltype(sb_c)::value;
            const std::int64_t sb = SB != 0 ? SB : stride * kBlock;
            __m256 a[CNT];
            #pragma GCC unroll 8
            for (std::int64_t l = 0; l < CNT; ++l) {
              a[l] = _mm256_loadu_ps(arow0 + (x + l) * kBlock);
            }
            if (kernel == 3) {
              const float* xb0 = xrow0 + x * stride * kBlock;
              for (std::int64_t ici = 0; ici < i_lanes; ++ici) {
                const float* wt0 = wblk0 + ici * kBlock;
                const float* xt = xb0 + ici;
                const auto tap = [&](std::int64_t kh, std::int64_t kw) {
                  const __m256 w0 =
                      _mm256_loadu_ps(wt0 + (kh * 3 + kw) * kBlock * kBlock);
                  const float* xb = xt + (kh * wp + kw) * kBlock;
                  #pragma GCC unroll 8
                  for (std::int64_t l = 0; l < CNT; ++l) {
                    a[l] = _mm256_fmadd_ps(
                        _mm256_broadcast_ss(xb + l * sb), w0,
                        a[l]);
                  }
                };
                tap(0, 0);
                tap(0, 1);
                tap(0, 2);
                tap(1, 0);
                tap(1, 1);
                tap(1, 2);
                tap(2, 0);
                tap(2, 1);
                tap(2, 2);
              }
            } else {
              for (std::int64_t ici = 0; ici < i_lanes; ++ici) {
                for (std::int64_t kh = 0; kh < kernel; ++kh) {
                  const float* xrow = xrow0 + kh * wp * kBlock + ici;
                  for (std::int64_t kw = 0; kw < kernel; ++kw) {
                    const __m256 w0 = _mm256_loadu_ps(
                        wblk0 + ((kh * kernel + kw) * kBlock + ici) * kBlock);
                    const float* xb = xrow + (x * stride + kw) * kBlock;
                    #pragma GCC unroll 8
                    for (std::int64_t l = 0; l < CNT; ++l) {
                      a[l] = _mm256_fmadd_ps(
                          _mm256_broadcast_ss(xb + l * sb), w0,
                          a[l]);
                    }
                  }
                }
              }
            }
            #pragma GCC unroll 8
            for (std::int64_t l = 0; l < CNT; ++l) {
              _mm256_storeu_ps(arow0 + (x + l) * kBlock, a[l]);
            }
          };

          // Adaptive chunk plan: a 1-wide tile carries too few fma chains to
          // hide latency, so rows with ow % 4 == 1 trade the trailing 4+1
          // for 3+2 (6 and 4 chains instead of 8 and 2). Chunk boundaries
          // only regroup which elements share a register tile — each
          // element's own chain is untouched, so the split is bitwise-free.
          const auto row_plan = [&](auto sb_c) {
            constexpr std::integral_constant<std::int64_t, XB> c4{};
            constexpr std::integral_constant<std::int64_t, 3> c3{};
            constexpr std::integral_constant<std::int64_t, 2> c2{};
            constexpr std::integral_constant<std::int64_t, 1> c1{};
            std::int64_t n4 = ow / XB, rem = ow % XB;
            if (rem == 1 && n4 > 0) {
              --n4;
              rem = 5;
            }
            std::int64_t x = 0;
            if (has2) {
              for (std::int64_t i = 0; i < n4; ++i, x += XB) {
                tile2(x, c4, sb_c);
              }
              switch (rem) {
                case 5:
                  tile2(x, c3, sb_c);
                  tile2(x + 3, c2, sb_c);
                  break;
                case 3:
                  tile2(x, c3, sb_c);
                  break;
                case 2:
                  tile2(x, c2, sb_c);
                  break;
                case 1:
                  tile2(x, c1, sb_c);
                  break;
                default:
                  break;
              }
            } else {
              for (std::int64_t i = 0; i < n4; ++i, x += XB) {
                tile1(x, c4, sb_c);
              }
              switch (rem) {
                case 5:
                  tile1(x, c3, sb_c);
                  tile1(x + 3, c2, sb_c);
                  break;
                case 3:
                  tile1(x, c3, sb_c);
                  break;
                case 2:
                  tile1(x, c2, sb_c);
                  break;
                case 1:
                  tile1(x, c1, sb_c);
                  break;
                default:
                  break;
              }
            }
          };
          if (stride == 1) {
            row_plan(std::integral_constant<std::int64_t, kBlock>{});
          } else {
            row_plan(std::integral_constant<std::int64_t, 0>{});
          }
        }
      }
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t x = 0; x < ow; ++x) {
          store(obi0, y, x, abuf0 + (y * ow + x) * kBlock);
          if (has2) store(obi0 + 1, y, x, abuf1 + (y * ow + x) * kBlock);
        }
      }
#else
      // Scalar reference kernels (RPOL_SIMD=OFF builds): each present block
      // runs independently. Loop nesting differs from the AVX2 path but each
      // element's serial tap chain is the same (ic, kh, kw) order, so both
      // builds round identically per-element (they differ only in ISA
      // pinning, see layout.h).
      for (std::int64_t blk = 0; blk < (has2 ? 2 : 1); ++blk) {
        const std::int64_t obi = obi0 + blk;
        const float* wbase = pw + obi * wblk_sz;
        for (std::int64_t y = 0; y < oh; ++y) {
          for (std::int64_t x = 0; x < ow; ++x) {
            float acc[kBlock] = {};
            for (std::int64_t icb = 0; icb < cb; ++icb) {
              const std::int64_t i_lanes = std::min(kBlock, c - icb * kBlock);
              const float* xplane = px + ((img * cb + icb) * hp) * wp * kBlock;
              const float* wblk =
                  wbase + icb * kernel * kernel * kBlock * kBlock;
              for (std::int64_t ici = 0; ici < i_lanes; ++ici) {
                for (std::int64_t kh = 0; kh < kernel; ++kh) {
                  const float* xrow =
                      xplane + (y * stride + kh) * wp * kBlock;
                  for (std::int64_t kw = 0; kw < kernel; ++kw) {
                    const float xv = xrow[(x * stride + kw) * kBlock + ici];
                    const float* wv =
                        wblk + ((kh * kernel + kw) * kBlock + ici) * kBlock;
                    for (std::int64_t jj = 0; jj < kBlock; ++jj) {
                      acc[jj] = madd(xv, wv[jj], acc[jj]);
                    }
                  }
                }
              }
            }
            store(obi, y, x, acc);
          }
        }
      }
#endif
    }
  });
  return out;
}

// ---------------------------------------------------------------------------
// Direct backward-weights.
//
// Work item = one (output-channel block, input channel) pair; it owns the
// kernel*kernel dW elements for its 8 output lanes. Each element accumulates
// serially over j = (img, y, x) ascending — matmul_nt's dot order over the
// im2col columns. The pre-padded input means padding taps multiply the same
// explicit +0s im2col materializes, so every j contributes
// the identical term and no tap needs a bounds check.

void conv2d_direct_backward_weights(const Tensor& grad_blocked,
                                    const Tensor& input_blocked,
                                    const Conv2dSpec& spec, std::int64_t in_h,
                                    std::int64_t in_w, Tensor& weight_grad) {
  const std::int64_t n = grad_blocked.dim(0);
  const std::int64_t ob = grad_blocked.dim(1);
  const std::int64_t oh = grad_blocked.dim(2), ow = grad_blocked.dim(3);
  const std::int64_t cb = input_blocked.dim(1);
  const std::int64_t c = spec.in_channels, o = spec.out_channels;
  const std::int64_t kernel = spec.kernel, stride = spec.stride,
                     pad = spec.padding;
  const std::int64_t hp = in_h + 2 * pad, wp = in_w + 2 * pad;
  const std::int64_t ckk = c * kernel * kernel;
  if (ob != blocks(o) || cb != blocks(c) || weight_grad.dim(0) != o ||
      weight_grad.dim(1) != ckk || input_blocked.dim(2) != hp ||
      input_blocked.dim(3) != wp) {
    throw std::invalid_argument("conv2d_direct_backward_weights mismatch");
  }
  static std::atomic<std::uint64_t> tick{0};
  KernelTimer timer(tick, "kernel.conv_direct_bwd_w_ns");
  const float* pg = grad_blocked.data();
  const float* px = input_blocked.data();
  float* pwg = weight_grad.data();
  constexpr std::int64_t kMaxTaps = 16;  // >= kernel*kernel for k in {1,3}
  if (kernel * kernel > kMaxTaps) {
    throw std::invalid_argument("conv2d_direct_backward_weights kernel too large");
  }

  runtime::parallel_for(0, ob * c, 1, [&](std::int64_t u0, std::int64_t u1) {
    for (std::int64_t unit = u0; unit < u1; ++unit) {
      const std::int64_t obi = unit / c;
      const std::int64_t ic = unit % c;
      const std::int64_t icb = ic / kBlock, ici = ic % kBlock;
      const std::int64_t o_lanes = std::min(kBlock, o - obi * kBlock);
      float acc[kMaxTaps][kBlock] = {};
#ifdef RPOL_LAYOUT_AVX2
      if (kernel == 3) {
        // 3x3 specialization: the nine dW taps are DIFFERENT output
        // elements, so their chains may interleave freely — nine register
        // chains hide the fma latency a per-tap walk cannot, and the dY
        // vector is loaded once per x for all nine taps. Each tap still
        // sees its own j's in ascending (img, y, x) order.
        __m256 av[9];
        for (int t = 0; t < 9; ++t) av[t] = _mm256_setzero_ps();
        // sb is the per-x step in floats; the stride-1 instantiation folds
        // it to a constant so the walk carries no per-x multiplies, and
        // lets the compiler share broadcasts between adjacent x (their tap
        // windows overlap by two columns).
        const auto walk = [&](auto sb_c) {
          constexpr std::int64_t SB = decltype(sb_c)::value;
          const std::int64_t sb = SB != 0 ? SB : stride * kBlock;
          for (std::int64_t img = 0; img < n; ++img) {
            const float* gplane = pg + ((img * ob + obi) * oh) * ow * kBlock;
            const float* xplane =
                px + ((img * cb + icb) * hp) * wp * kBlock + ici;
            for (std::int64_t y = 0; y < oh; ++y) {
              const float* gy_row = gplane + y * ow * kBlock;
              const float* xr0 = xplane + y * stride * wp * kBlock;
              const float* xr1 = xr0 + wp * kBlock;
              const float* xr2 = xr1 + wp * kBlock;
#pragma GCC unroll 2
              for (std::int64_t x = 0; x < ow; ++x) {
                const __m256 dyv = _mm256_loadu_ps(gy_row + x * kBlock);
                const std::int64_t xo = x * sb;
                av[0] = _mm256_fmadd_ps(dyv, _mm256_broadcast_ss(xr0 + xo),
                                        av[0]);
                av[1] = _mm256_fmadd_ps(
                    dyv, _mm256_broadcast_ss(xr0 + xo + kBlock), av[1]);
                av[2] = _mm256_fmadd_ps(
                    dyv, _mm256_broadcast_ss(xr0 + xo + 2 * kBlock), av[2]);
                av[3] = _mm256_fmadd_ps(dyv, _mm256_broadcast_ss(xr1 + xo),
                                        av[3]);
                av[4] = _mm256_fmadd_ps(
                    dyv, _mm256_broadcast_ss(xr1 + xo + kBlock), av[4]);
                av[5] = _mm256_fmadd_ps(
                    dyv, _mm256_broadcast_ss(xr1 + xo + 2 * kBlock), av[5]);
                av[6] = _mm256_fmadd_ps(dyv, _mm256_broadcast_ss(xr2 + xo),
                                        av[6]);
                av[7] = _mm256_fmadd_ps(
                    dyv, _mm256_broadcast_ss(xr2 + xo + kBlock), av[7]);
                av[8] = _mm256_fmadd_ps(
                    dyv, _mm256_broadcast_ss(xr2 + xo + 2 * kBlock), av[8]);
              }
            }
          }
        };
        if (stride == 1) {
          walk(std::integral_constant<std::int64_t, kBlock>{});
        } else {
          walk(std::integral_constant<std::int64_t, 0>{});
        }
        for (int t = 0; t < 9; ++t) _mm256_storeu_ps(acc[t], av[t]);
      } else {
        for (std::int64_t img = 0; img < n; ++img) {
          const float* gplane = pg + ((img * ob + obi) * oh) * ow * kBlock;
          const float* xplane = px + ((img * cb + icb) * hp) * wp * kBlock + ici;
          for (std::int64_t y = 0; y < oh; ++y) {
            const float* gy_row = gplane + y * ow * kBlock;
            for (std::int64_t kh = 0; kh < kernel; ++kh) {
              const float* xrow = xplane + (y * stride + kh) * wp * kBlock;
              for (std::int64_t kw = 0; kw < kernel; ++kw) {
                float* at = acc[kh * kernel + kw];
                __m256 av = _mm256_loadu_ps(at);
                for (std::int64_t x = 0; x < ow; ++x) {
                  av = _mm256_fmadd_ps(
                      _mm256_loadu_ps(gy_row + x * kBlock),
                      _mm256_broadcast_ss(xrow + (x * stride + kw) * kBlock),
                      av);
                }
                _mm256_storeu_ps(at, av);
              }
            }
          }
        }
      }
#else
      for (std::int64_t img = 0; img < n; ++img) {
        const float* gplane = pg + ((img * ob + obi) * oh) * ow * kBlock;
        const float* xplane = px + ((img * cb + icb) * hp) * wp * kBlock + ici;
        for (std::int64_t y = 0; y < oh; ++y) {
          const float* gy_row = gplane + y * ow * kBlock;
          for (std::int64_t kh = 0; kh < kernel; ++kh) {
            const float* xrow = xplane + (y * stride + kh) * wp * kBlock;
            for (std::int64_t kw = 0; kw < kernel; ++kw) {
              float* at = acc[kh * kernel + kw];
              for (std::int64_t x = 0; x < ow; ++x) {
                const float xv = xrow[(x * stride + kw) * kBlock];
                const float* dyv = gy_row + x * kBlock;
                for (std::int64_t jj = 0; jj < kBlock; ++jj) {
                  at[jj] = madd(dyv[jj], xv, at[jj]);
                }
              }
            }
          }
        }
      }
#endif
      // Mirrors `weight_grad += matmul_nt(dY, im2col(X))`: the dW
      // value is fully accumulated first, then added to the grad once.
      for (std::int64_t oo = 0; oo < o_lanes; ++oo) {
        float* wg_row = pwg + (obi * kBlock + oo) * ckk;
        for (std::int64_t kh = 0; kh < kernel; ++kh) {
          for (std::int64_t kw = 0; kw < kernel; ++kw) {
            wg_row[(ic * kernel + kh) * kernel + kw] +=
                acc[kh * kernel + kw][oo];
          }
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Direct backward-data.
//
// dX = col2im(matmul_tn(W, dY)): the column value for tap (ic, kh, kw) at
// output position (y, x) is a dot over oc in ascending order (matmul_tn's
// k-order), and col2im adds it to dX element (y*stride + kh - pad,
// x*stride + kw - pad), so every dX element receives its taps in ascending
// (kh, kw) order. A work unit here is one or two images and one input-
// channel block, whose eight channels are the vector lanes. At each output
// position the unit keeps that position's k*k tap dots in registers as
// serial ascending-oc fma chains and, once they are complete, adds them
// into its nChw8c dX planes (copied to NCHW when the unit is done); the
// k*k taps of one position land on k*k distinct elements. Positions run
// in reverse raster order: a larger kh (or kw) reaches a fixed dX element
// from a smaller y (or x), so each element still receives its taps in
// ascending (kh, kw) order, col2im's sequence, starting from the same +0.
// Taps outside the input are never computed, as col2im never adds them.

Tensor conv2d_direct_backward_data(const Tensor& grad_nchw,
                                   const Tensor& weight_ihwo8i,
                                   const Conv2dSpec& spec,
                                   const Shape& input_shape) {
  const std::int64_t n = input_shape[0], c = input_shape[1];
  const std::int64_t h = input_shape[2], w = input_shape[3];
  const std::int64_t o = spec.out_channels;
  const std::int64_t oh = grad_nchw.dim(2), ow = grad_nchw.dim(3);
  const std::int64_t kernel = spec.kernel, stride = spec.stride,
                     pad = spec.padding;
  const std::int64_t cb = blocks(c);
  const std::int64_t ktaps = kernel * kernel;
  if (grad_nchw.dim(0) != n || grad_nchw.dim(1) != o ||
      oh != spec.out_size(h) || ow != spec.out_size(w) ||
      weight_ihwo8i.numel() != cb * o * ktaps * kBlock ||
      !direct_conv_supports(spec)) {
    throw std::invalid_argument("conv2d_direct_backward_data mismatch");
  }
  static std::atomic<std::uint64_t> tick{0};
  KernelTimer timer(tick, "kernel.conv_direct_bwd_d_ns");
  Tensor out(input_shape);
  const float* pg = grad_nchw.data();
  const float* pw = weight_ihwo8i.data();
  float* pd = out.data();
  const std::int64_t ohow = oh * ow;
  const std::int64_t g_img = o * ohow;        // dY floats per image
  const std::int64_t d_img = h * w * kBlock;  // dX floats per image

  // Taps [lo, hi) of an output coordinate that land inside the input.
  struct TapRange {
    std::int64_t lo = 0, hi = 0;
  };
  const auto taps_inside = [&](std::int64_t pos, std::int64_t extent) {
    const std::int64_t first = pos * stride - pad;  // input coord of tap 0
    return TapRange{std::max<std::int64_t>(0, -first),
                    std::min(kernel, extent - first)};
  };

  // Two images per unit when the batch allows: a corner or edge position of
  // a small plane has only 4 or 6 taps, too few chains to hide the fma
  // latency, so both images run together there and share each weight load.
  const std::int64_t imgs = n >= 2 ? 2 : 1;
  const std::int64_t groups = (n + imgs - 1) / imgs;

  runtime::parallel_for(0, groups * cb, 1, [&](std::int64_t u0, std::int64_t u1) {
    // The unit's dX planes in nChw8c, one per image: small enough to stay
    // in cache while every tap lands, then copied to NCHW once.
    std::vector<float> planes(static_cast<std::size_t>(imgs * d_img));
    for (std::int64_t unit = u0; unit < u1; ++unit) {
      const std::int64_t icb = unit % cb;
      const std::int64_t img0 = (unit / cb) * imgs;
      const std::int64_t ni = std::min(imgs, n - img0);
      const float* wpanel = pw + icb * ktaps * o * kBlock;
      std::fill(planes.begin(), planes.end(), 0.0F);
      float* dplane = planes.data();
      const float* gimg = pg + img0 * g_img;
#ifdef RPOL_LAYOUT_AVX2
      constexpr std::integral_constant<std::int64_t, 1> c1{};
      constexpr std::integral_constant<std::int64_t, 2> c2{};
      constexpr std::integral_constant<std::int64_t, 3> c3{};
      constexpr std::integral_constant<std::int64_t, 4> c4{};
#endif
      for (std::int64_t y = oh - 1; y >= 0; --y) {
        const TapRange kh = taps_inside(y, h);
        if (kh.lo >= kh.hi) continue;
#ifdef RPOL_LAYOUT_AVX2
        if (kernel == 1) {
          // A 1x1 position has a single tap, one chain per image: P
          // positions of the row run together instead. Each dX element
          // receives at most one tap, so no order binds them.
          const std::int64_t x_lo = (pad + stride - 1) / stride;
          const std::int64_t x_hi = std::min(ow, (w - 1 + pad) / stride + 1);
          const auto tile = [&](std::int64_t x, auto p_c, auto ni_c) {
            constexpr std::int64_t P = decltype(p_c)::value;
            constexpr std::int64_t NI = decltype(ni_c)::value;
            __m256 acc[NI * P];
#pragma GCC unroll 8
            for (std::int64_t t = 0; t < NI * P; ++t) {
              acc[t] = _mm256_setzero_ps();
            }
            const float* g = gimg + y * ow + x;
            const float* wv = wpanel;
            for (std::int64_t oc = 0; oc < o; ++oc, g += ohow, wv += kBlock) {
              const __m256 wk = _mm256_loadu_ps(wv);
#pragma GCC unroll 2
              for (std::int64_t im = 0; im < NI; ++im) {
#pragma GCC unroll 4
                for (std::int64_t q = 0; q < P; ++q) {
                  acc[im * P + q] = _mm256_fmadd_ps(
                      wk, _mm256_broadcast_ss(g + im * g_img + q),
                      acc[im * P + q]);
                }
              }
            }
            float* dst =
                dplane + ((y * stride - pad) * w + x * stride - pad) * kBlock;
#pragma GCC unroll 2
            for (std::int64_t im = 0; im < NI; ++im) {
#pragma GCC unroll 4
              for (std::int64_t q = 0; q < P; ++q) {
                float* d = dst + im * d_img + q * stride * kBlock;
                _mm256_storeu_ps(
                    d, _mm256_add_ps(_mm256_loadu_ps(d), acc[im * P + q]));
              }
            }
          };
          const auto row = [&](auto ni_c) {
            std::int64_t x = x_hi;
            for (; x - 4 >= x_lo; x -= 4) tile(x - 4, c4, ni_c);
            switch (x - x_lo) {
              case 3:
                tile(x_lo, c3, ni_c);
                break;
              case 2:
                tile(x_lo, c2, ni_c);
                break;
              case 1:
                tile(x_lo, c1, ni_c);
                break;
              default:
                break;
            }
          };
          if (ni == 2) {
            row(c2);
          } else {
            row(c1);
          }
          continue;
        }
#endif
        for (std::int64_t x = ow - 1; x >= 0; --x) {
          const TapRange kw = taps_inside(x, w);
          if (kw.lo >= kw.hi) continue;
          // Tap (kh.lo, kw.lo) of this position: its weights, its dX element.
          const float* wt = wpanel + (kh.lo * kernel + kw.lo) * o * kBlock;
          const float* g = gimg + y * ow + x;
          float* dst = dplane + ((y * stride + kh.lo - pad) * w +
                                 (x * stride + kw.lo - pad)) * kBlock;
#ifdef RPOL_LAYOUT_AVX2
          // NH x NW taps for NI images, as NI*NH*NW independent chains; each
          // chain is one dX element's serial ascending-oc dot.
          const auto taps = [&](std::int64_t i0, auto nh_c, auto nw_c,
                                auto ni_c) {
            constexpr std::int64_t NH = decltype(nh_c)::value;
            constexpr std::int64_t NW = decltype(nw_c)::value;
            constexpr std::int64_t NI = decltype(ni_c)::value;
            constexpr std::int64_t T = NH * NW;
            __m256 acc[NI * T];
#pragma GCC unroll 18
            for (std::int64_t t = 0; t < NI * T; ++t) {
              acc[t] = _mm256_setzero_ps();
            }
            const float* gi = g + i0 * g_img;
            const float* wv = wt;
            for (std::int64_t oc = 0; oc < o; ++oc, gi += ohow, wv += kBlock) {
              __m256 gv[NI];
#pragma GCC unroll 2
              for (std::int64_t im = 0; im < NI; ++im) {
                gv[im] = _mm256_broadcast_ss(gi + im * g_img);
              }
#pragma GCC unroll 3
              for (std::int64_t a = 0; a < NH; ++a) {
#pragma GCC unroll 3
                for (std::int64_t b = 0; b < NW; ++b) {
                  const __m256 wk =
                      _mm256_loadu_ps(wv + (a * kernel + b) * o * kBlock);
#pragma GCC unroll 2
                  for (std::int64_t im = 0; im < NI; ++im) {
                    acc[im * T + a * NW + b] =
                        _mm256_fmadd_ps(wk, gv[im], acc[im * T + a * NW + b]);
                  }
                }
              }
            }
#pragma GCC unroll 2
            for (std::int64_t im = 0; im < NI; ++im) {
#pragma GCC unroll 3
              for (std::int64_t a = 0; a < NH; ++a) {
#pragma GCC unroll 3
                for (std::int64_t b = 0; b < NW; ++b) {
                  float* d = dst + (i0 + im) * d_img + (a * w + b) * kBlock;
                  _mm256_storeu_ps(d, _mm256_add_ps(_mm256_loadu_ps(d),
                                                    acc[im * T + a * NW + b]));
                }
              }
            }
          };
          const auto by_width = [&](std::int64_t i0, auto nh_c, auto ni_c) {
            switch (kw.hi - kw.lo) {
              case 1:
                taps(i0, nh_c, c1, ni_c);
                break;
              case 2:
                taps(i0, nh_c, c2, ni_c);
                break;
              default:
                taps(i0, nh_c, c3, ni_c);
                break;
            }
          };
          const auto by_height = [&](std::int64_t i0, auto ni_c) {
            switch (kh.hi - kh.lo) {
              case 1:
                by_width(i0, c1, ni_c);
                break;
              case 2:
                by_width(i0, c2, ni_c);
                break;
              default:
                by_width(i0, c3, ni_c);
                break;
            }
          };
          // Nine taps already give nine chains; fewer run both images.
          if (ni == 2 && (kh.hi - kh.lo) * (kw.hi - kw.lo) < 9) {
            by_height(0, c2);
          } else {
            for (std::int64_t im = 0; im < ni; ++im) by_height(im, c1);
          }
#else
          // Scalar reference (RPOL_SIMD=OFF builds): one tap at a time, the
          // same per-element chains.
          for (std::int64_t im = 0; im < ni; ++im) {
            for (std::int64_t a = 0; a < kh.hi - kh.lo; ++a) {
              for (std::int64_t b = 0; b < kw.hi - kw.lo; ++b) {
                float acc[kBlock] = {};
                const float* gi = g + im * g_img;
                const float* wv = wt + (a * kernel + b) * o * kBlock;
                for (std::int64_t oc = 0; oc < o; ++oc) {
                  const float gv = gi[oc * ohow];
                  for (std::int64_t l = 0; l < kBlock; ++l) {
                    acc[l] = madd(wv[oc * kBlock + l], gv, acc[l]);
                  }
                }
                float* d = dst + im * d_img + (a * w + b) * kBlock;
                for (std::int64_t l = 0; l < kBlock; ++l) d[l] += acc[l];
              }
            }
          }
#endif
        }
      }
      const std::int64_t lanes = std::min(kBlock, c - icb * kBlock);
      for (std::int64_t im = 0; im < ni; ++im) {
        block_to_planes(dplane + im * d_img, h * w, lanes,
                        pd + ((img0 + im) * c + icb * kBlock) * h * w);
      }
    }
  });
  return out;
}

}  // namespace rpol::layout
