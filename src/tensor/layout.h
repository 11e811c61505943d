// Blocked tensor layouts and direct convolution kernels: the only way
// nn::Conv2d computes.
//
// An im2col + GEMM convolution (ops.h) materializes a (C*k*k, N*oh*ow)
// column matrix on every call, and the GEMM then streams that matrix from
// memory. The kernels here read blocked layouts instead and never build
// the columns:
//
//   * nChw8c activations — channels grouped into blocks of 8 with the block
//     innermost: data[(((n*Cb + cb)*H + y)*W + x)*8 + ci]. One AVX2 vector
//     covers 8 channels of one pixel. Channel counts that are not multiples
//     of 8 are zero-padded in the last block.
//   * OIhw8i8o weights — conv weights blocked over both channel axes:
//     data[((((ob*Cb + ib)*k + kh)*k + kw)*8 + ii)*8 + oo], output block
//     innermost so one contiguous vector load yields 8 output-channel taps.
//   * direct convolution kernels (forward, backward-weights, backward-data)
//     for 1x1 and 3x3 kernels that read these layouts.
//
// Determinism / bitwise-parity contract
// -------------------------------------
// Every kernel here is bitwise-identical to its im2col + GEMM counterpart
// in ops.cpp. That computation is the reference the tests hold these
// kernels to (tests/test_util.h) and the one core::AmLayer runs, so the
// bits of a checkpoint are defined by im2col + GEMM semantics. Two facts
// make the parity possible:
//
//   1. Same per-element madd() chain. Each output element is accumulated
//      serially, by one thread, in exactly the order im2col + GEMM uses:
//      forward and backward-weights iterate taps as (ic, kh, kw) — the
//      im2col patch-row order — and backward-data reduces over oc in
//      ascending order (matmul_tn's k-order) and then adds each dX
//      element's taps in col2im's ascending (kh, kw) order. Register
//      blocking only changes which elements share loop iterations, never
//      one element's op sequence.
//
//   2. Skipping a zero tap is exact. im2col + GEMM multiplies explicit
//      zeros (im2col's padding entries, the zero-padded channel lanes);
//      the direct kernels skip them. The skipped step would have computed
//      acc' = madd(a, b, acc) with a*b = +/-0. An accumulator that starts
//      at +0 can never become -0 under round-to-nearest: a negative zero
//      sum requires both addends to be -0 (exact cancellation of nonzero
//      terms yields +0), and fma's product term being -0 cannot flip an
//      accumulator that is +0 (+0 + -0 = +0) or nonzero. Hence acc is
//      never -0, adding +/-0 to it is the identity, and the skipped and
//      unskipped chains agree bit for bit.
//
// Kernel sizes 1 and 3 cover every conv in the ResNet/VGG models; Conv2d
// rejects any other size when it is built.

#pragma once

#include <cstdint>

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace rpol::layout {

// Channel block width: one AVX2 vector of fp32.
constexpr std::int64_t kBlock = 8;

inline std::int64_t blocks(std::int64_t channels) {
  return (channels + kBlock - 1) / kBlock;
}

// True when `spec` has a direct kernel (1x1 and 3x3 square kernels).
inline bool direct_conv_supports(const Conv2dSpec& spec) {
  return spec.kernel == 1 || spec.kernel == 3;
}

// --- Reorders (pure data movement, never arithmetic) ------------------------

// NCHW -> nChw8c with an optional zeroed spatial padding ring. Output shape
// {n, blocks(C), h + 2*padding, w + 2*padding, 8}; padded channel lanes are
// zeroed. Pre-padding lets the direct conv kernels run every tap branch-free:
// they multiply explicit +0s exactly where im2col writes them, so the serial
// per-element chains stay bitwise identical.
Tensor nchw_to_nchw8c(const Tensor& input, std::int64_t padding = 0);

// nChw8c -> NCHW with `channels` real channels (drops padded lanes).
Tensor nchw8c_to_nchw(const Tensor& blocked, std::int64_t channels);

// Conv weight (O, C*k*k) -> OIhw8i8o. Output shape
// {blocks(O), blocks(C), k, k, 8, 8}; padded lanes are zeroed.
Tensor oihw_to_oihw8i8o(const Tensor& weight, const Conv2dSpec& spec);

// OIhw8i8o -> (O, C*k*k) GEMM-view weight (drops padded lanes).
Tensor oihw8i8o_to_oihw(const Tensor& blocked, const Conv2dSpec& spec);

// --- Packed weight forms cached across steps (see tensor/packcache.h) -------

// All packed forms a Conv2d needs, derived from the (O, C*k*k) weight by
// pure data movement. Rebuilt only when the weight version changes.
struct ConvWeightPack {
  Tensor blocked;  // OIhw8i8o, used by the forward kernel
  // Ihwo8i, used by backward-data: {blocks(C), k, k, O, 8}, input lanes
  // innermost (padded lanes zeroed), so one vector load yields one tap of
  // 8 input channels for one oc.
  Tensor ihwo8i;
};

// Resident bytes of a cached pack, for the PackCache memory accounting
// (tensor/packcache.h finds this by ADL).
inline std::uint64_t pack_byte_size(const ConvWeightPack& pack) {
  return static_cast<std::uint64_t>(pack.blocked.numel() +
                                    pack.ihwo8i.numel()) *
         sizeof(float);
}

ConvWeightPack make_conv_weight_pack(const Tensor& weight,
                                     const Conv2dSpec& spec);

// --- Direct convolution kernels ---------------------------------------------
// All three take pre-reordered operands; Conv2d (src/nn/layers.cpp) owns the
// reorder + cache plumbing.

// Forward: blocked input (nChw8c) * blocked weight (OIhw8i8o) -> blocked
// output {n, blocks(O), oh, ow, 8}. `bias` may be empty; when present it is
// added once per output element after the full accumulation, matching the
// post-GEMM bias add of im2col + GEMM.
Tensor conv2d_direct_forward(const Tensor& input_blocked,
                             const Tensor& weight_blocked, const Tensor& bias,
                             const Conv2dSpec& spec, std::int64_t in_h,
                             std::int64_t in_w);

// Backward-weights: accumulates dW into `weight_grad` (shape (O, C*k*k)),
// bitwise-identical to weight_grad += matmul_nt(dY_gemm, im2col(X)).
// `grad_blocked` is dY in nChw8c over output channels; `input_blocked` is
// the forward input in nChw8c.
void conv2d_direct_backward_weights(const Tensor& grad_blocked,
                                    const Tensor& input_blocked,
                                    const Conv2dSpec& spec, std::int64_t in_h,
                                    std::int64_t in_w, Tensor& weight_grad);

// Backward-data: returns dX in NCHW, bitwise-identical to
// col2im(matmul_tn(W, dY_gemm)). `grad_nchw` is dY in plain NCHW (as handed
// to Conv2d::backward — no reorder needed); `weight_ihwo8i` is the Ihwo8i
// weight from ConvWeightPack. dX is accumulated in nChw8c, 8 input channels
// per vector, and reordered to NCHW once.
Tensor conv2d_direct_backward_data(const Tensor& grad_nchw,
                                   const Tensor& weight_ihwo8i,
                                   const Conv2dSpec& spec,
                                   const Shape& input_shape);

}  // namespace rpol::layout
