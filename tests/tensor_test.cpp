// Unit tests for the tensor substrate: RNG determinism and distribution,
// tensor arithmetic, matmul/im2col kernels, canonical serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <set>
#include <tuple>

#include "crypto/sha256.h"
#include "tensor/layout.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"
#include "test_util.h"

namespace rpol {
namespace {

// ---------------------------------------------------------------------------
// Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    EXPECT_EQ(rng.next_below(1), 0u);
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {0};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, FloatsInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const float f = rng.next_float();
    EXPECT_GE(f, 0.0F);
    EXPECT_LT(f, 1.0F);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NormalHasCorrectMoments) {
  Rng rng(5);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.next_normal();
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(9);
  const auto perm = rng.permutation(257);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 257u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 256u);
}

TEST(Rng, DeriveSeedDecorrelatesStreams) {
  const std::uint64_t s1 = derive_seed(100, 0);
  const std::uint64_t s2 = derive_seed(100, 1);
  EXPECT_NE(s1, s2);
  // Streams from adjacent ids should not be shifted copies.
  Rng a(s1), b(s2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

// ---------------------------------------------------------------------------
// Gaussian stream: normals() and box_muller_batch() must reproduce
// next_normal() and the scalar box_muller() bit for bit.

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(Rng, NormalsEqualRepeatedNextNormal) {
  constexpr std::size_t kBlock = Rng::kNormalBlock;
  const std::vector<std::size_t> sizes = {0,          1,          2,
                                          3,          kBlock - 1, kBlock,
                                          kBlock + 1, 3 * kBlock + 5};
  for (const bool odd_start : {false, true}) {
    Rng batched(77), serial(77);
    if (odd_start) {  // leaves a cached second variate behind
      ASSERT_TRUE(same_bits(batched.next_normal(), serial.next_normal()));
    }
    for (const std::size_t n : sizes) {
      std::vector<float> got(n);
      batched.normals(got);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(same_bits(got[i], serial.next_normal()))
            << "n=" << n << " i=" << i << " odd_start=" << odd_start;
      }
      // A single draw between batches consumes the cache the same way.
      ASSERT_TRUE(same_bits(batched.next_normal(), serial.next_normal()))
          << "n=" << n;
    }
    EXPECT_EQ(batched.next_u64(), serial.next_u64());
  }
}

TEST(Rng, BoxMullerBatchEqualsScalar) {
  // Random pairs as next_normal() draws them, plus edge pairs: u1 at both
  // ends of its range and u2 within 1e5 ulps of every quadrant boundary.
  constexpr std::size_t kChunk = 1 << 16;
  std::vector<double> u1, u2;
  Rng rng(0xB0C5);
  const auto random_pairs = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      double a = 0.0;
      do {
        a = rng.next_double();
      } while (a <= 1e-300);
      u1.push_back(a);
      u2.push_back(rng.next_double());
    }
  };
  std::size_t pairs = 0, scalar = 0;
  const auto check = [&] {
    std::vector<float> got(2 * u1.size());
    scalar += detail::box_muller_batch(u1.data(), u2.data(), u1.size(), got.data());
    for (std::size_t i = 0; i < u1.size(); ++i) {
      float c = 0.0F, s = 0.0F;
      detail::box_muller(u1[i], u2[i], c, s);
      ASSERT_TRUE(same_bits(got[2 * i], c) && same_bits(got[2 * i + 1], s))
          << std::hexfloat << "u1=" << u1[i] << " u2=" << u2[i];
    }
    pairs += u1.size();
    u1.clear();
    u2.clear();
  };
  while (pairs < 10'000'000) {
    random_pairs(kChunk);
    check();
  }
  const std::size_t random_scalar = scalar, random_total = pairs;
  for (const double a : {0x1p-53, 1.0 - 0x1p-53, 0.5, 0.3}) {
    for (int k = 0; k <= 4; ++k) {
      const std::int64_t base = std::bit_cast<std::int64_t>(k / 4.0);
      for (std::int64_t d = -100'000; d <= 100'000; ++d) {
        const double b = std::bit_cast<double>(base + d);
        if (!(b >= 0.0 && b < 1.0)) continue;
        u1.push_back(a);
        u2.push_back(b);
      }
      check();
    }
  }
  // The acceptance rule must have sent some pairs to the scalar path, or
  // this test never saw the fallback it guards.
  EXPECT_GT(scalar, 0u);
#if defined(__AVX2__) && defined(__FMA__)
  // ... but only a few random ones: about 3.5e-4 of them (DESIGN.md §6).
  EXPECT_LT(random_scalar, random_total / 1000);
#else
  EXPECT_EQ(random_scalar, random_total);  // the scalar reference only
#endif
}

TEST(Rng, FillNormalGolden) {
  // Recorded from the scalar per-element implementation: the batched
  // stream must keep every normal variate of the system bit-identical.
  Rng rng(0x60D);
  Bytes bytes;
  const std::vector<std::tuple<std::size_t, float, float>> fills = {
      {1029, 0.25F, 1.5F}, {1537, 0.25F, 0.5F}, {3, 0.0F, 1.5F}};
  for (const auto& [n, mean, stddev] : fills) {
    std::vector<float> v(n);
    rng.fill_normal(v, mean, stddev);
    const auto* raw = reinterpret_cast<const std::uint8_t*>(v.data());
    bytes.insert(bytes.end(), raw, raw + n * sizeof(float));
  }
  EXPECT_EQ(digest_to_hex(sha256(bytes)),
            "f274863af25b6e8f8b9e3686528e8d6e7095223a2909038a6dc0f69881186099");
  EXPECT_EQ(rng.next_u64(), 15570417260855710401ULL);
}

// ---------------------------------------------------------------------------
// Tensor

TEST(Tensor, ConstructionAndShape) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.rank(), 2u);
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_EQ(t.at(i), 0.0F);
}

TEST(Tensor, DataMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0F, 2.0F, 3.0F}), std::invalid_argument);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.at2(2, 1), 6.0F);
  EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, ElementwiseArithmetic) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {10, 20, 30});
  a += b;
  EXPECT_EQ(a.at(2), 33.0F);
  a -= b;
  EXPECT_EQ(a.at(1), 2.0F);
  a *= 2.0F;
  EXPECT_EQ(a.at(0), 2.0F);
  a.add_scaled(b, 0.1F);
  EXPECT_NEAR(a.at(2), 9.0F, 1e-5F);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({2}), b({3});
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
  EXPECT_THROW(a.add_scaled(b, 1.0F), std::invalid_argument);
}

TEST(Tensor, L2NormAndDistance) {
  Tensor a({2}, {3, 4});
  EXPECT_DOUBLE_EQ(a.l2_norm(), 5.0);
  Tensor b({2}, {0, 0});
  EXPECT_DOUBLE_EQ(l2_distance(a, b), 5.0);
  EXPECT_THROW(l2_distance(std::vector<float>{1}, std::vector<float>{1, 2}),
               std::invalid_argument);
}

TEST(Tensor, At4Indexing) {
  Tensor t({2, 3, 4, 5});
  t.at4(1, 2, 3, 4) = 42.0F;
  EXPECT_EQ(t.at(t.numel() - 1), 42.0F);
}

TEST(Tensor, RandnUsesStddev) {
  Rng rng(13);
  const Tensor t = Tensor::randn({10000}, rng, 0.5F);
  double sq = 0.0;
  for (const float v : t.vec()) sq += static_cast<double>(v) * v;
  EXPECT_NEAR(std::sqrt(sq / 10000.0), 0.5, 0.02);
}

// ---------------------------------------------------------------------------
// Ops

TEST(Ops, MatmulHandValues) {
  const Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = matmul(a, b);
  EXPECT_EQ(c.at2(0, 0), 58.0F);
  EXPECT_EQ(c.at2(0, 1), 64.0F);
  EXPECT_EQ(c.at2(1, 0), 139.0F);
  EXPECT_EQ(c.at2(1, 1), 154.0F);
}

TEST(Ops, MatmulShapeChecks) {
  const Tensor a({2, 3});
  const Tensor b({2, 2});
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Ops, TransposedVariantsAgree) {
  Rng rng(17);
  const Tensor a = Tensor::randn({4, 5}, rng);
  const Tensor b = Tensor::randn({5, 6}, rng);
  const Tensor c = matmul(a, b);

  // a^T has shape (5,4): matmul_tn(a^T, b) == a * b.
  Tensor at({5, 4});
  for (std::int64_t i = 0; i < 4; ++i)
    for (std::int64_t j = 0; j < 5; ++j) at.at2(j, i) = a.at2(i, j);
  const Tensor c_tn = matmul_tn(at, b);
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c.at(i), c_tn.at(i), 1e-4F);
  }

  // b^T has shape (6,5): matmul_nt(a, b^T) == a * b.
  Tensor bt({6, 5});
  for (std::int64_t i = 0; i < 5; ++i)
    for (std::int64_t j = 0; j < 6; ++j) bt.at2(j, i) = b.at2(i, j);
  const Tensor c_nt = matmul_nt(a, bt);
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c.at(i), c_nt.at(i), 1e-4F);
  }
}

TEST(Ops, Im2ColIdentityKernel) {
  // 1x1 kernel, stride 1, no padding: columns are the input itself.
  Conv2dSpec spec{2, 1, 1, 1, 0};
  Tensor input({1, 2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  const Tensor cols = im2col(input, spec);
  EXPECT_EQ(cols.shape(), (Shape{2, 4}));
  EXPECT_EQ(cols.at2(0, 0), 1.0F);
  EXPECT_EQ(cols.at2(1, 3), 8.0F);
}

TEST(Ops, Im2ColPaddingZeroFills) {
  Conv2dSpec spec{1, 1, 3, 1, 1};
  Tensor input({1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor cols = im2col(input, spec);
  // Patch row 0 = kernel position (0,0): output (0,0) sees padded zero.
  EXPECT_EQ(cols.at2(0, 0), 0.0F);
  // Center kernel position (1,1) row index = 4: output (0,0) sees input(0,0).
  EXPECT_EQ(cols.at2(4, 0), 1.0F);
}

TEST(Ops, Col2ImIsAdjointOfIm2Col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining property
  // the conv backward pass relies on.
  Rng rng(23);
  Conv2dSpec spec{3, 2, 3, 2, 1};
  const Shape in_shape{2, 3, 6, 6};
  const Tensor x = Tensor::randn(in_shape, rng);
  const Tensor cols = im2col(x, spec);
  const Tensor y = Tensor::randn(cols.shape(), rng);
  const Tensor back = col2im(y, spec, in_shape);

  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < cols.numel(); ++i) {
    lhs += static_cast<double>(cols.at(i)) * y.at(i);
  }
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x.at(i)) * back.at(i);
  }
  EXPECT_NEAR(lhs, rhs, std::abs(lhs) * 1e-4 + 1e-4);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(29);
  const Tensor logits = Tensor::randn({5, 7}, rng, 3.0F);
  const Tensor probs = softmax_rows(logits);
  for (std::int64_t r = 0; r < 5; ++r) {
    double sum = 0.0;
    for (std::int64_t c = 0; c < 7; ++c) {
      EXPECT_GT(probs.at2(r, c), 0.0F);
      sum += probs.at2(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Ops, SoftmaxNumericallyStable) {
  const Tensor logits({1, 3}, {1000.0F, 1000.0F, 1000.0F});
  const Tensor probs = softmax_rows(logits);
  for (std::int64_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(probs.at2(0, c), 1.0F / 3.0F, 1e-5F);
  }
}

TEST(Ops, ArgmaxRow) {
  const Tensor t({2, 3}, {1, 5, 2, 9, 0, 3});
  EXPECT_EQ(argmax_row(t, 0), 1);
  EXPECT_EQ(argmax_row(t, 1), 0);
}

// ---------------------------------------------------------------------------
// Blocked layouts & packed GEMM (tensor/layout.h). Parity expectations here
// are BITWISE (EXPECT_EQ on floats): the direct/packed kernels promise
// bit-identical results to the im2col + GEMM oracle (test_util.h), not
// merely close ones — that is what pins checkpoint hashes to its semantics.

TEST(Layout, NchwBlockRoundTrip) {
  Rng rng(41);
  for (const std::int64_t c : {1, 5, 8, 19}) {
    const Tensor x = Tensor::randn({2, c, 3, 4}, rng);
    const Tensor blocked = layout::nchw_to_nchw8c(x);
    EXPECT_EQ(blocked.shape(), (Shape{2, layout::blocks(c), 3, 4, 8}));
    const Tensor back = layout::nchw8c_to_nchw(blocked, c);
    ASSERT_EQ(back.shape(), x.shape());
    for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(back.at(i), x.at(i));
  }
}

// Every element lands where the layout's index formula puts it, whether an
// 8-pixel vector run, a scalar tail or the padding ring covers it.
TEST(Layout, NchwBlockMatchesIndexFormula) {
  Rng rng(45);
  for (const std::int64_t c : {3, 8, 13}) {
    for (const std::int64_t w : {2, 8, 9, 17}) {
      for (const std::int64_t pad : {0, 1}) {
        const std::int64_t n = 2, h = 3, cb = layout::blocks(c);
        const std::int64_t hp = h + 2 * pad, wp = w + 2 * pad;
        const Tensor x = Tensor::randn({n, c, h, w}, rng);
        const Tensor blocked = layout::nchw_to_nchw8c(x, pad);
        ASSERT_EQ(blocked.shape(), (Shape{n, cb, hp, wp, 8}));
        for (std::int64_t img = 0; img < n; ++img) {
          for (std::int64_t ch = 0; ch < cb * 8; ++ch) {
            for (std::int64_t y = 0; y < hp; ++y) {
              for (std::int64_t xx = 0; xx < wp; ++xx) {
                const std::int64_t iy = y - pad, ix = xx - pad;
                const bool inside = ch < c && iy >= 0 && iy < h && ix >= 0 &&
                                    ix < w;
                const float want =
                    inside ? x.at(((img * c + ch) * h + iy) * w + ix) : 0.0F;
                ASSERT_EQ(std::bit_cast<std::uint32_t>(blocked.at(
                              (((img * cb + ch / 8) * hp + y) * wp + xx) * 8 +
                              ch % 8)),
                          std::bit_cast<std::uint32_t>(want))
                    << "c=" << c << " w=" << w << " pad=" << pad;
              }
            }
          }
        }
        if (pad == 0) {
          const Tensor back = layout::nchw8c_to_nchw(blocked, c);
          ASSERT_EQ(back.shape(), x.shape());
          for (std::int64_t i = 0; i < x.numel(); ++i) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(back.at(i)),
                      std::bit_cast<std::uint32_t>(x.at(i)))
                << "c=" << c << " w=" << w;
          }
        }
      }
    }
  }
}

TEST(Layout, NchwBlockPadsLanesWithZeros) {
  Rng rng(43);
  const std::int64_t c = 5;  // 3 padded lanes in the single block
  const Tensor x = Tensor::randn({1, c, 2, 2}, rng);
  const Tensor blocked = layout::nchw_to_nchw8c(x);
  const float* p = blocked.data();
  for (std::int64_t i = 0; i < 2 * 2; ++i) {
    for (std::int64_t lane = c; lane < 8; ++lane) {
      EXPECT_EQ(p[i * 8 + lane], 0.0F);
    }
  }
}

TEST(Layout, WeightBlockRoundTrip) {
  Rng rng(47);
  for (const auto& [o, c, k] : {std::tuple<std::int64_t, std::int64_t,
                                           std::int64_t>{7, 5, 3},
                                {8, 8, 1},
                                {16, 3, 3}}) {
    const Conv2dSpec spec{c, o, k, 1, k / 2};
    const Tensor w = Tensor::randn({o, c * k * k}, rng);
    const Tensor blocked = layout::oihw_to_oihw8i8o(w, spec);
    const Tensor back = layout::oihw8i8o_to_oihw(blocked, spec);
    ASSERT_EQ(back.shape(), w.shape());
    for (std::int64_t i = 0; i < w.numel(); ++i) EXPECT_EQ(back.at(i), w.at(i));
  }
}

TEST(Layout, PackedNtGemmBitwiseEqualsUnpacked) {
  Rng rng(53);
  // n = 11 exercises the zero-padded final panel; m = 5 the GEMM row tail.
  const Tensor a = Tensor::randn({5, 13}, rng);
  const Tensor b = Tensor::randn({11, 13}, rng);
  const Tensor ref = matmul_nt(a, b);
  const PackedPanels packed = pack_nt_panels(b);
  const Tensor got = matmul_nt_packed(a, packed);
  ASSERT_EQ(got.shape(), ref.shape());
  for (std::int64_t i = 0; i < ref.numel(); ++i) EXPECT_EQ(got.at(i), ref.at(i));
}

TEST(Layout, PackedNtGemmShapeMismatchThrows) {
  const Tensor a({2, 4});
  const PackedPanels packed = pack_nt_panels(Tensor({3, 5}));
  EXPECT_THROW(matmul_nt_packed(a, packed), std::invalid_argument);
}

TEST(Layout, DirectForwardBitwiseEqualsIm2colGemm) {
  Rng rng(59);
  const std::vector<Conv2dSpec> specs = {
      {5, 7, 3, 1, 1},   // unaligned channels, 3x3 stride 1
      {5, 7, 3, 2, 1},   // 3x3 stride 2
      {8, 16, 1, 1, 0},  // aligned 1x1
      {3, 9, 1, 2, 0},   // 1x1 stride 2
  };
  for (const Conv2dSpec& spec : specs) {
    const Tensor x = Tensor::randn({2, spec.in_channels, 6, 6}, rng);
    const Tensor w = Tensor::randn(
        {spec.out_channels, spec.in_channels * spec.kernel * spec.kernel}, rng);
    const Tensor ref = rpol::testing::conv_ref_forward(x, w, Tensor(), spec);
    const Tensor xb = layout::nchw_to_nchw8c(x, spec.padding);
    const layout::ConvWeightPack pack = layout::make_conv_weight_pack(w, spec);
    const Tensor yb = layout::conv2d_direct_forward(xb, pack.blocked, Tensor(),
                                                    spec, 6, 6);
    const Tensor y = layout::nchw8c_to_nchw(yb, spec.out_channels);
    ASSERT_EQ(y.shape(), ref.shape());
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
      ASSERT_EQ(y.at(i), ref.at(i))
          << "kernel=" << spec.kernel << " stride=" << spec.stride
          << " element " << i;
    }
  }
}

TEST(Layout, DirectBackwardWeightsBitwiseEqualsGemm) {
  Rng rng(61);
  for (const Conv2dSpec spec :
       {Conv2dSpec{5, 7, 3, 1, 1}, Conv2dSpec{4, 6, 3, 2, 1},
        Conv2dSpec{5, 9, 1, 1, 0}}) {
    const std::int64_t oh = spec.out_size(6), ow = spec.out_size(6);
    const Tensor x = Tensor::randn({2, spec.in_channels, 6, 6}, rng);
    const Tensor dy = Tensor::randn({2, spec.out_channels, oh, ow}, rng);
    // dW does not read W; a zero weight only shapes the oracle's dX.
    const Tensor w(
        {spec.out_channels, spec.in_channels * spec.kernel * spec.kernel});
    const Tensor ref = rpol::testing::conv_ref_backward(x, w, dy, spec).dw;
    Tensor got(ref.shape());
    layout::conv2d_direct_backward_weights(
        layout::nchw_to_nchw8c(dy), layout::nchw_to_nchw8c(x, spec.padding),
        spec, 6, 6, got);
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
      ASSERT_EQ(got.at(i), ref.at(i))
          << "kernel=" << spec.kernel << " stride=" << spec.stride
          << " element " << i;
    }
  }
}

TEST(Layout, DirectBackwardDataBitwiseEqualsGemm) {
  Rng rng(67);
  // Three small specs at batch 2, then every conv_pool conv at batch 1
  // and 3: planes from 16x16 down to 2x2, where most taps of a position
  // fall outside the input.
  struct Case {
    Conv2dSpec spec;
    std::int64_t batch, in_size;
  };
  std::vector<Case> cases = {{{5, 7, 3, 1, 1}, 2, 6},
                             {{4, 6, 3, 2, 1}, 2, 6},
                             {{5, 9, 1, 1, 0}, 2, 6}};
  for (const rpol::testing::ConvCase& c : rpol::testing::mini_resnet18_w8_convs()) {
    cases.push_back({c.spec, 1, c.in_size});
    cases.push_back({c.spec, 3, c.in_size});
  }
  for (const Case& c : cases) {
    const Conv2dSpec& spec = c.spec;
    const Shape in_shape{c.batch, spec.in_channels, c.in_size, c.in_size};
    const std::int64_t oh = spec.out_size(c.in_size);
    const Tensor w = Tensor::randn(
        {spec.out_channels, spec.in_channels * spec.kernel * spec.kernel}, rng);
    const Tensor dy = Tensor::randn({c.batch, spec.out_channels, oh, oh}, rng);
    // dX does not read X; a zero input only shapes the oracle.
    const Tensor ref =
        rpol::testing::conv_ref_backward(Tensor(in_shape), w, dy, spec).dx;
    const layout::ConvWeightPack pack = layout::make_conv_weight_pack(w, spec);
    const Tensor got =
        layout::conv2d_direct_backward_data(dy, pack.ihwo8i, spec, in_shape);
    ASSERT_EQ(got.shape(), ref.shape());
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got.at(i)),
                std::bit_cast<std::uint32_t>(ref.at(i)))
          << spec.in_channels << "->" << spec.out_channels
          << " kernel=" << spec.kernel << " stride=" << spec.stride
          << " batch=" << c.batch << " in=" << c.in_size << " element " << i;
    }
  }
}

TEST(Layout, DirectConvSupportsOnlySmallKernels) {
  EXPECT_TRUE(layout::direct_conv_supports(Conv2dSpec{3, 8, 3, 1, 1}));
  EXPECT_TRUE(layout::direct_conv_supports(Conv2dSpec{3, 8, 1, 1, 0}));
  EXPECT_FALSE(layout::direct_conv_supports(Conv2dSpec{3, 8, 7, 2, 3}));
  EXPECT_FALSE(layout::direct_conv_supports(Conv2dSpec{3, 8, 5, 1, 2}));
}

TEST(Tensor, ResizeReuseKeepsCapacity) {
  Tensor t({4, 4});
  t.fill(1.0F);
  const float* before = t.data();
  t.clear_keep_capacity();
  EXPECT_EQ(t.numel(), 0);
  t.resize_reuse({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.data(), before);  // vector capacity was reused, no realloc
}

// ---------------------------------------------------------------------------
// Serialization

TEST(Serialize, PrimitivesRoundTrip) {
  Bytes buf;
  append_u64(buf, 0xDEADBEEFCAFEF00DULL);
  append_i64(buf, -42);
  append_f32(buf, 3.25F);
  std::size_t off = 0;
  EXPECT_EQ(read_u64(buf, off), 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(read_i64(buf, off), -42);
  EXPECT_EQ(read_f32(buf, off), 3.25F);
  EXPECT_EQ(off, buf.size());
}

TEST(Serialize, TruncatedBufferThrows) {
  Bytes buf;
  append_u64(buf, 1);
  buf.pop_back();
  std::size_t off = 0;
  EXPECT_THROW(read_u64(buf, off), std::out_of_range);
}

TEST(Serialize, TensorRoundTrip) {
  Rng rng(31);
  const Tensor t = Tensor::randn({2, 3, 4}, rng);
  const Bytes buf = serialize_tensor(t);
  std::size_t off = 0;
  const Tensor u = deserialize_tensor(buf, off);
  EXPECT_EQ(off, buf.size());
  EXPECT_EQ(u.shape(), t.shape());
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(u.at(i), t.at(i));
}

// The canonical float encoding built by hand: u64 count, then each float's
// IEEE-754 bits, least significant byte first.
Bytes le_floats_reference(const std::vector<float>& v) {
  Bytes out;
  const std::uint64_t count = v.size();
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(count >> (8 * i)));
  for (const float f : v) {
    const auto bits = std::bit_cast<std::uint32_t>(f);
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  return out;
}

TEST(Serialize, FloatsRoundTrip) {
  const float nan_with_payload = std::bit_cast<float>(0x7FC12345U);
  const float subnormal = std::bit_cast<float>(0x00000ABCU);
  std::vector<float> large(1025);
  Rng rng(37);
  rng.fill_normal(large, 0.0F, 1.0F);
  const std::vector<std::vector<float>> cases = {
      {1.5F, -2.25F, 0.0F, -0.0F, 1e-30F, nan_with_payload, subnormal},
      {},
      {-7.0F},
      large,
  };
  for (const std::vector<float>& v : cases) {
    const Bytes buf = serialize_floats(v);
    EXPECT_EQ(buf, le_floats_reference(v)) << v.size() << " floats";
    // Decode at an odd offset: the payload need not be float-aligned.
    Bytes shifted(1 + buf.size(), 0xAB);
    std::copy(buf.begin(), buf.end(), shifted.begin() + 1);
    std::size_t off = 1;
    const auto u = deserialize_floats(shifted, off);
    EXPECT_EQ(off, shifted.size());
    ASSERT_EQ(u.size(), v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(u[i]),
                std::bit_cast<std::uint32_t>(v[i]))
          << "float " << i << " of " << v.size();
    }
  }
}

TEST(Serialize, CanonicalBytesAreStable) {
  // Two identical tensors serialize to identical bytes — the property that
  // makes commitment hashes comparable across parties.
  const Tensor a({2}, {1.0F, -0.0F});
  const Tensor b({2}, {1.0F, -0.0F});
  EXPECT_EQ(serialize_tensor(a), serialize_tensor(b));
}

TEST(Serialize, BadFloatCountThrows) {
  Bytes buf;
  append_u64(buf, 1000);  // claims 1000 floats, provides none
  std::size_t off = 0;
  EXPECT_THROW(deserialize_floats(buf, off), std::invalid_argument);
}

}  // namespace
}  // namespace rpol
