// Tests for the simulation substrate: device noise model, WAN model,
// real-model descriptors, statistics (KS normality test).

#include <gtest/gtest.h>

#include <cmath>

#include "crypto/sha256.h"
#include "sim/cost.h"
#include "sim/device.h"
#include "sim/model_specs.h"
#include "sim/network.h"
#include "sim/stats.h"

namespace rpol::sim {
namespace {

// ---------------------------------------------------------------------------
// Devices

TEST(Device, RegistryOrderedByThroughput) {
  const auto devices = all_devices();
  ASSERT_EQ(devices.size(), 4u);
  EXPECT_EQ(devices[0].name, "G3090");
  EXPECT_DOUBLE_EQ(devices[0].tflops_fp32, 35.7);
  EXPECT_EQ(devices[3].name, "GT4");
  EXPECT_DOUBLE_EQ(devices[3].tflops_fp32, 8.1);
}

TEST(Device, NoiseGrowsWithThroughput) {
  // Fig. 4 trend: faster GPUs produce larger reproduction errors.
  EXPECT_GT(device_g3090().noise_rel, device_ga10().noise_rel);
  EXPECT_GT(device_ga10().noise_rel, device_gp100().noise_rel);
  EXPECT_GT(device_gp100().noise_rel, device_gt4().noise_rel);
}

TEST(Device, ComputeSecondsScalesInversely) {
  const double flops = 1e12;
  EXPECT_LT(device_g3090().compute_seconds(flops),
            device_gt4().compute_seconds(flops));
}

TEST(Device, PerturbationIsZeroMeanAndScaled) {
  nn::Param p("w", Tensor({10000}));
  p.grad = Tensor::full({10000}, 1.0F);
  DeviceExecution exec(device_g3090(), 5);
  exec.perturb_gradients({&p});
  double sum = 0.0, sq = 0.0;
  for (std::int64_t i = 0; i < 10000; ++i) {
    const double d = static_cast<double>(p.grad.at(i)) - 1.0;
    sum += d;
    sq += d * d;
  }
  const double mean = sum / 10000.0;
  const double sd = std::sqrt(sq / 10000.0);
  EXPECT_NEAR(mean, 0.0, 3e-5);
  // grad rms is 1, so sd should be ~noise_rel of the device.
  EXPECT_NEAR(sd, device_g3090().noise_rel, device_g3090().noise_rel * 0.2);
}

TEST(Device, SameRunSeedReproduces) {
  nn::Param p1("w", Tensor({64}));
  nn::Param p2("w", Tensor({64}));
  p1.grad = Tensor::full({64}, 2.0F);
  p2.grad = Tensor::full({64}, 2.0F);
  DeviceExecution a(device_ga10(), 9);
  DeviceExecution b(device_ga10(), 9);
  a.perturb_gradients({&p1});
  b.perturb_gradients({&p2});
  EXPECT_EQ(p1.grad.vec(), p2.grad.vec());
}

TEST(Device, DifferentRunSeedsDiverge) {
  nn::Param p1("w", Tensor({64}));
  nn::Param p2("w", Tensor({64}));
  p1.grad = Tensor::full({64}, 2.0F);
  p2.grad = Tensor::full({64}, 2.0F);
  DeviceExecution a(device_ga10(), 9);
  DeviceExecution b(device_ga10(), 10);
  a.perturb_gradients({&p1});
  b.perturb_gradients({&p2});
  EXPECT_NE(p1.grad.vec(), p2.grad.vec());
}

TEST(Device, NonTrainableGradsUntouched) {
  nn::Param buf("b", Tensor({16}), /*train=*/false);
  buf.grad = Tensor::full({16}, 3.0F);
  DeviceExecution exec(device_g3090(), 1);
  exec.perturb_gradients({&buf});
  for (std::int64_t i = 0; i < 16; ++i) EXPECT_EQ(buf.grad.at(i), 3.0F);
}

TEST(Device, ZeroGradientStaysZero) {
  // Noise is relative to gradient magnitude: a zero gradient gains nothing.
  nn::Param p("w", Tensor({16}));
  DeviceExecution exec(device_g3090(), 1);
  exec.perturb_gradients({&p});
  for (std::int64_t i = 0; i < 16; ++i) EXPECT_EQ(p.grad.at(i), 0.0F);
}

TEST(Device, PerturbGradientsGolden) {
  // Recorded from the per-element next_normal() loop. Odd sizes, a param
  // spanning several Gaussian blocks and a zero-gradient param (skipped:
  // sigma is 0, so it draws nothing), over two steps so the cached
  // variate carries across calls.
  Rng init(0x6AD);
  std::vector<nn::Param> params;
  for (const std::int64_t n : {37, 4099, 64, 1}) {
    nn::Param p("p", Tensor({n}));
    for (std::int64_t i = 0; i < n; ++i) {
      p.grad.data()[i] = n == 64 ? 0.0F : init.next_float() * 2.0F - 1.0F;
    }
    params.push_back(std::move(p));
  }
  std::vector<nn::Param*> ptrs;
  for (auto& p : params) ptrs.push_back(&p);
  DeviceExecution exec(device_g3090(), 77);
  exec.perturb_gradients(ptrs);
  exec.perturb_gradients(ptrs);
  Bytes bytes;
  for (const auto& p : params) {
    const auto* raw = reinterpret_cast<const std::uint8_t*>(p.grad.data());
    bytes.insert(bytes.end(), raw,
                 raw + static_cast<std::size_t>(p.grad.numel()) * sizeof(float));
  }
  EXPECT_EQ(digest_to_hex(sha256(bytes)),
            "fb6a619fcc201396504c0a062a15ee2b68522e8eab1914944ff9ee368f9b4bd3");
}

// ---------------------------------------------------------------------------
// Network

TEST(Network, TransferTimeMatchesBandwidth) {
  // 100 Mbps worker link: 12.5 MB/s => 125 MB takes 10 s.
  const NetworkSpec spec{10e9, 100e6, 0.0};
  EXPECT_NEAR(transfer_seconds(spec, 125'000'000ULL, 1), 10.0, 1e-6);
}

TEST(Network, ManagerLinkSharedAcrossConcurrentStreams) {
  // 200 concurrent workers share 10 Gbps: each sees 50 Mbps < its own 1 Gbps.
  const NetworkSpec spec{10e9, 1e9, 0.0};
  EXPECT_NEAR(transfer_seconds(spec, 1'000'000ULL, 200), 8e6 / 50e6, 1e-9);
}

TEST(Network, LatencyAdds) {
  EXPECT_NEAR(transfer_seconds(NetworkSpec{10e9, 100e6, 0.5}, 0, 1), 0.5,
              1e-12);
}

TEST(Network, InvalidUsageThrows) {
  EXPECT_THROW(transfer_seconds(NetworkSpec{}, 1, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Cost model

TEST(Cost, PaperConstants) {
  const CostModel prices;
  EXPECT_NEAR(prices.compute_cost(3600.0), 1.33, 1e-9);
  EXPECT_NEAR(prices.comm_cost(1024ULL * 1024 * 1024), 0.12, 1e-9);
  EXPECT_NEAR(prices.storage_cost(100ULL * 1024 * 1024 * 1024, 1.0), 5.0, 1e-9);
}

TEST(Cost, BreakdownTotals) {
  CostBreakdown b{1.0, 2.0, 0.5};
  EXPECT_DOUBLE_EQ(b.total(), 3.5);
}

// ---------------------------------------------------------------------------
// Real model specs

TEST(ModelSpecs, PaperSizes) {
  EXPECT_NEAR(static_cast<double>(real_resnet50().weight_bytes) / (1024.0 * 1024.0),
              90.7, 0.1);
  EXPECT_NEAR(static_cast<double>(real_vgg16().weight_bytes) / (1024.0 * 1024.0),
              527.0, 0.5);
  EXPECT_EQ(real_imagenet().num_examples, 1'281'167ULL);
}

// ---------------------------------------------------------------------------
// Statistics

TEST(Stats, MomentsHandValues) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(max_value(xs), 4.0);
  EXPECT_DOUBLE_EQ(min_value(xs), 1.0);
  EXPECT_THROW(mean({}), std::invalid_argument);
}

TEST(Stats, KsAcceptsNormalSample) {
  Rng rng(31337);
  std::vector<double> xs(400);
  for (auto& x : xs) x = 5.0 + 2.0 * rng.next_normal();
  const KsTestResult result = ks_normality_test(xs);
  EXPECT_TRUE(result.normal_at_5pct) << "p=" << result.p_value;
}

TEST(Stats, KsRejectsUniformSample) {
  Rng rng(99);
  std::vector<double> xs(800);
  for (auto& x : xs) x = rng.next_double();
  const KsTestResult result = ks_normality_test(xs);
  // A uniform sample is decidedly non-normal at this size.
  EXPECT_FALSE(result.normal_at_5pct) << "p=" << result.p_value;
}

TEST(Stats, KsRejectsBimodalSample) {
  Rng rng(123);
  std::vector<double> xs(600);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = (i % 2 == 0 ? -4.0 : 4.0) + 0.3 * rng.next_normal();
  }
  EXPECT_FALSE(ks_normality_test(xs).normal_at_5pct);
}

TEST(Stats, KsDegenerateInputs) {
  EXPECT_THROW(ks_normality_test({1.0, 2.0}), std::invalid_argument);
  const KsTestResult constant = ks_normality_test({1.0, 1.0, 1.0, 1.0});
  EXPECT_FALSE(constant.normal_at_5pct);
}

}  // namespace
}  // namespace rpol::sim
