// The reproduction gate: every quantitative claim in the paper's
// evaluation (§VI) and analysis (§IV-V) encoded as a test at the paper's
// full model scales. Latency claims run through the calibrated simulator
// (driven by the implementation's exact operation/byte counts); complexity
// claims are exact closed-form checks.
#include <string>

#include <gtest/gtest.h>

#include "collective/cost.h"
#include "parallel/latency_model.h"
#include "partition/flop_model.h"
#include "partition/order.h"
#include "transformer/zoo.h"

namespace voltage {
namespace {

sim::Cluster paper_cluster(std::size_t k, double mbps = 500.0) {
  return sim::Cluster::homogeneous(
      k,
      sim::DeviceSpec{.name = "vcpu", .mac_rate = 25e9,
                      .elementwise_rate = 4e9},
      LinkModel::mbps(mbps));
}

double voltage_total(const ModelSpec& spec, std::size_t k, double mbps) {
  const std::size_t n = paper_sequence_length(spec);
  return simulate_voltage(spec, n, paper_cluster(k, mbps),
                          PartitionScheme::even(k), OrderPolicy::kAdaptive)
      .total;
}

double single_total(const ModelSpec& spec) {
  return simulate_single_device(spec, paper_sequence_length(spec),
                                paper_cluster(1))
      .total;
}

// §VI headline: "reducing the inference latency of BERT by up to 27.9%
// with six devices, 29.1% and 32.1% for ViT and GPT2". Our cleaner fabric
// yields larger reductions (see EXPERIMENTS.md); the claim we gate on is
// that each model's K=6 reduction is at least the paper's number. The name
// is a std::string so the printed parameter (and so the test name) carries
// no pointer value.
class HeadlineReduction
    : public ::testing::TestWithParam<std::pair<std::string, double>> {};

TEST_P(HeadlineReduction, AtLeastThePapersGain) {
  const auto [name, paper_gain] = GetParam();
  const ModelSpec spec = *spec_by_name(name);
  const double single = single_total(spec);
  const double voltage = voltage_total(spec, 6, 500.0);
  const double gain = 100.0 * (single - voltage) / single;
  EXPECT_GE(gain, paper_gain) << name;
  EXPECT_LE(gain, 75.0) << name << " (sanity upper bound)";
}

INSTANTIATE_TEST_SUITE_P(
    Models, HeadlineReduction,
    ::testing::Values(std::pair<std::string, double>{"bert", 27.9},
                      std::pair<std::string, double>{"vit", 29.1},
                      std::pair<std::string, double>{"gpt2", 32.1}));

TEST(PaperClaims, CommunicationReducedFourTimes) {
  // Abstract: "reducing the communication size by 4x".
  for (const char* name : {"bert", "vit", "gpt2"}) {
    const ModelSpec spec = *spec_by_name(name);
    const std::size_t n = paper_sequence_length(spec);
    for (std::size_t k = 2; k <= 6; ++k) {
      const auto v = voltage_elements_per_device_layer(n, spec.layer.hidden, k);
      const auto t = tp_elements_per_device_layer(n, spec.layer.hidden, k);
      EXPECT_NEAR(static_cast<double>(t) / static_cast<double>(v), 4.0, 0.15)
          << name << " k=" << k;
    }
  }
}

TEST(PaperClaims, TpSlowerThanSingleAt500Mbps) {
  // §VI-B: "distributing inference workloads with tensor parallelism is
  // even slower than a single device."
  for (const char* name : {"bert", "vit", "gpt2"}) {
    const ModelSpec spec = *spec_by_name(name);
    const double single = single_total(spec);
    for (std::size_t k = 2; k <= 6; ++k) {
      EXPECT_GT(simulate_tensor_parallel(spec, paper_sequence_length(spec),
                                         paper_cluster(k))
                    .total,
                single)
          << name << " k=" << k;
    }
  }
}

TEST(PaperClaims, TpNeedsAboutAGigabit) {
  // §VI-B: "tensor parallelism requires at least 1000Mbps to outperform
  // the deployment on single device" (BERT, K=6).
  const ModelSpec spec = bert_large_spec();
  const double single = single_total(spec);
  EXPECT_GT(simulate_tensor_parallel(spec, 200, paper_cluster(6, 800)).total,
            single);
  EXPECT_LT(simulate_tensor_parallel(spec, 200, paper_cluster(6, 1000)).total,
            single * 1.05);
}

TEST(PaperClaims, TpRoughlyFourTimesWorseAt200Mbps) {
  // §VI-B: "tensor parallelism even takes about 4.2x longer to finish the
  // inference on BERT" at 200 Mbps.
  const ModelSpec spec = bert_large_spec();
  const double ratio =
      simulate_tensor_parallel(spec, 200, paper_cluster(6, 200)).total /
      single_total(spec);
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 5.5);
}

TEST(PaperClaims, VoltageBeatsTpAtEveryBandwidth) {
  // Fig. 5: "Voltage consistently outperforms tensor parallelism across
  // all scenarios."
  for (const char* name : {"bert", "vit", "gpt2"}) {
    const ModelSpec spec = *spec_by_name(name);
    const std::size_t n = paper_sequence_length(spec);
    for (const double mbps : {200.0, 400.0, 600.0, 800.0, 1000.0}) {
      EXPECT_LT(voltage_total(spec, 6, mbps),
                simulate_tensor_parallel(spec, n, paper_cluster(6, mbps))
                    .total)
          << name << " @ " << mbps;
    }
  }
}

TEST(PaperClaims, SingleDeviceOrderIsAlreadyOptimal) {
  // §IV-B: "when the model is deployed on a single device, i.e. P = N, the
  // original computation flow is already the most efficient one."
  for (const char* name : {"bert", "vit", "gpt2"}) {
    const ModelSpec spec = *spec_by_name(name);
    const std::size_t n = paper_sequence_length(spec);
    const AttentionDims d{.n = n, .p = n, .f = spec.layer.hidden,
                          .fh = spec.layer.head_dim};
    EXPECT_FALSE(theorem2_prefers_reordered(d)) << name;
    EXPECT_EQ(cheapest_order_exhaustive(d).cost, gamma_eq3(d)) << name;
  }
}

TEST(PaperClaims, Fig6GapGrowsWithHeadDim) {
  // §VI-B: "when the attention feature dimension F_H increases from 64 to
  // 256, the gap between the naive and proposed method becomes greater" —
  // checked on exact operation counts at K=10, N=200 (the same quantity
  // Fig. 6's wall-clock measures).
  double previous_gap = 0.0;
  for (const std::size_t fh : {64U, 128U, 256U}) {
    const std::size_t h = 1024 / fh;
    const AttentionDims d{.n = 200, .p = 20, .f = 1024, .fh = fh};
    const double gap = static_cast<double>(gamma_eq3(d)) /
                       static_cast<double>(gamma_eq8(d));
    EXPECT_GT(gap, previous_gap) << "F_H=" << fh << " H=" << h;
    previous_gap = gap;
  }
  // ... and at F_H=256 the operation-count advantage is >= ~3x (paper
  // measures up to 3.4x wall-clock).
  EXPECT_GE(previous_gap, 2.8);
}

TEST(PaperClaims, NaivePartitionBottleneckedByKV) {
  // Theorem 1's consequence: "no matter how small the partition is ...
  // the time spent on computing K,V matrices remains the same".
  const AttentionDims tiny{.n = 300, .p = 1, .f = 1024, .fh = 64};
  const AttentionDims half{.n = 300, .p = 150, .f = 1024, .fh = 64};
  const std::uint64_t kv_cost = 2ULL * 300 * 1024 * 64;
  EXPECT_GE(gamma_eq3(tiny), kv_cost);
  // Shrinking P 150x saves less than 2.2x on the naive path...
  EXPECT_LT(static_cast<double>(gamma_eq3(half)) /
                static_cast<double>(gamma_eq3(tiny)),
            2.2);
  // ...while the reordered path scales by the full 150x.
  EXPECT_NEAR(static_cast<double>(gamma_eq8(half)) /
                  static_cast<double>(gamma_eq8(tiny)),
              150.0, 1.0);
}

TEST(PaperClaims, VoltageScalesMonotonicallyToSixDevices) {
  // Fig. 4: "with the increasing of available device, Voltage manages to
  // reduce the inference latency".
  for (const char* name : {"bert", "vit", "gpt2"}) {
    const ModelSpec spec = *spec_by_name(name);
    double prev = single_total(spec) * 1.001;
    for (std::size_t k = 1; k <= 6; ++k) {
      const double total = voltage_total(spec, k, 500.0);
      EXPECT_LT(total, prev) << name << " k=" << k;
      prev = total;
    }
  }
}

}  // namespace
}  // namespace voltage
