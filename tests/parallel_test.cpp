// Tests of the strategy latency models: internal consistency, the paper's
// qualitative results (§VI) as properties of the simulation, and
// heterogeneous-cluster behaviour.
#include <string>

#include <gtest/gtest.h>

#include "parallel/latency_model.h"
#include "transformer/zoo.h"

namespace voltage {
namespace {

sim::DeviceSpec paper_device() {
  // Calibration: one weak vCPU (see EXPERIMENTS.md).
  return sim::DeviceSpec{
      .name = "vcpu", .mac_rate = 25e9, .elementwise_rate = 4e9};
}

sim::Cluster paper_cluster(std::size_t k, double mbps = 500.0) {
  return sim::Cluster::homogeneous(k, paper_device(), LinkModel::mbps(mbps));
}

TEST(LatencyModel, PaperSequenceLengths) {
  EXPECT_EQ(paper_sequence_length(bert_large_spec()), 200U);
  EXPECT_EQ(paper_sequence_length(gpt2_spec()), 200U);
  EXPECT_EQ(paper_sequence_length(vit_base_spec()), 197U);
}

TEST(LatencyModel, SingleDeviceBreakdownAddsUp) {
  const ModelSpec spec = bert_large_spec();
  const LatencyReport r =
      simulate_single_device(spec, 200, paper_cluster(1));
  EXPECT_GT(r.total, 0.0);
  EXPECT_NEAR(r.total, r.pre_post + r.max_device_compute + r.comm_and_stall,
              1e-9);
  EXPECT_EQ(r.devices, 1U);
  // BERT-Large on one weak vCPU lands in the paper's ballpark (~2-3 s).
  EXPECT_GT(r.total, 1.5);
  EXPECT_LT(r.total, 4.0);
}

TEST(LatencyModel, VoltageMatchesSingleDeviceAtK1) {
  const ModelSpec spec = gpt2_spec();
  const LatencyReport single =
      simulate_single_device(spec, 200, paper_cluster(1));
  const LatencyReport voltage =
      simulate_voltage(spec, 200, paper_cluster(1), PartitionScheme::even(1),
                       OrderPolicy::kAdaptive);
  // Same compute (adaptive picks the naive order at P=N) and same volume.
  EXPECT_NEAR(voltage.max_device_compute, single.max_device_compute, 1e-9);
  EXPECT_NEAR(voltage.total, single.total, 0.05 * single.total);
}

// Fig. 4 as a property: Voltage latency strictly decreases with K while
// tensor parallelism at 500 Mbps never beats single-device for K >= 3.
// Parametrised by zoo name, not ModelSpec: gtest prints a ModelSpec as raw
// bytes (heap pointer included), which would make the test names unstable.
class Fig4Shape : public ::testing::TestWithParam<std::string> {};

TEST_P(Fig4Shape, VoltageScalesTpDoesNot) {
  const ModelSpec spec = *spec_by_name(GetParam());
  const std::size_t n = paper_sequence_length(spec);
  const Seconds single =
      simulate_single_device(spec, n, paper_cluster(1)).total;

  Seconds prev = std::numeric_limits<double>::infinity();
  for (std::size_t k = 1; k <= 6; ++k) {
    const Seconds voltage =
        simulate_voltage(spec, n, paper_cluster(k), PartitionScheme::even(k),
                         OrderPolicy::kAdaptive)
            .total;
    EXPECT_LT(voltage, prev) << "Voltage must keep improving, k=" << k;
    prev = voltage;
    if (k >= 2) {
      EXPECT_LT(voltage, single) << "Voltage must beat single, k=" << k;
      const Seconds tp =
          simulate_tensor_parallel(spec, n, paper_cluster(k)).total;
      EXPECT_GT(tp, single) << "TP must lose to single at 500 Mbps, k=" << k;
      EXPECT_GT(tp, voltage) << "TP must lose to Voltage, k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Models, Fig4Shape,
                         ::testing::Values("bert", "vit", "gpt2"),
                         [](const auto& info) { return info.param; });

// Fig. 5 as a property: both strategies improve with bandwidth; TP needs
// ~1000 Mbps to break even while Voltage wins far earlier; there is a low
// bandwidth below which even Voltage loses to single-device.
TEST(Fig5Shape, BandwidthCrossovers) {
  const ModelSpec spec = bert_large_spec();
  const std::size_t n = 200;
  const Seconds single =
      simulate_single_device(spec, n, paper_cluster(1)).total;

  Seconds prev_v = std::numeric_limits<double>::infinity();
  Seconds prev_t = std::numeric_limits<double>::infinity();
  for (const double mbps : {200.0, 400.0, 600.0, 800.0, 1000.0}) {
    const auto cluster = paper_cluster(6, mbps);
    const Seconds v = simulate_voltage(spec, n, cluster,
                                       PartitionScheme::even(6),
                                       OrderPolicy::kAdaptive)
                          .total;
    const Seconds t = simulate_tensor_parallel(spec, n, cluster).total;
    EXPECT_LT(v, prev_v);
    EXPECT_LT(t, prev_t);
    EXPECT_LT(v, t) << "Voltage beats TP at every bandwidth (" << mbps << ")";
    prev_v = v;
    prev_t = t;
  }
  // TP at 500-800 loses to single; at 1000 it finally breaks about even
  // (paper: "tensor parallelism requires at least 1000 Mbps").
  EXPECT_GT(simulate_tensor_parallel(spec, n, paper_cluster(6, 500)).total,
            single);
  EXPECT_GT(simulate_tensor_parallel(spec, n, paper_cluster(6, 800)).total,
            single);
  EXPECT_LT(simulate_tensor_parallel(spec, n, paper_cluster(6, 1000)).total,
            single * 1.05);
  // Our C++ fabric has far less per-byte overhead than the paper's Python
  // stack, so Voltage's break-even bandwidth shifts down — but it exists.
  EXPECT_GT(simulate_voltage(spec, n, paper_cluster(6, 20),
                             PartitionScheme::even(6),
                             OrderPolicy::kAdaptive)
                .total,
            single);
}

TEST(LatencyModel, CommVolumeRatioIsFourX) {
  const ModelSpec spec = bert_large_spec();
  const std::size_t n = 200;
  const auto cluster = paper_cluster(4);
  const LatencyReport v = simulate_voltage(
      spec, n, cluster, PartitionScheme::even(4), OrderPolicy::kAdaptive);
  const LatencyReport t = simulate_tensor_parallel(spec, n, cluster);
  // Network-wide traffic ratio approaches 4: TP moves 4(K-1)NF per layer
  // (two all-reduces) against Voltage's (K-1)NF (one all-gather). Headers
  // and the final hand-off blur it slightly.
  const double ratio = static_cast<double>(t.total_bytes_sent) /
                       static_cast<double>(v.total_bytes_sent);
  EXPECT_GT(ratio, 3.5);
  EXPECT_LT(ratio, 4.7);

  // Ring TP moves the same total volume, just scheduled differently.
  const LatencyReport ring =
      simulate_tensor_parallel(spec, n, cluster, AllReduceAlgo::kRing);
  EXPECT_NEAR(static_cast<double>(ring.total_bytes_sent),
              static_cast<double>(t.total_bytes_sent),
              0.02 * static_cast<double>(t.total_bytes_sent));
}

TEST(LatencyModel, AdaptiveNeverWorseThanFixedPolicies) {
  const ModelSpec spec = vit_base_spec();
  const std::size_t n = paper_sequence_length(spec);
  for (std::size_t k = 2; k <= 8; k += 2) {
    const auto cluster = paper_cluster(k);
    const PartitionScheme scheme = PartitionScheme::even(k);
    const Seconds adaptive =
        simulate_voltage(spec, n, cluster, scheme, OrderPolicy::kAdaptive)
            .total;
    const Seconds naive =
        simulate_voltage(spec, n, cluster, scheme, OrderPolicy::kAlwaysNaive)
            .total;
    const Seconds reordered = simulate_voltage(spec, n, cluster, scheme,
                                               OrderPolicy::kAlwaysReordered)
                                  .total;
    EXPECT_LE(adaptive, naive * 1.0001) << "k=" << k;
    EXPECT_LE(adaptive, reordered * 1.0001) << "k=" << k;
  }
}

TEST(LatencyModel, HeterogeneousClusterPrefersProportionalScheme) {
  // One device 3x faster: weighting its partition by speed must beat the
  // even split (the straggler governs the all-gather).
  const ModelSpec spec = gpt2_spec();
  sim::Cluster cluster = paper_cluster(3);
  cluster.workers[0].mac_rate *= 3.0;
  cluster.workers[0].elementwise_rate *= 3.0;
  const Seconds even = simulate_voltage(spec, 200, cluster,
                                        PartitionScheme::even(3),
                                        OrderPolicy::kAdaptive)
                           .total;
  const Seconds weighted =
      simulate_voltage(spec, 200, cluster,
                       PartitionScheme::proportional({3.0, 1.0, 1.0}),
                       OrderPolicy::kAdaptive)
          .total;
  EXPECT_LT(weighted, even);
}

TEST(LatencyModel, ValidatesArguments) {
  const ModelSpec spec = gpt2_spec();
  EXPECT_THROW((void)simulate_voltage(spec, 200, paper_cluster(3),
                                      PartitionScheme::even(4),
                                      OrderPolicy::kAdaptive),
               std::invalid_argument);
  // TP cannot use more devices than heads.
  EXPECT_THROW(
      (void)simulate_tensor_parallel(spec, 200, paper_cluster(13)),
      std::invalid_argument);
}

TEST(LatencyModel, LayerTracesDecomposeTheTotal) {
  const ModelSpec spec = bert_large_spec();
  const auto cluster = paper_cluster(4);
  for (const bool tensor_parallel : {false, true}) {
    const LatencyReport r =
        tensor_parallel
            ? simulate_tensor_parallel(spec, 200, cluster)
            : simulate_voltage(spec, 200, cluster, PartitionScheme::even(4),
                               OrderPolicy::kAdaptive);
    ASSERT_EQ(r.layer_traces.size(), spec.num_layers);
    Seconds sum = 0.0;
    for (const LayerTrace& t : r.layer_traces) {
      EXPECT_GT(t.compute, 0.0);
      EXPECT_GE(t.sync, 0.0);
      sum += t.compute + t.sync;
    }
    // Layers plus pre/post-processing and the initial broadcast make up
    // the whole critical path (the broadcast is the only missing piece).
    EXPECT_LE(sum, r.total - r.pre_post + 1e-9);
    EXPECT_GT(sum, 0.85 * (r.total - r.pre_post));
    // Identical layers -> identical traces.
    EXPECT_NEAR(r.layer_traces[1].compute, r.layer_traces[2].compute, 1e-12);
  }
}

TEST(LatencyModel, FasterLinkNeverHurts) {
  const ModelSpec spec = bert_large_spec();
  for (const std::size_t k : {2U, 4U, 6U}) {
    const Seconds slow = simulate_voltage(spec, 200, paper_cluster(k, 300),
                                          PartitionScheme::even(k),
                                          OrderPolicy::kAdaptive)
                             .total;
    const Seconds fast = simulate_voltage(spec, 200, paper_cluster(k, 900),
                                          PartitionScheme::even(k),
                                          OrderPolicy::kAdaptive)
                             .total;
    EXPECT_LT(fast, slow);
  }
}

}  // namespace
}  // namespace voltage
