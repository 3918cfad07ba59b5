// Tests of the public voltage::System façade.
#include <gtest/gtest.h>

#include "transformer/tokenizer.h"
#include "voltage/system.h"

namespace voltage {
namespace {

TEST(System, QuickstartFlow) {
  System system(make_model(mini_bert_spec()),
                {.scheme = PartitionScheme::even(3)});
  const auto tokens =
      random_tokens(20, system.model().spec().vocab_size, 1);
  const Tensor logits = system.infer(tokens);
  EXPECT_EQ(logits.rows(), 1U);
  EXPECT_EQ(logits.cols(), 2U);
  EXPECT_GT(system.traffic().bytes_sent, 0U);
}

TEST(System, MatchesStandaloneModel) {
  const TransformerModel reference = make_model(mini_gpt2_spec());
  System system(make_model(mini_gpt2_spec()),
                {.scheme = PartitionScheme::even(2),
                 .policy = OrderPolicy::kAdaptive});
  const auto tokens = random_tokens(15, reference.spec().vocab_size, 2);
  EXPECT_TRUE(allclose(system.infer(tokens), reference.infer(tokens), 2e-3F));
}

TEST(System, VisionInput) {
  System system(make_model(mini_vit_spec()),
                {.scheme = PartitionScheme::even(2)});
  const Tensor logits = system.infer(random_image(32, 3, 3));
  EXPECT_EQ(logits.cols(), 10U);
}

TEST(System, EstimateLatencyUsesSchemeAndCluster) {
  System system(make_model(mini_bert_spec()),
                {.scheme = PartitionScheme::even(4)});
  const auto cluster = sim::Cluster::homogeneous(
      4, sim::DeviceSpec{.name = "edge", .mac_rate = 5e9,
                         .elementwise_rate = 1e9},
      LinkModel::mbps(500));
  const LatencyReport report = system.estimate_latency(cluster, 64);
  EXPECT_GT(report.total, 0.0);
  EXPECT_EQ(report.devices, 4U);
  // More bandwidth, faster estimate.
  auto fast = cluster;
  fast.link = LinkModel::mbps(2000);
  EXPECT_LT(system.estimate_latency(fast, 64).total, report.total);
}

TEST(System, StrategyOverRealSockets) {
  const TransformerModel reference = make_model(mini_gpt2_spec());
  System system(make_model(mini_gpt2_spec()),
                {.scheme = PartitionScheme::even(2),
                 .policy = OrderPolicy::kAdaptive,
                 .transport = TransportKind::kUnixSocket});
  const auto tokens = random_tokens(12, reference.spec().vocab_size, 6);
  EXPECT_TRUE(allclose(system.infer(tokens), reference.infer(tokens), 2e-3F));
}

TEST(System, TrafficAccumulatesAcrossCalls) {
  System system(make_model(mini_bert_spec()),
                {.scheme = PartitionScheme::even(2)});
  const auto tokens =
      random_tokens(12, system.model().spec().vocab_size, 4);
  (void)system.infer(tokens);
  const auto first = system.traffic().bytes_sent;
  (void)system.infer(tokens);
  EXPECT_EQ(system.traffic().bytes_sent, 2 * first);
}

}  // namespace
}  // namespace voltage
