// Tests of the message fabric and the real collectives, including the
// paper's §V-C communication-volume formulas measured on actual traffic,
// and the §V-C training-communication accounting.
#include <memory>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "collective/collectives.h"
#include "collective/cost.h"
#include "net/fabric.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/serialize.h"
#include "transformer/zoo.h"

namespace voltage {
namespace {

std::vector<DeviceId> group_of(std::size_t k) {
  std::vector<DeviceId> g(k);
  std::iota(g.begin(), g.end(), DeviceId{0});
  return g;
}

// --- fabric -------------------------------------------------------------------

TEST(Fabric, DeliversTaggedMessages) {
  Fabric fabric(2);
  fabric.send(Message{.source = 0, .destination = 1, .tag = 7,
                      .payload = std::vector<std::byte>(3)});
  const Message m = fabric.recv(1, 0, 7);
  EXPECT_EQ(m.payload.size(), 3U);
}

TEST(Fabric, RecvMatchesSourceAndTag) {
  Fabric fabric(3);
  fabric.send(Message{.source = 2, .destination = 0, .tag = 1,
                      .payload = std::vector<std::byte>(1)});
  fabric.send(Message{.source = 1, .destination = 0, .tag = 1,
                      .payload = std::vector<std::byte>(2)});
  fabric.send(Message{.source = 1, .destination = 0, .tag = 2,
                      .payload = std::vector<std::byte>(3)});
  // Out-of-order matching: ask for (1, tag 2) first.
  EXPECT_EQ(fabric.recv(0, 1, 2).payload.size(), 3U);
  EXPECT_EQ(fabric.recv(0, 1, 1).payload.size(), 2U);
  EXPECT_EQ(fabric.recv(0, 2, 1).payload.size(), 1U);
}

TEST(Fabric, RecvBlocksUntilArrival) {
  Fabric fabric(2);
  std::thread sender([&] {
    fabric.send(Message{.source = 0, .destination = 1, .tag = 5,
                        .payload = std::vector<std::byte>(10)});
  });
  const Message m = fabric.recv(1, 0, 5);
  sender.join();
  EXPECT_EQ(m.payload.size(), 10U);
}

TEST(Fabric, RejectsSelfSendAndBadIds) {
  Fabric fabric(2);
  EXPECT_THROW(fabric.send(Message{.source = 0, .destination = 0, .tag = 0, .payload = {}}),
               std::invalid_argument);
  EXPECT_THROW(fabric.send(Message{.source = 0, .destination = 5, .tag = 0, .payload = {}}),
               std::out_of_range);
  EXPECT_THROW(Fabric(0), std::invalid_argument);
}

TEST(Fabric, CountsTraffic) {
  Fabric fabric(2);
  fabric.send(Message{.source = 0, .destination = 1, .tag = 1,
                      .payload = std::vector<std::byte>(100)});
  (void)fabric.recv(1, 0, 1);
  // Each message is charged its payload plus the per-message wire frame
  // (net/message.h), so in-memory and socket transports count identically.
  EXPECT_EQ(fabric.stats(0).bytes_sent, 100U + kWireFrameBytes);
  EXPECT_EQ(fabric.stats(0).messages_sent, 1U);
  EXPECT_EQ(fabric.stats(1).bytes_received, 100U + kWireFrameBytes);
  EXPECT_EQ(fabric.total_stats().bytes_sent, 100U + kWireFrameBytes);
  fabric.reset_stats();
  EXPECT_EQ(fabric.total_stats().bytes_sent, 0U);
}

// --- collectives (threaded, real) ---------------------------------------------

TEST(Collectives, AllGatherSharesEveryRanksTensor) {
  constexpr std::size_t kRanks = 4;
  Fabric fabric(kRanks);
  const auto group = group_of(kRanks);
  std::vector<std::vector<Tensor>> results(kRanks);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kRanks; ++i) {
    threads.emplace_back([&, i] {
      const Tensor local = Tensor::filled(2, 3, static_cast<float>(i + 1));
      results[i] = all_gather(fabric, group, i, local, /*tag=*/10);
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < kRanks; ++i) {
    ASSERT_EQ(results[i].size(), kRanks);
    for (std::size_t j = 0; j < kRanks; ++j) {
      EXPECT_EQ(results[i][j],
                Tensor::filled(2, 3, static_cast<float>(j + 1)));
    }
  }
}

TEST(Collectives, BroadcastFromRoot) {
  constexpr std::size_t kRanks = 3;
  Fabric fabric(kRanks);
  const auto group = group_of(kRanks);
  Rng rng(1);
  const Tensor payload = rng.normal_tensor(4, 4, 1.0F);
  std::vector<Tensor> received(kRanks);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kRanks; ++i) {
    threads.emplace_back([&, i] {
      Tensor data = i == 1 ? payload : Tensor();
      broadcast(fabric, group, i, /*root_index=*/1, data, /*tag=*/20);
      received[i] = data;
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < kRanks; ++i) EXPECT_EQ(received[i], payload);
}

class RingAllReduce : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RingAllReduce, SumsAcrossRanks) {
  const std::size_t k = GetParam();
  Fabric fabric(k);
  const auto group = group_of(k);
  Rng rng(2);
  std::vector<Tensor> inputs;
  Tensor expected(6, 5);
  for (std::size_t i = 0; i < k; ++i) {
    inputs.push_back(rng.normal_tensor(6, 5, 1.0F));
    add_inplace(expected, inputs.back());
  }
  std::vector<Tensor> results(k);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < k; ++i) {
    threads.emplace_back([&, i] {
      results[i] = ring_all_reduce_sum(fabric, group, i, inputs[i], 100);
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_TRUE(allclose(results[i], expected, 1e-4F)) << "rank " << i;
  }
}

// k=7 > rows=6 exercises empty ring chunks; k=1 is the degenerate no-op.
INSTANTIATE_TEST_SUITE_P(Ks, RingAllReduce,
                         ::testing::Values<std::size_t>(1, 2, 3, 4, 6, 7));

TEST(Collectives, NaiveAllReduceMatchesRing) {
  constexpr std::size_t kRanks = 3;
  Fabric fabric(kRanks);
  const auto group = group_of(kRanks);
  Rng rng(3);
  std::vector<Tensor> inputs;
  Tensor expected(4, 4);
  for (std::size_t i = 0; i < kRanks; ++i) {
    inputs.push_back(rng.normal_tensor(4, 4, 1.0F));
    add_inplace(expected, inputs.back());
  }
  std::vector<Tensor> results(kRanks);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kRanks; ++i) {
    threads.emplace_back([&, i] {
      results[i] = naive_all_reduce_sum(fabric, group, i, inputs[i], 200);
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < kRanks; ++i) {
    EXPECT_TRUE(allclose(results[i], expected, 1e-4F));
  }
}

TEST(Collectives, AssembleRows) {
  const std::vector<Tensor> parts{Tensor::filled(2, 3, 1.0F),
                                  Tensor::filled(1, 3, 2.0F)};
  const std::vector<Range> ranges{{0, 2}, {2, 3}};
  const Tensor full = assemble_rows(parts, ranges, 3, 3);
  EXPECT_EQ(full(0, 0), 1.0F);
  EXPECT_EQ(full(2, 2), 2.0F);
  EXPECT_THROW((void)assemble_rows(parts, {{0, 1}, {2, 3}}, 3, 3),
               std::invalid_argument);
}

TEST(Collectives, GroupValidation) {
  Fabric fabric(2);
  EXPECT_THROW((void)all_gather(fabric, {}, 0, Tensor(1, 1), 1),
               std::invalid_argument);
  EXPECT_THROW((void)all_gather(fabric, {0, 1}, 2, Tensor(1, 1), 1),
               std::invalid_argument);
}

// --- zero-copy all_gather_into --------------------------------------------------

std::vector<Range> even_ranges(std::size_t n, std::size_t k) {
  std::vector<Range> ranges(k);
  for (std::size_t i = 0; i < k; ++i) {
    ranges[i] = Range{.begin = n * i / k, .end = n * (i + 1) / k};
  }
  return ranges;
}

// Awkward shapes: K=1 degenerate, non-tile-divisible N, and K > N (empty
// ranges). Every rank's destination buffer must come back identical to the
// seed all_gather + assemble_rows result.
class AllGatherIntoShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(AllGatherIntoShapes, MatchesSeedGatherPlusAssemble) {
  const auto [k, n] = GetParam();
  constexpr std::size_t kF = 3;
  const auto ranges = even_ranges(n, k);
  Fabric fabric(k);
  const auto group = group_of(k);
  std::vector<Tensor> results(k);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < k; ++i) {
    threads.emplace_back([&, i] {
      const auto local = std::make_shared<const Tensor>(
          Tensor::filled(ranges[i].size(), kF, static_cast<float>(i + 1)));
      Tensor dst = Tensor::filled(n, kF, -7.0F);  // sentinel: must be erased
      all_gather_into(fabric, group, i, local, ranges, dst, /*tag=*/30);
      results[i] = std::move(dst);
    });
  }
  for (auto& t : threads) t.join();

  std::vector<Tensor> parts;
  parts.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    parts.push_back(
        Tensor::filled(ranges[i].size(), kF, static_cast<float>(i + 1)));
  }
  const Tensor expected = assemble_rows(parts, ranges, n, kF);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(results[i], expected) << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AllGatherIntoShapes,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 6},   // K = 1
                      std::pair<std::size_t, std::size_t>{3, 7},   // 7 % 3 != 0
                      std::pair<std::size_t, std::size_t>{5, 3},   // K > N
                      std::pair<std::size_t, std::size_t>{4, 64}));

TEST(Collectives, SingleRankGatherSendsNothing) {
  // Satellite fix: alone in the group, neither path may serialize or send.
  Fabric fabric(1);
  const Tensor local = Tensor::filled(4, 2, 3.0F);
  const auto parts = all_gather(fabric, {0}, 0, local, 1);
  ASSERT_EQ(parts.size(), 1U);
  EXPECT_EQ(parts[0], local);

  Tensor dst(4, 2);
  all_gather_into(fabric, {0}, 0, std::make_shared<const Tensor>(local),
                  {Range{0, 4}}, dst, 2);
  EXPECT_EQ(dst, local);

  EXPECT_EQ(fabric.total_stats().messages_sent, 0U);
  EXPECT_EQ(fabric.total_stats().bytes_sent, 0U);
}

TEST(Collectives, AllGatherIntoSplitPhaseOverlapsWork) {
  // The split API: construction posts the sends, arbitrary compute runs,
  // wait() completes the gather.
  constexpr std::size_t kRanks = 3;
  constexpr std::size_t kN = 9;
  constexpr std::size_t kF = 4;
  const auto ranges = even_ranges(kN, kRanks);
  Fabric fabric(kRanks);
  const auto group = group_of(kRanks);
  std::vector<Tensor> results(kRanks);
  std::vector<float> overlapped(kRanks);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kRanks; ++i) {
    threads.emplace_back([&, i] {
      const auto local = std::make_shared<const Tensor>(
          Tensor::filled(ranges[i].size(), kF, static_cast<float>(i + 1)));
      Tensor dst(kN, kF);
      AllGatherInto gather(fabric, group, i, local, ranges, dst, 40);
      // "Compute" that depends only on the rank's own rows, like the
      // runtime's attention prologue.
      overlapped[i] = (*local)(0, 0) * 2.0F;
      gather.wait();
      gather.wait();  // idempotent
      results[i] = std::move(dst);
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < kRanks; ++i) {
    EXPECT_EQ(overlapped[i], static_cast<float>(i + 1) * 2.0F);
    for (std::size_t j = 0; j < kRanks; ++j) {
      EXPECT_EQ(results[i](ranges[j].begin, 0), static_cast<float>(j + 1));
    }
  }
}

TEST(Collectives, AllGatherIntoValidatesShapes) {
  Fabric fabric(2);
  const std::vector<DeviceId> group{0, 1};
  const std::vector<Range> ranges{{0, 2}, {2, 4}};
  Tensor dst(4, 3);
  // ranges/group size mismatch.
  EXPECT_THROW(all_gather_into(fabric, group, 0,
                               std::make_shared<const Tensor>(2, 3),
                               {Range{0, 4}}, dst, 1),
               std::invalid_argument);
  // Local partition rows disagree with the owned range.
  EXPECT_THROW(all_gather_into(fabric, group, 0,
                               std::make_shared<const Tensor>(1, 3), ranges,
                               dst, 1),
               std::invalid_argument);
  // Column mismatch with the destination.
  EXPECT_THROW(all_gather_into(fabric, group, 0,
                               std::make_shared<const Tensor>(2, 5), ranges,
                               dst, 1),
               std::invalid_argument);
  // Owned range exceeds the destination.
  Tensor small(3, 3);
  EXPECT_THROW(all_gather_into(fabric, group, 1,
                               std::make_shared<const Tensor>(2, 3), ranges,
                               small, 1),
               std::invalid_argument);
  // Null local.
  EXPECT_THROW(all_gather_into(fabric, group, 0, nullptr, ranges, dst, 1),
               std::invalid_argument);
}

// --- measured traffic vs paper formulas ----------------------------------------

TEST(CommVolume, AllGatherMatchesPaperFormula) {
  // Voltage sends (K-1) * (N/K) * F elements per device per layer.
  constexpr std::size_t kRanks = 4;
  constexpr std::size_t kN = 64;
  constexpr std::size_t kF = 16;
  Fabric fabric(kRanks);
  const auto group = group_of(kRanks);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kRanks; ++i) {
    threads.emplace_back([&, i] {
      const Tensor part(kN / kRanks, kF);
      (void)all_gather(fabric, group, i, part, 1);
    });
  }
  for (auto& t : threads) t.join();

  const std::uint64_t elements =
      voltage_elements_per_device_layer(kN, kF, kRanks);
  const std::uint64_t expected_bytes =
      elements * sizeof(float) +
      (kRanks - 1) * (kTensorWireHeaderBytes + kWireFrameBytes);
  for (std::size_t i = 0; i < kRanks; ++i) {
    EXPECT_EQ(fabric.stats(i).bytes_sent, expected_bytes);
    EXPECT_EQ(fabric.stats(i).messages_sent, kRanks - 1);
  }
}

TEST(CommVolume, ZeroCopyAllGatherIntoMatchesPaperFormula) {
  // The zero-copy rewrite must put exactly the same bytes on the wire as the
  // seed path: (K-1) * (N/K) * F elements per device per layer, plus one
  // 16-byte header per peer message.
  constexpr std::size_t kRanks = 4;
  constexpr std::size_t kN = 64;
  constexpr std::size_t kF = 16;
  const auto ranges = even_ranges(kN, kRanks);
  Fabric fabric(kRanks);
  const auto group = group_of(kRanks);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kRanks; ++i) {
    threads.emplace_back([&, i] {
      Tensor dst(kN, kF);
      all_gather_into(fabric, group, i,
                      std::make_shared<const Tensor>(ranges[i].size(), kF),
                      ranges, dst, 1);
    });
  }
  for (auto& t : threads) t.join();

  const std::uint64_t elements =
      voltage_elements_per_device_layer(kN, kF, kRanks);
  const std::uint64_t expected_bytes =
      elements * sizeof(float) +
      (kRanks - 1) * (kTensorWireHeaderBytes + kWireFrameBytes);
  for (std::size_t i = 0; i < kRanks; ++i) {
    EXPECT_EQ(fabric.stats(i).bytes_sent, expected_bytes);
    EXPECT_EQ(fabric.stats(i).messages_sent, kRanks - 1);
  }
  EXPECT_EQ(fabric.total_stats().bytes_sent, kRanks * expected_bytes);
}

TEST(CommVolume, RingAllReducePairMatchesTpFormula) {
  // Two ring all-reduces of the N x F activation move
  // 4 * (K-1) * N * F / K elements per device — the paper's TP volume.
  constexpr std::size_t kRanks = 4;
  constexpr std::size_t kN = 64;
  constexpr std::size_t kF = 16;
  Fabric fabric(kRanks);
  const auto group = group_of(kRanks);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kRanks; ++i) {
    threads.emplace_back([&, i] {
      Tensor act(kN, kF);
      act = ring_all_reduce_sum(fabric, group, i, std::move(act), 1);
      (void)ring_all_reduce_sum(fabric, group, i, std::move(act), 500);
    });
  }
  for (auto& t : threads) t.join();

  const std::uint64_t elements = tp_elements_per_device_layer(kN, kF, kRanks);
  const std::uint64_t expected_bytes =
      elements * sizeof(float) +
      4 * (kRanks - 1) * (kTensorWireHeaderBytes + kWireFrameBytes);
  for (std::size_t i = 0; i < kRanks; ++i) {
    EXPECT_EQ(fabric.stats(i).bytes_sent, expected_bytes);
  }
}

TEST(CommVolume, VoltageIsFourTimesCheaperThanTp) {
  // The headline §V-C ratio, straight from the formulas.
  for (const std::size_t k : {2U, 3U, 4U, 6U}) {
    const std::uint64_t voltage = voltage_elements_per_device_layer(240, 1024, k);
    const std::uint64_t tp = tp_elements_per_device_layer(240, 1024, k);
    EXPECT_EQ(tp, 4 * voltage) << "k=" << k;
  }
  EXPECT_EQ(voltage_elements_per_device_layer(240, 1024, 1), 0U);
}

// --- analytic durations ---------------------------------------------------------

TEST(CollectiveCost, DegenerateSingleRankIsFree) {
  const LinkModel link = LinkModel::mbps(500);
  EXPECT_EQ(allgather_fullmesh_duration(1000, 1, link), 0.0);
  EXPECT_EQ(ring_allreduce_duration(1000, 1, link), 0.0);
  EXPECT_EQ(broadcast_duration(1000, 1, link), 0.0);
}

TEST(CollectiveCost, ScalesWithBandwidth) {
  const LinkModel fast = LinkModel::mbps(1000, 0.0);
  const LinkModel slow = LinkModel::mbps(250, 0.0);
  EXPECT_NEAR(allgather_fullmesh_duration(1 << 20, 4, slow),
              4.0 * allgather_fullmesh_duration(1 << 20, 4, fast), 1e-9);
}

TEST(CollectiveCost, RingPaysPerStepLatency) {
  // With zero payload, ring all-reduce still costs 2*(K-1) message setups —
  // the latency fragility that sinks tensor parallelism at the edge.
  const LinkModel link = LinkModel::mbps(500, 0.005);
  EXPECT_NEAR(ring_allreduce_duration(0, 6, link), 2 * 5 * 0.005, 1e-12);
  EXPECT_NEAR(allgather_fullmesh_duration(0, 6, link), 0.005, 1e-12);
}

TEST(LinkModel, TransferTimeComposition) {
  const LinkModel link = LinkModel::mbps(100, 0.001);
  // 100 Mbps = 12.5 MB/s; 1.25 MB takes 0.1 s + 1 ms latency.
  EXPECT_NEAR(link.transfer_time(1'250'000), 0.101, 1e-9);
  EXPECT_THROW((void)LinkModel::mbps(0), std::invalid_argument);
}

// --- §V-C training communication ----------------------------------------------

TEST(TrainingComm, TpPaysTwiceItsInferenceVolume) {
  const ModelSpec spec = bert_large_spec();
  // Forward + transposed backward = 2x the inference all-reduce volume.
  EXPECT_EQ(tp_training_elements_per_device(spec, 200, 4),
            2ULL * spec.num_layers *
                tp_elements_per_device_layer(200, 1024, 4));
}

TEST(TrainingComm, WeightSyncAmortizesOverBatch) {
  const ModelSpec spec = bert_large_spec();
  const std::uint64_t b1 =
      voltage_training_elements_per_device(spec, 200, 4, 1);
  const std::uint64_t b8 =
      voltage_training_elements_per_device(spec, 200, 4, 8);
  // Eight samples cost far less than 8x one sample: the parameter sync is
  // paid once per batch.
  EXPECT_LT(b8, 8 * b1);
}

TEST(TrainingComm, CrossoverExistsAndIsFinite) {
  // BERT-Large has ~335M parameters, so the per-batch weight sync dwarfs
  // per-sample activation traffic at small batches — TP wins training at
  // batch 1 (exactly the paper's point that Voltage targets inference) but
  // the replicated-weights step wins once the batch amortizes the sync.
  const ModelSpec spec = bert_large_spec();
  const std::size_t crossover =
      training_comm_crossover_batch(spec, 200, 4, 4096);
  EXPECT_GT(crossover, 1U);
  EXPECT_LT(crossover, 4096U);
  // Below the crossover TP moves fewer elements.
  EXPECT_GT(voltage_training_elements_per_device(spec, 200, 4, 1),
            tp_training_elements_per_device(spec, 200, 4));
  // The crossovers table_training_comm prints and EXPERIMENTS.md quotes,
  // at every K the table sweeps.
  for (const std::size_t k : {2U, 4U, 6U}) {
    EXPECT_EQ(training_comm_crossover_batch(spec, 200, k, 4096), 23U)
        << "K=" << k;
    EXPECT_EQ(training_comm_crossover_batch(gpt2_spec(), 200, k, 4096), 30U)
        << "K=" << k;
    EXPECT_EQ(training_comm_crossover_batch(vit_base_spec(), 197, k, 4096),
              16U) << "K=" << k;
  }
}

TEST(TrainingComm, SingleDeviceIsFree) {
  const ModelSpec spec = gpt2_spec();
  EXPECT_EQ(voltage_training_elements_per_device(spec, 200, 1, 16), 0U);
  EXPECT_EQ(tp_training_elements_per_device(spec, 200, 1), 0U);
}

}  // namespace
}  // namespace voltage
