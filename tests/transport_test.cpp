// Tests of the transport layer: the SocketFabric (real kernel sockets) must
// be a drop-in replacement for the in-memory Fabric — same matching
// semantics, same collective results, same end-to-end inference.
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "collective/collectives.h"
#include "net/fabric.h"
#include "net/socket_fabric.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "runtime/voltage_runtime.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/serialize.h"
#include "transformer/tokenizer.h"
#include "transformer/zoo.h"

namespace voltage {
namespace {

std::vector<DeviceId> group_of(std::size_t k) {
  std::vector<DeviceId> g(k);
  std::iota(g.begin(), g.end(), DeviceId{0});
  return g;
}

// Runs the same scenarios against both transports.
class TransportParam : public ::testing::TestWithParam<TransportKind> {
 protected:
  [[nodiscard]] std::unique_ptr<Transport> make(std::size_t devices) const {
    return make_transport(GetParam(), devices);
  }
};

TEST_P(TransportParam, PointToPointDelivery) {
  const auto t = make(2);
  t->send(Message{.source = 0, .destination = 1, .tag = 7,
                  .payload = std::vector<std::byte>(100, std::byte{42})});
  const Message m = t->recv(1, 0, 7);
  EXPECT_EQ(m.payload.size(), 100U);
  EXPECT_EQ(m.payload[99], std::byte{42});
  EXPECT_EQ(m.source, 0U);
  EXPECT_EQ(m.tag, 7U);
}

TEST_P(TransportParam, OutOfOrderTagMatching) {
  const auto t = make(2);
  for (MessageTag tag = 0; tag < 5; ++tag) {
    t->send(Message{.source = 0, .destination = 1, .tag = tag,
                    .payload = std::vector<std::byte>(tag + 1)});
  }
  // Consume in reverse order.
  for (MessageTag tag = 5; tag-- > 0;) {
    EXPECT_EQ(t->recv(1, 0, tag).payload.size(), tag + 1);
  }
}

TEST_P(TransportParam, EmptyPayload) {
  const auto t = make(2);
  t->send(Message{.source = 1, .destination = 0, .tag = 3, .payload = {}});
  EXPECT_TRUE(t->recv(0, 1, 3).payload.empty());
}

TEST_P(TransportParam, LargeMessageSurvives) {
  const auto t = make(2);
  Rng rng(1);
  const Tensor big = rng.normal_tensor(300, 1024, 1.0F);  // ~1.2 MB
  std::thread sender([&] {
    t->send(Message{.source = 0, .destination = 1, .tag = 1,
                    .payload = to_bytes(big)});
  });
  const Tensor back = tensor_from_payload(t->recv(1, 0, 1).payload);
  sender.join();
  EXPECT_EQ(back, big);
}

TEST_P(TransportParam, RecvAnyMatchesTagFromAnySource) {
  const auto t = make(3);
  t->send(Message{.source = 1, .destination = 0, .tag = 9,
                  .payload = std::vector<std::byte>(11)});
  t->send(Message{.source = 2, .destination = 0, .tag = 9,
                  .payload = std::vector<std::byte>(22)});
  std::size_t total = 0;
  std::set<DeviceId> sources;
  for (int i = 0; i < 2; ++i) {
    const Message m = t->recv_any(0, 9);
    total += m.payload.size();
    sources.insert(m.source);
  }
  EXPECT_EQ(total, 33U);
  EXPECT_EQ(sources, (std::set<DeviceId>{1, 2}));
}

TEST_P(TransportParam, TrafficCountersMatch) {
  const auto t = make(3);
  t->send(Message{.source = 0, .destination = 2, .tag = 1,
                  .payload = std::vector<std::byte>(64)});
  (void)t->recv(2, 0, 1);
  EXPECT_EQ(t->stats(0).bytes_sent, 64U + kWireFrameBytes);
  EXPECT_EQ(t->stats(2).bytes_received, 64U + kWireFrameBytes);
  EXPECT_EQ(t->total_stats().messages_sent, 1U);
  t->reset_stats();
  EXPECT_EQ(t->total_stats().bytes_sent, 0U);
}

TEST_P(TransportParam, RejectsSelfSendAndBadIds) {
  obs::MetricsRegistry metrics;  // outlives the transport that counts into it
  const auto t = make(2);
  t->set_metrics(&metrics);
  EXPECT_THROW(t->send(Message{.source = 1, .destination = 1, .tag = 0, .payload = {}}),
               std::invalid_argument);
  EXPECT_THROW(t->send(Message{.source = 0, .destination = 9, .tag = 0, .payload = {}}),
               std::out_of_range);
  EXPECT_THROW(t->send(Message{.source = 7, .destination = 0, .tag = 0, .payload = {}}),
               std::out_of_range);
  EXPECT_THROW((void)t->stats(5), std::out_of_range);
  // A rejected send never reaches the wire, so nothing counts it.
  EXPECT_EQ(t->total_stats().messages_sent, 0U);
  EXPECT_EQ(metrics.counter("transport.messages_sent").value(), 0U);
}

TEST_P(TransportParam, AllGatherAcrossThreads) {
  constexpr std::size_t kRanks = 4;
  const auto t = make(kRanks);
  const auto group = group_of(kRanks);
  std::vector<std::vector<Tensor>> results(kRanks);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kRanks; ++i) {
    threads.emplace_back([&, i] {
      results[i] = all_gather(*t, group, i,
                              Tensor::filled(3, 3, static_cast<float>(i)),
                              /*tag=*/11);
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t i = 0; i < kRanks; ++i) {
    for (std::size_t j = 0; j < kRanks; ++j) {
      EXPECT_EQ(results[i][j], Tensor::filled(3, 3, static_cast<float>(j)));
    }
  }
}

TEST_P(TransportParam, RingAllReduceAcrossThreads) {
  constexpr std::size_t kRanks = 3;
  const auto t = make(kRanks);
  const auto group = group_of(kRanks);
  Rng rng(2);
  std::vector<Tensor> inputs;
  Tensor expected(5, 4);
  for (std::size_t i = 0; i < kRanks; ++i) {
    inputs.push_back(rng.normal_tensor(5, 4, 1.0F));
    add_inplace(expected, inputs.back());
  }
  std::vector<Tensor> results(kRanks);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kRanks; ++i) {
    threads.emplace_back([&, i] {
      results[i] = ring_all_reduce_sum(*t, group, i, inputs[i], 50);
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t i = 0; i < kRanks; ++i) {
    EXPECT_TRUE(allclose(results[i], expected, 1e-4F));
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, TransportParam,
                         ::testing::Values(TransportKind::kInMemory,
                                           TransportKind::kUnixSocket),
                         [](const auto& info) {
                           return info.param == TransportKind::kInMemory
                                      ? "InMemory"
                                      : "UnixSocket";
                         });

// --- end-to-end inference over real sockets -----------------------------------

TEST(SocketRuntime, VoltageOverSocketsMatchesSingleDevice) {
  const TransformerModel model = make_model(mini_bert_spec());
  const auto tokens = random_tokens(24, model.spec().vocab_size, 41);
  VoltageRuntime runtime(model, PartitionScheme::even(3),
                         OrderPolicy::kAdaptive, TransportKind::kUnixSocket);
  EXPECT_TRUE(allclose(runtime.infer(tokens), model.infer(tokens), 2e-3F));
  // Socket traffic is byte-identical to the in-memory fabric's accounting.
  VoltageRuntime reference(model, PartitionScheme::even(3));
  (void)reference.infer(tokens);
  EXPECT_EQ(runtime.fabric().total_stats().bytes_sent,
            reference.fabric().total_stats().bytes_sent);
}

TEST(SocketRuntime, RepeatedInferenceOverSockets) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  VoltageRuntime runtime(model, PartitionScheme::even(2),
                         OrderPolicy::kAdaptive, TransportKind::kUnixSocket);
  const auto a = random_tokens(10, model.spec().vocab_size, 1);
  const auto b = random_tokens(13, model.spec().vocab_size, 2);
  EXPECT_TRUE(allclose(runtime.infer(a), model.infer(a), 2e-3F));
  EXPECT_TRUE(allclose(runtime.infer(b), model.infer(b), 2e-3F));
}

TEST(SocketFabricLifecycle, CleanTeardownWithPendingNothing) {
  // Construct/destruct without traffic: readers must exit promptly.
  for (int i = 0; i < 3; ++i) {
    SocketFabric fabric(4);
    EXPECT_EQ(fabric.devices(), 4U);
  }
}

TEST(SocketFabricLifecycle, ZeroDevicesRejected) {
  EXPECT_THROW(SocketFabric(0), std::invalid_argument);
}

}  // namespace
}  // namespace voltage
