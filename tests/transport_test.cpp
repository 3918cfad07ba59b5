// Tests of the transport layer: the SocketFabric (real kernel sockets) must
// be a drop-in replacement for the in-memory Fabric — same matching
// semantics, same collective results, same end-to-end inference.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "collective/collectives.h"
#include "core/spin_wait.h"
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

// --- spin-then-park receive (core/spin_wait.h) ------------------------------

using Clock = std::chrono::steady_clock;

// Busy-waits `d`: a sleep would overshoot the spin budget's edge.
void hold(Clock::duration d) {
  const Clock::time_point until = Clock::now() + d;
  while (Clock::now() < until) std::this_thread::yield();
}

TEST_P(TransportParam, CloseWhileReceiverSpinsThrowsWithReason) {
  const auto t = make(2);
  std::thread closer([&] {
    hold(std::chrono::microseconds(50));
    t->close("closed mid-spin");
  });
  try {
    (void)t->recv(1, 0, 5);
    ADD_FAILURE() << "recv returned on a closed transport";
  } catch (const TransportClosedError& e) {
    EXPECT_NE(std::string(e.what()).find("closed mid-spin"),
              std::string::npos)
        << e.what();
  }
  closer.join();
}

TEST_P(TransportParam, DeadlineInsideSpinBudgetTimesOut) {
  const auto t = make(2);
  constexpr auto kWait = std::chrono::microseconds(200);
  static_assert(kWait < kSpinBudget);
  const Clock::time_point start = Clock::now();
  EXPECT_THROW(
      (void)t->recv(1, 0, 5, RecvOptions{.deadline = start + kWait}),
      RecvTimeoutError);
  const Clock::duration waited = Clock::now() - start;
  EXPECT_GE(waited, kWait);
  EXPECT_LT(waited, std::chrono::seconds(2));
}

TEST_P(TransportParam, TwoReceiversOfOneMailboxBothReturn) {
  // Two threads wait on device 1 for different tags; the messages land in
  // the reverse order, while the receivers spin, at the edge, or parked.
  const auto t = make(2);
  for (const Clock::duration delay :
       {Clock::duration::zero(), Clock::duration(kSpinBudget),
        Clock::duration(2 * kSpinBudget)}) {
    std::size_t first = 0;
    std::size_t second = 0;
    std::thread a([&] { first = t->recv(1, 0, 1).payload.size(); });
    std::thread b([&] { second = t->recv(1, 0, 2).payload.size(); });
    hold(delay);
    t->send(Message{.source = 0, .destination = 1, .tag = 2,
                    .payload = std::vector<std::byte>(22)});
    t->send(Message{.source = 0, .destination = 1, .tag = 1,
                    .payload = std::vector<std::byte>(11)});
    a.join();
    b.join();
    EXPECT_EQ(first, 11U);
    EXPECT_EQ(second, 22U);
  }
}

TEST_P(TransportParam, SeededPingPongAcrossTheSpinEdge) {
  // Each side delays a few of its sends by about the spin budget or twice
  // it, so receives end their spin just before, at, or after the message
  // lands. A wake-up lost between spinning and parking would stall a round
  // trip until its receive deadline.
  constexpr std::size_t kTrips = 20'000;
  constexpr auto kDeadline = std::chrono::seconds(2);
  const auto t = make(2);
  const auto delays = [](std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Clock::duration> out(kTrips, Clock::duration::zero());
    for (Clock::duration& d : out) {
      const std::uint64_t draw = rng.next_below(1000);
      const auto jitter = std::chrono::microseconds(rng.next_below(200));
      if (draw < 5) d = kSpinBudget - std::chrono::microseconds(100) + jitter;
      if (draw >= 995) d = 2 * kSpinBudget + jitter;
    }
    return out;
  };
  const std::vector<Clock::duration> ping_delays = delays(11);
  const std::vector<Clock::duration> pong_delays = delays(12);
  const auto within = [&] {
    return RecvOptions{.deadline = Clock::now() + kDeadline};
  };
  std::thread ponger([&] {
    try {
      for (std::size_t i = 0; i < kTrips; ++i) {
        Message m = t->recv(1, 0, 3, within());
        hold(pong_delays[i]);
        t->send(Message{.source = 1, .destination = 0, .tag = 4,
                        .payload = std::move(m.payload)});
      }
    } catch (const std::exception&) {
      // The pinger's receive deadline reports the stall.
    }
  });
  Clock::duration slowest = Clock::duration::zero();
  const Clock::time_point start = Clock::now();
  try {
    for (std::size_t i = 0; i < kTrips; ++i) {
      hold(ping_delays[i]);
      const auto mark = static_cast<std::byte>(i & 0xFF);
      const Clock::time_point sent = Clock::now();
      t->send(Message{.source = 0, .destination = 1, .tag = 3,
                      .payload = std::vector<std::byte>(8, mark)});
      const Message back = t->recv(0, 1, 4, within());
      slowest = std::max(slowest, Clock::now() - sent - pong_delays[i]);
      if (back.payload[0] != mark) {
        ADD_FAILURE() << "trip " << i << " got another trip's reply";
        break;
      }
    }
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what();
  }
  t->close("ping-pong over");
  ponger.join();
  EXPECT_LT(slowest, kDeadline / 2);
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(60));
}

// --- a receive whose CPU is taken parks ------------------------------------

// The n-th CPU (from 0) the calling thread may run on, as a one-CPU mask.
cpu_set_t nth_cpu(int n) {
  cpu_set_t mine;
  CPU_ZERO(&mine);
  (void)pthread_getaffinity_np(pthread_self(), sizeof(mine), &mine);
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mine) && n-- == 0) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  return one;
}

// Runs the calling thread on `cpus` until destroyed, then restores its mask.
class Pinned {
 public:
  explicit Pinned(const cpu_set_t& cpus) {
    CPU_ZERO(&saved_);
    (void)pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    (void)pthread_setaffinity_np(pthread_self(), sizeof(cpus), &cpus);
  }
  ~Pinned() {
    (void)pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
  Pinned(const Pinned&) = delete;
  Pinned& operator=(const Pinned&) = delete;

 private:
  cpu_set_t saved_;
};

TEST(SpinThenPark, ReceiveWhoseCpuIsTakenParks) {
  // Once a receive starts, a thread pinned to the receiver's CPU keeps that
  // CPU busy for 300 us, and the sender, on another CPU, sends 600 us in:
  // inside the spin budget. The receive gets its CPU back only after the
  // other thread ran, so it parks instead of spinning on. A busy host can
  // run that thread before the receive starts, which leaves nothing to
  // detect, so the test asks for a park in most trials, not in all.
  if (!may_spin(2)) GTEST_SKIP() << "this host does not spin";
  constexpr auto kBusy = std::chrono::microseconds(300);
  constexpr auto kLate = std::chrono::microseconds(600);
  static_assert(kBusy > kCpuTaken && kLate < kSpinBudget);
  constexpr std::size_t kTrials = 20;
  const cpu_set_t shared = nth_cpu(0);
  const cpu_set_t other = nth_cpu(1);
  obs::MetricsRegistry metrics;  // outlives the transport that counts into it
  Fabric fabric(2);
  fabric.set_metrics(&metrics);
  const obs::Counter& parks = metrics.counter("transport.recv_parks");
  const Pinned pinned(shared);
  std::size_t parked = 0;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    std::atomic<bool> go{false};
    std::thread busy([&] {
      const Pinned here(shared);
      while (!go) std::this_thread::yield();
      const Clock::time_point until = Clock::now() + kBusy;
      while (Clock::now() < until) {
      }
    });
    std::thread sender([&] {
      const Pinned here(other);
      while (!go) std::this_thread::yield();
      hold(kLate);
      fabric.send(Message{.source = 0, .destination = 1, .tag = 1,
                          .payload = {}});
    });
    hold(std::chrono::milliseconds(1));  // both reach their loops
    const std::uint64_t before = parks.value();
    go = true;
    (void)fabric.recv(1, 0, 1);
    busy.join();
    sender.join();
    parked += parks.value() - before;
  }
  EXPECT_GE(parked, kTrials / 2);
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
