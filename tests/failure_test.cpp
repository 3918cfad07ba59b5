// Failure-containment tests: a single failing device must surface as a
// descriptive exception on the caller — never as a hang. The mechanism under
// test is transport poisoning (Transport::close unblocks every pending and
// future operation with TransportClosedError) plus optional recv deadlines,
// exercised from the transport level up through the runtimes.
//
// Every test here must finish in bounded time; a regression in the
// containment layer shows up as a ctest timeout, not a wrong value.
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "net/chaos.h"
#include "net/transport.h"
#include "partition/schedule.h"
#include "runtime/tensor_parallel_runtime.h"
#include "runtime/voltage_runtime.h"
#include "tensor/ops.h"
#include "transformer/tokenizer.h"
#include "transformer/zoo.h"

namespace voltage {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Runs the same containment scenarios over in-memory mailboxes and real
// kernel sockets — the poisoning and deadline semantics must be identical.
class FailureTransportParam : public ::testing::TestWithParam<TransportKind> {
 protected:
  [[nodiscard]] std::unique_ptr<Transport> make(std::size_t devices) const {
    return make_transport(GetParam(), devices);
  }
};

TEST_P(FailureTransportParam, CloseUnblocksPendingRecv) {
  const auto t = make(2);
  std::string error;
  std::thread receiver([&] {
    try {
      (void)t->recv(1, 0, 7);
    } catch (const TransportClosedError& e) {
      error = e.what();
    }
  });
  // Give the receiver time to actually block before poisoning.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t->close("device 0 failed: boom");
  receiver.join();
  EXPECT_NE(error.find("closed"), std::string::npos) << error;
  EXPECT_NE(error.find("device 0 failed: boom"), std::string::npos) << error;
  EXPECT_TRUE(t->closed());
}

TEST_P(FailureTransportParam, CloseUnblocksPendingRecvAny) {
  const auto t = make(3);
  std::thread receiver([&] {
    EXPECT_THROW((void)t->recv_any(2, 9), TransportClosedError);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t->close("terminal failed: deadline");
  receiver.join();
}

TEST_P(FailureTransportParam, SendAfterCloseThrows) {
  const auto t = make(2);
  t->close("test close");
  EXPECT_THROW(t->send(Message{.source = 0,
                               .destination = 1,
                               .tag = 1,
                               .payload = std::vector<std::byte>(4)}),
               TransportClosedError);
}

TEST_P(FailureTransportParam, CloseIsIdempotentFirstReasonWins) {
  const auto t = make(2);
  t->close("first reason");
  t->close("second reason");
  try {
    (void)t->recv(1, 0, 1);
    FAIL() << "recv on closed transport must throw";
  } catch (const TransportClosedError& e) {
    EXPECT_NE(std::string(e.what()).find("first reason"), std::string::npos)
        << e.what();
  }
}

TEST_P(FailureTransportParam, QueuedMessageDeliveredBeforeClosedCheck) {
  // A message that already arrived must still be consumable after close:
  // matching wins over the poison check, so no data already on the wire is
  // lost to the shutdown race.
  const auto t = make(2);
  t->send(Message{.source = 0, .destination = 1, .tag = 5,
                  .payload = std::vector<std::byte>(3)});
  // Socket delivery is asynchronous; wait for the message to land.
  const auto start = Clock::now();
  while (t->stats(1).messages_received < 1 && seconds_since(start) < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(t->stats(1).messages_received, 1U);
  // Poison with the message still queued: the first recv must match it.
  t->close("late close");
  const Message m = t->recv(1, 0, 5);
  EXPECT_EQ(m.payload.size(), 3U);
  EXPECT_THROW((void)t->recv(1, 0, 5), TransportClosedError);
}

TEST_P(FailureTransportParam, RecvDeadlineExpiresWithTimeoutError) {
  const auto t = make(2);
  const auto start = Clock::now();
  EXPECT_THROW((void)t->recv(1, 0, 42, RecvOptions::within(0.05)),
               RecvTimeoutError);
  EXPECT_THROW((void)t->recv_any(1, 42, RecvOptions::within(0.05)),
               RecvTimeoutError);
  // Both waits together stay near their budgets — no unbounded blocking.
  EXPECT_LT(seconds_since(start), 10.0);
}

TEST_P(FailureTransportParam, NonPositiveDeadlineMeansWaitForever) {
  const auto t = make(2);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    t->send(Message{.source = 0, .destination = 1, .tag = 2,
                    .payload = std::vector<std::byte>(1)});
  });
  // within(0) disables the deadline: this blocks until the send lands.
  EXPECT_EQ(t->recv(1, 0, 2, RecvOptions::within(0.0)).payload.size(), 1U);
  sender.join();
}

INSTANTIATE_TEST_SUITE_P(AllTransports, FailureTransportParam,
                         ::testing::Values(TransportKind::kInMemory,
                                           TransportKind::kUnixSocket),
                         [](const auto& info) {
                           return info.param == TransportKind::kInMemory
                                      ? "InMemory"
                                      : "UnixSocket";
                         });

// --- Runtime-level containment -------------------------------------------

class FailureRuntimeParam : public ::testing::TestWithParam<TransportKind> {};

// A transport of `devices` endpoints of the parameter's kind on which
// `device` goes dark after `after_sends` sends.
std::unique_ptr<Transport> crashing(TransportKind kind, std::size_t devices,
                                    DeviceId device,
                                    std::uint64_t after_sends,
                                    std::uint64_t seed) {
  return std::make_unique<ChaosTransport>(
      make_transport(kind, devices),
      ChaosOptions{.max_delay_seconds = 1e-4,
                   .seed = seed,
                   .crash = ChaosOptions::Crash{.device = device,
                                                .after_sends = after_sends}});
}

TEST_P(FailureRuntimeParam, ThrowingDeviceFailsInferDescriptively) {
  // The original deadlock: one device fails mid-protocol while its peers
  // block in the layer all-gather and the terminal blocks collecting the
  // final partitions. Poisoning must unwedge everyone, and the caller must
  // see the root cause — naming the seed that replays it.
  const TransformerModel model = make_model(mini_bert_spec());
  VoltageRuntime runtime(
      model,
      LayerSchedule::uniform(PartitionScheme::even(3),
                             model.spec().num_layers),
      OrderPolicy::kAdaptive,
      crashing(GetParam(), 4, /*device=*/0, /*after_sends=*/3, /*seed=*/41));
  const auto tokens = random_tokens(12, model.spec().vocab_size, 3);
  const auto start = Clock::now();
  try {
    (void)runtime.infer(tokens);
    FAIL() << "infer over a failing device must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("device 0 crashed"), std::string::npos) << what;
    EXPECT_NE(what.find("seed=41"), std::string::npos) << what;
  }
  EXPECT_LT(seconds_since(start), 60.0);
  EXPECT_TRUE(runtime.fabric().closed());
}

TEST_P(FailureRuntimeParam, FreshRuntimeStillInfersAfterFailureElsewhere) {
  // A failure poisons one runtime's transport; a new runtime on the same
  // transport kind is unaffected (containment, not contagion).
  const TransformerModel model = make_model(mini_bert_spec());
  const auto tokens = random_tokens(10, model.spec().vocab_size, 5);
  {
    VoltageRuntime doomed(
        model,
        LayerSchedule::uniform(PartitionScheme::even(2),
                               model.spec().num_layers),
        OrderPolicy::kAdaptive,
        crashing(GetParam(), 3, /*device=*/1, /*after_sends=*/0,
                 /*seed=*/42));
    try {
      (void)doomed.infer(tokens);
      FAIL() << "infer over a dead device must throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("seed=42"), std::string::npos)
          << e.what();
    }
  }
  VoltageRuntime healthy(model, PartitionScheme::even(2),
                         OrderPolicy::kAdaptive, GetParam());
  EXPECT_TRUE(allclose(healthy.infer(tokens), model.infer(tokens), 2e-3F));
}

INSTANTIATE_TEST_SUITE_P(AllTransports, FailureRuntimeParam,
                         ::testing::Values(TransportKind::kInMemory,
                                           TransportKind::kUnixSocket),
                         [](const auto& info) {
                           return info.param == TransportKind::kInMemory
                                      ? "InMemory"
                                      : "UnixSocket";
                         });

TEST(Failure, ChaosCrashFaultContainedByVoltageRuntime) {
  // Device 1 "goes dark" after its third send: the crash surfaces as
  // TransportClosedError in its thread, which poisons the fabric, so every
  // peer unwinds instead of waiting for gathers that will never complete.
  const TransformerModel model = make_model(mini_bert_spec());
  auto chaos = std::make_unique<ChaosTransport>(
      make_transport(TransportKind::kInMemory, 4),
      ChaosOptions{.max_delay_seconds = 1e-4,
                   .seed = 11,
                   .crash = ChaosOptions::Crash{.device = 1,
                                                .after_sends = 3}});
  ChaosTransport* probe = chaos.get();
  VoltageRuntime runtime(
      model,
      LayerSchedule::uniform(PartitionScheme::even(3),
                             model.spec().num_layers),
      OrderPolicy::kAdaptive, std::move(chaos));
  const auto tokens = random_tokens(12, model.spec().vocab_size, 7);
  const auto start = Clock::now();
  try {
    (void)runtime.infer(tokens);
    FAIL() << "crash fault must fail the inference";
  } catch (const TransportClosedError& e) {
    EXPECT_NE(std::string(e.what()).find("crashed"), std::string::npos)
        << e.what();
  }
  EXPECT_LT(seconds_since(start), 60.0);
  EXPECT_GE(probe->chaos_stats().crashed_sends, 1U);
}

TEST(Failure, ChaosDropWithDeadlineTimesOutInsteadOfHanging) {
  // Total message loss with no crash: nobody throws on send, so only the
  // recv deadline can detect the stall. The first thread to time out
  // poisons the fabric and the caller sees RecvTimeoutError.
  const TransformerModel model = make_model(mini_bert_spec());
  auto chaos = std::make_unique<ChaosTransport>(
      make_transport(TransportKind::kInMemory, 3),
      ChaosOptions{.max_delay_seconds = 0.0, .seed = 2,
                   .drop_probability = 1.0, .crash = {}});
  VoltageRuntime runtime(
      model,
      LayerSchedule::uniform(PartitionScheme::even(2),
                             model.spec().num_layers),
      OrderPolicy::kAdaptive, std::move(chaos));
  runtime.set_recv_timeout(0.5);
  const auto tokens = random_tokens(8, model.spec().vocab_size, 4);
  const auto start = Clock::now();
  EXPECT_THROW((void)runtime.infer(tokens), RecvTimeoutError);
  // Deadline is shared and absolute: well under a minute even with all
  // messages dropped.
  EXPECT_LT(seconds_since(start), 60.0);
}

TEST(Failure, TensorParallelRuntimeContainsCrashedDevice) {
  const TransformerModel model = make_model(mini_bert_spec());
  auto chaos = std::make_unique<ChaosTransport>(
      make_transport(TransportKind::kInMemory, 3),
      ChaosOptions{.max_delay_seconds = 1e-4,
                   .seed = 4,
                   .crash = ChaosOptions::Crash{.device = 1,
                                                .after_sends = 2}});
  TensorParallelRuntime runtime(model, 2, std::move(chaos));
  const auto tokens = random_tokens(8, model.spec().vocab_size, 6);
  const auto start = Clock::now();
  EXPECT_THROW((void)runtime.infer(tokens), TransportClosedError);
  EXPECT_LT(seconds_since(start), 60.0);
  EXPECT_TRUE(runtime.fabric().closed());
}

TEST(Failure, QuantizedRuntimeContainsCrashMidGather) {
  // Same crash scenario as the float path, but with the quantized wire
  // codec active: device 1 goes dark while its peers wait on quantized
  // all-gathers. Poisoning must propagate through the int8 plane in bounded
  // time — the codec sits on the payload, not on the containment logic.
  const TransformerModel model = make_model(mini_bert_spec());
  auto chaos = std::make_unique<ChaosTransport>(
      make_transport(TransportKind::kInMemory, 4),
      ChaosOptions{.max_delay_seconds = 1e-4,
                   .seed = 21,
                   .crash = ChaosOptions::Crash{.device = 1,
                                                .after_sends = 3}});
  VoltageRuntime runtime(
      model,
      LayerSchedule::uniform(PartitionScheme::even(3),
                             model.spec().num_layers),
      OrderPolicy::kAdaptive, std::move(chaos));
  runtime.set_precision(Precision::kInt8);
  const auto tokens = random_tokens(12, model.spec().vocab_size, 8);
  const auto start = Clock::now();
  EXPECT_THROW((void)runtime.infer(tokens), TransportClosedError);
  EXPECT_LT(seconds_since(start), 60.0);
  EXPECT_TRUE(runtime.fabric().closed());
}

TEST(Failure, QuantizedRuntimeDropWithDeadlineTimesOut) {
  // Total loss under the int8 wire: only the shared recv deadline can catch
  // it, and it must — the quantized gathers take the same RecvOptions path.
  const TransformerModel model = make_model(mini_bert_spec());
  auto chaos = std::make_unique<ChaosTransport>(
      make_transport(TransportKind::kInMemory, 3),
      ChaosOptions{.max_delay_seconds = 0.0, .seed = 22,
                   .drop_probability = 1.0, .crash = {}});
  VoltageRuntime runtime(
      model,
      LayerSchedule::uniform(PartitionScheme::even(2),
                             model.spec().num_layers),
      OrderPolicy::kAdaptive, std::move(chaos));
  runtime.set_precision(Precision::kInt8);
  runtime.set_recv_timeout(0.5);
  const auto tokens = random_tokens(8, model.spec().vocab_size, 9);
  const auto start = Clock::now();
  EXPECT_THROW((void)runtime.infer(tokens), RecvTimeoutError);
  EXPECT_LT(seconds_since(start), 60.0);
}

TEST(Failure, BitwiseInvarianceHoldsOnFaultFreePath) {
  // The containment plumbing (deadline checks, poison hooks) must not
  // perturb the fault-free numerics: distributed inference with a deadline
  // configured but never hit matches the no-deadline run bitwise.
  const TransformerModel model = make_model(mini_bert_spec());
  const auto tokens = random_tokens(16, model.spec().vocab_size, 12);
  VoltageRuntime plain(model, PartitionScheme::even(3));
  VoltageRuntime guarded(model, PartitionScheme::even(3));
  guarded.set_recv_timeout(300.0);
  EXPECT_EQ(plain.infer(tokens), guarded.infer(tokens));
}

}  // namespace
}  // namespace voltage
