// Tests of the discrete-event engine, the device and cluster model, and the
// network simulator, including cross-validation against the closed-form
// collective costs in the homogeneous case.
#include <vector>

#include <gtest/gtest.h>

#include "collective/cost.h"
#include "sim/cluster.h"
#include "sim/device.h"
#include "sim/engine.h"
#include "sim/netsim.h"

namespace voltage::sim {
namespace {

TEST(Engine, FiresInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule(2.0, [&] { order.push_back(2); });
  engine.schedule(1.0, [&] { order.push_back(1); });
  engine.schedule(3.0, [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(Engine, SimultaneousEventsAreFifo) {
  Engine engine;
  std::vector<int> order;
  engine.schedule(1.0, [&] { order.push_back(1); });
  engine.schedule(1.0, [&] { order.push_back(2); });
  engine.schedule(1.0, [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine engine;
  double fired_at = -1.0;
  engine.schedule(1.0, [&] {
    engine.schedule(engine.now() + 0.5, [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 1.5);
}

TEST(Engine, RejectsPastScheduling) {
  Engine engine;
  engine.schedule(1.0, [] {});
  (void)engine.step();
  EXPECT_THROW(engine.schedule(0.5, [] {}), std::invalid_argument);
}

TEST(Engine, StepReturnsFalseWhenDrained) {
  Engine engine;
  EXPECT_FALSE(engine.step());
  engine.schedule(0.0, [] {});
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
}

// --- device model ---------------------------------------------------------------

TEST(DeviceSpec, ComputeTimeCombinesRates) {
  const DeviceSpec dev{.name = "d", .mac_rate = 1e9, .elementwise_rate = 1e8};
  EXPECT_DOUBLE_EQ(dev.compute_time(2'000'000'000ULL), 2.0);
  EXPECT_DOUBLE_EQ(dev.compute_time(0, 300'000'000ULL), 3.0);
  EXPECT_DOUBLE_EQ(dev.compute_time(1'000'000'000ULL, 100'000'000ULL), 2.0);
}

TEST(DeviceSpec, RejectsBadRates) {
  const DeviceSpec dev{.name = "d", .mac_rate = 0.0, .elementwise_rate = 1.0};
  EXPECT_THROW((void)dev.compute_time(1), std::invalid_argument);
}

TEST(Cluster, HomogeneousFactory) {
  const Cluster c = Cluster::homogeneous(
      4, DeviceSpec{.name = "edge", .mac_rate = 1e9, .elementwise_rate = 1e9},
      LinkModel::mbps(500));
  EXPECT_EQ(c.size(), 4U);
  EXPECT_NO_THROW(c.validate());
  EXPECT_THROW(Cluster{}.validate(), std::invalid_argument);
  EXPECT_THROW(Cluster::homogeneous(0, DeviceSpec{}, LinkModel{}),
               std::invalid_argument);
}

// --- netsim vs closed forms --------------------------------------------------

TEST(NetSim, AllGatherMatchesClosedFormWhenSynchronized) {
  const LinkModel link = LinkModel::mbps(500, 0.003);
  const std::size_t bytes = 1 << 18;
  for (const std::size_t k : {2U, 4U, 6U}) {
    const std::vector<SimTime> ready(k, 1.0);
    const auto done = sim_allgather_fullmesh(
        ready, std::vector<std::size_t>(k, bytes), link);
    const Seconds expected = 1.0 + allgather_fullmesh_duration(bytes, k, link);
    for (const SimTime t : done) EXPECT_NEAR(t, expected, 1e-9);
  }
}

TEST(NetSim, RingAllReduceMatchesClosedFormWhenSynchronized) {
  const LinkModel link = LinkModel::mbps(500, 0.003);
  const std::size_t bytes = 1 << 20;
  for (const std::size_t k : {2U, 4U, 6U}) {
    const std::vector<SimTime> ready(k, 0.5);
    const auto done = sim_ring_allreduce(ready, bytes, link);
    const Seconds expected = 0.5 + ring_allreduce_duration(bytes, k, link);
    for (const SimTime t : done) EXPECT_NEAR(t, expected, 1e-9);
  }
}

TEST(NetSim, StarAllReduceMatchesClosedFormWhenSynchronized) {
  const LinkModel link = LinkModel::mbps(500, 0.002);
  const std::size_t bytes = 1 << 20;
  for (const std::size_t k : {2U, 4U, 6U}) {
    const std::vector<SimTime> ready(k, 0.25);
    const auto done = sim_star_allreduce(ready, bytes, link);
    const Seconds expected = 0.25 + star_allreduce_duration(bytes, k, link);
    // The slowest receiver defines the collective's completion.
    EXPECT_NEAR(done.back(), expected, 1e-9);
    // The root finishes first (it only waits for the reduce phase).
    EXPECT_LT(done.front(), done.back());
  }
}

TEST(NetSim, SingleRankCollectivesAreInstant) {
  const LinkModel link = LinkModel::mbps(500);
  const std::vector<SimTime> ready{2.5};
  EXPECT_DOUBLE_EQ(sim_allgather_fullmesh(ready, {100}, link)[0], 2.5);
  EXPECT_DOUBLE_EQ(sim_ring_allreduce(ready, 100, link)[0], 2.5);
}

TEST(NetSim, StragglerDelaysEveryoneInAllGather) {
  const LinkModel link = LinkModel::mbps(1000, 0.001);
  std::vector<SimTime> ready{0.0, 0.0, 5.0};  // rank 2 is late
  const auto done =
      sim_allgather_fullmesh(ready, std::vector<std::size_t>(3, 1000), link);
  // Everyone must wait for rank 2's data.
  EXPECT_GT(done[0], 5.0);
  EXPECT_GT(done[1], 5.0);
  // Rank 2 already has the early ranks' data; it finishes right at its own
  // readiness (their messages arrived long ago).
  EXPECT_NEAR(done[2], 5.0, 1e-9);
}

TEST(NetSim, SkewPropagatesThroughRing) {
  const LinkModel link = LinkModel::mbps(1000, 0.001);
  const std::vector<SimTime> even(4, 0.0);
  std::vector<SimTime> skewed(4, 0.0);
  skewed[1] = 1.0;
  const auto done_even = sim_ring_allreduce(even, 1 << 20, link);
  const auto done_skew = sim_ring_allreduce(skewed, 1 << 20, link);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GE(done_skew[i], done_even[i]);
  }
  // The straggler pushes the whole ring back by roughly its lateness.
  EXPECT_GT(done_skew[0], done_even[0] + 0.9);
}

TEST(NetSim, BroadcastReceiversSerializedThroughRootNic) {
  const LinkModel link = LinkModel::mbps(80, 0.002);  // 10 MB/s
  const auto done = sim_broadcast(1.0, 1'000'000, 3, link);
  ASSERT_EQ(done.size(), 3U);
  EXPECT_NEAR(done[0], 1.0 + 0.002 + 0.1, 1e-9);
  EXPECT_NEAR(done[1], 1.0 + 0.002 + 0.2, 1e-9);
  EXPECT_NEAR(done[2], 1.0 + 0.002 + 0.3, 1e-9);
}

TEST(NetSim, GatherWaitsForLastArrival) {
  const LinkModel link = LinkModel::mbps(1000, 0.001);
  const std::vector<SimTime> ready{0.0, 2.0};
  const std::vector<std::size_t> bytes{1000, 1000};
  const SimTime done = sim_gather_to_root(ready, bytes, link);
  EXPECT_NEAR(done, 2.0 + link.transfer_time(1000), 1e-9);
}

TEST(NetSim, ValidatesInputs) {
  const LinkModel link = LinkModel::mbps(100);
  EXPECT_THROW((void)sim_allgather_fullmesh({}, {}, link),
               std::invalid_argument);
  EXPECT_THROW((void)sim_allgather_fullmesh({0.0}, {1, 2}, link),
               std::invalid_argument);
  EXPECT_THROW((void)sim_gather_to_root({0.0}, {1, 2}, link),
               std::invalid_argument);
}

}  // namespace
}  // namespace voltage::sim
