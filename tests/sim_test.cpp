// Tests of the discrete-event engine and the network simulator, including
// cross-validation against the closed-form collective costs in the
// homogeneous case, plus the fleet-scale serving stack: RNG sampling
// hygiene, an M/D/1 check against queueing theory, traffic generators, the
// calibrated mesh model, and the fleet simulator.
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "collective/cost.h"
#include "parallel/latency_model.h"
#include "sim/cluster.h"
#include "sim/device.h"
#include "sim/engine.h"
#include "sim/fleet.h"
#include "sim/mesh_model.h"
#include "sim/netsim.h"
#include "sim/traffic.h"
#include "tensor/rng.h"

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
    engine.schedule_after(0.5, [&] { fired_at = engine.now(); });
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

// --- sampling hygiene --------------------------------------------------------

TEST(Rng, UniformDoubleIsOpenAtZeroOverTenMillionDraws) {
  // The 24-bit next_uniform() returns exactly 0 with probability 2^-24;
  // the old inverse-CDF path clamped that to 1e-12, i.e. a phantom
  // -log(1e-12) = 27.6 inter-arrival, which fires dozens of times per
  // million-request simulation and corrupts max/p99 sojourns. The 53-bit
  // double draw is open at 0, so the sample maximum must stay within the
  // analytic extreme-value envelope: P(max of n Exp(1) draws > ln n + t)
  // ~= 1 - exp(-e^-t), under 5e-5 for t = 10.
  constexpr std::size_t kDraws = 10'000'000;
  Rng rng(20260808);
  double min_u = 1.0;
  double max_gap = 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < kDraws; ++i) {
    const double u = rng.next_uniform_double();
    min_u = std::min(min_u, u);
    const double gap = -std::log(u);
    max_gap = std::max(max_gap, gap);
    sum += gap;
  }
  EXPECT_GT(min_u, 0.0);
  EXPECT_LT(min_u, 1e-5);  // the tail is actually explored...
  EXPECT_LT(max_gap, std::log(static_cast<double>(kDraws)) + 10.0);
  EXPECT_NEAR(sum / static_cast<double>(kDraws), 1.0, 5e-3);
}

TEST(Rng, SampleExponentialMatchesRateAndValidates) {
  Rng rng(7);
  double sum = 0.0;
  constexpr std::size_t kDraws = 200000;
  for (std::size_t i = 0; i < kDraws; ++i) {
    const Seconds dt = sample_exponential(rng, 4.0);
    ASSERT_GT(dt, 0.0);
    sum += dt;
  }
  EXPECT_NEAR(sum / static_cast<double>(kDraws), 0.25, 0.25 * 2e-2);
  EXPECT_THROW((void)sample_exponential(rng, 0.0), std::invalid_argument);
}

// --- single-queue serving against theory ------------------------------------

TEST(Serving, MD1MeanSojournMatchesTheory) {
  // One mesh serving one single-token request at a time in a fixed 1 s
  // step, with negligible prefill, under Poisson arrivals: an M/D/1 queue.
  // At rho = 0.5: E[sojourn] = s + rho*s / (2*(1 - rho)) = 1.5 s.
  const double s = 1.0;
  const MeshModel unit(1, {StepPoint{.batch = 1.0, .step_time = s}},
                       /*prefill_tokens_per_s=*/1e12,
                       /*prefill_overhead=*/0.0, LinkModel::mbps(1000));
  const FleetReport r = simulate_fleet(
      FleetConfig{.mesh = unit,
                  .max_batch = 1,
                  .max_queue_per_mesh =
                      std::numeric_limits<std::size_t>::max()},
      OpenLoopTraffic{.base_rate_rps = 0.5,
                      .diurnal = {},
                      .prompt = LengthDistribution::fixed(1),
                      .output = LengthDistribution::fixed(1),
                      .num_requests = 400000,
                      .seed = 11});
  ASSERT_EQ(r.completed, 400000U);
  EXPECT_NEAR(r.e2e.mean, 1.5, 1.5 * 0.02);
  EXPECT_TRUE(r.stable);
  EXPECT_NEAR(r.offered_load, 0.5, 0.02);
  // Over a long horizon the achieved busy fraction converges to rho.
  EXPECT_NEAR(r.mean_mesh_utilization, 0.5, 0.02);
  EXPECT_NEAR(r.achieved_rps, 0.5, 0.02);
}

// --- traffic generators ------------------------------------------------------

TEST(Traffic, LengthDistributionsClampAndReproduce) {
  Rng rng(5);
  const LengthDistribution logn =
      LengthDistribution::lognormal(64.0, 1.0, 4, 512);
  const LengthDistribution par = LengthDistribution::pareto(8.0, 1.1, 1, 2048);
  for (int i = 0; i < 20000; ++i) {
    const std::size_t a = logn.sample(rng);
    EXPECT_GE(a, 4U);
    EXPECT_LE(a, 512U);
    const std::size_t b = par.sample(rng);
    EXPECT_GE(b, 1U);
    EXPECT_LE(b, 2048U);
  }
  EXPECT_DOUBLE_EQ(logn.empirical_mean(3), logn.empirical_mean(3));
  // Lognormal mean exceeds the median; the clamp keeps it below max.
  EXPECT_GT(logn.empirical_mean(3), 64.0);
  EXPECT_LT(logn.empirical_mean(3), 512.0);
  EXPECT_DOUBLE_EQ(LengthDistribution::fixed(17).empirical_mean(1), 17.0);
  EXPECT_THROW((void)LengthDistribution::lognormal(0.0, 1.0, 1, 10),
               std::invalid_argument);
  EXPECT_THROW((void)LengthDistribution::pareto(1.0, 0.0, 1, 10),
               std::invalid_argument);
}

TEST(Traffic, OpenLoopPoissonRateAndDeterminism) {
  const OpenLoopTraffic traffic{.base_rate_rps = 100.0,
                                .diurnal = {},
                                .num_requests = 50000,
                                .seed = 2};
  const std::vector<Request> a = traffic.generate();
  const std::vector<Request> b = traffic.generate();
  ASSERT_EQ(a.size(), 50000U);
  EXPECT_EQ(a.back().arrival, b.back().arrival);  // same seed, same stream
  EXPECT_NEAR(a.back().arrival, 500.0, 500.0 * 0.03);
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_GT(a[i].arrival, a[i - 1].arrival);
  }
}

TEST(Traffic, DiurnalModulationShiftsArrivalMass) {
  // Peak phase (sin = +1 at t ~ period/4) must receive more arrivals than
  // the trough (t ~ 3*period/4). One full period, 60% amplitude.
  const double period = 1000.0;
  const OpenLoopTraffic traffic{
      .base_rate_rps = 200.0,
      .diurnal = {.amplitude = 0.6, .period = period},
      .num_requests = 180000,
      .seed = 4};
  const std::vector<Request> reqs = traffic.generate();
  std::size_t peak = 0, trough = 0;
  for (const Request& r : reqs) {
    const double phase = std::fmod(r.arrival, period) / period;
    if (phase >= 0.0 && phase < 0.5) ++peak;
    if (phase >= 0.5 && phase < 1.0) ++trough;
  }
  ASSERT_GT(peak, 0U);
  ASSERT_GT(trough, 0U);
  // Integrated rate ratio of the two half-periods is
  // (1 + 2A/pi) / (1 - 2A/pi) ~= 2.23 at A = 0.6.
  EXPECT_GT(static_cast<double>(peak) / static_cast<double>(trough), 1.8);
}

// --- calibrated mesh model ---------------------------------------------------

TEST(MeshModel, ReproducesBenchServingThroughputAtCalibrationPoints) {
  const MeshModel mesh = MeshModel::from_bench_serving();
  // BENCH_serving.json fp32 K=4 tokens/s at the measured batches, within
  // 0.1% (the curve stores step time = batch / tokens_per_s exactly).
  EXPECT_NEAR(1.0 / mesh.step_time(1.0), 417.955, 417.955 * 1e-3);
  EXPECT_NEAR(4.0 / mesh.step_time(4.0), 792.072, 792.072 * 1e-3);
  EXPECT_NEAR(16.0 / mesh.step_time(16.0), 957.099, 957.099 * 1e-3);
  EXPECT_NEAR(mesh.saturated_tokens_per_s(), 957.099, 957.099 * 1e-3);
  // The headline measured B=16-vs-B=1 speedup survives the model round
  // trip: 2.28996 from the committed acceptance block.
  const double speedup =
      (16.0 / mesh.step_time(16.0)) / (1.0 / mesh.step_time(1.0));
  EXPECT_NEAR(speedup, 2.28996, 2.28996 * 1e-3);
  EXPECT_EQ(mesh.devices(), 4U);
}

TEST(MeshModel, InterpolatesMonotonicallyAndExtrapolates) {
  const MeshModel mesh = MeshModel::from_bench_serving();
  Seconds prev = 0.0;
  for (double b = 1.0; b <= 64.0; b += 0.5) {
    const Seconds t = mesh.step_time(b);
    EXPECT_GT(t, prev) << "batch " << b;
    prev = t;
  }
  // Tokens/s keeps improving with batch but sublinearly.
  EXPECT_GT(32.0 / mesh.step_time(32.0), mesh.saturated_tokens_per_s());
  EXPECT_LT(32.0 / mesh.step_time(32.0), 2.0 * mesh.saturated_tokens_per_s());
  EXPECT_THROW((void)mesh.step_time(0.0), std::invalid_argument);
}

TEST(MeshModel, WithLinkDeratesStepsOnSlowLinks) {
  const MeshModel fast = MeshModel::from_bench_serving();
  // Paper edge link: 500 Mbps, 2 ms per message. 29 messages/step pay
  // 58 ms of latency alone — the wire hook must dominate the step.
  const MeshModel slow = fast.with_link(LinkModel::mbps(500, 2e-3));
  EXPECT_GT(slow.step_time(1.0), 10.0 * fast.step_time(1.0));
  EXPECT_LT(slow.saturated_tokens_per_s(), fast.saturated_tokens_per_s());
  // And the hook itself prices a known profile exactly.
  const LinkModel link = LinkModel::mbps(500, 2e-3);
  EXPECT_NEAR(decode_step_wire_time(29.0, 252760.0, link),
              29.0 * 2e-3 + 252760.0 * 8.0 / 500e6, 1e-12);
}

// --- fleet simulator ---------------------------------------------------------

TEST(Fleet, DeterministicAcrossRunsAndSeedSensitive) {
  const OpenLoopTraffic traffic{.base_rate_rps = 30.0,
                                .diurnal = {},
                                .prompt = LengthDistribution::lognormal(
                                    32.0, 0.5, 1, 256),
                                .output = LengthDistribution::lognormal(
                                    32.0, 0.5, 1, 128),
                                .num_requests = 3000,
                                .seed = 9};
  const FleetConfig config{.num_meshes = 4};
  const FleetReport a = simulate_fleet(config, traffic);
  const FleetReport b = simulate_fleet(config, traffic);
  EXPECT_EQ(a.ttft.p99, b.ttft.p99);
  EXPECT_EQ(a.e2e.p99, b.e2e.p99);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.completed, b.completed);
  OpenLoopTraffic other = traffic;
  other.seed = 10;
  const FleetReport c = simulate_fleet(config, other);
  EXPECT_NE(a.ttft.p99, c.ttft.p99);
}

TEST(Fleet, LightLoadTtftIsPrefillPlusOneStep) {
  // One request into an idle fleet: TTFT = prefill + the B=1 step, E2E
  // adds the remaining output tokens at the B=1 step time.
  const MeshModel mesh = MeshModel::from_bench_serving();
  const std::vector<Request> one{
      {.arrival = 0.0, .prompt_tokens = 64, .output_tokens = 8}};
  const FleetConfig config{.num_meshes = 2};
  const FleetReport r = simulate_fleet(config, one);
  EXPECT_EQ(r.completed, 1U);
  EXPECT_EQ(r.rejected, 0U);
  EXPECT_NEAR(r.ttft.p50, mesh.prefill_time(64) + mesh.step_time(1.0), 1e-9);
  EXPECT_NEAR(r.e2e.p50, mesh.prefill_time(64) + 8.0 * mesh.step_time(1.0),
              1e-9);
  EXPECT_TRUE(r.stable);
}

TEST(Fleet, CompletesEveryAdmittedRequestAndTracksCounts) {
  const OpenLoopTraffic traffic{.base_rate_rps = 50.0,
                                .diurnal = {},
                                .output = LengthDistribution::fixed(16),
                                .num_requests = 2000,
                                .seed = 21};
  const FleetConfig config{.num_meshes = 8};
  const FleetReport r = simulate_fleet(config, traffic);
  EXPECT_EQ(r.offered, 2000U);
  EXPECT_EQ(r.completed + r.rejected, 2000U);
  EXPECT_EQ(r.ttft.count, r.completed);
  EXPECT_EQ(r.e2e.count, r.completed);
  EXPECT_GE(r.e2e.p50, r.ttft.p50);
  EXPECT_LE(r.mean_mesh_utilization, 1.0);
}

TEST(Fleet, OverloadIsFlaggedUnstableAndShedsWhenQueuesCap) {
  // 2x the fleet's token capacity: rho > 1, and with a shallow queue the
  // admission control must shed rather than let waits grow unbounded.
  const MeshModel mesh = MeshModel::from_bench_serving();
  const double one_mesh_rps = mesh.saturated_tokens_per_s() / 32.0;
  const OpenLoopTraffic traffic{.base_rate_rps = 2.0 * one_mesh_rps,
                                .diurnal = {},
                                .prompt = LengthDistribution::fixed(1),
                                .output = LengthDistribution::fixed(32),
                                .num_requests = 4000,
                                .seed = 13};
  const FleetConfig config{
      .num_meshes = 1, .max_queue_per_mesh = 32};
  const FleetReport r = simulate_fleet(config, traffic);
  EXPECT_FALSE(r.stable);
  EXPECT_GT(r.offered_load, 1.0);
  EXPECT_GT(r.rejected, 0U);
  // Achieved throughput saturates near one mesh's capacity, not the
  // offered rate.
  EXPECT_LT(r.achieved_rps, 1.2 * one_mesh_rps);
}

TEST(Fleet, JoinShortestQueueBeatsRoundRobinTail) {
  // Heavy-tailed outputs make RR occasionally pile long jobs onto one
  // mesh; JSQ routes around the backlog, so its p99 TTFT cannot be worse.
  const OpenLoopTraffic traffic{
      .base_rate_rps = 40.0,
      .diurnal = {},
      .prompt = LengthDistribution::fixed(16),
      .output = LengthDistribution::pareto(16.0, 1.3, 1, 512),
      .num_requests = 6000,
      .seed = 17};
  FleetConfig config{.num_meshes = 6};
  config.policy = BalancerPolicy::kRoundRobin;
  const FleetReport rr = simulate_fleet(config, traffic);
  config.policy = BalancerPolicy::kJoinShortestQueue;
  const FleetReport jsq = simulate_fleet(config, traffic);
  EXPECT_LE(jsq.ttft.p99, rr.ttft.p99);
  EXPECT_EQ(jsq.offered, rr.offered);
}

TEST(Fleet, DeadlineAwareShedsToProtectTheTail) {
  // Under 1.5x overload the deadline-aware balancer sheds load it cannot
  // serve in time; the requests it does serve meet the SLO far more often
  // than JSQ's, which queues everyone and blows the tail.
  const MeshModel mesh = MeshModel::from_bench_serving();
  const double one_mesh_rps = mesh.saturated_tokens_per_s() / 32.0;
  const OpenLoopTraffic traffic{.base_rate_rps = 1.5 * one_mesh_rps,
                                .diurnal = {},
                                .prompt = LengthDistribution::fixed(8),
                                .output = LengthDistribution::fixed(32),
                                .num_requests = 3000,
                                .seed = 23};
  FleetConfig config{.num_meshes = 1, .ttft_slo = 0.25};
  config.policy = BalancerPolicy::kJoinShortestQueue;
  const FleetReport jsq = simulate_fleet(config, traffic);
  config.policy = BalancerPolicy::kDeadlineAware;
  const FleetReport dl = simulate_fleet(config, traffic);
  EXPECT_GT(dl.rejected, 0U);
  EXPECT_GT(dl.slo_attainment, jsq.slo_attainment);
  EXPECT_LT(dl.ttft.p99, jsq.ttft.p99);
}

TEST(Fleet, ClosedLoopCompletesAllClientRequestsDeterministically) {
  const ClosedLoopClients clients{.num_clients = 24,
                                  .mean_think = 0.05,
                                  .prompt = LengthDistribution::fixed(8),
                                  .output = LengthDistribution::fixed(12),
                                  .requests_per_client = 10,
                                  .seed = 31};
  const FleetConfig config{.num_meshes = 2};
  const FleetReport a = simulate_fleet_closed_loop(config, clients);
  const FleetReport b = simulate_fleet_closed_loop(config, clients);
  EXPECT_EQ(a.offered, 240U);
  EXPECT_EQ(a.completed + a.rejected, 240U);
  EXPECT_EQ(a.ttft.p99, b.ttft.p99);
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(Fleet, SaturatedMeshReproducesBenchServingWithinTolerance) {
  // The acceptance bar: a closed-loop pool that keeps one K=4 mesh pegged
  // at B = 16 must reproduce the measured BENCH_serving.json 957 tokens/s
  // (and the 2.29x over B = 1) through the whole fleet pipeline — prefill
  // accounting, join dynamics and histogram plumbing included. 10%
  // tolerance: saturation is approached, never perfectly held, because
  // slots idle for one think time between a completion and the rejoin.
  const ClosedLoopClients clients{.num_clients = 64,
                                  .mean_think = 1e-3,
                                  .prompt = LengthDistribution::fixed(1),
                                  .output = LengthDistribution::fixed(64),
                                  .requests_per_client = 12,
                                  .seed = 41};
  FleetConfig config{.num_meshes = 1, .max_batch = 16};
  const FleetReport b16 = simulate_fleet_closed_loop(config, clients);
  EXPECT_NEAR(b16.tokens_per_s, 957.099, 957.099 * 0.10);
  config.max_batch = 1;
  const FleetReport b1 = simulate_fleet_closed_loop(config, clients);
  EXPECT_NEAR(b1.tokens_per_s, 417.955, 417.955 * 0.10);
  EXPECT_NEAR(b16.tokens_per_s / b1.tokens_per_s, 2.28996, 2.28996 * 0.15);
}

TEST(Fleet, ValidatesConfigAndInputs) {
  const FleetConfig config{.num_meshes = 0};
  EXPECT_THROW((void)simulate_fleet(config, std::vector<Request>{{}}),
               std::invalid_argument);
  const FleetConfig ok{.num_meshes = 1};
  EXPECT_THROW((void)simulate_fleet(ok, std::vector<Request>{}),
               std::invalid_argument);
  std::vector<Request> unsorted{{.arrival = 2.0}, {.arrival = 1.0}};
  EXPECT_THROW((void)simulate_fleet(ok, unsorted), std::invalid_argument);
  EXPECT_THROW((void)simulate_fleet_closed_loop(
                   ok, ClosedLoopClients{.num_clients = 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace voltage::sim
