// Ablation: the full deployment-strategy landscape the paper discusses in
// §V-C, quantified on one cluster description —
//   * batch-1 request latency: single device / Voltage / tensor parallelism
//     (star and ring all-reduce) / pipeline parallelism;
//   * saturated-stream throughput, where pipelining finally pays off;
//   * heterogeneous clusters: even vs proportional vs optimizer-planned
//     partition schemes (DESIGN.md ablation #3).
#include <cstdio>

#include "bench_util.h"
#include "parallel/latency_model.h"
#include "parallel/pipeline.h"
#include "plan/planner.h"
#include "transformer/zoo.h"

namespace {

using namespace voltage;

sim::DeviceSpec paper_device(double scale = 1.0) {
  return sim::DeviceSpec{.name = "vcpu",
                         .mac_rate = 25e9 * scale,
                         .elementwise_rate = 4e9 * scale};
}

void strategy_table() {
  const ModelSpec spec = bert_large_spec();
  const std::size_t n = 200;
  std::printf("\nBERT-Large, N=200, 500 Mbps — batch-1 latency and "
              "saturated throughput\n");
  std::printf("%3s  %10s %10s %10s %10s %10s  %12s\n", "K", "single",
              "voltage", "tp-star", "tp-ring", "pipeline", "pipe-thpt");
  bench::print_rule(76);
  const double single =
      simulate_single_device(
          spec, n, sim::Cluster::homogeneous(1, paper_device(),
                                             LinkModel::mbps(500)))
          .total;
  for (const std::size_t k : {2U, 4U, 6U}) {
    const auto cluster =
        sim::Cluster::homogeneous(k, paper_device(), LinkModel::mbps(500));
    const double voltage =
        simulate_voltage(spec, n, cluster, PartitionScheme::even(k),
                         OrderPolicy::kAdaptive)
            .total;
    const double tp_star =
        simulate_tensor_parallel(spec, n, cluster, AllReduceAlgo::kStar)
            .total;
    const double tp_ring =
        simulate_tensor_parallel(spec, n, cluster, AllReduceAlgo::kRing)
            .total;
    const PipelineReport pipe = simulate_pipeline(spec, n, cluster);
    std::printf("%3zu  %9.3fs %9.3fs %9.3fs %9.3fs %9.3fs  %9.2f r/s\n", k,
                single, voltage, tp_star, tp_ring, pipe.request_latency,
                pipe.throughput_rps);
  }
  std::printf("single-device throughput: %.2f r/s — pipelining trades "
              "request latency for stream throughput (paper SV-C)\n",
              single_device_throughput(
                  spec, n,
                  sim::Cluster::homogeneous(1, paper_device(),
                                            LinkModel::mbps(500))));
}

void heterogeneous_table() {
  const ModelSpec spec = bert_large_spec();
  const std::size_t n = 200;
  sim::Cluster cluster;
  cluster.link = LinkModel::mbps(500);
  cluster.terminal = paper_device();
  for (const double s : {3.0, 1.5, 1.0, 0.5}) {
    cluster.workers.push_back(paper_device(s));
  }
  std::printf("\nheterogeneous cluster (speeds 3 : 1.5 : 1 : 0.5), "
              "BERT-Large N=200\n");
  const double even = simulate_voltage(spec, n, cluster,
                                       PartitionScheme::even(4),
                                       OrderPolicy::kAdaptive)
                          .total;
  const double proportional =
      simulate_voltage(spec, n, cluster, plan_proportional(cluster),
                       OrderPolicy::kAdaptive)
          .total;
  const PlanResult plan =
      optimize_scheme(spec, n, cluster, OrderPolicy::kAdaptive);
  std::printf("  even 1/K scheme        : %.3f s\n", even);
  std::printf("  speed-proportional     : %.3f s  (%.1f%% better)\n",
              proportional, 100.0 * (even - proportional) / even);
  std::printf("  optimizer (descent)    : %.3f s  (%zu evaluations)\n",
              plan.predicted_latency, plan.evaluations);
}

}  // namespace

int main() {
  std::printf("=== Ablation: deployment strategies and partition planning "
              "===\n");
  strategy_table();
  heterogeneous_table();
  return 0;
}
