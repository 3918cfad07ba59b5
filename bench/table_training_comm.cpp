// Reproduces the paper's §V-C closing argument as a table: why Voltage
// "sacrifices communication efficiency of the backward pass, which will
// never happen [at inference]".
//
// Tensor parallelism pays its activation all-reduces in BOTH passes of
// every training sample (8(K-1)NF/K per device per layer). A
// replicated-weights (Voltage-style) step pays per-sample position
// exchanges plus ONE parameter-gradient ring all-reduce per batch — a cost
// that is enormous for a single sample (the whole model!) but amortizes
// with batch size. The table shows per-device training traffic and the
// batch size where the replicated-weights step overtakes TP; at inference
// (forward only, no weight sync) Voltage's 4x advantage is unconditional.
#include <cstdio>

#include "bench_util.h"
#include "collective/cost.h"
#include "transformer/zoo.h"

namespace {

using namespace voltage;

void run_model(const ModelSpec& spec, std::size_t n) {
  const double params_m =
      static_cast<double>(spec_parameter_count(spec)) / 1e6;
  std::printf("\n%s  (N=%zu, %.0fM parameters)\n", spec.name.c_str(), n,
              params_m);
  std::printf("%3s  %16s  %26s  %20s\n", "K", "TP train (MB/sample)",
              "replicated-weights @ batch=32", "crossover batch");
  bench::print_rule(76);
  for (const std::size_t k : {2U, 4U, 6U}) {
    const double tp_mb =
        static_cast<double>(tp_training_elements_per_device(spec, n, k)) *
        4.0 / 1e6;
    const double volt_mb =
        static_cast<double>(
            voltage_training_elements_per_device(spec, n, k, 32)) *
        4.0 / (32.0 * 1e6);
    const std::size_t crossover =
        training_comm_crossover_batch(spec, n, k, 1 << 14);
    std::printf("%3zu  %17.2f  %23.2f MB/sample  %17zu\n", k, tp_mb, volt_mb,
                crossover);
  }
  std::printf("inference (forward only): voltage %.2f MB vs TP %.2f MB per "
              "device per pass — unconditional 4x\n",
              static_cast<double>(
                  spec.num_layers *
                  voltage_elements_per_device_layer(n, spec.layer.hidden, 4)) *
                  4.0 / 1e6,
              static_cast<double>(
                  spec.num_layers *
                  tp_elements_per_device_layer(n, spec.layer.hidden, 4)) *
                  4.0 / 1e6);
}

}  // namespace

int main() {
  std::printf("=== Table: training-time communication (paper SV-C closing "
              "argument) ===\n");
  run_model(bert_large_spec(), 200);
  run_model(gpt2_spec(), 200);
  run_model(vit_base_spec(), 197);
  return 0;
}
