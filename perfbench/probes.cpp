// Layer probes: each layer timed on its own, on its own Fabric, after the
// workload has finished, at the shapes the workloads use.
#include <cstdio>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "bench.h"
#include "collective/collectives.h"
#include "collective/softmax_merge.h"
#include "core/thread_pool.h"
#include "net/fabric.h"
#include "partition/decode_attention.h"
#include "partition/scheme.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace perfbench {

using namespace voltage;

namespace {

// Two tags alternate between rounds: a rank is never more than one round
// ahead of its peers, so a message of the next round can never be taken
// for one of the current round.
constexpr MessageTag kProbeTag = 100;
[[nodiscard]] MessageTag round_tag(std::size_t round) {
  return kProbeTag + 2 * (round % 2);
}

// Runs `rounds` rounds of a collective over a fresh `ranks`-device Fabric:
// ranks 1.. on helper threads, rank 0 on the caller, which times each of
// its calls. `round(fabric, rank, i)` performs rank's part of round i.
template <class Round>
Samples time_rounds(std::size_t ranks, std::size_t rounds, Round round) {
  Fabric fabric(ranks);
  std::vector<std::exception_ptr> errors(ranks);
  const auto run_rank = [&](std::size_t rank, Samples* timing) {
    try {
      for (std::size_t i = 0; i < rounds; ++i) {
        const Clock::time_point t0 = Clock::now();
        round(fabric, rank, i);
        if (timing != nullptr) timing->add(ms_between(t0, Clock::now()));
      }
    } catch (...) {
      errors[rank] = std::current_exception();
      fabric.close("probe rank " + std::to_string(rank) + " failed");
    }
  };
  Samples ms;
  std::vector<std::thread> helpers;
  for (std::size_t rank = 1; rank < ranks; ++rank) {
    helpers.emplace_back(run_rank, rank, nullptr);
  }
  run_rank(0, &ms);
  for (std::thread& t : helpers) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return ms;
}

// Softmax-merge all-reduce of R query rows, H=4 heads of F_H=32 (the
// decode workloads' mini-gpt2 shape), root rank 0.
Samples probe_merge(std::size_t rows) {
  constexpr std::size_t kHeads = 4;
  constexpr std::size_t kHeadDim = 32;
  std::vector<DeviceId> group(kDevices);
  for (std::size_t i = 0; i < kDevices; ++i) group[i] = i;
  const Tensor partial =
      Tensor::filled(rows, softmax_partial_cols(kHeads, kHeadDim), 1.0F);
  return time_rounds(kDevices, 2000, [&](Transport& fabric, std::size_t rank,
                                         std::size_t i) {
    (void)all_reduce_softmax_merge(fabric, group, rank, 0, partial, kHeads,
                                   kHeadDim, round_tag(i));
  });
}

// Zero-copy all-gather of prefill_bert's median request: N=160 rows of
// F=768 split evenly over the workers.
Samples probe_gather() {
  constexpr std::size_t kRows = 160;
  constexpr std::size_t kWidth = 768;
  std::vector<DeviceId> group(kDevices);
  for (std::size_t i = 0; i < kDevices; ++i) group[i] = i;
  const std::vector<Range> ranges =
      PartitionScheme::even(kDevices).ranges(kRows);
  std::vector<std::shared_ptr<const Tensor>> locals;
  std::vector<Tensor> dst;
  Rng rng(5);
  for (std::size_t i = 0; i < kDevices; ++i) {
    locals.push_back(std::make_shared<const Tensor>(
        rng.normal_tensor(ranges[i].size(), kWidth, 1.0F)));
    dst.emplace_back(kRows, kWidth);
  }
  return time_rounds(kDevices, 300, [&](Transport& fabric, std::size_t rank,
                                        std::size_t i) {
    all_gather_into(fabric, group, rank, locals[rank], ranges, dst[rank],
                    round_tag(i));
  });
}

// Ping-pongs of a 64-byte message between two threads; one hop is half a
// round trip.
Samples probe_round_trip() {
  return time_rounds(2, 5000, [](Transport& fabric, std::size_t rank,
                                 std::size_t /*i*/) {
    const DeviceId peer = 1 - rank;
    if (rank == 0) {
      fabric.send(Message{.source = 0,
                          .destination = peer,
                          .tag = kProbeTag,
                          .payload = std::vector<std::byte>(64)});
      (void)fabric.recv(0, peer, kProbeTag);
    } else {
      const Message ping = fabric.recv(1, peer, kProbeTag);
      fabric.send(Message{.source = 1,
                          .destination = peer,
                          .tag = kProbeTag,
                          .payload = ping.payload});
    }
  });
}

// The largest prefill GEMM on one device: the FFN up-projection of
// prefill_bert's median request, [N/K x F] x [F x 4F] at N=160, F=768, on
// one intra-op thread like the device threads.
double probe_gemm_gflops() {
  constexpr std::size_t kRows = 160 / kDevices;
  constexpr std::size_t kWidth = 768;
  constexpr std::size_t kInner = 4 * kWidth;
  Rng rng(9);
  const Tensor a = rng.normal_tensor(kRows, kWidth, 1.0F);
  const Tensor b = rng.normal_tensor(kWidth, kInner, 0.05F);
  const IntraOpScope one_thread(1);
  for (int i = 0; i < 3; ++i) (void)matmul(a, b);
  Samples ms;
  for (int i = 0; i < 40; ++i) {
    const Clock::time_point t0 = Clock::now();
    const Tensor c = matmul(a, b);
    ms.add(ms_between(t0, Clock::now()));
    if (c.rows() != kRows) throw std::logic_error("gemm probe: bad shape");
  }
  const double flop = 2.0 * kRows * kWidth * kInner;
  return flop / (ms.percentile(0.5) * 1e-3) / 1e9;
}

}  // namespace

void run_layer_probes(Report& report) {
  const Samples merge1 = probe_merge(1);
  const Samples merge8 = probe_merge(8);
  const Samples gather = probe_gather();
  const Samples round_trip = probe_round_trip();
  report.add("collective.merge_us_p50", merge1.percentile(0.5) * 1e3, "us",
             merge1.count());
  report.add("collective.merge_r8_us_p50", merge8.percentile(0.5) * 1e3, "us",
             merge8.count());
  report.add("collective.gather_ms_p50", gather.percentile(0.5), "ms",
             gather.count());
  report.add("net.hop_us_p50", round_trip.percentile(0.5) * 1e3 / 2.0, "us",
             round_trip.count());
  report.add("tensor.gemm_gflops", probe_gemm_gflops(), "GFLOP/s", 40);
}

}  // namespace perfbench
