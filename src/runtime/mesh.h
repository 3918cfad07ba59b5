// DeviceMesh: the K devices every runtime runs its protocol on.
//
// A mesh owns its transport and the run context every job runs under: the
// tracer, the telemetry hub and the intra-op budget, set between calls. A
// runtime object builds a private mesh, or several share one (a server's
// runtime and decoder); the calling thread is the terminal, device K. The
// terminal puts its first message of a round on the wire, then posts the
// round's job: each device runs job(i) after its earlier jobs, under the
// context the job was posted with, its own track, and the poster's trace
// id. Jobs are handed over in-process, so the wire carries exactly the
// protocol's own messages.
//
// Devices run on threads shared by every mesh in the process. A device with
// queued jobs holds one thread until its queue drains, so a round's K
// devices always run at once (their jobs block on each other); an idle
// device holds none. The process thus keeps only as many threads as it ever
// had busy devices at once, and no idle mesh pins threads (or their malloc
// arenas). When the K devices and the terminal fit the process's CPUs, a
// thread whose device went idle spins briefly for the next round's job
// before it parks (core/spin_wait.h).
//
// Failure containment: whichever party fails first poisons the transport
// (Transport::close), so every peer blocked in a receive unwinds with
// TransportClosedError instead of deadlocking. The terminal then waits for
// every posted job and rethrows the *root cause* — a device's own error
// before the secondary closed errors the poisoning fanned out. A poisoned
// mesh never recovers: everything that runs on it is dead.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "net/transport.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace voltage {

class DeviceMesh {
 public:
  using Job = std::function<void(std::size_t device)>;

  // `devices` devices over `transport`, which must have devices + 1
  // endpoints (the last is the terminal); throws std::invalid_argument
  // otherwise.
  DeviceMesh(std::unique_ptr<Transport> transport, std::size_t devices);
  // Lets every posted job finish.
  ~DeviceMesh() { drain(); }

  DeviceMesh(const DeviceMesh&) = delete;
  DeviceMesh& operator=(const DeviceMesh&) = delete;

  [[nodiscard]] std::size_t devices() const noexcept { return workers_.size(); }
  [[nodiscard]] DeviceId terminal() const noexcept { return devices(); }
  [[nodiscard]] Transport& transport() const noexcept { return *transport_; }
  // Device ids 0..K (the broadcast group) and 0..K-1 (the collective group).
  [[nodiscard]] const std::vector<DeviceId>& everyone() const noexcept {
    return everyone_;
  }
  [[nodiscard]] const std::vector<DeviceId>& workers() const noexcept {
    return workers_;
  }

  // Run context, set between calls; a job keeps the one it was posted with.

  // Attaches a span tracer (nullptr detaches — the default) and names
  // device i's track "device i" and the terminal's "terminal". Waits for
  // every posted job first, so the previous tracer may be destroyed once it
  // returns; an attached tracer must outlive the mesh or be detached.
  void set_tracer(obs::Tracer* tracer);
  [[nodiscard]] obs::Tracer* tracer() const noexcept {
    return context_.tracer;
  }
  // Receives each job's busy time per device (nullptr detaches).
  void set_telemetry(obs::TelemetryHub* telemetry) noexcept {
    context_.telemetry = telemetry;
  }
  // Intra-op thread budget for each device's kernels (default 1: the
  // devices already are the parallelism, and K devices times a many-way
  // GEMM split would oversubscribe the host). Results are bitwise
  // identical at any value; 0 is clamped to 1.
  void set_intra_op_threads(std::size_t n) noexcept {
    context_.intra_op_threads = n == 0 ? 1 : n;
  }

  // Queues job(i) on every device i. A job that throws poisons the
  // transport; its error is kept for the next wait() or fail().
  void post(Job job);

  // Blocks until every posted job has finished (no rethrow).
  void drain() noexcept;

  // drain(), then rethrows the root cause of any job failure since the last
  // wait() or fail().
  void wait();

  // Terminal failure: poisons the transport naming the terminal, drains,
  // and rethrows the root cause — a device's own error if one failed first,
  // else `error`. The mesh is failed() from then on.
  [[noreturn]] void fail(std::exception_ptr error);
  [[nodiscard]] bool failed() const noexcept { return failed_; }

  // Runs `body` as the terminal of a call, on the calling thread: under the
  // tracer, on the terminal's track and with the caller's trace id (or a
  // fresh one), so the call's spans and messages share it. A throw fail()s
  // the mesh.
  template <typename Body>
  auto call(Body&& body) {
    const obs::ThreadTracerScope tracer_scope(context_.tracer);
    const obs::ThreadTrackScope track_scope(
        static_cast<obs::TrackId>(terminal()));
    const obs::TraceIdScope trace_scope(obs::ensure_trace_id());
    try {
      return body();
    } catch (...) {
      fail(std::current_exception());
    }
  }

 private:
  // What a job runs under besides its device's track.
  struct Context {
    obs::Tracer* tracer = nullptr;           // nullptr = tracing off
    obs::TelemetryHub* telemetry = nullptr;  // receives each job's busy time
    std::size_t intra_op_threads = 1;
  };
  struct Round {
    Job job;
    Context context;
    std::uint64_t trace_id = 0;
  };

  // Runs device `device`'s queued jobs on the calling (shared) thread until
  // its queue is empty.
  void drain_device(std::size_t device);
  std::exception_ptr run(std::size_t device, const Round& round) noexcept;
  void rethrow_root_cause(const std::exception_ptr& terminal_error);

  std::unique_ptr<Transport> transport_;
  std::vector<DeviceId> everyone_;
  std::vector<DeviceId> workers_;
  const bool spin_;  // may_spin(K + 1): device threads spin before parking
  Context context_;      // terminal thread only
  bool failed_ = false;  // terminal thread only

  std::mutex mutex_;  // guards everything below
  std::vector<std::deque<std::shared_ptr<const Round>>> queues_;
  std::condition_variable idle_;
  std::vector<std::exception_ptr> errors_;  // first failure per device
  std::size_t pending_ = 0;                 // jobs queued or running
};

}  // namespace voltage
