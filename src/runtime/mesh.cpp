#include "runtime/mesh.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/spin_wait.h"
#include "core/thread_pool.h"

namespace voltage {

namespace {

// The threads every mesh's devices run on. A task (one device's queue
// drain) goes to the most recently idled thread, or to a new one when none
// is idle, so a task never waits behind another that may be blocked on it.
class DeviceThreads {
 public:
  static DeviceThreads& shared() {
    static DeviceThreads threads;
    return threads;
  }

  ~DeviceThreads() {
    {
      const std::lock_guard lock(mutex_);
      stopping_ = true;
      for (Idle* idle : idle_) idle->wake.notify_one();
    }
    for (std::thread& t : threads_) t.join();
  }

  // With `spin`, the thread that runs `task` spins for its next task for up
  // to kSpinBudget before it parks.
  void run(std::function<void()> task, bool spin) {
    Idle* idle = nullptr;
    bool parked = false;
    {
      const std::lock_guard lock(mutex_);
      if (idle_.empty()) {
        threads_.emplace_back(
            [this, first = Task{std::move(task), spin}]() mutable {
              loop(std::move(first));
            });
        return;
      }
      idle = idle_.back();
      idle_.pop_back();
      idle->task = Task{std::move(task), spin};
      idle->handed = true;
      parked = idle->parked;
    }
    // Outside the lock, so the woken thread need not wait for it; its Idle
    // lives as long as the thread.
    if (parked) idle->wake.notify_one();
  }

 private:
  struct Task {
    std::function<void()> body;
    bool spin = false;
  };
  struct Idle {
    Task task;                        // handed over by run()
    std::atomic<bool> handed{false};  // set with `task`; polled unlocked
    bool parked = false;
    std::condition_variable wake;
  };

  void loop(Task task) {
    Idle self;
    for (;;) {
      task.body();
      std::unique_lock lock(mutex_);
      if (stopping_) return;
      idle_.push_back(&self);
      if (task.spin) {
        // Touches only `self`: the mesh whose task just ran may be gone.
        // Parks once the budget is spent or its CPU is taken (spin_until).
        lock.unlock();
        spin_until(std::chrono::steady_clock::now() + kSpinBudget,
                   [&] { return self.handed.load(); });
        lock.lock();
      }
      self.parked = true;
      self.wake.wait(lock, [&] { return self.handed || stopping_; });
      self.parked = false;
      if (!self.handed) return;  // stopping
      self.handed = false;
      task = std::move(self.task);
    }
  }

  std::mutex mutex_;  // guards everything below, and each Idle but `handed`
  std::vector<Idle*> idle_;
  std::vector<std::thread> threads_;
  bool stopping_ = false;
};

std::string describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

// A TransportClosedError is the secondary failure someone else's poisoning
// caused, not a root cause.
bool is_transport_closed(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const TransportClosedError&) {
    return true;
  } catch (...) {
    return false;
  }
}

// Names the failing party and its error in the close reason. Never throws:
// it runs while a failure is already unwinding.
void poison(Transport& transport, const std::string& who,
            const std::exception_ptr& error) noexcept {
  try {
    transport.close(who + " failed: " + describe(error));
  } catch (...) {
  }
}

}  // namespace

DeviceMesh::DeviceMesh(std::unique_ptr<Transport> transport,
                       std::size_t devices)
    : transport_(std::move(transport)),
      everyone_(devices + 1),
      workers_(devices),
      spin_(may_spin(devices + 1)),
      queues_(devices),
      errors_(devices) {
  if (transport_->devices() != devices + 1) {
    throw std::invalid_argument(
        "DeviceMesh: transport must have one endpoint per device plus the "
        "terminal");
  }
  std::iota(everyone_.begin(), everyone_.end(), DeviceId{0});
  std::iota(workers_.begin(), workers_.end(), DeviceId{0});
  // Constructed first, so the shared threads outlive every mesh.
  (void)DeviceThreads::shared();
}

void DeviceMesh::set_tracer(obs::Tracer* tracer) {
  // Jobs still finishing an earlier call write to the tracer they were
  // posted with; let them finish before it can be destroyed.
  drain();
  context_.tracer = tracer;
  if (tracer == nullptr) return;
  for (std::size_t i = 0; i < devices(); ++i) {
    tracer->set_track_name(static_cast<obs::TrackId>(i),
                           "device " + std::to_string(i));
  }
  tracer->set_track_name(static_cast<obs::TrackId>(terminal()), "terminal");
}

void DeviceMesh::post(Job job) {
  const auto round = std::make_shared<const Round>(
      Round{.job = std::move(job),
            .context = context_,
            .trace_id = obs::thread_trace_id()});
  std::vector<std::size_t> idle;  // devices with no thread yet
  {
    const std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < devices(); ++i) {
      if (queues_[i].empty()) idle.push_back(i);
      queues_[i].push_back(round);
    }
    pending_ += devices();
  }
  for (const std::size_t i : idle) {
    DeviceThreads::shared().run([this, i] { drain_device(i); }, spin_);
  }
}

void DeviceMesh::drain_device(std::size_t device) {
  std::unique_lock lock(mutex_);
  for (;;) {
    // The running job stays queued: a device's queue is non-empty exactly
    // while a thread drains it.
    const std::shared_ptr<const Round> round = queues_[device].front();
    lock.unlock();
    std::exception_ptr error = run(device, *round);
    lock.lock();
    queues_[device].pop_front();
    if (error != nullptr && errors_[device] == nullptr) {
      errors_[device] = std::move(error);
    }
    --pending_;
    if (queues_[device].empty()) break;
  }
  // Same critical section as the last job's count: once drain() sees no
  // pending job, no device touches the mesh again.
  idle_.notify_all();
}

std::exception_ptr DeviceMesh::run(std::size_t device,
                                   const Round& round) noexcept {
  const obs::ThreadTracerScope tracer_scope(round.context.tracer);
  const obs::ThreadTrackScope track_scope(static_cast<obs::TrackId>(device));
  const obs::TraceIdScope trace_scope(round.trace_id);
  const IntraOpScope intra_scope(round.context.intra_op_threads);
  obs::TelemetryHub* const telemetry = round.context.telemetry;
  const obs::Micros start = telemetry != nullptr ? obs::now_us() : 0;
  std::exception_ptr error;
  try {
    round.job(device);
  } catch (...) {
    error = std::current_exception();
    poison(*transport_, "device " + std::to_string(device), error);
  }
  if (telemetry != nullptr) {
    telemetry->add_device_busy(device, obs::now_us() - start);
  }
  return error;
}

void DeviceMesh::drain() noexcept {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return pending_ == 0; });
}

void DeviceMesh::wait() { rethrow_root_cause(nullptr); }

void DeviceMesh::fail(std::exception_ptr error) {
  failed_ = true;
  poison(*transport_, "terminal", error);
  rethrow_root_cause(error);
  std::rethrow_exception(error);  // unreachable: `error` is non-null
}

void DeviceMesh::rethrow_root_cause(const std::exception_ptr& terminal_error) {
  drain();
  std::vector<std::exception_ptr> errors(errors_.size());
  {
    const std::lock_guard lock(mutex_);
    errors.swap(errors_);
  }
  for (const std::exception_ptr& e : errors) {
    if (e != nullptr && !is_transport_closed(e)) std::rethrow_exception(e);
  }
  if (terminal_error != nullptr) std::rethrow_exception(terminal_error);
  for (const std::exception_ptr& e : errors) {
    if (e != nullptr) std::rethrow_exception(e);
  }
}

}  // namespace voltage
