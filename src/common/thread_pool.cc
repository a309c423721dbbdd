#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"

namespace simjoin {

namespace {

/// Identity of the current thread within its pool, if it is a pool worker.
/// A worker thread belongs to exactly one pool for its whole lifetime.
thread_local ThreadPool* tls_pool = nullptr;
thread_local size_t tls_worker_index = 0;

/// Pool instrumentation, aggregated across all pools in the process (the
/// common case is the single Shared() pool).  Counters cost one relaxed RMW
/// per *task*, never per pair, so they stay on unconditionally.
struct PoolMetrics {
  obs::Counter* tasks_executed;
  obs::Counter* tasks_stolen;
  obs::Counter* tasks_injected;
  obs::Counter* worker_idle_us;
  obs::Gauge* injection_depth;
};

const PoolMetrics& GetPoolMetrics() {
  static const PoolMetrics metrics = [] {
    obs::MetricRegistry& reg = obs::GlobalMetrics();
    return PoolMetrics{reg.GetCounter("pool.tasks_executed"),
                       reg.GetCounter("pool.tasks_stolen"),
                       reg.GetCounter("pool.tasks_injected"),
                       reg.GetCounter("pool.worker_idle_us"),
                       reg.GetGauge("pool.injection_depth")};
  }();
  return metrics;
}

}  // namespace

// ---------------------------------------------------------------------------
// Work-stealing deque
// ---------------------------------------------------------------------------

ThreadPool::Deque::Deque()
    : slots(new std::atomic<std::function<void()>*>[kCapacity]()) {}

bool ThreadPool::Deque::Push(std::function<void()>* task) {
  const int64_t b = bottom.load(std::memory_order_seq_cst);
  const int64_t t = top.load(std::memory_order_seq_cst);
  if (b - t >= static_cast<int64_t>(kCapacity)) return false;  // full
  slots[static_cast<size_t>(b) & (kCapacity - 1)].store(
      task, std::memory_order_relaxed);
  // The seq_cst store publishes the slot write to thieves that subsequently
  // observe the new bottom.
  bottom.store(b + 1, std::memory_order_seq_cst);
  return true;
}

std::function<void()>* ThreadPool::Deque::Pop() {
  const int64_t b = bottom.load(std::memory_order_seq_cst) - 1;
  bottom.store(b, std::memory_order_seq_cst);
  int64_t t = top.load(std::memory_order_seq_cst);
  if (t > b) {  // deque was empty
    bottom.store(b + 1, std::memory_order_seq_cst);
    return nullptr;
  }
  std::function<void()>* task =
      slots[static_cast<size_t>(b) & (kCapacity - 1)].load(
          std::memory_order_relaxed);
  if (t != b) return task;  // more than one item left: no race possible
  // Last item: race thieves for it by advancing top.
  const bool won = top.compare_exchange_strong(
      t, t + 1, std::memory_order_seq_cst, std::memory_order_seq_cst);
  bottom.store(b + 1, std::memory_order_seq_cst);
  return won ? task : nullptr;
}

std::function<void()>* ThreadPool::Deque::Steal() {
  int64_t t = top.load(std::memory_order_seq_cst);
  const int64_t b = bottom.load(std::memory_order_seq_cst);
  if (t >= b) return nullptr;  // empty
  std::function<void()>* task =
      slots[static_cast<size_t>(t) & (kCapacity - 1)].load(
          std::memory_order_relaxed);
  // The CAS succeeding proves top was still t, i.e. the owner cannot have
  // recycled slot t in the meantime (top only moves forward).  A failed CAS
  // counts as "nothing stolen"; the caller's retry loop handles it.
  if (!top.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                   std::memory_order_seq_cst)) {
    return nullptr;
  }
  return task;
}

bool ThreadPool::Deque::LooksEmpty() const {
  return top.load(std::memory_order_seq_cst) >=
         bottom.load(std::memory_order_seq_cst);
}

// ---------------------------------------------------------------------------
// Pool
// ---------------------------------------------------------------------------

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  deques_.reserve(n);
  for (size_t i = 0; i < n; ++i) deques_.push_back(std::make_unique<Deque>());
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::Shared(size_t num_threads) {
  // Function-local statics so the pools are destroyed (workers joined) at
  // process exit, keeping leak checkers quiet.
  static std::mutex registry_mu;
  static std::map<size_t, std::unique_ptr<ThreadPool>> registry;
  const size_t n =
      num_threads != 0
          ? num_threads
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  std::lock_guard<std::mutex> lock(registry_mu);
  std::unique_ptr<ThreadPool>& slot = registry[n];
  if (slot == nullptr) slot = std::make_unique<ThreadPool>(n);
  return *slot;
}

size_t ThreadPool::CurrentWorkerIndex() const {
  return tls_pool == this ? tls_worker_index : kNotAWorker;
}

void ThreadPool::Submit(std::function<void()> task) {
  // Propagate the submitting thread's request context (trace id + profile
  // collector) across the task boundary, so spans recorded inside pool
  // tasks — parallel joins — attribute to the request that spawned them.
  // The capture-gate check keeps the common case (no tracing, no profiled
  // request in flight) at one relaxed load; the caller guarantees the
  // collector outlives its tasks (request handlers join their TaskGroup
  // before finishing the profile).
  if (obs::internal::CaptureEnabled()) {
    const obs::RequestContext ctx = obs::CurrentRequestContext();
    if (ctx.active()) {
      task = [ctx, inner = std::move(task)] {
        obs::ScopedRequestContext scope(ctx);
        inner();
      };
    }
  }
  auto* t = new std::function<void()>(std::move(task));
  pending_.fetch_add(1, std::memory_order_seq_cst);
  const size_t self = CurrentWorkerIndex();
  if (self != kNotAWorker && deques_[self]->Push(t)) {
    NotifyWorkAvailable();
    return;
  }
  // Non-worker thread, or the owner deque is full: shared injection queue.
  const PoolMetrics& metrics = GetPoolMetrics();
  {
    std::lock_guard<std::mutex> lock(mu_);
    injection_.push_back(t);
    metrics.injection_depth->Set(static_cast<int64_t>(injection_.size()));
  }
  metrics.tasks_injected->Add();
  cv_work_.notify_one();
}

void ThreadPool::NotifyWorkAvailable() {
  // Sleepers register (num_sleeping_) and re-check work visibility under
  // mu_; taking the mutex here — even empty — closes the window between a
  // sleeper's last check and its wait, so the notify cannot be lost.
  if (num_sleeping_.load(std::memory_order_seq_cst) == 0) return;
  { std::lock_guard<std::mutex> lock(mu_); }
  cv_work_.notify_one();
}

bool ThreadPool::WorkVisible() const {
  if (!injection_.empty()) return true;
  for (const auto& d : deques_) {
    if (!d->LooksEmpty()) return true;
  }
  return false;
}

std::function<void()>* ThreadPool::TryAcquire(size_t self) {
  if (self != kNotAWorker) {
    if (std::function<void()>* t = deques_[self]->Pop()) return t;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!injection_.empty()) {
      std::function<void()>* t = injection_.front();
      injection_.pop_front();
      GetPoolMetrics().injection_depth->Set(
          static_cast<int64_t>(injection_.size()));
      return t;
    }
  }
  const size_t n = deques_.size();
  const size_t start = self == kNotAWorker ? 0 : self + 1;
  for (size_t k = 0; k < n; ++k) {
    const size_t victim = (start + k) % n;
    if (victim == self) continue;
    if (std::function<void()>* t = deques_[victim]->Steal()) {
      GetPoolMetrics().tasks_stolen->Add();
      return t;
    }
  }
  return nullptr;
}

void ThreadPool::RunTask(std::function<void()>* task) {
  (*task)();
  delete task;
  GetPoolMetrics().tasks_executed->Add();
  if (pending_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
    bool wake_workers;
    {
      std::lock_guard<std::mutex> lock(mu_);
      wake_workers = shutting_down_;
    }
    cv_idle_.notify_all();
    // Workers only need the pending_ == 0 edge to exit at shutdown.
    if (wake_workers) cv_work_.notify_all();
  }
}

bool ThreadPool::TryRunOneTask() {
  std::function<void()>* task = TryAcquire(CurrentWorkerIndex());
  if (task == nullptr) return false;
  RunTask(task);
  return true;
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] {
    return pending_.load(std::memory_order_seq_cst) == 0;
  });
}

void ThreadPool::WorkerLoop(size_t index) {
  tls_pool = this;
  tls_worker_index = index;
  for (;;) {
    if (std::function<void()>* task = TryAcquire(index)) {
      RunTask(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    const auto should_exit = [this] {
      return shutting_down_ && pending_.load(std::memory_order_seq_cst) == 0;
    };
    if (should_exit()) return;
    num_sleeping_.fetch_add(1, std::memory_order_seq_cst);
    const auto idle_start = std::chrono::steady_clock::now();
    cv_work_.wait(lock, [&] { return should_exit() || WorkVisible(); });
    num_sleeping_.fetch_sub(1, std::memory_order_seq_cst);
    GetPoolMetrics().worker_idle_us->Add(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - idle_start)
            .count()));
    if (should_exit()) return;
  }
}

// ---------------------------------------------------------------------------
// TaskGroup
// ---------------------------------------------------------------------------

void TaskGroup::Run(std::function<void()> fn) {
  outstanding_.fetch_add(1, std::memory_order_seq_cst);
  pool_->Submit([this, fn = std::move(fn)] {
    fn();
    // Decrement under mu_: Wait()'s predicate also runs under mu_, so it
    // cannot observe zero and let the group be destroyed while this task is
    // still about to touch cv_.
    std::lock_guard<std::mutex> lock(mu_);
    if (outstanding_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      cv_.notify_all();
    }
  });
}

void TaskGroup::Wait() {
  if (pool_->CurrentWorkerIndex() != ThreadPool::kNotAWorker) {
    // Called from a worker of the same pool: blocking would deadlock a
    // 1-thread pool (and waste a worker otherwise), so help instead.
    while (outstanding_.load(std::memory_order_seq_cst) != 0) {
      if (!pool_->TryRunOneTask()) std::this_thread::yield();
    }
    // Synchronize with the final decrementer before the caller may destroy
    // this group: it still holds mu_ while notifying.
    std::lock_guard<std::mutex> lock(mu_);
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] {
    return outstanding_.load(std::memory_order_seq_cst) == 0;
  });
}

}  // namespace simjoin
