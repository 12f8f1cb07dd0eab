// Worker pool for the parallel fixpoint's enumeration phases.
//
// A batch of tasks is executed across the pool's persistent threads plus
// the calling thread; Run() returns once every task has completed. Each
// batch is an independent heap object, so a worker straggling out of a
// finished batch can never steal indexes from the next one.
//
// The pool provides the synchronization backbone of the fixpoint's
// bulk-synchronous rounds: everything written before Run() happens-before
// the tasks, and everything the tasks write happens-before Run() returns.
#ifndef SECUREBLOX_ENGINE_WORKER_POOL_H_
#define SECUREBLOX_ENGINE_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace secureblox::engine {

class WorkerPool {
 public:
  /// `total_threads` counts the calling thread: a pool of size N spawns
  /// N-1 workers. Sizes <= 1 spawn nothing and Run() executes inline.
  explicit WorkerPool(int total_threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int total_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Execute every task, in any order, across the workers and the calling
  /// thread. Tasks must not throw. Returns when all tasks have completed.
  void Run(const std::vector<std::function<void()>>& tasks);

 private:
  struct Batch {
    /// Valid while completed < size: the caller's vector outlives every
    /// claimed task. Stragglers that arrive after completion must only
    /// touch `size`/`next`, which live in this shared object.
    const std::vector<std::function<void()>>* tasks = nullptr;
    size_t size = 0;
    std::atomic<size_t> next{0};
    size_t completed = 0;  // guarded by the pool mutex
  };

  void WorkerLoop();
  /// Claim and run tasks from `batch` until it is exhausted.
  void Drain(Batch* batch);

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers: a new batch is available
  std::condition_variable done_cv_;   // caller: the batch completed
  std::shared_ptr<Batch> batch_;      // guarded by mu_; null when idle
  bool stop_ = false;                 // guarded by mu_
  std::vector<std::thread> workers_;
};

}  // namespace secureblox::engine

#endif  // SECUREBLOX_ENGINE_WORKER_POOL_H_
