/**
 * @file
 * Small work-stealing thread pool: the `pool` executor of the kernel
 * engine (rns/backend.h).
 *
 * Kernels submit a batch of independent jobs with parallelFor(); each
 * worker owns a deque and pops its own work LIFO, stealing FIFO from
 * siblings when drained (the classic Cilk discipline, which keeps a
 * worker's cache warm on its own limbs while letting idle workers
 * balance skewed batches). The submitting thread participates in the
 * batch instead of blocking, so it counts as one of the pool's
 * threads: ThreadPool(n) spawns n - 1 workers and applies n threads to
 * every batch, which keeps a thread count equal to the core count from
 * oversubscribing the host. ThreadPool(1) spawns no worker at all and
 * runs every batch on the caller.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ark {

/**
 * Fixed-size work-stealing pool. parallelFor may be called from many
 * threads concurrently, and from inside a job of the same pool (the
 * nested waiter helps drain queues instead of blocking, so progress
 * is guaranteed); the serving runtime relies on both.
 */
class ThreadPool
{
  public:
    /** @param num_threads total threads, the caller included (so
     *  num_threads - 1 workers are spawned); 0 = hardware
     *  concurrency. */
    explicit ThreadPool(size_t num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Threads applied to a batch: the workers plus the caller. */
    size_t threads() const { return workers_.size() + 1; }

    /**
     * Run fn(i) for every i in [0, count) across the pool and the
     * calling thread; returns once all indices completed. Jobs must be
     * independent. If any job throws, every index still runs to
     * completion and the first exception captured is rethrown in the
     * caller (the pool itself stays usable).
     */
    void parallelFor(size_t count, const std::function<void(size_t)> &fn);

    /** Default thread count: hardware concurrency (at least 1). */
    static size_t defaultThreads();

  private:
    struct Batch
    {
        const std::function<void(size_t)> *fn = nullptr;
        size_t count = 0;
        /** Guarded by m (not atomic): completion must be observed
         *  under the mutex so a finishing worker can never touch the
         *  stack-allocated Batch after the owner saw it complete. */
        size_t completed = 0;
        /** First exception a job of this batch threw (guarded by m);
         *  rethrown to the parallelFor caller after the batch drains. */
        std::exception_ptr error;
        std::mutex m;
        std::condition_variable done_cv;
    };

    struct Task
    {
        Batch *batch = nullptr;
        size_t index = 0;
    };

    struct Worker
    {
        std::mutex m;
        std::deque<Task> queue;
    };

    void workerLoop(size_t self);
    /** Pop own-back / steal-front one task and run it. */
    bool tryRunOne(size_t self);

    std::vector<std::unique_ptr<Worker>> slots_;
    std::vector<std::thread> workers_;
    std::atomic<size_t> pending_{0}; ///< queued, not-yet-popped tasks
    std::atomic<bool> stop_{false};
    std::mutex sleep_m_;
    std::condition_variable sleep_cv_;
};

} // namespace ark
