#ifndef PLR_UTIL_THREAD_POOL_H_
#define PLR_UTIL_THREAD_POOL_H_

/**
 * @file
 * A persistent host thread pool for the native CPU backend.
 *
 * Spawning fresh `std::thread`s for every parallel region costs three
 * spawn/join rounds per call, which dominated small-input runs. This
 * pool keeps the workers alive across calls: a parallel region
 * becomes one mutex-guarded dispatch plus condition-variable wakeups, and
 * the calling thread participates in the work instead of only waiting.
 *
 * Scheduling is deliberately work-stealing-free: tasks are claimed off a
 * single atomic-style index under the pool mutex, which is plenty at CPU
 * chunk counts (the backend creates roughly one task per core) and keeps
 * the pool trivially TSan-clean.
 */

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace plr {

/** Persistent pool of worker threads executing indexed parallel-for jobs. */
class ThreadPool {
  public:
    /** Hard cap on worker threads (guards runaway `threads=` requests). */
    static constexpr std::size_t kMaxWorkers = 256;

    /**
     * Start @p workers worker threads (0 = hardware_concurrency() - 1,
     * so pool workers plus the participating caller saturate the cores).
     */
    explicit ThreadPool(std::size_t workers = 0);

    /** Joins all workers. Must not run concurrently with parallel_for. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Current worker-thread count (excludes the participating caller). */
    std::size_t worker_count() const;

    /**
     * Grow the pool so at least @p target workers exist (capped at
     * kMaxWorkers; never shrinks). Lets callers that were asked for an
     * explicit oversubscribed thread count honor it.
     */
    void ensure_workers(std::size_t target);

    /**
     * Run task(0) .. task(count - 1) across the workers and the calling
     * thread; returns when all of them finished. Tasks must be independent.
     * The first exception thrown by a task is rethrown here after the
     * region completes. Concurrent parallel_for calls from different
     * threads serialize; reentrant calls from inside a task deadlock (the
     * backend never nests regions).
     */
    void parallel_for(std::size_t count,
                      const std::function<void(std::size_t)>& task);

    /**
     * The process-wide shared pool used by `cpu_simd_recurrence`.
     * Created on first use with the default worker count.
     */
    static ThreadPool& shared();

  private:
    void worker_loop();
    /** Claim-and-run loop shared by workers and the dispatching caller.
        Expects @p lock held; returns with it held. */
    void drain(std::unique_lock<std::mutex>& lock);

    mutable std::mutex mu_;
    std::condition_variable work_cv_;  // workers: a job has tasks left
    std::condition_variable done_cv_;  // dispatcher: all tasks finished
    std::mutex dispatch_mu_;           // serializes concurrent dispatchers

    const std::function<void(std::size_t)>* task_ = nullptr;
    std::size_t count_ = 0;
    std::size_t next_ = 0;
    std::size_t active_ = 0;
    std::exception_ptr error_;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

}  // namespace plr

#endif  // PLR_UTIL_THREAD_POOL_H_
