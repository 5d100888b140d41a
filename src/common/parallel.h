// Parallel execution layer: a persistent thread pool and ParallelFor.
//
// Every hot kernel in the library (dense BLAS, sparse products, the c-1
// independent ridge regressions of SRDA) is data-parallel over disjoint
// output ranges. This module provides the one primitive they need: split
// [begin, end) into contiguous chunks with a deterministic static partition
// and run a callback per chunk on a persistent pool of worker threads.
//
// Determinism contract: chunk *boundaries* are a pure function of the range
// and the pool's thread count; which worker executes a chunk is not
// specified. Kernels that write disjoint outputs per index are therefore
// bitwise reproducible for a fixed thread count, and the kernels in this
// library are additionally written so each output element's accumulation
// order never depends on the partition at all — making 1-thread and
// N-thread results bitwise identical (see DESIGN.md, "Threading model").
// Cross-chunk reductions must combine fixed-size per-chunk partials in
// chunk-index order, as sparse/SparseTransposeAccumulator does.
//
// Thread count resolution: a positive num_threads is used as given; 0
// reads the SRDA_NUM_THREADS environment variable, falling back to
// std::thread::hardware_concurrency(). A pool with one thread runs
// everything inline on the calling thread (serial fallback). ParallelFor
// calls issued from inside a pool worker also run inline, so nested
// parallel kernels (e.g. a sparse product inside a pooled LSQR solve)
// neither deadlock nor oversubscribe.

#ifndef SRDA_COMMON_PARALLEL_H_
#define SRDA_COMMON_PARALLEL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace srda {

// Resolves a requested thread count to a concrete one (>= 1): 0 reads
// SRDA_NUM_THREADS from the environment and falls back to the hardware
// concurrency.
int ResolveThreadCount(int num_threads);

// A persistent pool of worker threads executing ParallelFor chunks.
// ParallelFor blocks until every chunk has run; the calling thread
// participates, so a busy pool can never stall a caller indefinitely.
// Workers and the caller claim chunks through one atomic cursor.
// Exceptions thrown by the callback are captured and the first one is
// rethrown on the calling thread after all chunks finish.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Always false; kept because perfbench's provenance line still reads it.
  bool pinned() const { return false; }

  // Invokes fn(chunk_begin, chunk_end) over contiguous chunks covering
  // [begin, end) exactly once. Chunk boundaries are deterministic for a
  // given (range, num_threads). Runs fn(begin, end) inline when the pool
  // has one thread, the range has one element, or the caller is itself a
  // pool worker.
  void ParallelFor(int begin, int end,
                   const std::function<void(int, int)>& fn);

 private:
  struct Job;

  void WorkerLoop();
  // Removes `job` from the queue if still present. Requires mutex_ held.
  void EraseJob(const std::shared_ptr<Job>& job);

  const int num_threads_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Job>> jobs_;
  bool stop_ = false;
};

// The process-wide pool used by the library kernels. Created on first use
// with ResolveThreadCount(0) threads (SRDA_NUM_THREADS / hardware
// concurrency).
ThreadPool& GlobalThreadPool();

// Current worker count of the global pool (creates it if needed).
int GlobalThreadCount();

// Replaces the global pool with one of `num_threads` workers (0 = re-resolve
// from the environment). Must not race with in-flight ParallelFor calls;
// intended for benchmarks and tests sweeping thread counts.
void SetGlobalThreadCount(int num_threads);

// ParallelFor on the global pool.
void ParallelFor(int begin, int end, const std::function<void(int, int)>& fn);

}  // namespace srda

#endif  // SRDA_COMMON_PARALLEL_H_
