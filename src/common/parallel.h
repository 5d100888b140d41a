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
// Thread count resolution: ThreadPoolOptions.num_threads > 0 wins; 0 reads
// the SRDA_NUM_THREADS environment variable, falling back to
// std::thread::hardware_concurrency(). A pool with one thread runs
// everything inline on the calling thread (serial fallback). ParallelFor
// calls issued from inside a pool worker also run inline, so nested
// parallel kernels (e.g. a sparse product inside a pooled LSQR solve)
// neither deadlock nor oversubscribe.
//
// Pinning (SRDA_PIN_THREADS=1, or ThreadPoolOptions.pin_threads): worker
// threads are pinned round-robin over the process's allowed CPUs, and
// chunk assignment switches from the first-come atomic cursor to a fixed
// residue mapping — chunk c always runs on participant c mod N (the
// caller is participant 0 and stays unpinned). Combined with the
// first-touch allocation of packed panels (matrix::PanelScratch inside
// chunk lambdas), repeated kernels touch the same pages from the same
// CPU, which keeps panels node-local on NUMA hosts. Chunk *boundaries*
// are identical in both modes, and the kernels are partition-invariant,
// so pinning never changes results — only placement.

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

struct ThreadPoolOptions {
  // Number of worker threads. 0 resolves SRDA_NUM_THREADS from the
  // environment and falls back to the hardware concurrency.
  int num_threads = 0;
  // Chunk→thread pinning: 1 on, 0 off, -1 resolves SRDA_PIN_THREADS from
  // the environment (off unless the variable is exactly "1").
  int pin_threads = -1;
};

// Resolves ThreadPoolOptions to a concrete thread count (>= 1).
int ResolveThreadCount(const ThreadPoolOptions& options);

// Resolves ThreadPoolOptions.pin_threads (consulting SRDA_PIN_THREADS).
bool ResolvePinning(const ThreadPoolOptions& options);

// A persistent pool of worker threads executing ParallelFor chunks.
// ParallelFor blocks until every chunk has run; the calling thread
// participates, so a busy pool can never stall a caller indefinitely.
// Exceptions thrown by the callback are captured and the first one is
// rethrown on the calling thread after all chunks finish.
class ThreadPool {
 public:
  explicit ThreadPool(const ThreadPoolOptions& options = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // True when this pool runs with chunk→thread pinning.
  bool pinned() const { return pinned_; }

  // Invokes fn(chunk_begin, chunk_end) over contiguous chunks covering
  // [begin, end) exactly once. Chunk boundaries are deterministic for a
  // given (range, num_threads). Runs fn(begin, end) inline when the pool
  // has one thread, the range has one element, or the caller is itself a
  // pool worker.
  void ParallelFor(int begin, int end,
                   const std::function<void(int, int)>& fn);

 private:
  struct Job;

  void WorkerLoop(int worker_index);
  // Removes `job` from the queue if still present. Requires mutex_ held.
  void EraseJob(const std::shared_ptr<Job>& job);

  const int num_threads_;
  const bool pinned_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Job>> jobs_;
  bool stop_ = false;
};

// The process-wide pool used by the library kernels. Created on first use
// from ThreadPoolOptions{} (i.e. SRDA_NUM_THREADS / hardware concurrency).
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
