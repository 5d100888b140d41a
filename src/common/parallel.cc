#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace srda {
namespace {

// True on threads owned by any ThreadPool; ParallelFor from such a thread
// runs inline to avoid deadlock and oversubscription.
thread_local bool tls_pool_worker = false;

// Pool accounting, recorded only while tracing is enabled: wall time spent
// running chunks (the pool.chunk_us histogram, whose count is the chunks
// run and whose sum is the busy time) vs. parked on the work cv
// (pool.idle_ns), summed over every worker and the calling thread. The
// imbalance of a kernel shows up as spread in pool.chunk_us.
struct PoolInstruments {
  Counter* idle_ns;
  Counter* jobs;
  Histogram* chunk_us;
};

const PoolInstruments& PoolMetrics() {
  static const PoolInstruments instruments = [] {
    MetricsRegistry& registry = MetricsRegistry::Global();
    return PoolInstruments{registry.counter("pool.idle_ns"),
                           registry.counter("pool.jobs"),
                           registry.histogram("pool.chunk_us")};
  }();
  return instruments;
}

// Over-decomposition factor: more chunks than threads lets fast workers
// steal the remaining chunks of imbalanced kernels (e.g. the triangular
// Gram loops) without affecting results, since chunk boundaries stay fixed.
constexpr int kChunksPerThread = 4;

int EnvThreadCount() {
  const char* env = std::getenv("SRDA_NUM_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end != nullptr && *end == '\0' && value >= 1 && value <= 4096) {
      return static_cast<int>(value);
    }
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

}  // namespace

int ResolveThreadCount(int num_threads) {
  SRDA_CHECK_GE(num_threads, 0) << "negative thread count";
  return num_threads > 0 ? num_threads : EnvThreadCount();
}

// One ParallelFor call in flight: a statically partitioned chunk range that
// workers (and the calling thread) claim through an atomic cursor.
struct ThreadPool::Job {
  std::function<void(int, int)> fn;
  int begin = 0;
  int chunk_base = 0;   // floor(count / num_chunks)
  int chunk_extra = 0;  // first chunk_extra chunks get one extra element
  int num_chunks = 0;
  std::atomic<int> next_chunk{0};
  std::atomic<int> finished_chunks{0};
  std::mutex mutex;
  std::condition_variable done_cv;
  std::exception_ptr error;  // first exception, guarded by `mutex`

  // Deterministic chunk c -> [ChunkBegin(c), ChunkBegin(c + 1)).
  int ChunkBegin(int c) const {
    return begin + c * chunk_base + std::min(c, chunk_extra);
  }

  void RunChunk(int c) {
    const bool tracing = TraceEnabled();
    const int64_t start_ns = tracing ? TraceRecorder::Global().NowNs() : 0;
    try {
      fn(ChunkBegin(c), ChunkBegin(c + 1));
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex);
      if (!error) error = std::current_exception();
    }
    if (tracing) {
      TraceRecorder& recorder = TraceRecorder::Global();
      const int64_t duration_ns = recorder.NowNs() - start_ns;
      recorder.RecordComplete("pool.chunk", start_ns, duration_ns);
      PoolMetrics().chunk_us->Observe(static_cast<double>(duration_ns) / 1e3);
    }
    if (finished_chunks.fetch_add(1) + 1 == num_chunks) {
      std::lock_guard<std::mutex> lock(mutex);
      done_cv.notify_all();
    }
  }
};

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(ResolveThreadCount(num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  // The calling thread participates in every ParallelFor, so a pool of N
  // threads owns N - 1 workers.
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::EraseJob(const std::shared_ptr<Job>& job) {
  for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
    if (*it == job) {
      jobs_.erase(it);
      return;
    }
  }
}

void ThreadPool::WorkerLoop() {
  tls_pool_worker = true;
  std::unique_lock<std::mutex> lock(mutex_);
  const auto ready = [this] { return stop_ || !jobs_.empty(); };
  while (true) {
    if (TraceEnabled()) {
      // Time spent parked (or re-checking for work) is the worker's idle
      // share; busy time accrues in RunChunk. Together they account for the
      // worker's wall clock while tracing.
      TraceRecorder& recorder = TraceRecorder::Global();
      const int64_t idle_start = recorder.NowNs();
      work_cv_.wait(lock, ready);
      PoolMetrics().idle_ns->Add(
          static_cast<double>(recorder.NowNs() - idle_start));
    } else {
      work_cv_.wait(lock, ready);
    }
    if (stop_) return;
    // The front job is the oldest; once its cursor is exhausted it is
    // retired, so the next job becomes the front.
    const std::shared_ptr<Job> job = jobs_.front();
    const int chunk = job->next_chunk.fetch_add(1);
    if (chunk >= job->num_chunks) {
      jobs_.pop_front();
      continue;
    }
    lock.unlock();
    job->RunChunk(chunk);
    lock.lock();
  }
}

void ThreadPool::ParallelFor(int begin, int end,
                             const std::function<void(int, int)>& fn) {
  SRDA_CHECK_LE(begin, end) << "ParallelFor range is inverted";
  const int count = end - begin;
  if (count == 0) return;
  if (num_threads_ == 1 || count == 1 || tls_pool_worker) {
    fn(begin, end);
    return;
  }

  TraceSpan span("pool.parallel_for");
  auto job = std::make_shared<Job>();
  job->fn = fn;
  job->begin = begin;
  job->num_chunks = std::min(count, num_threads_ * kChunksPerThread);
  job->chunk_base = count / job->num_chunks;
  job->chunk_extra = count % job->num_chunks;
  if (span.recording()) {
    span.AddArg("count", static_cast<double>(count));
    span.AddArg("chunks", static_cast<double>(job->num_chunks));
    PoolMetrics().jobs->Increment();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push_back(job);
  }
  work_cv_.notify_all();

  // The caller claims chunks alongside the workers.
  while (true) {
    const int chunk = job->next_chunk.fetch_add(1);
    if (chunk >= job->num_chunks) break;
    job->RunChunk(chunk);
  }
  {
    // Retire the job if no worker got to it after the caller drained it.
    std::lock_guard<std::mutex> lock(mutex_);
    EraseJob(job);
  }
  {
    std::unique_lock<std::mutex> lock(job->mutex);
    job->done_cv.wait(lock, [&job] {
      return job->finished_chunks.load() == job->num_chunks;
    });
    if (job->error) std::rethrow_exception(job->error);
  }
}

namespace {

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool>& GlobalPoolSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool& GlobalThreadPool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  std::unique_ptr<ThreadPool>& pool = GlobalPoolSlot();
  if (!pool) pool = std::make_unique<ThreadPool>();
  return *pool;
}

int GlobalThreadCount() { return GlobalThreadPool().num_threads(); }

void SetGlobalThreadCount(int num_threads) {
  const int resolved = ResolveThreadCount(num_threads);
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  std::unique_ptr<ThreadPool>& pool = GlobalPoolSlot();
  if (pool && pool->num_threads() == resolved) return;
  pool = std::make_unique<ThreadPool>(resolved);
}

void ParallelFor(int begin, int end, const std::function<void(int, int)>& fn) {
  GlobalThreadPool().ParallelFor(begin, end, fn);
}

}  // namespace srda
