// Low-overhead structured tracing for the SRDA training pipeline.
//
// A TraceSpan marks one timed scope (a Gram build, a Cholesky refactor, one
// LSQR iteration). Spans record into per-thread buffers — no locks or
// allocation on the hot path beyond amortized vector growth — which the
// process-wide TraceRecorder merges at flush time into Chrome/Perfetto
// `trace_event` JSON (load the file in chrome://tracing or ui.perfetto.dev).
//
// Tracing is off by default: a disabled TraceSpan costs one relaxed atomic
// load and touches no memory, so instrumented kernels run at full speed.
// It is toggled by the SRDA_TRACE environment variable (any value other
// than "", "0", or "false") or programmatically via SetEnabled(); the bench
// harness and the srda_train CLI flip it on for --trace-out / --metrics.
//
// This module sits below src/common (common/flops.cc forwards its counter
// here), so it depends only on the standard library.

#ifndef SRDA_OBS_TRACE_H_
#define SRDA_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace srda {

// Appends `text` to *out escaped for the inside of a JSON string literal:
// '"' and '\' get a backslash, other control characters become \u00XX.
// The one escaper behind the trace writer and the /buildz endpoint.
void AppendJsonEscaped(std::string_view text, std::string* out);

// One completed span. `name` and the arg keys must be string literals (or
// otherwise outlive the recorder); events store the pointers only.
struct TraceEvent {
  const char* name = nullptr;
  int64_t start_ns = 0;     // relative to the recorder epoch
  int64_t duration_ns = 0;
  int tid = 0;              // recorder-assigned sequential thread id
  int depth = 0;            // nesting depth on the recording thread
  int num_args = 0;
  const char* arg_keys[2] = {nullptr, nullptr};
  double arg_values[2] = {0.0, 0.0};
};

// Process-wide sink for trace events. Threads register a private buffer on
// first use; buffers retire their events back to the recorder when the
// thread exits, so events survive pool reconfiguration. All methods are
// thread-safe; Collect/WriteJson snapshot whatever has been recorded and
// are intended to run between, not during, instrumented regions.
class TraceRecorder {
 public:
  // The singleton every span records into. Never destroyed (threads may
  // retire buffers during static teardown).
  static TraceRecorder& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  // Drops all recorded events (live and retired buffers).
  void Clear();

  // Merged snapshot of every event recorded so far, grouped by thread in
  // recording order within each thread.
  std::vector<TraceEvent> Collect();

  // Chrome trace_event JSON ("traceEvents" array of complete "X" events,
  // ts/dur in microseconds). WriteJsonFile returns false on I/O failure.
  void WriteJson(std::ostream& os);
  bool WriteJsonFile(const std::string& path);

  // Nanoseconds since the recorder epoch (steady clock).
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  // Appends a pre-timed complete event to the calling thread's buffer.
  // Used by call sites that already measured a duration (the thread pool's
  // chunk timing); TraceSpan is the normal interface.
  void RecordComplete(const char* name, int64_t start_ns, int64_t duration_ns);

  // Per-thread event buffer. Public only for TraceSpan; not part of the API.
  struct ThreadBuffer {
    std::mutex mutex;  // recording thread vs. concurrent Collect/Clear
    std::vector<TraceEvent> events;
    int tid = 0;
    int depth = 0;
    ~ThreadBuffer();
  };

  // The calling thread's buffer, registered on first use.
  ThreadBuffer* LocalBuffer();

 private:
  TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  void Retire(ThreadBuffer* buffer);

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  std::mutex mutex_;
  std::vector<ThreadBuffer*> buffers_;            // live threads
  std::vector<std::vector<TraceEvent>> retired_;  // from exited threads
  int next_tid_ = 0;
};

// True when SRDA_TRACE (or SetEnabled) turned tracing on. One relaxed load.
inline bool TraceEnabled() { return TraceRecorder::Global().enabled(); }

// RAII scope: records one complete event from construction to destruction.
// When tracing is disabled, construction is a single atomic load and the
// destructor does nothing. Up to two numeric args ride along into the trace
// ("flops" is aggregated by the run summary into per-phase GFLOP/s).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    TraceRecorder& recorder = TraceRecorder::Global();
    if (!recorder.enabled()) return;
    buffer_ = recorder.LocalBuffer();
    name_ = name;
    start_ns_ = recorder.NowNs();
    depth_ = buffer_->depth++;
  }

  ~TraceSpan() {
    if (buffer_ == nullptr) return;
    TraceRecorder& recorder = TraceRecorder::Global();
    TraceEvent event;
    event.name = name_;
    event.start_ns = start_ns_;
    event.duration_ns = recorder.NowNs() - start_ns_;
    event.tid = buffer_->tid;
    event.depth = depth_;
    event.num_args = num_args_;
    for (int i = 0; i < num_args_; ++i) {
      event.arg_keys[i] = arg_keys_[i];
      event.arg_values[i] = arg_values_[i];
    }
    buffer_->depth = depth_;
    std::lock_guard<std::mutex> lock(buffer_->mutex);
    buffer_->events.push_back(event);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // True when this span is recording; use to skip computing args.
  bool recording() const { return buffer_ != nullptr; }

  // Attaches a numeric arg (`key` must be a string literal). At most two;
  // further calls are dropped.
  void AddArg(const char* key, double value) {
    if (buffer_ == nullptr || num_args_ >= 2) return;
    arg_keys_[num_args_] = key;
    arg_values_[num_args_] = value;
    ++num_args_;
  }

 private:
  TraceRecorder::ThreadBuffer* buffer_ = nullptr;
  const char* name_ = nullptr;
  int64_t start_ns_ = 0;
  int depth_ = 0;
  int num_args_ = 0;
  const char* arg_keys_[2] = {nullptr, nullptr};
  double arg_values_[2] = {0.0, 0.0};
};

#define SRDA_TRACE_CONCAT_INNER(a, b) a##b
#define SRDA_TRACE_CONCAT(a, b) SRDA_TRACE_CONCAT_INNER(a, b)
// Anonymous scope span: SRDA_TRACE_SCOPE("gram");
#define SRDA_TRACE_SCOPE(name) \
  ::srda::TraceSpan SRDA_TRACE_CONCAT(srda_trace_span_, __LINE__)(name)

}  // namespace srda

#endif  // SRDA_OBS_TRACE_H_
