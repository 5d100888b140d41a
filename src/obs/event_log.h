// Structured JSONL event log: located lifecycle and fallback events.
//
// Counters say HOW OFTEN the training stack fell back (sketch factor
// failure -> plain LSQR, downdate condition trip -> fresh factor); the
// event log says WHEN and WITH WHAT, one JSON object per line, so an
// operator can line a production incident up against the exact fallback
// that fired. Events carry a steady-clock
// timestamp (microseconds since the obs epoch), a monotonically increasing
// sequence number, the event name, and a flat set of numeric/string args:
//
//   {"ts_us":1234,"seq":7,"event":"ridge.sketch_fallback","args":{"alpha":0}}
//
// The log is process-wide and off by default: a disabled Event costs one
// relaxed atomic load and allocates nothing. It is enabled by opening a
// file — the SRDA_EVENT_LOG environment variable (checked once, at first
// use) or EventLog::Global().Open(path); tools expose --event-log=FILE.
// Writes append under a mutex (events are rare: fallbacks and lifecycle
// edges, never per-sample), flushed per line so a crash keeps the tail.
//
// Emit through the builder:
//
//   obs::Event("model.load").Str("path", path).Num("rows", rows);
//
// The line is written when the builder goes out of scope. Validation lives
// in obs/json_check.h (ValidateJsonlEvents) behind srda_trace_check
// --format=events.

#ifndef SRDA_OBS_EVENT_LOG_H_
#define SRDA_OBS_EVENT_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

namespace srda {
namespace obs {

class EventLog {
 public:
  // The singleton every Event writes into. First access reads
  // SRDA_EVENT_LOG and opens it when set and non-empty.
  static EventLog& Global();

  // Opens `path` for appending and enables the log; returns false (log
  // stays disabled) when the file cannot be opened. Replaces any
  // previously open file.
  bool Open(const std::string& path);

  // Flushes and disables. Safe when never opened.
  void Close();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Events written since process start (across Open/Close cycles).
  int64_t events_written() const {
    return events_written_.load(std::memory_order_relaxed);
  }

  // Appends one event line, assigning its sequence number. `body` is the
  // pre-serialized tail of the object ("event":... with optional args).
  // Internal (Event calls this).
  void Write(int64_t ts_us, const std::string& body);

 private:
  EventLog() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> events_written_{0};
  std::mutex mutex_;
  std::FILE* file_ = nullptr;  // guarded by mutex_
  int64_t next_seq_ = 0;       // guarded by mutex_
};

// Builder for one event line. Construction checks enablement once; all
// methods are no-ops on a disabled log. Args are emitted in call order;
// string values are JSON-escaped. The destructor writes the line.
class Event {
 public:
  explicit Event(const char* name);
  ~Event();

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  Event& Num(const char* key, double value);
  Event& Str(const char* key, const std::string& value);

 private:
  bool active_ = false;
  bool has_args_ = false;
  int64_t ts_us_ = 0;
  std::string body_;
};

// One relaxed load; use to skip building expensive args.
inline bool EventLogEnabled() { return EventLog::Global().enabled(); }

}  // namespace obs
}  // namespace srda

#endif  // SRDA_OBS_EVENT_LOG_H_
