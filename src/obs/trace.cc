#include "obs/trace.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>

namespace srda {
namespace {

bool EnvTraceEnabled() {
  const char* env = std::getenv("SRDA_TRACE");
  if (env == nullptr || *env == '\0') return false;
  return std::strcmp(env, "0") != 0 && std::strcmp(env, "false") != 0;
}

// The thread's buffer pointer. The buffer itself is owned through a
// thread_local unique owner whose destructor retires the events into the
// recorder, so events from exited pool threads survive.
struct ThreadBufferOwner {
  TraceRecorder::ThreadBuffer buffer;
};

thread_local ThreadBufferOwner* tls_owner = nullptr;

}  // namespace

void AppendJsonEscaped(std::string_view text, std::string* out) {
  for (const char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += hex;
        } else {
          *out += c;
        }
    }
  }
}

TraceRecorder& TraceRecorder::Global() {
  // Leaked: thread buffers retire into the recorder during static teardown
  // (the global thread pool joins its workers then), so it must outlive
  // every other static.
  static TraceRecorder* recorder = [] {
    TraceRecorder* r = new TraceRecorder();
    r->SetEnabled(EnvTraceEnabled());
    return r;
  }();
  return *recorder;
}

TraceRecorder::ThreadBuffer::~ThreadBuffer() {
  TraceRecorder::Global().Retire(this);
}

TraceRecorder::ThreadBuffer* TraceRecorder::LocalBuffer() {
  if (tls_owner == nullptr) {
    static thread_local ThreadBufferOwner owner;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      owner.buffer.tid = next_tid_++;
      buffers_.push_back(&owner.buffer);
    }
    tls_owner = &owner;
  }
  return &tls_owner->buffer;
}

void TraceRecorder::Retire(ThreadBuffer* buffer) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = buffers_.begin(); it != buffers_.end(); ++it) {
    if (*it == buffer) {
      buffers_.erase(it);
      break;
    }
  }
  std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
  if (!buffer->events.empty()) {
    retired_.push_back(std::move(buffer->events));
  }
}

void TraceRecorder::RecordComplete(const char* name, int64_t start_ns,
                                   int64_t duration_ns) {
  ThreadBuffer* buffer = LocalBuffer();
  TraceEvent event;
  event.name = name;
  event.start_ns = start_ns;
  event.duration_ns = duration_ns;
  event.tid = buffer->tid;
  event.depth = buffer->depth;
  std::lock_guard<std::mutex> lock(buffer->mutex);
  buffer->events.push_back(event);
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  retired_.clear();
  for (ThreadBuffer* buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
}

std::vector<TraceEvent> TraceRecorder::Collect() {
  std::vector<TraceEvent> merged;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::vector<TraceEvent>& events : retired_) {
    merged.insert(merged.end(), events.begin(), events.end());
  }
  for (ThreadBuffer* buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    merged.insert(merged.end(), buffer->events.begin(), buffer->events.end());
  }
  return merged;
}

void TraceRecorder::WriteJson(std::ostream& os) {
  const std::vector<TraceEvent> events = Collect();
  std::string out;
  out.reserve(events.size() * 96 + 64);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char line[256];
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    out += "{\"name\":\"";
    AppendJsonEscaped(event.name, &out);
    std::snprintf(line, sizeof(line),
                  "\",\"cat\":\"srda\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%d",
                  event.start_ns / 1000.0, event.duration_ns / 1000.0,
                  event.tid);
    out += line;
    if (event.num_args > 0) {
      out += ",\"args\":{";
      for (int a = 0; a < event.num_args; ++a) {
        if (a > 0) out += ',';
        out += '"';
        AppendJsonEscaped(event.arg_keys[a], &out);
        // Non-finite arg values would break the JSON; record them as 0.
        const double value =
            std::isfinite(event.arg_values[a]) ? event.arg_values[a] : 0.0;
        std::snprintf(line, sizeof(line), "\":%.17g", value);
        out += line;
      }
      out += '}';
    }
    out += '}';
    if (i + 1 < events.size()) out += ',';
    out += '\n';
  }
  out += "]}\n";
  os << out;
}

bool TraceRecorder::WriteJsonFile(const std::string& path) {
  std::ofstream file(path);
  if (!file.is_open()) return false;
  WriteJson(file);
  file.flush();
  return file.good();
}

}  // namespace srda
