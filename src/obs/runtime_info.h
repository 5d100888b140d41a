// Process-wide runtime configuration facts (the active SIMD dispatch
// level) as a tiny key/value store.
//
// The obs layer sits below matrix/linalg, so the phase-summary printer
// and telemetry endpoints cannot ask simd::Dispatch() directly without
// inverting the dependency graph. Instead the layers that *decide* a
// runtime fact publish it here (simd dispatch), and the reporters read it
// back. Keys are stable identifiers ("simd.level"); values are short
// strings.

#ifndef SRDA_OBS_RUNTIME_INFO_H_
#define SRDA_OBS_RUNTIME_INFO_H_

#include <string>

namespace srda {
namespace obs {

// Inserts or overwrites one fact. Thread-safe.
void SetRuntimeInfo(const std::string& key, const std::string& value);

// Value for `key`, or `fallback` when the key was never published.
std::string GetRuntimeInfo(const std::string& key,
                           const std::string& fallback = "");

}  // namespace obs
}  // namespace srda

#endif  // SRDA_OBS_RUNTIME_INFO_H_
