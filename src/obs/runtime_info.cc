#include "obs/runtime_info.h"

#include <map>
#include <mutex>

namespace srda {
namespace obs {
namespace {

std::mutex& InfoMutex() {
  static std::mutex mutex;
  return mutex;
}

std::map<std::string, std::string>& InfoMap() {
  static std::map<std::string, std::string> info;
  return info;
}

}  // namespace

void SetRuntimeInfo(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(InfoMutex());
  InfoMap()[key] = value;
}

std::string GetRuntimeInfo(const std::string& key,
                           const std::string& fallback) {
  std::lock_guard<std::mutex> lock(InfoMutex());
  const auto it = InfoMap().find(key);
  return it == InfoMap().end() ? fallback : it->second;
}

}  // namespace obs
}  // namespace srda
