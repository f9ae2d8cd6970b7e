#include "src/stream/stream_options.h"

#include <cstdlib>

namespace largeea::stream {

StreamOptions ResolveStreamOptions(StreamOptions options) {
  if (options.memory_budget_mb >= 0) return options;
  options.memory_budget_mb = 0;
  if (const char* env = std::getenv("LARGEEA_MEMORY_BUDGET_MB")) {
    char* end = nullptr;
    const long long parsed = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 0 &&
        parsed <= kMaxMemoryBudgetMb) {
      options.memory_budget_mb = parsed;
    }
  }
  return options;
}

}  // namespace largeea::stream
