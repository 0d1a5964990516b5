#include "runtime/stage_timer.hpp"

#include <cstdio>

namespace mbrc::runtime {

std::string format_stage_table(const StageTable& stats) {
  std::string out;
  char line[160];
  for (const auto& [name, s] : stats) {
    std::snprintf(line, sizeof(line),
                  "%-24s %6lld calls %10lld items %9.3f s\n", name.c_str(),
                  static_cast<long long>(s.calls),
                  static_cast<long long>(s.items), s.seconds);
    out += line;
  }
  return out;
}

}  // namespace mbrc::runtime
