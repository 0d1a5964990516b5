// Repository benchmark: one workload per invocation.
//
//   mbrc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--git-describe <text>]
//
// Prints a detail line (host block, checks, extra numbers) and, last, the
// result object {correct, attempted, failed, metrics}. With --trace 0 the
// metrics are the end-to-end set measured with tracing off; with --trace 1
// they are the per-layer set from the traced replay. Exits non-zero when any
// output check failed.
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "eco.hpp"
#include "flows.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "mbrc_perfbench: " << why
            << "\nusage: mbrc_perfbench --workload <flow_d1x10|flow_d2_cost|"
               "eco_d1x10> --seed <n> --seconds <s> --trace <0|1> "
               "[--git-describe <text>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, git_describe = "unknown";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i], value = argv[i + 1];
      if (flag == "--workload") workload = value;
      else if (flag == "--seed") seed = std::stoull(value);
      else if (flag == "--seconds") seconds = std::stod(value);
      else if (flag == "--trace") trace = std::stoi(value) != 0;
      else if (flag == "--git-describe") git_describe = value;
      else return usage(("unknown flag " + flag).c_str());
    }
  } catch (const std::exception&) {
    return usage("malformed argument");
  }
  if (argc % 2 != 1) return usage("every flag takes one value");
  if (!(seconds > 0.0)) return usage("--seconds must be positive");

  const perfbench::Host host = perfbench::detect_host(git_describe);
  const int jobs = host.nproc;
  perfbench::Result result;
  try {
    if (const auto* flow = perfbench::find_flow_workload(workload)) {
      result = trace ? perfbench::run_flow_traced(*flow, seed, jobs)
                     : perfbench::run_flow_workload(*flow, seed, seconds, jobs);
    } else if (const auto* eco = perfbench::find_eco_workload(workload)) {
      result = trace ? perfbench::run_eco_traced(*eco, seed)
                     : perfbench::run_eco_workload(*eco, seed, seconds);
    } else {
      return usage(("unknown workload " + workload).c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "mbrc_perfbench: " << workload << " failed: " << e.what()
              << '\n';
    return 1;
  }
  perfbench::print_result(workload, seed, trace, host, result);
  return result.correct && result.failed == 0 ? 0 : 1;
}
