// The two batch-flow workloads: run_composition_flow timed end to end, and
// a traced serial replay of the same flow through each layer's public
// functions.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "benchgen/generator.hpp"
#include "common.hpp"
#include "mbr/cost.hpp"

namespace perfbench {

struct FlowWorkload {
  const char* name;
  const char* profile;  // benchgen standard profile name
  int scale;            // benchgen::scaled_profiles factor; 1 = standard
  mbrc::mbr::CostModel cost;
  bool debank_loop;
};

/// Null when `name` is not a flow workload.
const FlowWorkload* find_flow_workload(std::string_view name);

/// The benchgen profile of a workload: the named standard profile, scaled,
/// with its own generator seed.
mbrc::benchgen::DesignProfile workload_profile(const char* profile, int scale);

/// A generated design together with the library it points into.
struct GeneratedInput {
  std::unique_ptr<mbrc::lib::Library> library;
  mbrc::benchgen::GeneratedDesign generated;
};
GeneratedInput generate_input(const mbrc::benchgen::DesignProfile& profile);

/// The clock period a flow run constrains its design to: the generator's
/// calibrated period scaled by a factor in [0.995, 1.005] drawn from the
/// workload seed.
double seeded_clock_period(const GeneratedInput& input, std::uint64_t seed);

/// Untraced run: set-up three times, then whole flows at `jobs` until
/// `seconds` of flow time are measured and at least two flows ran, each
/// followed by its output checks.
Result run_flow_workload(const FlowWorkload& workload, std::uint64_t seed,
                         double seconds, int jobs);

/// Traced run: one untraced jobs-1 flow, one jobs-`jobs` flow, and a serial
/// replay through the layer functions that must reproduce their digest.
Result run_flow_traced(const FlowWorkload& workload, std::uint64_t seed,
                       int jobs);

}  // namespace perfbench
