// The ECO-service workload: closed-loop clients against an in-process
// service::Daemon, and a traced replay of the same rounds through a direct
// service::Session with each recompose split into its layers.
#pragma once

#include <cstdint>
#include <string_view>

#include "common.hpp"

namespace perfbench {

struct EcoWorkload {
  const char* name;
  const char* profile;  // benchgen standard profile name
  int scale;            // register count = profile's x scale
  int clients;          // closed-loop clients, one session each
  int daemon_jobs;
};

/// Null when `name` is not the ECO workload.
const EcoWorkload* find_eco_workload(std::string_view name);

/// Untraced run: set-up three times (sessions opened, first timing build,
/// first recompose), then closed-loop rounds for `seconds`.
Result run_eco_workload(const EcoWorkload& workload, std::uint64_t seed,
                        double seconds);

/// Traced run: one client's rounds through the daemon, then the same rounds
/// through a direct Session whose recomposes are re-planned layer by layer.
Result run_eco_traced(const EcoWorkload& workload, std::uint64_t seed);

}  // namespace perfbench
