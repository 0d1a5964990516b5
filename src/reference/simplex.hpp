// Two-phase primal simplex over a dense tableau.
//
// Scope: the LPs in this library are small (MBR placement LPs have a handful
// of helper variables per pin; ILP relaxations have one column per MBR
// candidate in a <= 30-register subgraph), so a dense tableau with Dantzig
// pricing and a Bland's-rule anti-cycling fallback is simple and fast enough.
//
// General variable bounds are handled by substitution:
//   [l, u] with finite l     -> y = x - l >= 0 (u becomes a row when finite)
//   (-inf, u] with finite u  -> y = u - x >= 0
//   free                     -> x = y+ - y-
#pragma once

#include <string>
#include <vector>

#include "reference/lp_model.hpp"

namespace mbrc::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

const char* to_string(SolveStatus status);

struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;  // one entry per model variable
};

struct SimplexOptions {
  int max_iterations = 50'000;
  double tolerance = 1e-9;
};

/// Solves the LP relaxation of `model` (integrality flags are ignored).
Solution solve_lp(const Model& model, const SimplexOptions& options = {});

}  // namespace mbrc::lp
