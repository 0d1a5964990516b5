#include "reference/branch_and_bound.hpp"

#include <cmath>
#include <limits>
#include <optional>

#include "obs/counters.hpp"

namespace mbrc::ilp {

namespace {

struct Incumbent {
  double objective = std::numeric_limits<double>::infinity();
  std::vector<double> values;
  bool found = false;
};

struct Searcher {
  const BranchAndBoundOptions& options;
  BranchAndBoundStats stats;
  Incumbent incumbent;
  double sense_sign = 1.0;  // +1 minimize, -1 maximize (we minimize internally)
  bool node_budget_hit = false;

  explicit Searcher(const BranchAndBoundOptions& opts) : options(opts) {}

  // Returns the index of the most-fractional integer variable, or -1 when
  // the LP point is integral.
  int pick_branch_variable(const lp::Model& model,
                           const std::vector<double>& x) const {
    int best = -1;
    double best_frac_dist = options.integrality_tolerance;
    for (int i = 0; i < model.variable_count(); ++i) {
      if (!model.variable(i).is_integer) continue;
      const double frac = x[i] - std::floor(x[i]);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist > best_frac_dist) {
        best_frac_dist = dist;
        best = i;
      }
    }
    return best;
  }

  void search(lp::Model& model) {
    if (stats.nodes_explored >= options.max_nodes) {
      node_budget_hit = true;
      return;
    }
    ++stats.nodes_explored;
    ++stats.lp_solves;
    const lp::Solution relax = lp::solve_lp(model, options.simplex);
    if (relax.status != lp::SolveStatus::kOptimal) return;  // prune

    const double bound = sense_sign * relax.objective;
    if (incumbent.found && bound >= incumbent.objective - options.absolute_gap)
      return;  // cannot improve

    const int branch = pick_branch_variable(model, relax.values);
    if (branch < 0) {
      // Integral point. Round to clean integers before storing.
      std::vector<double> x = relax.values;
      for (int i = 0; i < model.variable_count(); ++i)
        if (model.variable(i).is_integer) x[i] = std::round(x[i]);
      const double obj = sense_sign * model.objective_value(x);
      if (!incumbent.found || obj < incumbent.objective) {
        incumbent.objective = obj;
        incumbent.values = std::move(x);
        incumbent.found = true;
      }
      return;
    }

    const double value = relax.values[branch];
    lp::Variable& var = model.variable(branch);
    const double saved_lower = var.lower;
    const double saved_upper = var.upper;

    // Down child: x <= floor(value).
    var.upper = std::floor(value);
    if (var.lower <= var.upper) search(model);
    var.upper = saved_upper;

    // Up child: x >= ceil(value).
    var.lower = std::ceil(value);
    if (var.lower <= var.upper) search(model);
    var.lower = saved_lower;
  }
};

}  // namespace

lp::Solution solve_ilp(const lp::Model& model,
                       const BranchAndBoundOptions& options,
                       BranchAndBoundStats* stats) {
  Searcher searcher(options);
  searcher.sense_sign = model.sense() == lp::Sense::kMinimize ? 1.0 : -1.0;

  lp::Model working = model;  // bounds are tightened in place during search
  searcher.search(working);
  if (stats) *stats = searcher.stats;

  // One flush per solve: work counts, never wall time (DESIGN.md §11).
  static obs::Counter& c_solves = obs::counter("ilp.bnb.solves");
  static obs::Counter& c_nodes = obs::counter("ilp.bnb.nodes_explored");
  static obs::Counter& c_lp = obs::counter("ilp.bnb.lp_solves");
  static obs::Histogram& h_nodes = obs::histogram("ilp.bnb.nodes_per_solve");
  c_solves.add(1);
  c_nodes.add(static_cast<std::int64_t>(searcher.stats.nodes_explored));
  c_lp.add(static_cast<std::int64_t>(searcher.stats.lp_solves));
  h_nodes.record(static_cast<std::int64_t>(searcher.stats.nodes_explored));

  lp::Solution solution;
  if (!searcher.incumbent.found) {
    solution.status = searcher.node_budget_hit ? lp::SolveStatus::kIterationLimit
                                               : lp::SolveStatus::kInfeasible;
    return solution;
  }
  solution.status = searcher.node_budget_hit ? lp::SolveStatus::kIterationLimit
                                             : lp::SolveStatus::kOptimal;
  solution.values = searcher.incumbent.values;
  solution.objective = model.objective_value(solution.values);
  return solution;
}

}  // namespace mbrc::ilp
