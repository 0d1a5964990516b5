#include "reference/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "obs/counters.hpp"

namespace mbrc::lp {

namespace {

// How one model variable maps onto the non-negative standard-form variables.
struct Substitution {
  enum class Kind { kShifted, kNegatedShifted, kSplit } kind = Kind::kShifted;
  int primary = -1;    // standard-form column index
  int secondary = -1;  // second column for kSplit (the negative part)
  double offset = 0.0; // x = y + offset (kShifted) or x = offset - y (kNegatedShifted)
};

struct StandardForm {
  // Rows: A y (relation) b with b >= 0 after sign normalization.
  std::vector<std::vector<double>> rows;
  std::vector<double> rhs;
  std::vector<Relation> relations;
  std::vector<double> cost;           // phase-2 cost per standard column
  std::vector<Substitution> subs;     // per model variable
  int column_count = 0;
  double cost_offset = 0.0;           // constant term from substitutions
};

StandardForm build_standard_form(const Model& model) {
  StandardForm sf;
  const double sign = model.sense() == Sense::kMinimize ? 1.0 : -1.0;

  // Assign standard columns to model variables.
  sf.subs.resize(model.variable_count());
  for (int v = 0; v < model.variable_count(); ++v) {
    const Variable& var = model.variable(v);
    Substitution& sub = sf.subs[v];
    if (var.lower > -kInfinity) {
      sub.kind = Substitution::Kind::kShifted;
      sub.primary = sf.column_count++;
      sub.offset = var.lower;
    } else if (var.upper < kInfinity) {
      sub.kind = Substitution::Kind::kNegatedShifted;
      sub.primary = sf.column_count++;
      sub.offset = var.upper;
    } else {
      sub.kind = Substitution::Kind::kSplit;
      sub.primary = sf.column_count++;
      sub.secondary = sf.column_count++;
    }
  }

  sf.cost.assign(sf.column_count, 0.0);
  for (int v = 0; v < model.variable_count(); ++v) {
    const Variable& var = model.variable(v);
    const Substitution& sub = sf.subs[v];
    const double c = sign * var.objective;
    switch (sub.kind) {
      case Substitution::Kind::kShifted:
        sf.cost[sub.primary] += c;
        sf.cost_offset += c * sub.offset;
        break;
      case Substitution::Kind::kNegatedShifted:
        sf.cost[sub.primary] -= c;
        sf.cost_offset += c * sub.offset;
        break;
      case Substitution::Kind::kSplit:
        sf.cost[sub.primary] += c;
        sf.cost[sub.secondary] -= c;
        break;
    }
  }

  auto add_row = [&](const std::vector<Term>& terms, Relation rel, double rhs) {
    std::vector<double> row(sf.column_count, 0.0);
    double b = rhs;
    for (const Term& t : terms) {
      const Substitution& sub = sf.subs[t.variable];
      switch (sub.kind) {
        case Substitution::Kind::kShifted:
          row[sub.primary] += t.coefficient;
          b -= t.coefficient * sub.offset;
          break;
        case Substitution::Kind::kNegatedShifted:
          row[sub.primary] -= t.coefficient;
          b -= t.coefficient * sub.offset;
          break;
        case Substitution::Kind::kSplit:
          row[sub.primary] += t.coefficient;
          row[sub.secondary] -= t.coefficient;
          break;
      }
    }
    if (b < 0) {
      for (double& a : row) a = -a;
      b = -b;
      if (rel == Relation::kLessEqual)
        rel = Relation::kGreaterEqual;
      else if (rel == Relation::kGreaterEqual)
        rel = Relation::kLessEqual;
    }
    sf.rows.push_back(std::move(row));
    sf.rhs.push_back(b);
    sf.relations.push_back(rel);
  };

  for (const Constraint& con : model.constraints())
    add_row(con.terms, con.relation, con.rhs);

  // Finite second bounds become explicit rows.
  for (int v = 0; v < model.variable_count(); ++v) {
    const Variable& var = model.variable(v);
    if (var.lower > -kInfinity && var.upper < kInfinity)
      add_row({{v, 1.0}}, Relation::kLessEqual, var.upper);
  }
  return sf;
}

class Tableau {
public:
  Tableau(const StandardForm& sf, const SimplexOptions& options)
      : options_(options), structural_count_(sf.column_count) {
    const int m = static_cast<int>(sf.rows.size());
    // Count slack/surplus and artificial columns.
    int extra = 0;
    for (Relation rel : sf.relations)
      extra += (rel == Relation::kEqual) ? 1 : (rel == Relation::kGreaterEqual ? 2 : 1);
    total_cols_ = sf.column_count + extra;

    grid_.assign(m, std::vector<double>(total_cols_ + 1, 0.0));
    basis_.assign(m, -1);
    is_artificial_.assign(total_cols_, false);

    int next = sf.column_count;
    for (int r = 0; r < m; ++r) {
      auto& row = grid_[r];
      std::copy(sf.rows[r].begin(), sf.rows[r].end(), row.begin());
      row[total_cols_] = sf.rhs[r];
      switch (sf.relations[r]) {
        case Relation::kLessEqual:
          row[next] = 1.0;  // slack enters the basis
          basis_[r] = next;
          ++next;
          break;
        case Relation::kGreaterEqual:
          row[next] = -1.0;  // surplus
          ++next;
          row[next] = 1.0;  // artificial enters the basis
          is_artificial_[next] = true;
          basis_[r] = next;
          ++next;
          break;
        case Relation::kEqual:
          row[next] = 1.0;  // artificial enters the basis
          is_artificial_[next] = true;
          basis_[r] = next;
          ++next;
          break;
      }
      if (is_artificial_[basis_[r]])
        initial_infeasibility_ += std::abs(row[total_cols_]);
    }
  }

  int row_count() const { return static_cast<int>(grid_.size()); }

  // Minimizes `cost` (per-column, artificials get 0 unless phase 1) starting
  // from the current basis. Returns the status.
  SolveStatus run(const std::vector<double>& cost, bool forbid_artificials) {
    compute_reduced_costs(cost);
    int iterations = 0;
    int stalls = 0;
    while (true) {
      if (++iterations > options_.max_iterations)
        return SolveStatus::kIterationLimit;
      ++total_iterations_;

      const bool use_bland = stalls > 2 * total_cols_;
      const int entering = pick_entering(forbid_artificials, use_bland);
      if (entering < 0) return SolveStatus::kOptimal;

      const int leaving = pick_leaving(entering, use_bland);
      if (leaving < 0) return SolveStatus::kUnbounded;

      if (grid_[leaving][total_cols_] < options_.tolerance)
        ++stalls;  // degenerate pivot
      else
        stalls = 0;
      pivot(leaving, entering);
    }
  }

  double objective() const { return -reduced_[total_cols_]; }

  // Value of standard column c in the current basic solution.
  double value(int c) const {
    for (int r = 0; r < row_count(); ++r)
      if (basis_[r] == c) return grid_[r][total_cols_];
    return 0.0;
  }

  // Phase-1 feasibility threshold: the hand-off objective is a *sum* of
  // artificial values, so a fixed absolute cutoff misclassifies programs
  // whose coefficients are merely large (rounding scales with the data).
  // Scale the user tolerance by the starting infeasibility instead.
  double feasibility_tolerance() const {
    return options_.tolerance * std::max(1.0, initial_infeasibility_);
  }

  // After phase 1: pivot remaining artificial basics out where possible and
  // drop redundant rows. Returns false if any artificial remains with a
  // nonzero value (infeasible).
  bool eliminate_artificials() {
    for (int r = 0; r < row_count(); ++r) {
      if (!is_artificial_[basis_[r]]) continue;
      if (grid_[r][total_cols_] > feasibility_tolerance()) return false;
      // Try to pivot in any non-artificial column with a nonzero entry.
      int col = -1;
      for (int c = 0; c < total_cols_; ++c) {
        if (is_artificial_[c]) continue;
        if (std::abs(grid_[r][c]) > options_.tolerance) {
          col = c;
          break;
        }
      }
      if (col >= 0)
        pivot(r, col);
      // else: the row is all-zero (redundant constraint); the artificial
      // stays basic at value 0, which is harmless as long as it never
      // re-enters -- run() forbids artificial entering columns in phase 2.
    }
    return true;
  }

  const std::vector<bool>& artificial_mask() const { return is_artificial_; }
  int total_columns() const { return total_cols_; }

  /// Simplex loop iterations across both phases (the solver's unit of work).
  std::int64_t iterations() const { return total_iterations_; }

private:
  void compute_reduced_costs(const std::vector<double>& cost) {
    // reduced_ = cost row relative to the current basis:
    // start from cost and subtract c_B * B^{-1} A (accumulated row by row).
    reduced_.assign(total_cols_ + 1, 0.0);
    for (int c = 0; c < total_cols_; ++c)
      reduced_[c] = c < static_cast<int>(cost.size()) ? cost[c] : 0.0;
    for (int r = 0; r < row_count(); ++r) {
      const int b = basis_[r];
      const double cb = b < static_cast<int>(cost.size()) ? cost[b] : 0.0;
      if (cb == 0.0) continue;
      for (int c = 0; c <= total_cols_; ++c) reduced_[c] -= cb * grid_[r][c];
    }
  }

  int pick_entering(bool forbid_artificials, bool use_bland) const {
    int best = -1;
    double best_value = -options_.tolerance;
    for (int c = 0; c < total_cols_; ++c) {
      if (forbid_artificials && is_artificial_[c]) continue;
      const double rc = reduced_[c];
      if (rc < best_value) {
        if (use_bland) return c;  // first improving column
        best_value = rc;
        best = c;
      }
    }
    return best;
  }

  int pick_leaving(int entering, bool use_bland) const {
    int best = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int r = 0; r < row_count(); ++r) {
      const double a = grid_[r][entering];
      if (a <= options_.tolerance) continue;
      const double ratio = grid_[r][total_cols_] / a;
      if (ratio < best_ratio - options_.tolerance ||
          (ratio < best_ratio + options_.tolerance && best >= 0 &&
           (use_bland ? basis_[r] < basis_[best] : a > grid_[best][entering]))) {
        best_ratio = ratio;
        best = r;
      }
    }
    return best;
  }

  void pivot(int row, int col) {
    auto& prow = grid_[row];
    const double p = prow[col];
    for (double& v : prow) v /= p;
    for (int r = 0; r < row_count(); ++r) {
      if (r == row) continue;
      const double f = grid_[r][col];
      if (f == 0.0) continue;
      auto& other = grid_[r];
      for (int c = 0; c <= total_cols_; ++c) other[c] -= f * prow[c];
    }
    const double f = reduced_[col];
    if (f != 0.0)
      for (int c = 0; c <= total_cols_; ++c) reduced_[c] -= f * prow[c];
    basis_[row] = col;
  }

  SimplexOptions options_;
  std::int64_t total_iterations_ = 0;
  int structural_count_ = 0;
  double initial_infeasibility_ = 0.0;  // sum of |rhs| over artificial rows
  int total_cols_ = 0;
  std::vector<std::vector<double>> grid_;
  std::vector<double> reduced_;
  std::vector<int> basis_;
  std::vector<bool> is_artificial_;
};

}  // namespace

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
  }
  return "unknown";
}

Solution solve_lp(const Model& model, const SimplexOptions& options) {
  Solution solution;
  const StandardForm sf = build_standard_form(model);
  Tableau tableau(sf, options);

  // Flushes the solve's work counts on every exit path; counts, never wall
  // time (DESIGN.md §11).
  struct CounterFlush {
    const Tableau& tableau;
    ~CounterFlush() {
      static obs::Counter& c_solves = obs::counter("lp.simplex.solves");
      static obs::Counter& c_iters = obs::counter("lp.simplex.iterations");
      static obs::Histogram& h_iters =
          obs::histogram("lp.simplex.iterations_per_solve");
      c_solves.add(1);
      c_iters.add(tableau.iterations());
      h_iters.record(tableau.iterations());
    }
  } counter_flush{tableau};

  // Phase 1: minimize the sum of artificials.
  bool needs_phase1 = false;
  std::vector<double> phase1_cost(tableau.total_columns(), 0.0);
  for (int c = 0; c < tableau.total_columns(); ++c) {
    if (tableau.artificial_mask()[c]) {
      phase1_cost[c] = 1.0;
      needs_phase1 = true;
    }
  }
  if (needs_phase1) {
    const SolveStatus s1 = tableau.run(phase1_cost, /*forbid_artificials=*/false);
    if (s1 == SolveStatus::kIterationLimit) {
      solution.status = s1;
      return solution;
    }
    if (tableau.objective() > tableau.feasibility_tolerance() ||
        !tableau.eliminate_artificials()) {
      solution.status = SolveStatus::kInfeasible;
      return solution;
    }
  }

  // Phase 2: original cost, artificial columns locked out.
  std::vector<double> phase2_cost(tableau.total_columns(), 0.0);
  std::copy(sf.cost.begin(), sf.cost.end(), phase2_cost.begin());
  const SolveStatus s2 = tableau.run(phase2_cost, /*forbid_artificials=*/true);
  if (s2 != SolveStatus::kOptimal) {
    solution.status = s2;
    return solution;
  }

  // Recover model-variable values from the standard-form solution.
  solution.values.assign(model.variable_count(), 0.0);
  for (int v = 0; v < model.variable_count(); ++v) {
    const auto& sub = sf.subs[v];
    double x = 0.0;
    switch (sub.kind) {
      case Substitution::Kind::kShifted:
        x = tableau.value(sub.primary) + sub.offset;
        break;
      case Substitution::Kind::kNegatedShifted:
        x = sub.offset - tableau.value(sub.primary);
        break;
      case Substitution::Kind::kSplit:
        x = tableau.value(sub.primary) - tableau.value(sub.secondary);
        break;
    }
    solution.values[v] = x;
  }
  solution.status = SolveStatus::kOptimal;
  solution.objective = model.objective_value(solution.values);
  return solution;
}

}  // namespace mbrc::lp
