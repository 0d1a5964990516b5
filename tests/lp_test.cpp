#include <gtest/gtest.h>

#include "reference/lp_model.hpp"
#include "reference/simplex.hpp"
#include "util/rng.hpp"

namespace mbrc::lp {
namespace {

TEST(Simplex, TextbookMaximize) {
  Model m;
  const int x = m.add_continuous("x", 3.0, 0.0);
  const int y = m.add_continuous("y", 2.0, 0.0);
  m.set_sense(Sense::kMaximize);
  m.add_constraint({{x, 1}, {y, 1}}, Relation::kLessEqual, 4);
  m.add_constraint({{x, 1}, {y, 3}}, Relation::kLessEqual, 6);
  const Solution s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 12.0, 1e-9);
  EXPECT_NEAR(s.values[x], 4.0, 1e-9);
  EXPECT_NEAR(s.values[y], 0.0, 1e-9);
}

TEST(Simplex, MinimizeWithGreaterEqual) {
  Model m;
  const int a = m.add_continuous("a", 1.0, 0.0);
  const int b = m.add_continuous("b", 1.0, 0.0);
  m.add_constraint({{a, 1}, {b, 2}}, Relation::kGreaterEqual, 3);
  m.add_constraint({{a, 3}, {b, 1}}, Relation::kGreaterEqual, 4);
  const Solution s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
  EXPECT_NEAR(s.values[a], 1.0, 1e-9);
  EXPECT_NEAR(s.values[b], 1.0, 1e-9);
}

TEST(Simplex, EqualityConstraint) {
  Model m;
  const int x = m.add_continuous("x", 1.0, 0.0);
  const int y = m.add_continuous("y", 4.0, 0.0);
  m.add_constraint({{x, 1}, {y, 1}}, Relation::kEqual, 5);
  const Solution s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-9);  // all mass on the cheap variable
  EXPECT_NEAR(s.values[x], 5.0, 1e-9);
}

TEST(Simplex, FreeVariableAbsoluteValue) {
  // min t s.t. t >= x - 3, t >= 3 - x with x free: optimum t = 0 at x = 3.
  Model m;
  const int x = m.add_continuous("x");
  const int t = m.add_continuous("t", 1.0, 0.0);
  m.add_constraint({{t, 1}, {x, -1}}, Relation::kGreaterEqual, -3);
  m.add_constraint({{t, 1}, {x, 1}}, Relation::kGreaterEqual, 3);
  const Solution s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 0.0, 1e-9);
  EXPECT_NEAR(s.values[x], 3.0, 1e-9);
}

TEST(Simplex, DetectsInfeasible) {
  Model m;
  const int x = m.add_continuous("x", 1.0, 0.0, 10.0);
  m.add_constraint({{x, 1}}, Relation::kGreaterEqual, 20);
  EXPECT_EQ(solve_lp(m).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Model m;
  const int x = m.add_continuous("x", 1.0, 0.0);
  m.set_sense(Sense::kMaximize);
  m.add_constraint({{x, -1}}, Relation::kLessEqual, 0);  // x >= 0, no cap
  EXPECT_EQ(solve_lp(m).status, SolveStatus::kUnbounded);
}

TEST(Simplex, VariableUpperBoundsHonored) {
  Model m;
  const int x = m.add_continuous("x", 1.0, 0.0, 2.5);
  const int y = m.add_continuous("y", 1.0, 0.0, 2.5);
  m.set_sense(Sense::kMaximize);
  m.add_constraint({{x, 1}, {y, 1}}, Relation::kLessEqual, 10);
  const Solution s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-9);
}

TEST(Simplex, FixedVariable) {
  Model m;
  const int x = m.add_variable("x", 4.0, 4.0, 1.0);
  const int y = m.add_continuous("y", 1.0, 0.0);
  m.add_constraint({{x, 1}, {y, 1}}, Relation::kGreaterEqual, 7);
  const Solution s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[x], 4.0, 1e-9);
  EXPECT_NEAR(s.values[y], 3.0, 1e-9);
}

TEST(Simplex, NegativeLowerBounds) {
  Model m;
  const int x = m.add_continuous("x", 1.0, -5.0, 5.0);
  const Solution s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[x], -5.0, 1e-9);
}

TEST(Simplex, DegenerateRedundantConstraints) {
  Model m;
  const int x = m.add_continuous("x", 1.0, 0.0);
  m.add_constraint({{x, 1}}, Relation::kGreaterEqual, 2);
  m.add_constraint({{x, 1}}, Relation::kGreaterEqual, 2);  // duplicate
  m.add_constraint({{x, 2}}, Relation::kGreaterEqual, 4);  // scaled duplicate
  const Solution s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[x], 2.0, 1e-9);
}

// Regression for the hard-coded phase-1 feasibility cutoff. The hand-off
// from phase 1 used to compare the leftover artificial mass against a fixed
// 1e-6 regardless of SimplexOptions::tolerance or problem magnitude; the
// fix scales the user tolerance by the starting infeasibility (sum |rhs|
// over artificial rows).
TEST(Simplex, FeasibilityRespectsUserTolerance) {
  Model m;
  const int x = m.add_continuous("x", 1.0, 0.0, 10.0);
  // Out of reach by 5e-3: a genuine (small) infeasibility, large enough
  // that no pivot tie-breaking can absorb it.
  m.add_constraint({{x, 1}}, Relation::kGreaterEqual, 10.0 + 5e-3);

  // At the default 1e-9 tolerance the program is infeasible...
  EXPECT_EQ(solve_lp(m).status, SolveStatus::kInfeasible);

  // ...but a caller asking for 1e-3 slop gets the near-feasible optimum:
  // the phase-1 cutoff is tolerance * sum|rhs| ~ 1e-2. (The old fixed 1e-6
  // cutoff ignored the option and still said infeasible.)
  SimplexOptions loose;
  loose.tolerance = 1e-3;
  const Solution s = solve_lp(m, loose);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[x], 10.0, 1e-1);
}

TEST(Simplex, FeasibilityToleranceScalesWithMagnitude) {
  // Two equality rows consistent to 5e-11 *relative* precision -- far
  // tighter than any placement data -- but 0.5 apart in absolute terms.
  // At rhs magnitude 1e10 that gap is pivot-rounding noise and the program
  // must solve; the old absolute 1e-6 cutoff declared it infeasible.
  Model big;
  const int x = big.add_continuous("x", 1.0, 0.0);
  const int y = big.add_continuous("y", 0.0, 0.0);
  big.add_constraint({{x, 1}, {y, 1}}, Relation::kEqual, 1e10);
  big.add_constraint({{x, 1}, {y, 1}}, Relation::kEqual, 1e10 + 0.5);
  const Solution s = solve_lp(big);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[x] + s.values[y], 1e10, 1.0);

  // The same absolute gap at unit scale is a real inconsistency.
  Model small;
  const int u = small.add_continuous("u", 1.0, 0.0);
  const int v = small.add_continuous("v", 0.0, 0.0);
  small.add_constraint({{u, 1}, {v, 1}}, Relation::kEqual, 1.0);
  small.add_constraint({{u, 1}, {v, 1}}, Relation::kEqual, 1.5);
  EXPECT_EQ(solve_lp(small).status, SolveStatus::kInfeasible);
}

TEST(Simplex, IterationLimitReported) {
  // Two >= rows force phase-1 work that cannot finish in one pivot.
  Model m;
  const int a = m.add_continuous("a", 1.0, 0.0);
  const int b = m.add_continuous("b", 1.0, 0.0);
  m.add_constraint({{a, 1}, {b, 2}}, Relation::kGreaterEqual, 3);
  m.add_constraint({{a, 3}, {b, 1}}, Relation::kGreaterEqual, 4);
  SimplexOptions strangled;
  strangled.max_iterations = 1;
  EXPECT_EQ(solve_lp(m, strangled).status, SolveStatus::kIterationLimit);
}

TEST(Simplex, BealeCyclingResolvedByBland) {
  // Beale's classic cycling example: Dantzig pricing with naive ratio
  // tie-breaking loops forever on these degenerate ties; the stall counter
  // must hand over to Bland's rule and still reach the optimum at 0.05.
  Model m;
  const int x1 = m.add_continuous("x1", 0.75, 0.0);
  const int x2 = m.add_continuous("x2", -150.0, 0.0);
  const int x3 = m.add_continuous("x3", 0.02, 0.0);
  const int x4 = m.add_continuous("x4", -6.0, 0.0);
  m.set_sense(Sense::kMaximize);
  m.add_constraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                   Relation::kLessEqual, 0.0);
  m.add_constraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                   Relation::kLessEqual, 0.0);
  m.add_constraint({{x3, 1.0}}, Relation::kLessEqual, 1.0);
  const Solution s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 0.05, 1e-9);
  EXPECT_NEAR(s.values[x3], 1.0, 1e-9);
  EXPECT_TRUE(m.is_feasible(s.values, 1e-9));
}

TEST(Simplex, RedundantEqualityRowsDropped) {
  // The duplicated equality leaves a zero row after phase 1, so its
  // artificial stays basic at zero; eliminate_artificials must park it
  // without declaring the program infeasible.
  Model m;
  const int x = m.add_continuous("x", 1.0, 0.0);
  const int y = m.add_continuous("y", 0.0, 0.0);
  m.add_constraint({{x, 1}, {y, 1}}, Relation::kEqual, 5);
  m.add_constraint({{x, 2}, {y, 2}}, Relation::kEqual, 10);  // same hyperplane
  m.add_constraint({{x, 1}, {y, -1}}, Relation::kEqual, 1);
  const Solution s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[x], 3.0, 1e-9);
  EXPECT_NEAR(s.values[y], 2.0, 1e-9);
}

TEST(ModelFeasibility, ChecksBoundsConstraintsIntegrality) {
  Model m;
  const int x = m.add_binary("x", 1.0);
  const int y = m.add_continuous("y", 1.0, 0.0, 10.0);
  m.add_constraint({{x, 1}, {y, 1}}, Relation::kLessEqual, 5);
  EXPECT_TRUE(m.is_feasible({1.0, 4.0}));
  EXPECT_FALSE(m.is_feasible({0.5, 4.0}));   // fractional binary
  EXPECT_FALSE(m.is_feasible({1.0, 11.0}));  // bound violated
  EXPECT_FALSE(m.is_feasible({1.0, 4.5}));   // constraint violated
  EXPECT_FALSE(m.is_feasible({1.0}));        // wrong arity
}

// Property: on random feasible LPs (box + <= rows with nonnegative
// coefficients, so 0 is always feasible), the simplex optimum is feasible
// and no random feasible point beats it.
TEST(Simplex, RandomMaximizationDominance) {
  util::Rng rng(123);
  for (int trial = 0; trial < 40; ++trial) {
    Model m;
    const int n = static_cast<int>(rng.uniform_int(2, 6));
    for (int i = 0; i < n; ++i)
      m.add_variable("v" + std::to_string(i), 0.0,
                     rng.uniform_real(1.0, 10.0), rng.uniform_real(0.1, 3.0));
    m.set_sense(Sense::kMaximize);
    const int rows = static_cast<int>(rng.uniform_int(1, 4));
    for (int r = 0; r < rows; ++r) {
      std::vector<Term> terms;
      for (int i = 0; i < n; ++i)
        terms.push_back({i, rng.uniform_real(0.0, 2.0)});
      m.add_constraint(std::move(terms), Relation::kLessEqual,
                       rng.uniform_real(1.0, 12.0));
    }
    const Solution s = solve_lp(m);
    ASSERT_EQ(s.status, SolveStatus::kOptimal) << "trial " << trial;
    EXPECT_TRUE(m.is_feasible(s.values, 1e-6)) << "trial " << trial;

    for (int probe = 0; probe < 30; ++probe) {
      std::vector<double> x(n);
      for (int i = 0; i < n; ++i)
        x[i] = rng.uniform_real(0.0, m.variable(i).upper);
      if (!m.is_feasible(x)) continue;
      EXPECT_LE(m.objective_value(x), s.objective + 1e-6)
          << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace mbrc::lp
