#include "reference/lp_model.hpp"

#include <cmath>

namespace mbrc::lp {

bool Model::is_feasible(const std::vector<double>& x, double tol) const {
  if (static_cast<int>(x.size()) != variable_count()) return false;
  for (int i = 0; i < variable_count(); ++i) {
    const Variable& v = variables_[i];
    if (x[i] < v.lower - tol || x[i] > v.upper + tol) return false;
    if (v.is_integer && std::abs(x[i] - std::round(x[i])) > tol) return false;
  }
  for (const Constraint& con : constraints_) {
    double lhs = 0.0;
    for (const Term& t : con.terms) lhs += t.coefficient * x[t.variable];
    switch (con.relation) {
      case Relation::kLessEqual:
        if (lhs > con.rhs + tol) return false;
        break;
      case Relation::kGreaterEqual:
        if (lhs < con.rhs - tol) return false;
        break;
      case Relation::kEqual:
        if (std::abs(lhs - con.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

}  // namespace mbrc::lp
