#include "reference/placement_lp.hpp"

#include <algorithm>
#include <string>

#include "reference/simplex.hpp"
#include "util/assert.hpp"

namespace mbrc::mbr {

geom::Point optimal_position_lp(const std::vector<PinBox>& boxes,
                                const geom::Rect& corner_region) {
  if (boxes.empty()) return corner_region.center();

  lp::Model model;
  const int x = model.add_continuous("x", 0.0, corner_region.xlo,
                                     std::max(corner_region.xlo,
                                              corner_region.xhi));
  const int y = model.add_continuous("y", 0.0, corner_region.ylo,
                                     std::max(corner_region.ylo,
                                              corner_region.yhi));
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    const PinBox& b = boxes[i];
    const std::string tag = std::to_string(i);
    // wl_i = (zx - mx) + (zy - my); z >= both maxima operands, m <= minima.
    const int zx = model.add_continuous("zx" + tag, 1.0, b.box.xhi);
    const int mx =
        model.add_continuous("mx" + tag, -1.0, -lp::kInfinity, b.box.xlo);
    const int zy = model.add_continuous("zy" + tag, 1.0, b.box.yhi);
    const int my =
        model.add_continuous("my" + tag, -1.0, -lp::kInfinity, b.box.ylo);
    model.add_constraint({{zx, 1.0}, {x, -1.0}}, lp::Relation::kGreaterEqual,
                         b.offset.x);
    model.add_constraint({{mx, 1.0}, {x, -1.0}}, lp::Relation::kLessEqual,
                         b.offset.x);
    model.add_constraint({{zy, 1.0}, {y, -1.0}}, lp::Relation::kGreaterEqual,
                         b.offset.y);
    model.add_constraint({{my, 1.0}, {y, -1.0}}, lp::Relation::kLessEqual,
                         b.offset.y);
  }
  const lp::Solution solution = lp::solve_lp(model);
  MBRC_ASSERT_MSG(solution.status == lp::SolveStatus::kOptimal,
                  "placement LP failed");
  return {solution.values[x], solution.values[y]};
}

}  // namespace mbrc::mbr
