#include "cts/cts.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "lib/technology.hpp"
#include "util/assert.hpp"

namespace mbrc::cts {

namespace {

using netlist::CellId;
using netlist::Design;
using netlist::NetId;

// Clusters are grown until this fraction of the largest buffer's max load
// is reached (head-room for the real CTS's skew balancing).
constexpr double kLoadUtilization = 0.85;
// Maximum sinks a single buffer may drive regardless of load.
constexpr int kMaxFanout = 24;

struct Node {
  geom::Point position;
  double cap = 0.0;  // input cap seen by the level above
};

// Groups `nodes` into clusters bounded by load/fanout, inserting one buffer
// per cluster. Returns the next level's nodes and accumulates stats. With
// `fanout_only` the load budget is ignored and clusters close on kMaxFanout
// alone, so the level shrinks by that factor no matter how far apart the
// nodes sit (see the progress guarantee in collapse_to_root).
std::vector<Node> cluster_level(std::vector<Node> nodes,
                                const lib::Library& library,
                                ClockTreeStats& stats,
                                bool fanout_only = false) {
  MBRC_ASSERT(!library.clock_buffers().empty());
  const auto& buffers = library.clock_buffers();
  const double max_load =
      kLoadUtilization *
      std::max_element(buffers.begin(), buffers.end(),
                       [](const auto& a, const auto& b) {
                         // mbrc-lint: allow(R2, max_element is order-stable -- first maximum over the deterministic library order -- and only the max_load_cap value is read)
                         return a.max_load_cap < b.max_load_cap;
                       })
          ->max_load_cap;

  // Space-filling order: sort into horizontal bands, serpentine by x, so
  // consecutive nodes are geometrically close.
  double min_y = nodes.front().position.y, max_y = min_y;
  for (const Node& n : nodes) {
    min_y = std::min(min_y, n.position.y);
    max_y = std::max(max_y, n.position.y);
  }
  const double band = std::max(20.0, (max_y - min_y) / 24);
  std::sort(nodes.begin(), nodes.end(), [&](const Node& a, const Node& b) {
    const int band_a = static_cast<int>((a.position.y - min_y) / band);
    const int band_b = static_cast<int>((b.position.y - min_y) / band);
    if (band_a != band_b) return band_a < band_b;
    const bool reversed = band_a % 2;
    if (a.position.x != b.position.x)
      return reversed ? a.position.x > b.position.x
                      : a.position.x < b.position.x;
    if (a.position.y != b.position.y) return a.position.y < b.position.y;
    // mbrc-lint: allow(R2, nodes have no id to break ties with; nodes tying on band then x then y then cap are value-identical and interchangeable in the serpentine order)
    return a.cap < b.cap;
  });

  std::vector<Node> next;
  std::size_t i = 0;
  while (i < nodes.size()) {
    // Grow the cluster while the estimated load stays in budget.
    std::vector<const Node*> cluster;
    geom::Point centroid{0, 0};
    double sink_cap = 0.0;
    while (i < nodes.size() &&
           static_cast<int>(cluster.size()) < kMaxFanout) {
      const Node& cand = nodes[i];
      // Predict the star wire cap with the candidate included.
      geom::Point c{(centroid.x * cluster.size() + cand.position.x) /
                        (cluster.size() + 1),
                    (centroid.y * cluster.size() + cand.position.y) /
                        (cluster.size() + 1)};
      double star = 0.0;
      for (const Node* m : cluster) star += geom::manhattan(c, m->position);
      star += geom::manhattan(c, cand.position);
      const double load =
          sink_cap + cand.cap + star * lib::kWireCapPerUm;
      if (!fanout_only && !cluster.empty() && load > max_load) break;
      cluster.push_back(&cand);
      centroid = c;
      sink_cap += cand.cap;
      ++i;
    }

    double star = 0.0;
    for (const Node* m : cluster)
      star += geom::manhattan(centroid, m->position);
    const double wire_cap = star * lib::kWireCapPerUm;
    const double load = sink_cap + wire_cap;

    // Smallest buffer that can drive the cluster (largest as fallback).
    const lib::ClockBufferCell* chosen = &buffers.back();
    for (const auto& buf : buffers) {
      if (buf.max_load_cap >= load &&
          (chosen->max_load_cap < load ||
           buf.max_load_cap < chosen->max_load_cap))
        chosen = &buf;
    }

    ++stats.buffers;
    stats.wire_length += star;
    stats.wire_cap += wire_cap;
    stats.buffer_cap += chosen->input_pin_cap;
    next.push_back({centroid, chosen->input_pin_cap});
  }
  return next;
}

// Reduces one sink set to a single root, a buffered level at a time,
// returning the root node and folding the level count into stats.
//
// Progress guarantee: on a large enough core, two far-apart nodes carry
// more star-wire cap than even the largest clock buffer may drive, so a
// load-budgeted level can return every node as its own singleton cluster
// -- same size as its input, looping forever (a physical tree drives such
// spans through repeater chains instead of giving up). When a level makes
// no progress it is redone fanout-only, which shrinks it by kMaxFanout and
// charges the same wire and buffer caps; the overloaded buffers stand in
// for the repeaters the estimate does not model.
std::vector<Node> collapse_to_root(std::vector<Node> level,
                                   const lib::Library& library,
                                   ClockTreeStats& stats) {
  static_assert(kMaxFanout >= 2);
  int levels = 0;
  while (level.size() > 1) {
    const std::size_t before = level.size();
    level = cluster_level(std::move(level), library, stats);
    ++levels;
    if (level.size() == before) {
      level = cluster_level(std::move(level), library, stats,
                            /*fanout_only=*/true);
      ++levels;
    }
  }
  stats.levels = std::max(stats.levels, levels);
  return level;
}

}  // namespace

ClockTreeStats estimate_clock_tree(const netlist::Design& design,
                                   const CtsOptions& /*options*/) {
  ClockTreeStats stats;

  // Leaf sinks grouped by (clock net, gating group): each group forms its
  // own subtree below the gating cell.
  std::map<std::pair<std::int32_t, int>, std::vector<Node>> groups;
  for (CellId reg : design.registers()) {
    const netlist::Cell& cell = design.cell(reg);
    const NetId clock_net = design.register_clock_net(reg);
    if (!clock_net.valid()) continue;
    const netlist::PinId clk = design.register_clock_pin(reg);
    groups[{clock_net.index, cell.gating_group}].push_back(
        {design.pin_position(clk), cell.reg->clock_pin_cap});
    ++stats.sinks;
    stats.sink_cap += cell.reg->clock_pin_cap;
  }
  // Clock buffers already in the netlist also hang off the tree.
  for (CellId id : design.live_cells()) {
    const netlist::Cell& cell = design.cell(id);
    if (cell.kind != netlist::CellKind::kClockBuffer) continue;
    ++stats.buffers;
    stats.buffer_cap += cell.buf->input_pin_cap;
  }

  std::map<std::int32_t, std::vector<Node>> roots_per_clock;
  for (auto& [key, nodes] : groups) {
    std::vector<Node> level =
        collapse_to_root(std::move(nodes), design.library(), stats);
    if (!level.empty()) roots_per_clock[key.first].push_back(level.front());
  }

  // Combine gating-group roots up to one root per clock net.
  for (auto& [clock, roots] : roots_per_clock)
    collapse_to_root(std::move(roots), design.library(), stats);
  return stats;
}

}  // namespace mbrc::cts
