// Register compatibility rules and the compatibility graph (Sec. 2).
//
// Nodes are the *composable* registers of the design: not fixed/size-only,
// clocked, with a larger functionally-equivalent MBR available in the
// library. An edge connects two registers that are pairwise compatible in
// all four senses:
//   functional: same function signature, same clock net, same clock-gating
//               group, identical control nets (reset/set/enable/scan-enable);
//   scan:       same scan partition (ordered-section details are handled at
//               candidate granularity, where the per-bit-scan requirement is
//               derived);
//   placement:  timing-feasible regions overlap (plus a distance pre-filter);
//   timing:     same D/Q slack signs (no opposite useful-skew pull) and
//               similar slack magnitudes.
#pragma once

#include <vector>

#include "geom/rect.hpp"
#include "netlist/design.hpp"
#include "sta/feasible_region.hpp"
#include "sta/sta.hpp"

namespace mbrc::mbr {

struct CompatibilityOptions {
  /// Max |slack_a - slack_b| on the D side and on the Q side (ns). Sec. 2:
  /// registers of very different criticality must not merge.
  double slack_similarity = 0.20;
  /// Cheap pre-filter: register centers farther apart than this never merge
  /// (um). Keeps the graph sparse on large designs.
  double max_distance = 60.0;
  sta::FeasibleRegionOptions region;
  /// Thread lanes for the per-register info pass and the per-node edge
  /// detection. Both fan out over pre-sized slots and reduce on the calling
  /// thread in node order, so the graph is bit-identical at any job count;
  /// 1 runs the serial loops. plan_composition overrides this with the
  /// flow-wide jobs knob.
  int jobs = 1;
};

/// Everything the composition engine needs to know about one composable
/// register, precomputed once.
struct RegisterInfo {
  netlist::CellId cell;
  const lib::RegisterCell* lib_cell = nullptr;
  int bits = 1;
  geom::Rect footprint;
  geom::Rect region;  // timing-feasible placement region
  double d_slack = 0.0;  // worst D-side slack (clamped)
  double q_slack = 0.0;  // worst Q-side slack (clamped)
  double drive_resistance = 0.0;
  netlist::NetId clock_net;
  int gating_group = 0;
  // Control net signature (invalid ids when the function lacks the pin).
  netlist::NetId reset_net;
  netlist::NetId set_net;
  netlist::NetId enable_net;
  netlist::NetId scan_enable_net;
  netlist::ScanInfo scan;

  geom::Point center() const { return footprint.center(); }
};

class CompatibilityGraph {
public:
  const std::vector<RegisterInfo>& nodes() const { return nodes_; }
  const RegisterInfo& node(int i) const { return nodes_[i]; }
  /// Mutable access for hand-built graphs (tests, fixtures).
  RegisterInfo& node_mutable(int i) { return nodes_[i]; }
  int node_count() const { return static_cast<int>(nodes_.size()); }

  const std::vector<int>& neighbors(int i) const {
    MBRC_ASSERT_MSG(!dirty_, "CompatibilityGraph read before finalize()");
    return adjacency_[i];
  }
  bool has_edge(int a, int b) const;
  std::int64_t edge_count() const;

  /// Connected components, each a sorted list of node indices.
  std::vector<std::vector<int>> connected_components() const;

  // Construction (used by build_compatibility_graph and tests). Edges are
  // appended in O(1); call finalize() once after the last add_edge to sort
  // and deduplicate the adjacency lists. Reads (neighbors/has_edge/...)
  // assert that the graph is finalized.
  int add_node(RegisterInfo info);
  void add_edge(int a, int b);
  /// Pre-sizes each adjacency list from an exact (or upper-bound) degree
  /// count so the bulk add_edge pass never reallocates. Optional: add_edge
  /// works without it, at the cost of log(degree) grow-reallocations per
  /// list on large subgraph batches.
  void reserve_degrees(const std::vector<int>& degrees);
  void finalize();

private:
  std::vector<RegisterInfo> nodes_;
  std::vector<std::vector<int>> adjacency_;  // sorted once finalized
  bool dirty_ = false;                       // edges appended, not yet sorted
};

/// True when `cell` may be composed at all (Sec. 5's 'Comp-Regs' notion):
/// a live, clocked, non-fixed register whose functional class has a library
/// MBR wider than the register itself.
bool is_composable(const netlist::Design& design, netlist::CellId cell);

/// Collects the RegisterInfo of one composable register.
RegisterInfo make_register_info(const netlist::Design& design,
                                const sta::TimingReport& timing,
                                netlist::CellId cell,
                                const CompatibilityOptions& options);

// Pairwise rules (exposed for tests; build_compatibility_graph applies all).
bool functionally_compatible(const RegisterInfo& a, const RegisterInfo& b);
bool scan_compatible(const RegisterInfo& a, const RegisterInfo& b);
bool placement_compatible(const RegisterInfo& a, const RegisterInfo& b,
                          const CompatibilityOptions& options);
bool timing_compatible(const RegisterInfo& a, const RegisterInfo& b,
                       const CompatibilityOptions& options);

/// Builds the full compatibility graph of `design`.
CompatibilityGraph build_compatibility_graph(
    const netlist::Design& design, const sta::TimingReport& timing,
    const CompatibilityOptions& options = {});

}  // namespace mbrc::mbr
