// Quickstart: the paper's six-register worked example (Figs. 1-3), end to
// end through the public API: compatibility graph -> candidate enumeration
// with placement-aware weights -> the set-partitioning ILP -> the selected
// MBRs. Run it with no arguments.
#include <iostream>

#include "mbr/candidates.hpp"
#include "mbr/composition.hpp"
#include "reference/worked_example.hpp"

using namespace mbrc;

namespace {

std::string member_names(const std::vector<int>& nodes) {
  std::string s;
  for (int n : nodes) s += mbr::WorkedExample::node_name(n);
  return s;
}

}  // namespace

int main() {
  // 1. Build the example: registers A..D (1-bit), E (4-bit), F (2-bit) with
  //    Fig. 2's placement; the library has {1,2,3,4,8}-bit MBRs.
  const mbr::WorkedExample example = mbr::make_worked_example();
  const mbr::CompatibilityGraph& graph = example.graph;

  std::cout << "Compatibility graph (Fig. 1):\n";
  for (int i = 0; i < graph.node_count(); ++i) {
    std::cout << "  " << mbr::WorkedExample::node_name(i) << graph.node(i).bits
              << " -- ";
    for (int j : graph.neighbors(i))
      std::cout << mbr::WorkedExample::node_name(j);
    std::cout << '\n';
  }

  // 2. Enumerate candidate MBRs with the Sec. 3.2 weights.
  std::vector<int> subgraph(graph.node_count());
  for (int i = 0; i < graph.node_count(); ++i) subgraph[i] = i;
  const mbr::BlockerIndex blockers(graph);

  mbr::EnumerationOptions enum_options;
  enum_options.allow_incomplete = true;
  // Lift the flow's 5% incomplete-area cap so the paper's AE/ACE incomplete
  // candidates appear in the listing (the ILP still doesn't pick them).
  enum_options.incomplete_area_overhead = 10.0;
  const mbr::EnumerationResult enumeration = mbr::enumerate_candidates(
      graph, *example.library, blockers, subgraph, enum_options);

  std::cout << "\nCandidates and weights (Fig. 3):\n";
  for (const mbr::Candidate& c : enumeration.candidates) {
    std::cout << "  " << member_names(c.nodes) << ": bits=" << c.bits
              << " width=" << c.mapped_width << " blockers=" << c.blockers
              << " w=" << c.weight << (c.is_incomplete() ? " (incomplete)" : "")
              << '\n';
  }

  // 3. Solve the set-partitioning ILP: every register in exactly one
  //    selected candidate, minimum total weight.
  const ilp::SetPartitionResult solved =
      mbr::solve_subgraph(subgraph, enumeration.candidates);
  std::cout << "\nILP selection (objective " << solved.objective << "):\n";
  for (int index : solved.chosen) {
    const mbr::Candidate& c = enumeration.candidates[index];
    std::cout << "  " << member_names(c.nodes) << " -> " << c.mapped_width
              << "-bit MBR\n";
  }
  std::cout << "\nRegisters: " << graph.node_count() << " -> "
            << solved.chosen.size() << '\n';
  return 0;
}
