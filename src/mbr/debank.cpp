#include "mbr/debank.hpp"

#include <algorithm>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace mbrc::mbr {

namespace {

using netlist::CellId;

// Split banks whose worst constrained bit has less slack (ns) than this:
// failing banks only.
constexpr double kSlackThreshold = 0.0;
// At most this many banks are split per call, worst slack first. Keeps each
// loop iteration's perturbation small enough that the accept/revert
// decision in the flow stays meaningful.
constexpr std::size_t kMaxBanksPerIteration = 8;

struct Critical {
  double slack = 0.0;
  CellId cell;
};

bool eligible(const netlist::Design& design, CellId cell_id,
              const DebankOptions& options) {
  const netlist::Cell& cell = design.cell(cell_id);
  if (cell.dead || cell.kind != netlist::CellKind::kRegister) return false;
  if (cell.fixed || cell.size_only) return false;
  const int bits = cell.reg->bits;
  if (bits < std::max(2, options.min_bits)) return false;
  if (bits % options.piece_bits != 0) return false;
  // Ordered scan sections pin the bank's chain position (same rule as the
  // decompose pre-pass).
  if (cell.scan.section >= 0) return false;
  return decompose_piece_cell(design.library(), cell.reg->function,
                              options.piece_bits) != nullptr;
}

}  // namespace

DebankResult debank_critical_registers(const DebankOptions& options,
                                       netlist::Design& design,
                                       const sta::TimingReport& timing) {
  MBRC_ASSERT(options.piece_bits >= 1 &&
              options.piece_bits < std::max(2, options.min_bits));
  obs::Span span("flow.debank.select");
  DebankResult result;

  std::vector<Critical> critical;
  for (CellId cell_id : design.registers()) {
    if (!eligible(design, cell_id, options)) continue;
    // Worst constrained bit of the bank: register_d_slack/register_q_slack
    // minimize over the constrained pins of each side, and kNoRequired is
    // +infinity, so an unconstrained side drops out of the min on its own.
    const double slack = std::min(timing.register_d_slack(design, cell_id),
                                  timing.register_q_slack(design, cell_id));
    if (slack == sta::kNoRequired) continue;  // fully unconstrained
    if (slack >= kSlackThreshold) continue;
    critical.push_back({slack, cell_id});
  }

  // Worst first; ties broken by cell id so the selection is a pure function
  // of (design, timing) -- the flow's jobs-invariance contract.
  std::sort(critical.begin(), critical.end(),
            [](const Critical& a, const Critical& b) {
              if (a.slack != b.slack) return a.slack < b.slack;
              return a.cell < b.cell;
            });
  if (critical.size() > kMaxBanksPerIteration)
    critical.resize(kMaxBanksPerIteration);

  DecomposeResult split;
  for (const Critical& c : critical) {
    split_register(design, c.cell, options.piece_bits, split);
    result.removed.push_back(c.cell);
  }
  result.banks_split = split.registers_split;
  result.pieces_created = split.pieces_created;
  result.pieces = std::move(split.pieces);

  static obs::Counter& c_banks = obs::counter("flow.debank.banks_split");
  static obs::Counter& c_pieces = obs::counter("flow.debank.pieces_created");
  c_banks.add(result.banks_split);
  c_pieces.add(result.pieces_created);
  return result;
}

}  // namespace mbrc::mbr
