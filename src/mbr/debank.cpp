#include "mbr/debank.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace mbrc::mbr {

namespace {

using netlist::CellId;
using netlist::Design;
using netlist::NetId;
using netlist::PinId;
using netlist::PinRole;

// Split banks whose worst constrained bit has less slack (ns) than this:
// failing banks only.
constexpr double kSlackThreshold = 0.0;
// At most this many banks are split per call, worst slack first. Keeps each
// loop iteration's perturbation small enough that the accept/revert
// decision in the flow stays meaningful.
constexpr std::size_t kMaxBanksPerIteration = 8;
// Width of the pieces a split produces: every bit gets its own clock pin,
// so useful skew, sizing and placement see each bit separately again.
constexpr int kPieceBits = 1;

struct Critical {
  double slack = 0.0;
  CellId cell;
};

// The weakest (max drive resistance) non-per-bit-scan piece cell of the
// class, or nullptr: splitting must not waste power; the flow's sizing pass
// re-selects drive afterwards.
const lib::RegisterCell* piece_cell(const lib::Library& library,
                                    const lib::RegisterFunction& function) {
  const auto cells = library.cells_for(function, kPieceBits);
  const lib::RegisterCell* best = nullptr;
  for (const lib::RegisterCell* cell : cells) {
    if (cell->scan_style == lib::ScanStyle::kPerBitPins) continue;
    if (best == nullptr || cell->drive_resistance > best->drive_resistance)
      best = cell;
  }
  return best;
}

// Live, movable multi-bit registers whose class offers the piece cell.
// Ordered scan sections pin the bank's chain position (splitting would need
// section renumbering), so those banks stay intact.
bool eligible(const Design& design, CellId cell_id) {
  const netlist::Cell& cell = design.cell(cell_id);
  if (cell.dead || cell.kind != netlist::CellKind::kRegister) return false;
  if (cell.fixed || cell.size_only) return false;
  if (cell.reg->bits <= kPieceBits) return false;
  if (cell.scan.section >= 0) return false;
  return piece_cell(design.library(), cell.reg->function) != nullptr;
}

// Splits one eligible register into kPieceBits-wide pieces of the class's
// weakest drive variant, preserving per-bit D/Q connectivity, the shared
// clock/control nets, scan info and the gating group. The original cell is
// removed; the pieces are appended to `result`. Pieces overlap the original
// footprint and must be legalized, and touched scan chains re-stitched,
// afterwards.
void split_register(Design& design, CellId cell_id, DebankResult& result) {
  const netlist::Cell& cell = design.cell(cell_id);
  const lib::RegisterCell* piece =
      piece_cell(design.library(), cell.reg->function);
  MBRC_ASSERT_MSG(piece != nullptr,
                  "split_register: caller must check eligibility");
  const int pieces = cell.reg->bits / kPieceBits;

  // Record connectivity before removing the original.
  struct BitNets {
    NetId d, q;
  };
  std::vector<BitNets> bits(cell.reg->bits);
  for (int b = 0; b < cell.reg->bits; ++b) {
    const PinId d = design.register_d_pin(cell_id, b);
    const PinId q = design.register_q_pin(cell_id, b);
    bits[b] = {design.pin(d).net, design.pin(q).net};
  }
  const NetId clock = design.register_clock_net(cell_id);
  const auto control = [&](PinRole role) {
    const PinId pin = design.register_control_pin(cell_id, role);
    return pin.valid() ? design.pin(pin).net : NetId{};
  };
  const NetId reset = control(PinRole::kReset);
  const NetId set = control(PinRole::kSet);
  const NetId enable = control(PinRole::kEnable);
  const NetId scan_enable = control(PinRole::kScanEnable);
  const geom::Point origin = cell.position;
  const std::string base_name = cell.name;
  const netlist::ScanInfo scan = cell.scan;
  const int gating = cell.gating_group;
  const double original_width = cell.reg->width;

  design.remove_cell(cell_id);

  for (int p = 0; p < pieces; ++p) {
    // Pieces are distributed over the original footprint (their summed
    // width slightly exceeds it -- sharing lost); the follow-up
    // legalization resolves the small overlaps with minimal displacement.
    const double pitch = std::max(piece->width, original_width / pieces);
    const geom::Point position{origin.x + p * pitch, origin.y};
    const CellId new_cell = design.add_register(
        base_name + "_p" + std::to_string(p), piece, position);
    netlist::Cell& created = design.cell(new_cell);
    created.scan = scan;
    created.gating_group = gating;

    if (clock.valid())
      design.connect(design.register_clock_pin(new_cell), clock);
    const auto connect_control = [&](PinRole role, NetId net) {
      if (!net.valid()) return;
      const PinId pin = design.register_control_pin(new_cell, role);
      MBRC_ASSERT(pin.valid());
      design.connect(pin, net);
    };
    connect_control(PinRole::kReset, reset);
    connect_control(PinRole::kSet, set);
    connect_control(PinRole::kEnable, enable);
    connect_control(PinRole::kScanEnable, scan_enable);

    for (int b = 0; b < kPieceBits; ++b) {
      const BitNets& nets = bits[p * kPieceBits + b];
      if (nets.d.valid())
        design.connect(design.register_d_pin(new_cell, b), nets.d);
      if (nets.q.valid())
        design.connect(design.register_q_pin(new_cell, b), nets.q);
    }
    result.pieces.push_back(new_cell);
  }
  result.removed.push_back(cell_id);
  result.pieces_created += pieces;
  ++result.banks_split;
}

}  // namespace

DebankResult debank_critical_registers(const DebankOptions& /*options*/,
                                       netlist::Design& design,
                                       const sta::TimingReport& timing) {
  obs::Span span("flow.debank.select");
  DebankResult result;

  std::vector<Critical> critical;
  for (CellId cell_id : design.registers()) {
    if (!eligible(design, cell_id)) continue;
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

  for (const Critical& c : critical) split_register(design, c.cell, result);

  static obs::Counter& c_banks = obs::counter("flow.debank.banks_split");
  static obs::Counter& c_pieces = obs::counter("flow.debank.pieces_created");
  c_banks.add(result.banks_split);
  c_pieces.add(result.pieces_created);
  return result;
}

}  // namespace mbrc::mbr
