// Technology constants of the interconnect and I/O timing model. STA, the
// clock-tree estimate and MBR sizing all read the same figures from here.
#pragma once

namespace mbrc::lib {

/// Wire capacitance, fF per um, of signal and clock wire alike.
inline constexpr double kWireCapPerUm = 0.20;
/// Wire resistance, kOhm per um.
inline constexpr double kWireResPerUm = 0.003;
/// Arrival time at input ports, ns.
inline constexpr double kInputDelay = 0.05;
/// Margin subtracted from the clock period at output ports, ns.
inline constexpr double kOutputMargin = 0.05;

}  // namespace mbrc::lib
