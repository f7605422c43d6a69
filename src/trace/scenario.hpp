// Fault-scenario files: a tiny text format describing what to inject
// into a replay, so fault sweeps are driven by data (checked-in scenario
// files, generated sweeps) instead of code.
//
// Line-oriented; '#' starts a comment. Recognised directives:
//
//   seed <u64>                         RNG seed for the draw stream
//   rber <double>                      raw bit error rate (-1 = media default)
//   wear_slope <double>                RBER growth per endurance fraction
//   stuck <channel> <package> <die> [begin_ps]
//   stall <channel> <begin_ps> <duration_ps>
//
// Times are picoseconds, the simulator's native unit. Loading a scenario
// always yields an *enabled* FaultConfig — the file's existence is the
// opt-in.
#pragma once

#include <string>

#include "reliability/fault.hpp"

namespace nvmooc {

/// Parses scenario text. Throws std::runtime_error naming the line on an
/// unknown directive, a missing or non-numeric field, or a trailing one.
/// Index ranges are checked against a device by FaultConfig::validate.
FaultConfig parse_fault_scenario(const std::string& text);

FaultConfig load_fault_scenario(const std::string& path);
void save_fault_scenario(const FaultConfig& config, const std::string& path);

}  // namespace nvmooc
