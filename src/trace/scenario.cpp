#include "trace/scenario.hpp"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace nvmooc {

FaultConfig parse_fault_scenario(const std::string& text) {
  FaultConfig config;
  config.enabled = true;

  std::istringstream lines(text);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    const std::size_t comment = line.find('#');
    if (comment != std::string::npos) line.resize(comment);

    std::istringstream fields(line);
    std::string directive;
    if (!(fields >> directive)) continue;  // Blank or comment-only line.

    const auto fail = [&](const std::string& why) {
      throw std::runtime_error("fault scenario line " + std::to_string(line_number) +
                               ": " + why);
    };
    if (directive == "seed") {
      if (!(fields >> config.seed)) fail("seed needs one integer");
    } else if (directive == "rber") {
      if (!(fields >> config.rber)) fail("rber needs one number");
    } else if (directive == "wear_slope") {
      if (!(fields >> config.wear_slope)) fail("wear_slope needs one number");
    } else if (directive == "stuck") {
      DieStuckFault fault;
      if (!(fields >> fault.channel >> fault.package >> fault.die)) {
        fail("stuck needs <channel> <package> <die> [begin_ps]");
      }
      std::string begin;
      if (fields >> begin) {  // Optional; stays 0 when absent.
        std::int64_t ps = 0;
        const char* end = begin.data() + begin.size();
        const auto [at, error] = std::from_chars(begin.data(), end, ps);
        if (error != std::errc{} || at != end || ps < 0) {
          fail("stuck begin_ps must be a non-negative integer, got '" + begin + "'");
        }
        fault.begin = Time{ps};
      }
      config.stuck_dies.push_back(fault);
    } else if (directive == "stall") {
      ChannelStallFault fault;
      if (!(fields >> fault.channel >> fault.begin >> fault.duration)) {
        fail("stall needs <channel> <begin_ps> <duration_ps>");
      }
      config.channel_stalls.push_back(fault);
    } else {
      fail("unknown directive '" + directive + "'");
    }
    std::string extra;
    if (fields >> extra) fail(directive + ": unexpected trailing field '" + extra + "'");
  }
  return config;
}

FaultConfig load_fault_scenario(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("load_fault_scenario: cannot open " + path);
  std::ostringstream text;
  text << file.rdbuf();
  return parse_fault_scenario(text.str());
}

void save_fault_scenario(const FaultConfig& config, const std::string& path) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("save_fault_scenario: cannot open " + path);
  file << "# fault scenario (times in picoseconds)\n";
  file << "seed " << config.seed << "\n";
  file << "rber " << config.rber << "\n";
  file << "wear_slope " << config.wear_slope << "\n";
  for (const DieStuckFault& fault : config.stuck_dies) {
    file << "stuck " << fault.channel << " " << fault.package << " " << fault.die
         << " " << fault.begin << "\n";
  }
  for (const ChannelStallFault& fault : config.channel_stalls) {
    file << "stall " << fault.channel << " " << fault.begin << " " << fault.duration
         << "\n";
  }
}

}  // namespace nvmooc
