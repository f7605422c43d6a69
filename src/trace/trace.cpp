#include "trace/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/string_util.hpp"

namespace nvmooc {

Bytes Trace::extent() const {
  Bytes end;
  for (const PosixRequest& request : requests_) {
    end = std::max(end, request.offset + request.size);
  }
  return end;
}

TraceStats Trace::stats() const {
  TraceStats stats;
  stats.requests = requests_.size();
  if (requests_.empty()) return stats;

  stats.min_request = requests_.front().size;
  Bytes previous_end;
  std::uint64_t sequential = 0;
  bool first = true;
  for (const PosixRequest& request : requests_) {
    stats.total_bytes += request.size;
    if (request.op == NvmOp::kRead) {
      stats.read_bytes += request.size;
    } else {
      stats.write_bytes += request.size;
    }
    stats.min_request = std::min(stats.min_request, request.size);
    stats.max_request = std::max(stats.max_request, request.size);
    if (!first && request.offset == previous_end) ++sequential;
    previous_end = request.offset + request.size;
    first = false;
  }
  stats.read_fraction =
      stats.total_bytes != Bytes{}
          ? static_cast<double>(stats.read_bytes) / static_cast<double>(stats.total_bytes)
          : 1.0;
  stats.sequentiality = requests_.size() > 1
                            ? static_cast<double>(sequential) / (requests_.size() - 1)
                            : 1.0;
  stats.mean_request = static_cast<double>(stats.total_bytes) / requests_.size();
  return stats;
}

void Trace::save(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file) throw std::runtime_error("Trace::save: cannot open " + path);
  for (const PosixRequest& request : requests_) {
    std::fprintf(file, "%c %llu %llu %lld%s\n", request.op == NvmOp::kRead ? 'R' : 'W',
                 static_cast<unsigned long long>(request.offset.value()),
                 static_cast<unsigned long long>(request.size.value()),
                 static_cast<long long>(request.not_before.ps()),
                 request.barrier ? " 1" : "");
  }
  std::fclose(file);
}

namespace {

/// Reads a whole file; throws if it cannot be opened or read.
std::string read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (!file) throw std::runtime_error("Trace::load: cannot open " + path);
  std::string text;
  char buffer[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) text.append(buffer, got);
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) throw std::runtime_error("Trace::load: cannot read " + path);
  return text;
}

bool is_blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// Splits one line into at most kMaxFields whitespace-separated fields;
/// returns the field count, or kMaxFields + 1 if there are more.
constexpr std::size_t kMaxFields = 5;
std::size_t split_fields(std::string_view line, std::string_view (&fields)[kMaxFields]) {
  std::size_t count = 0;
  std::size_t i = 0;
  for (;;) {
    while (i < line.size() && is_blank(line[i])) ++i;
    if (i == line.size()) return count;
    if (count == kMaxFields) return kMaxFields + 1;
    const std::size_t start = i;
    while (i < line.size() && !is_blank(line[i])) ++i;
    fields[count++] = line.substr(start, i - start);
  }
}

template <typename Int>
bool parse_int(std::string_view field, Int& out) {
  const char* end = field.data() + field.size();
  const auto [at, error] = std::from_chars(field.data(), end, out);
  return error == std::errc{} && at == end;
}

}  // namespace

Trace Trace::load(const std::string& path) {
  const std::string text = read_file(path);
  Trace trace;
  std::size_t line_number = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string_view line(text.data() + pos, eol - pos);
    pos = eol + 1;
    ++line_number;
    const auto fail = [&](const char* what) {
      throw std::runtime_error("Trace::load: " + path + ":" + std::to_string(line_number) +
                               ": " + what + " in '" + std::string(line) + "'");
    };
    std::string_view fields[kMaxFields];
    const std::size_t count = split_fields(line, fields);
    if (count == 0) continue;  // Blank line.
    if (count < 4 || count > kMaxFields) {
      fail("expected 'R|W offset size not_before [barrier]'");
    }
    if (fields[0] != "R" && fields[0] != "W") fail("op is not R or W");
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    std::int64_t not_before = 0;
    if (!parse_int(fields[1], offset)) fail("offset is not an unsigned integer");
    if (!parse_int(fields[2], size)) fail("size is not an unsigned integer");
    if (size > std::numeric_limits<std::uint64_t>::max() - offset) {
      fail("offset + size is past 2^64");
    }
    if (!parse_int(fields[3], not_before) || not_before < 0) {
      fail("not_before is not a non-negative integer");
    }
    unsigned barrier = 0;
    if (count == 5 && (!parse_int(fields[4], barrier) || barrier > 1)) {
      fail("barrier is not 0 or 1");
    }
    trace.add(fields[0] == "W" ? NvmOp::kWrite : NvmOp::kRead, Bytes{offset}, Bytes{size},
              Time{not_before}, barrier != 0);
  }
  return trace;
}

}  // namespace nvmooc
