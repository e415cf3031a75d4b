#include "trace/trace.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <ostream>
#include <istream>
#include <stdexcept>
#include <string>

namespace flex::trace {

TraceSummary summarize(const std::vector<Request>& trace) {
  TraceSummary s;
  for (const auto& req : trace) {
    ++s.requests;
    if (req.is_write) {
      s.write_pages += req.pages;
    } else {
      ++s.reads;
      s.read_pages += req.pages;
    }
    if (req.pages > 0) {
      s.max_lpn = std::max(s.max_lpn, std::uint64_t{req.lpn} + req.pages - 1);
    }
  }
  return s;
}

bool sorted_by_arrival(const std::vector<Request>& trace) {
  return std::is_sorted(trace.begin(), trace.end(),
                        [](const Request& a, const Request& b) {
                          return a.arrival < b.arrival;
                        });
}

void write_csv(std::ostream& out, const std::vector<Request>& trace) {
  for (const auto& req : trace) {
    out << req.arrival / kMicrosecond << ',' << (req.is_write ? 'W' : 'R')
        << ',' << req.lpn << ',' << req.pages << '\n';
  }
}

namespace {

std::uint64_t parse_u64(std::string_view field, const char* what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec != std::errc{} || ptr != field.data() + field.size()) {
    throw std::runtime_error(std::string("trace: bad ") + what + " field: " +
                             std::string(field));
  }
  return value;
}

}  // namespace

std::vector<Request> read_csv(std::istream& in) {
  std::vector<Request> trace;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::string_view view(line);
    std::array<std::string_view, 4> fields;
    for (int i = 0; i < 4; ++i) {
      const std::size_t comma = view.find(',');
      if ((comma == std::string_view::npos) != (i == 3)) {
        throw std::runtime_error("trace: expected 4 comma-separated fields: " +
                                 line);
      }
      fields[static_cast<std::size_t>(i)] = view.substr(0, comma);
      if (comma != std::string_view::npos) view.remove_prefix(comma + 1);
    }
    Request req;
    req.arrival = static_cast<SimTime>(parse_u64(fields[0], "timestamp")) *
                  kMicrosecond;
    if (fields[1] == "W" || fields[1] == "w") {
      req.is_write = true;
    } else if (fields[1] == "R" || fields[1] == "r") {
      req.is_write = false;
    } else {
      throw std::runtime_error("trace: bad op field: " + line);
    }
    // Request keeps lpn and pages in 32 bits: reject what they cannot
    // hold instead of truncating it to some other extent.
    const std::uint64_t lpn = parse_u64(fields[2], "lpn");
    const std::uint64_t pages = parse_u64(fields[3], "pages");
    if (lpn >= kLpnSpace || pages >= kLpnSpace) {
      throw std::runtime_error("trace: lpn or pages exceeds 32 bits: " + line);
    }
    if (pages == 0) {
      throw std::runtime_error("trace: zero-length request: " + line);
    }
    if (lpn + pages > kLpnSpace) {
      throw std::runtime_error("trace: request runs past lpn 2^32 - 1: " +
                               line);
    }
    if (!trace.empty() && req.arrival < trace.back().arrival) {
      throw std::runtime_error(
          "trace: timestamp earlier than the previous request's: " + line);
    }
    req.lpn = static_cast<std::uint32_t>(lpn);
    req.pages = static_cast<std::uint32_t>(pages);
    trace.push_back(req);
  }
  return trace;
}

}  // namespace flex::trace
