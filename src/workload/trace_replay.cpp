#include "workload/trace_replay.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace fncc {

namespace {

std::string TrimView(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// Splits one CSV row into trimmed fields (no quoting — trace fields are
/// all numeric).
std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    fields.push_back(TrimView(comma == std::string::npos
                                  ? line.substr(start)
                                  : line.substr(start, comma - start)));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return fields;
}

bool LooksNumeric(const std::string& field) {
  if (field.empty()) return false;
  const char c = field[0];
  return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.';
}

}  // namespace

TraceFlowSource::TraceFlowSource(std::string path, std::vector<NodeId> hosts,
                                 std::uint16_t port_base)
    : path_(std::move(path)),
      hosts_(std::move(hosts)),
      port_base_(port_base),
      in_(path_) {
  if (!in_) {
    throw std::invalid_argument("trace " + path_ + ": cannot open file");
  }
  if (hosts_.size() < 2) {
    throw std::invalid_argument("trace " + path_ +
                                ": topology must have >= 2 hosts");
  }
}

void TraceFlowSource::Fail(const std::string& what) const {
  throw std::invalid_argument("trace " + path_ + ":" +
                              std::to_string(lineno_) + ": " + what);
}

bool TraceFlowSource::Next(GeneratedFlow* out) {
  std::string line;
  while (std::getline(in_, line)) {
    ++lineno_;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (TrimView(line).empty()) continue;

    const std::vector<std::string> fields = SplitFields(line);
    if (!saw_data_row_ && !LooksNumeric(fields[0])) {
      continue;  // optional header row ("start_us,src,dst,bytes")
    }
    if (fields.size() != 4) {
      Fail("expected 4 fields (start_us,src,dst,bytes), got " +
           std::to_string(fields.size()));
    }

    char* end = nullptr;
    errno = 0;
    const double start_us = std::strtod(fields[0].c_str(), &end);
    if (end == fields[0].c_str() || *end != '\0' ||
        !std::isfinite(start_us) || errno == ERANGE) {
      Fail("start_us '" + fields[0] + "' is not a number");
    }
    if (start_us < 0.0) Fail("start_us must be >= 0");

    const auto parse_host = [&](const std::string& field,
                                const char* which) -> std::size_t {
      errno = 0;
      char* host_end = nullptr;
      const long long v = std::strtoll(field.c_str(), &host_end, 10);
      if (host_end == field.c_str() || *host_end != '\0' || errno == ERANGE) {
        Fail(std::string(which) + " '" + field + "' is not an integer");
      }
      if (v < 0 || static_cast<unsigned long long>(v) >= hosts_.size()) {
        Fail(std::string(which) + " " + field + " outside [0, " +
             std::to_string(hosts_.size()) + ") hosts");
      }
      return static_cast<std::size_t>(v);
    };
    const std::size_t src = parse_host(fields[1], "src");
    const std::size_t dst = parse_host(fields[2], "dst");
    if (src == dst) Fail("src == dst (" + fields[1] + ")");

    errno = 0;
    char* bytes_end = nullptr;
    const unsigned long long bytes =
        std::strtoull(fields[3].c_str(), &bytes_end, 10);
    if (bytes_end == fields[3].c_str() || *bytes_end != '\0' ||
        errno == ERANGE || fields[3][0] == '-') {
      Fail("bytes '" + fields[3] + "' is not an unsigned integer");
    }
    if (bytes == 0) Fail("bytes must be > 0");

    const Time start = static_cast<Time>(
        std::llround(start_us * static_cast<double>(kMicrosecond)));
    if (saw_data_row_ && start < prev_start_) {
      Fail("start_us " + fields[0] +
           " goes backwards (traces must be sorted by start time)");
    }
    prev_start_ = start;
    saw_data_row_ = true;

    FlowSpec f;
    f.id = static_cast<FlowId>(rows_read_ + 1);  // dense, launch order
    f.src = hosts_[src];
    f.dst = hosts_[dst];
    const std::uint64_t pair = 2 * rows_read_;
    f.sport = static_cast<std::uint16_t>(port_base_ + pair % 40'000);
    f.dport = static_cast<std::uint16_t>(port_base_ + (pair + 1) % 40'000);
    f.size_bytes = bytes;
    f.start_time = start;
    ++rows_read_;
    out->spec = f;
    out->stop = kTimeInfinity;
    return true;
  }
  if (in_.bad()) {
    throw std::invalid_argument("trace " + path_ + ": read error");
  }
  if (rows_read_ == 0) {
    throw std::invalid_argument("trace " + path_ + ": no flow rows");
  }
  return false;
}

std::unique_ptr<FlowSource> MakeTraceSource(const WorkloadHosts& hosts,
                                            const WorkloadParams& params) {
  if (params.trace_file.empty()) {
    throw std::invalid_argument(
        "workload: trace needs workload.trace_file (a start_us,src,dst,bytes "
        "CSV)");
  }
  return std::make_unique<TraceFlowSource>(params.trace_file, hosts.all,
                                           params.port_base);
}

}  // namespace fncc
