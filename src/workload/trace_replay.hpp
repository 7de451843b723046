// Trace replay: streams published datacenter flow traces through the
// FlowSource interface so recorded workloads run unmodified through
// fncc_run ("workload.kind = trace", "workload.trace_file = path.csv").
//
// Trace format — CSV, one flow per row:
//
//   start_us,src,dst,bytes
//   0.0,0,1,20000
//   1.5,2,3,4096
//
// `start_us` is the flow's start time in microseconds (non-decreasing down
// the file), `src`/`dst` index the topology's hosts in creation order
// (0-based, src != dst) and `bytes` is the flow size (> 0). Blank lines
// and `#` comments are skipped; an optional header row (first field not a
// number) is ignored. Every row is validated strictly — a malformed or
// out-of-order row throws std::invalid_argument carrying file:line
// context, never a silently skipped flow.
//
// Rows are read lazily (one ifstream, no materialized flow list), so a
// multi-gigabyte trace replays in O(1) workload memory when launched
// through the streaming pipeline (run.launch_window_us).
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "workload/flow_source.hpp"

namespace fncc {

class TraceFlowSource final : public FlowSource {
 public:
  /// Opens `path` (std::invalid_argument when it cannot be read). `hosts`
  /// maps trace host indices to topology NodeIds; `port_base` seeds the
  /// usual per-flow sport/dport convention (base + 2k / base + 2k + 1).
  TraceFlowSource(std::string path, std::vector<NodeId> hosts,
                  std::uint16_t port_base);

  /// Next trace row as a flow; false at end of file. Throws
  /// std::invalid_argument ("trace <path>:<line>: ...") on malformed rows,
  /// host indices out of [0, hosts), src == dst, bytes == 0, a start
  /// time earlier than the previous row's, or a file without flow rows.
  bool Next(GeneratedFlow* out) override;

  /// Rows successfully produced so far.
  [[nodiscard]] std::uint64_t rows_read() const { return rows_read_; }

 private:
  [[noreturn]] void Fail(const std::string& what) const;

  std::string path_;
  std::vector<NodeId> hosts_;
  std::uint16_t port_base_;
  std::ifstream in_;
  int lineno_ = 0;
  std::uint64_t rows_read_ = 0;
  Time prev_start_ = 0;
  bool saw_data_row_ = false;
};

/// The source behind the registered "trace" workload: params.trace_file
/// must name a readable trace CSV. WorkloadRegistry::Generate drains it,
/// so the trace workload also runs un-streamed (e.g. in fncc_run --smoke).
std::unique_ptr<FlowSource> MakeTraceSource(const WorkloadHosts& hosts,
                                            const WorkloadParams& params);

}  // namespace fncc
