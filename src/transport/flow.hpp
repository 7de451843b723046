// Flow descriptors shared by the transport layer, workload generators and
// the statistics pipeline.
#pragma once

#include <cstdint>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace fncc {

/// One sender->receiver byte stream (an RC RDMA Write in the paper's
/// terms). The harness resolves ideal_fct from the topology before launch.
struct FlowSpec {
  FlowId id = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint16_t sport = 0;  // ECMP five-tuple
  std::uint16_t dport = 0;
  std::uint64_t size_bytes = 0;
  Time start_time = 0;

  /// Standalone completion time on an idle network (base RTT of the first
  /// packet + line-rate serialization of the rest); used for FCT slowdown.
  Time ideal_fct = 0;

  /// Dense launch-order serial (1-based), the partition-invariant identity
  /// behind the flow-start order word (sim/event_queue.hpp,
  /// kFlowStartOrderBit) and the equal-time completion tie-break. 0 at
  /// registration means "default to the minted id", which is dense while
  /// no slot is recycled. The harness launcher, whose recycled table ids
  /// are not launch-ordered, stamps the true serial before launch and
  /// re-stamps drained records with it — keeping outputs byte-identical
  /// at every launch window and exec_domains x threads combination.
  std::uint64_t launch_serial = 0;
};

}  // namespace fncc
