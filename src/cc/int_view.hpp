// Normalizes an ACK's INT stack to request-path order. HPCC stamps data
// packets sender->receiver (L[0] = first hop); FNCC stamps the ACK on the
// return path, so entries accumulate last-request-hop first (Fig. 4b). The
// sender algorithms always index hops in request-path order: hop 0 leaves
// the sender, hop n-1 enters the receiver ("last hop" for LHCS).
#pragma once

#include <cstddef>
#include <span>

#include "net/packet.hpp"

namespace fncc {

class IntView {
 public:
  explicit IntView(const Packet& ack)
      : stack_(ack.int_stack()), reversed_(ack.int_reversed) {}

  [[nodiscard]] std::size_t hops() const { return stack_.size(); }
  [[nodiscard]] bool empty() const { return stack_.empty(); }

  /// Telemetry of request-path hop `i` (0 = first hop from the sender).
  [[nodiscard]] const IntEntry& hop(std::size_t i) const {
    return reversed_ ? stack_[stack_.size() - 1 - i] : stack_[i];
  }

  [[nodiscard]] std::size_t last_hop_index() const { return hops() - 1; }

 private:
  std::span<const IntEntry> stack_;
  bool reversed_;
};

}  // namespace fncc
