// Fig. 12: the theoretical notification-latency model. For congestion at
// each hop of a 3-switch chain, how long until the sender holds that hop's
// INT under HPCC (data-path stamping, ~1 RTT) vs FNCC (return-path ACK
// stamping, sub-RTT) — and how the advantage shrinks toward the last hop.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/notification_model.hpp"

int main() {
  using namespace fncc;
  using namespace fncc::bench;

  Banner("Fig 12: notification latency model (3-switch chain, 100 Gbps)");

  NotificationChain chain;
  chain.num_switches = 3;
  const NotificationDelays d = ComputeNotificationDelays(chain);

  std::printf("%-22s %12s %12s %12s\n", "congestion at", "HPCC(us)",
              "FNCC(us)", "gain(us)");
  const char* names[] = {"sw1 (first hop)", "sw2 (middle hop)",
                         "sw3 (last hop)"};
  for (int j = 0; j < 3; ++j) {
    std::printf("%-22s %12.2f %12.2f %12.2f\n", names[j],
                ToMicroseconds(d.hpcc[j]), ToMicroseconds(d.fncc[j]),
                ToMicroseconds(d.gain[j]));
  }

  PaperVsMeasured("fig12", "first-hop gain", "significant (t7 - t1)",
                  Fmt("%.2f us", ToMicroseconds(d.gain[0])));
  PaperVsMeasured("fig12", "middle-hop gain", "sub-optimal (t6 - t2)",
                  Fmt("%.2f us", ToMicroseconds(d.gain[1])));
  PaperVsMeasured("fig12", "last-hop gain", "slight (t5 - t3)",
                  Fmt("%.2f us", ToMicroseconds(d.gain[2])));
  PaperVsMeasured(
      "fig12", "gain ordering", "first > middle > last",
      (d.gain[0] > d.gain[1] && d.gain[1] > d.gain[2]) ? "first > middle > last"
                                                       : "violated");

  // Sweep: deeper chains.
  const std::vector<int> depths = {2, 3, 5, 8};
  std::vector<NotificationDelays> sweep;
  for (const int depth : depths) {
    NotificationChain c;
    c.num_switches = depth;
    sweep.push_back(ComputeNotificationDelays(c));
  }
  std::printf("\nchain-depth sweep (gain at first hop):\n");
  for (std::size_t i = 0; i < depths.size(); ++i) {
    std::printf("  %d switches: HPCC %.2f us -> FNCC %.2f us\n", depths[i],
                ToMicroseconds(sweep[i].hpcc[0]),
                ToMicroseconds(sweep[i].fncc[0]));
  }
  return 0;
}
