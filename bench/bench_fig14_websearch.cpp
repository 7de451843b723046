// Fig. 14: average / median / p95 / p99 FCT slowdown by flow size for
// DCQCN, HPCC and FNCC under the WebSearch workload at 50% load on the
// k=8 fat-tree. Scale with FNCC_FLOWS / FNCC_K / FNCC_SEED.
#include "bench_fct_common.hpp"

int main() {
  using namespace fncc;
  using namespace fncc::bench;
  FctBenchSetup setup;
  setup.figure = "fig14";
  setup.workload_name = "WebSearch";
  setup.cdf = "web_search";
  setup.edges = WebSearchBucketEdges();
  setup.default_flows = 1000;
  return RunFctBench(setup);
}
