// Fig. 15: average / median / p95 / p99 FCT slowdown by flow size for
// DCQCN, HPCC and FNCC under the FB_Hadoop workload at 50% load on the
// k=8 fat-tree. Scale with FNCC_FLOWS / FNCC_K / FNCC_SEED.
#include "bench_fct_common.hpp"

int main() {
  using namespace fncc;
  using namespace fncc::bench;
  FctBenchSetup setup;
  setup.figure = "fig15";
  setup.workload_name = "FB_Hadoop";
  setup.cdf = "fb_hadoop";
  setup.edges = HadoopBucketEdges();
  setup.default_flows = 20000;
  return RunFctBench(setup);
}
