// TraceFlowSource: strict row validation with file:line context, header /
// comment / blank-line tolerance, monotone-start enforcement, and the
// dense-id + port-pairing conventions the streaming launcher relies on.
#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "workload/trace_replay.hpp"

namespace fncc {
namespace {

std::string WriteTrace(const std::string& name, const std::string& body) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path);
  out << body;
  return path;
}

std::vector<GeneratedFlow> DrainAll(TraceFlowSource& source) {
  std::vector<GeneratedFlow> flows;
  GeneratedFlow flow;
  while (source.Next(&flow)) flows.push_back(flow);
  return flows;
}

const std::vector<NodeId> kFourHosts = {10, 11, 12, 13};

TEST(TraceReplayTest, ParsesWellFormedTrace) {
  const std::string path = WriteTrace("trace_good.csv",
                                      "# comment line\n"
                                      "start_us,src,dst,bytes\n"
                                      "\n"
                                      "0,0,3,20000\n"
                                      "2.5,1,3,4096   # inline comment\n"
                                      "2.5,2,0,1500\n"
                                      "10,3,1,999\n");
  TraceFlowSource source(path, kFourHosts, 10'000);
  const std::vector<GeneratedFlow> flows = DrainAll(source);
  ASSERT_EQ(flows.size(), 4u);
  EXPECT_EQ(source.rows_read(), 4u);

  // Ids are dense in row order; src/dst map through the hosts vector.
  EXPECT_EQ(flows[0].spec.id, 1u);
  EXPECT_EQ(flows[0].spec.src, 10u);
  EXPECT_EQ(flows[0].spec.dst, 13u);
  EXPECT_EQ(flows[0].spec.size_bytes, 20'000u);
  EXPECT_EQ(flows[0].spec.start_time, 0);

  // Fractional start_us rounds to integer ticks; equal starts are allowed.
  EXPECT_EQ(flows[1].spec.start_time, Time{2'500'000});
  EXPECT_EQ(flows[2].spec.start_time, flows[1].spec.start_time);
  EXPECT_EQ(flows[3].spec.id, 4u);
  EXPECT_EQ(flows[3].spec.src, 13u);
  EXPECT_EQ(flows[3].spec.dst, 11u);

  // Port pairs follow the eager builders' base + 2k / base + 2k + 1 rule.
  EXPECT_EQ(flows[0].spec.sport, 10'000);
  EXPECT_EQ(flows[0].spec.dport, 10'001);
  EXPECT_EQ(flows[2].spec.sport, 10'004);
  EXPECT_EQ(flows[2].spec.dport, 10'005);

  // Trace flows never carry a duration-style stop time.
  for (const GeneratedFlow& f : flows) EXPECT_EQ(f.stop, kTimeInfinity);
}

/// Expects construction + drain to throw std::invalid_argument whose
/// message carries "<path>:<line>:" followed by `detail`.
void ExpectRowError(const std::string& body, int line,
                    const std::string& detail) {
  const std::string path = WriteTrace("trace_bad.csv", body);
  TraceFlowSource source(path, kFourHosts, 10'000);
  try {
    GeneratedFlow flow;
    while (source.Next(&flow)) {
    }
    FAIL() << "expected invalid_argument for: " << detail;
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path + ":" + std::to_string(line) + ":"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(detail), std::string::npos) << what;
  }
}

TEST(TraceReplayTest, RejectsMalformedRows) {
  ExpectRowError("0,0,3,20000\n1,0,3\n", 2, "expected 4 fields");
  ExpectRowError("0,0,3,20000\nabc,0,3,500\n", 2, "is not a number");
  ExpectRowError("-1,0,3,20000\n", 1, "start_us must be >= 0");
  // Past what a Time holds (9.3e12 us = 9.3e18 ps), never wrapped to a
  // negative or a smaller start.
  ExpectRowError("1e300,0,1,1000\n", 1,
                 "start_us 1e300 is outside the representable time range");
  ExpectRowError("0,0,1,1000\n9300000000000,0,1,1000\n", 2,
                 "outside the representable time range");
  ExpectRowError("0,0,x,20000\n", 1, "is not an integer");
  ExpectRowError("0,0,4,20000\n", 1, "outside [0, 4) hosts");
  ExpectRowError("0,0,-1,20000\n", 1, "outside [0, 4) hosts");
  ExpectRowError("0,2,2,20000\n", 1, "src == dst");
  ExpectRowError("0,0,3,0\n", 1, "bytes must be > 0");
  ExpectRowError("0,0,3,-5\n", 1, "not an unsigned integer");
}

TEST(TraceReplayTest, RejectsBackwardsStartTimes) {
  // The streaming launcher depends on non-decreasing starts; line number
  // points at the offending row, not the end of file.
  ExpectRowError("0,0,3,100\n5,1,3,100\n4.9,2,3,100\n", 3, "goes backwards");
}

TEST(TraceReplayTest, HeaderOnlyAfterFirstDataRow) {
  // A non-numeric first field is only forgiven before any data row; later
  // it is a malformed row, not a second header.
  ExpectRowError("start_us,src,dst,bytes\n0,0,3,100\nstart_us,src,dst,bytes\n",
                 3, "is not a number");
}

TEST(TraceReplayTest, RejectsTraceWithoutFlowRows) {
  // Checked by the source itself, so a trace launched straight from it
  // is refused just like one materialised as a list.
  const std::string path =
      WriteTrace("trace_empty.csv", "# nothing\nstart_us,src,dst,bytes\n");
  TraceFlowSource source(path, kFourHosts, 10'000);
  GeneratedFlow flow;
  EXPECT_THROW(source.Next(&flow), std::invalid_argument);
}

TEST(TraceReplayTest, MissingFileAndBadTopology) {
  EXPECT_THROW(
      TraceFlowSource(testing::TempDir() + "nope.csv", kFourHosts, 10'000),
      std::invalid_argument);
  const std::string path = WriteTrace("trace_one_host.csv", "0,0,1,100\n");
  EXPECT_THROW(TraceFlowSource(path, {NodeId{7}}, 10'000),
               std::invalid_argument);
}

TEST(TraceReplayTest, MakeTraceSourceRequiresTraceFile) {
  WorkloadHosts hosts;
  hosts.all = kFourHosts;
  WorkloadParams params;  // trace_file empty
  EXPECT_THROW((void)MakeTraceSource(hosts, params), std::invalid_argument);

  params.trace_file = WriteTrace("trace_factory.csv", "0,0,1,2048\n");
  params.port_base = 20'000;
  std::unique_ptr<FlowSource> source = MakeTraceSource(hosts, params);
  GeneratedFlow flow;
  ASSERT_TRUE(source->Next(&flow));
  EXPECT_EQ(flow.spec.size_bytes, 2'048u);
  EXPECT_EQ(flow.spec.sport, 20'000);
  EXPECT_FALSE(source->Next(&flow));
}

}  // namespace
}  // namespace fncc
