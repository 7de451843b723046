#include "stats/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace fncc {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class CsvTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = ::testing::TempDir() + "fncc_csv_test.csv";
};

TEST_F(CsvTest, TimeSeriesLongFormat) {
  TimeSeries a;
  a.Add(Microseconds(1), 10.5);
  a.Add(Microseconds(2), 20.25);
  TimeSeries b;
  b.Add(Microseconds(3), 1.0);
  ASSERT_TRUE(WriteTimeSeriesCsv(path_, {{"queue", &a}, {"util", &b}}));
  const std::string text = ReadAll(path_);
  EXPECT_NE(text.find("label,time_us,value\n"), std::string::npos);
  EXPECT_NE(text.find("queue,1.000,10.5"), std::string::npos);
  EXPECT_NE(text.find("queue,2.000,20.25"), std::string::npos);
  EXPECT_NE(text.find("util,3.000,1.0"), std::string::npos);
}

TEST_F(CsvTest, FctRows) {
  FctRecorder rec;
  FlowSpec spec;
  spec.id = 9;
  spec.src = 1;
  spec.dst = 2;
  spec.size_bytes = 4096;
  spec.start_time = Microseconds(5);
  spec.ideal_fct = Microseconds(10);
  rec.Record(spec, Microseconds(25));
  ASSERT_TRUE(WriteFctCsv(path_, rec));
  const std::string text = ReadAll(path_);
  EXPECT_NE(text.find("9,1,2,4096,5.000,25.000,10.000,2.5"),
            std::string::npos);
}

TEST_F(CsvTest, UnwritablePathFails) {
  EXPECT_FALSE(WriteFctCsv("/nonexistent_dir_xyz/file.csv", FctRecorder{}));
}

}  // namespace
}  // namespace fncc
