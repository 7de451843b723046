// Seeded, bounded mutation fuzzing of the spec parser and the trace reader.
// Spec inputs are the committed specs/*.exp texts and sweep/override
// tokens, mutated byte- and line-wise with a fixed seed. Every input must
// either parse or throw SpecError (never another exception, never a
// crash), and every accepted spec must survive the manifest's SpecToText
// -> ParseSpecText round trip byte for byte, expanded sweep points
// included. Trace inputs are the committed specs/traces/*.csv files with
// mutated rows, read through TraceFlowSource::Next: each must yield valid
// flows to the end or stop at a row error naming the file and line.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "harness/experiment_spec.hpp"
#include "workload/trace_replay.hpp"

namespace fncc {
namespace {

constexpr std::uint64_t kSeed = 0x5eed;
constexpr int kIterations = 3000;
// ExpandSweep copies the spec once per point; keep the fuzzed products
// small enough that the whole test stays well under a second.
constexpr std::size_t kMaxExpandedPoints = 64;

/// The committed files of `dir` with extension `ext`, in path order so the
/// fuzz sequence is fixed.
std::vector<std::string> CommittedTexts(const std::string& dir,
                                        const std::string& ext) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ext) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> texts;
  for (const std::filesystem::path& path : paths) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    texts.push_back(text.str());
  }
  return texts;
}

std::vector<std::string> CommittedSpecTexts() {
  return CommittedTexts(FNCC_SOURCE_DIR "/specs", ".exp");
}

/// Every settable key, from the key table, so the fuzzer can splice real
/// keys.
std::vector<std::string> KnownKeys() { return SpecKeys(); }

const std::vector<std::string> kOverrideTokens = {
    "sweep.mode=all",
    "sweep.mode=FNCC,HPCC",
    "sweep.seed=1,2,3",
    "sweep.load=0.25,0.5",
    "sweep.num_flows=10,20",
    "sweep.merge_switch=0,1,2",
    "sweep.scenario.ack_every=1,2,4,8,16",
    "sweep.scenario.int_table_refresh_us=0,1,5,20,100",
    "sweep.scenario.lhcs_beta=1,0.95,0.9,0.8,0.6",
    "sweep.scenario.wai_bytes=100,500,2000,8000",
    "sweep.scenario.quantize_int=false,true",
    "sweep.topology.kind=dumbbell,chain_merge",
    "sweep.kind=dumbbell",
    "sweep.output.dir=a,b",
    "sweep.name=a",
    "sweep.sweep.mode=FNCC",
    "sweep.workload.trace_file=a/b.csv",
    "sweep.run.duration_us=0,100",
    "topology.kind=chain_merge",
    "topology.num_switches=2",
    "workload.kind=trace",
    "workload.num_flows=10",
    "scenario.exec_domains=auto",
    "scenario.exec_domains=4",
    "run.launch_window_us=100",
    "run.monitor=false",
    "output.dir=out",
};

const std::vector<std::string> kValues = {
    "", "0", "-1", "1", "2", "0.5", "1e300", "-1e-300", "nan", "inf", "all",
    "auto", "true", "maybe", "FNCC", "HPCC,FNCC", "a/b", "1,,2", ",", "=",
    "0@0,1@300", "1@5:2", "18446744073709551616", "2147483648", "[sweep]",
};

// Trace field values: number-parsing edge cases (signs, exponents, hex,
// integer and time-range limits) and structural junk.
const std::vector<std::string> kTraceValues = {
    "", "0", "-0", "-1", "1", "2", "3", "4", "65535", "0.5", "+2", " 2 ",
    "1e-5", "1e300", "9.2e12", "9.3e12", "-1e-300", "nan", "inf", "-inf",
    "0x10", "1e", ".", "-", "+", "#", "start_us", "1,2",
    "18446744073709551615", "18446744073709551616", "9223372036854775808",
    "-9223372036854775809", "2147483648",
};

class Fuzzer {
 public:
  Fuzzer() : rng_(kSeed), keys_(KnownKeys()) {}

  std::size_t Pick(std::size_t n) {
    return static_cast<std::size_t>(rng_() % n);
  }

  template <typename T>
  const T& PickFrom(const std::vector<T>& v) {
    return v[Pick(v.size())];
  }

  /// Byte edit `op`: 0 deletes a byte range, 1 inserts a byte of
  /// `alphabet`, 2 flips a byte.
  std::string EditBytes(std::size_t op, std::string text,
                        const std::string& alphabet) {
    switch (op) {
      case 0:
        if (!text.empty()) {
          const std::size_t at = Pick(text.size());
          text.erase(at, 1 + Pick(8));
        }
        break;
      case 1:
        text.insert(Pick(text.size() + 1), 1, alphabet[Pick(alphabet.size())]);
        break;
      default:
        if (!text.empty()) {
          text[Pick(text.size())] ^= static_cast<char>(1 + Pick(127));
        }
        break;
    }
    return text;
  }

  /// One random edit: a byte change, a line shuffle or a dictionary splice.
  std::string Mutate(std::string text) {
    static const std::string kBytes = "=[]#,.@:/- \n\tax0159";
    std::vector<std::string> lines = SplitLines(text);
    const std::size_t op = Pick(8);
    switch (op) {
      case 0:
      case 1:
      case 2:
        return EditBytes(op, std::move(text), kBytes);
      case 3:  // duplicate a line
        if (!lines.empty()) {
          const std::string line = PickFrom(lines);
          lines.insert(lines.begin() + Pick(lines.size()), line);
        }
        break;
      case 4:  // swap two lines
        if (lines.size() > 1) {
          std::swap(lines[Pick(lines.size())], lines[Pick(lines.size())]);
        }
        break;
      case 5:  // a known key with a dictionary value
        lines.insert(lines.begin() + Pick(lines.size() + 1),
                     PickFrom(keys_) + " = " + PickFrom(kValues));
        break;
      case 6: {  // an override token as a spec line
        std::string token = PickFrom(kOverrideTokens);
        token.replace(token.find('='), 1, " = ");
        lines.insert(lines.begin() + Pick(lines.size() + 1), token);
        break;
      }
      default:  // a section header
        lines.insert(lines.begin() + Pick(lines.size() + 1),
                     PickFrom(std::vector<std::string>{
                         "[sweep]", "[topology]", "[output]", "[run]", "[]",
                         "[sweep", "[scenario]"}));
        break;
    }
    std::string out;
    for (const std::string& line : lines) out += line + "\n";
    return out;
  }

  /// One random edit of a trace: a byte change, a line shuffle, a field
  /// replaced by a dictionary value, or a field added or removed.
  std::string MutateTrace(std::string text) {
    static const std::string kBytes = ",.#-+e \n\t0159";
    std::vector<std::string> lines = SplitLines(text);
    const std::size_t op = Pick(7);
    switch (op) {
      case 0:
      case 1:
      case 2:
        return EditBytes(op, std::move(text), kBytes);
      case 3:  // duplicate, swap or drop lines
        if (lines.size() > 1) {
          const std::size_t a = Pick(lines.size());
          const std::size_t b = Pick(lines.size());
          switch (Pick(3)) {
            case 0: lines.insert(lines.begin() + a, lines[b]); break;
            case 1: std::swap(lines[a], lines[b]); break;
            default: lines.erase(lines.begin() + a); break;
          }
        }
        break;
      default: {  // one field of one line
        if (lines.empty()) break;
        std::string& line = lines[Pick(lines.size())];
        std::vector<std::string> fields;
        std::istringstream in(line);
        for (std::string f; std::getline(in, f, ',');) fields.push_back(f);
        if (fields.empty()) fields.emplace_back();
        const std::size_t at = Pick(fields.size());
        switch (Pick(4)) {
          case 0:
            fields.erase(fields.begin() + at);
            break;
          case 1:
            fields.insert(fields.begin() + at, PickFrom(kTraceValues));
            break;
          default:
            fields[at] = PickFrom(kTraceValues);
            break;
        }
        line.clear();
        for (std::size_t i = 0; i < fields.size(); ++i) {
          line += (i == 0 ? "" : ",") + fields[i];
        }
        break;
      }
    }
    std::string out;
    for (const std::string& line : lines) out += line + "\n";
    return out;
  }

  std::vector<std::string> Tokens() {
    std::vector<std::string> tokens;
    for (std::size_t n = Pick(3); n > 0; --n) {
      std::string token = Pick(2) == 0
                              ? PickFrom(kOverrideTokens)
                              : PickFrom(keys_) + "=" + PickFrom(kValues);
      if (Pick(4) == 0) token = Mutate(token);
      if (!token.empty() && token.back() == '\n') token.pop_back();
      tokens.push_back(token);
    }
    return tokens;
  }

 private:
  static std::vector<std::string> SplitLines(const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  }

  std::mt19937_64 rng_;
  std::vector<std::string> keys_;
};

/// Text round trip of an accepted spec: parsing SpecToText's output must
/// reproduce the same text.
void ExpectRoundTrip(const ExperimentSpec& spec, const std::string& input) {
  const std::string text = SpecToText(spec);
  ExperimentSpec reparsed;
  try {
    reparsed = ParseSpecText(text, "<round-trip>");
  } catch (const SpecError& e) {
    ADD_FAILURE() << "SpecToText output does not parse: " << e.what()
                  << "\n--- input ---\n"
                  << input << "\n--- text ---\n"
                  << text;
    return;
  }
  EXPECT_EQ(SpecToText(reparsed), text) << "--- input ---\n" << input;
}

TEST(SpecFuzzTest, MutatedSpecsParseOrFailWithSpecError) {
  const std::vector<std::string> seeds = CommittedSpecTexts();
  ASSERT_FALSE(seeds.empty());
  Fuzzer fuzz;
  int accepted = 0;
  int expanded = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::string text = fuzz.PickFrom(seeds);
    for (std::size_t n = 1 + fuzz.Pick(4); n > 0; --n) {
      text = fuzz.Mutate(text);
    }
    const std::vector<std::string> tokens = fuzz.Tokens();
    std::string input = text;
    for (const std::string& token : tokens) {
      input += "# override " + token + "\n";
    }
    try {
      ExperimentSpec spec = ParseSpecText(text, "<fuzz>");
      ApplySpecOverrides(spec, tokens);
      ValidateSpec(spec);
      ++accepted;
      ExpectRoundTrip(spec, input);
      std::size_t points = 1;
      for (const SweepAxis& axis : spec.sweep) points *= axis.values.size();
      if (points > kMaxExpandedPoints) continue;
      const std::vector<ExperimentSpec> expanded_points = ExpandSweep(spec);
      EXPECT_EQ(expanded_points.size(), points) << input;
      for (const ExperimentSpec& point : expanded_points) {
        ExpectRoundTrip(point, input);
      }
      ++expanded;
    } catch (const SpecError&) {
      // The one allowed failure.
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-SpecError exception: " << e.what()
                    << "\n--- input ---\n" << input;
    }
    if (HasFailure()) break;  // one reproducer is enough
  }
  // The mutations must leave enough inputs valid to exercise the round trip
  // and the expansion, not only the error paths.
  EXPECT_GT(accepted, kIterations / 10);
  EXPECT_GT(expanded, kIterations / 20);
}

TEST(TraceFuzzTest, MutatedTraceRowsYieldFlowsOrARowError) {
  const std::vector<std::string> seeds =
      CommittedTexts(FNCC_SOURCE_DIR "/specs/traces", ".csv");
  ASSERT_FALSE(seeds.empty());
  const std::vector<NodeId> hosts = {10, 11, 12, 13};
  const std::string path = ::testing::TempDir() + "fncc_trace_fuzz_" +
                           std::to_string(::getpid()) + ".csv";
  Fuzzer fuzz;
  int complete = 0;
  int rejected = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::string text = fuzz.PickFrom(seeds);
    for (std::size_t n = 1 + fuzz.Pick(4); n > 0; --n) {
      text = fuzz.MutateTrace(text);
    }
    // A fresh file each time: truncating one that holds unflushed data
    // makes ext4 flush it first (auto_da_alloc), ~1.5 ms per input.
    std::filesystem::remove(path);
    std::ofstream(path) << text;
    try {
      TraceFlowSource source(path, hosts, 10'000);
      GeneratedFlow flow;
      Time prev_start = 0;
      std::uint64_t rows = 0;
      while (source.Next(&flow)) {
        ++rows;
        EXPECT_EQ(flow.spec.id, rows);
        EXPECT_NE(flow.spec.src, flow.spec.dst);
        for (const NodeId node : {flow.spec.src, flow.spec.dst}) {
          EXPECT_TRUE(node >= hosts.front() && node <= hosts.back()) << node;
        }
        EXPECT_GT(flow.spec.size_bytes, 0u);
        EXPECT_GE(flow.spec.start_time, prev_start);
        prev_start = flow.spec.start_time;
      }
      EXPECT_EQ(source.rows_read(), rows);
      ++complete;
    } catch (const std::invalid_argument& e) {
      // The one allowed failure: a row error naming the file (and the
      // line, unless the file has no flow rows at all).
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("trace " + path + ":", 0), 0u) << what;
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-row-error exception: " << e.what();
    }
    if (HasFailure()) {
      ADD_FAILURE() << "--- input ---\n" << text;
      break;  // one reproducer is enough
    }
  }
  std::filesystem::remove(path);
  // Both outcomes must be exercised, not only the error paths.
  EXPECT_GT(complete, kIterations / 10);
  EXPECT_GT(rejected, kIterations / 10);
}

}  // namespace
}  // namespace fncc
