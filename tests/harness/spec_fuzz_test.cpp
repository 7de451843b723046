// Seeded, bounded mutation fuzzing of the spec parser. Inputs are the
// committed specs/*.exp texts and sweep/override tokens, mutated byte- and
// line-wise with a fixed seed. Every input must either parse or throw
// SpecError (never another exception, never a crash), and every accepted
// spec must survive the manifest's SpecToText -> ParseSpecText round trip
// byte for byte, expanded sweep points included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment_spec.hpp"

namespace fncc {
namespace {

constexpr std::uint64_t kSeed = 0x5eed;
constexpr int kIterations = 3000;
// ExpandSweep copies the spec once per point; keep the fuzzed products
// small enough that the whole test stays well under a second.
constexpr std::size_t kMaxExpandedPoints = 64;

/// The committed specs, in path order so the fuzz sequence is fixed.
std::vector<std::string> CommittedSpecTexts() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(FNCC_SOURCE_DIR "/specs")) {
    if (entry.path().extension() == ".exp") paths.push_back(entry.path());
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

/// Every `section.key` SpecToText writes for a spec with every optional
/// field set, so the fuzzer can splice real keys.
std::vector<std::string> KnownKeys() {
  ExperimentSpec spec;
  spec.wl.trace_file = "t.csv";
  spec.run.launch_window = 1;
  spec.output.fct_csv = spec.output.timeseries_csv = "x.csv";
  spec.output.manifest = "m.json";
  spec.output.buckets = "web_search";
  spec.output.stream_fct = spec.output.pdes_stats = true;
  std::vector<std::string> keys;
  std::istringstream in(SpecToText(spec));
  std::string line;
  std::string section;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.front() == '[') {
      section = line.substr(1, line.size() - 2);
      continue;
    }
    const std::string key = line.substr(0, line.find(" = "));
    keys.push_back(section.empty() ? key : section + "." + key);
  }
  return keys;
}

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

  /// One random edit: a byte change, a line shuffle or a dictionary splice.
  std::string Mutate(std::string text) {
    static const std::string kBytes = "=[]#,.@:/- \n\tax0159";
    std::vector<std::string> lines = SplitLines(text);
    switch (Pick(8)) {
      case 0:  // delete a byte range
        if (!text.empty()) {
          const std::size_t at = Pick(text.size());
          text.erase(at, 1 + Pick(8));
        }
        return text;
      case 1:  // insert a syntax byte
        text.insert(Pick(text.size() + 1), 1, kBytes[Pick(kBytes.size())]);
        return text;
      case 2:  // flip a byte
        if (!text.empty()) {
          text[Pick(text.size())] ^= static_cast<char>(1 + Pick(127));
        }
        return text;
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

}  // namespace
}  // namespace fncc
