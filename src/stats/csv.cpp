#include "stats/csv.hpp"

#include <cstdio>
#include <memory>

#include "stats/fct_sink.hpp"

namespace fncc {

namespace {
struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;
}  // namespace

bool WriteTimeSeriesCsv(
    const std::string& path,
    const std::vector<std::pair<std::string, const TimeSeries*>>& series) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (!f) return false;
  std::fprintf(f.get(), "label,time_us,value\n");
  for (const auto& [label, ts] : series) {
    for (const auto& s : ts->samples()) {
      std::fprintf(f.get(), "%s,%.3f,%.6f\n", label.c_str(),
                   ToMicroseconds(s.t), s.value);
    }
  }
  return true;
}

bool WriteFctCsv(const std::string& path, const FctRecorder& recorder) {
  // One formatting path: replay the retained records through the streaming
  // sink (stats/fct_sink.hpp), which owns the row format.
  FctSinkOptions options;
  options.csv_path = path;
  FctSink sink(std::move(options));
  if (!sink.ok()) return false;
  for (const FlowResult& r : recorder.results()) sink.Append(r.spec, r.fct);
  return sink.Finish();
}

}  // namespace fncc
