// CSV export for experiment artifacts: time series and FCT results, in a
// format gnuplot/pandas read directly. Benches print summaries; users who
// want the raw curves write them here.
#pragma once

#include <string>
#include <vector>

#include "stats/fct.hpp"
#include "stats/timeseries.hpp"

namespace fncc {

/// Writes one or more labeled time series as long-format CSV:
/// `label,time_us,value`. Returns false on I/O failure.
bool WriteTimeSeriesCsv(
    const std::string& path,
    const std::vector<std::pair<std::string, const TimeSeries*>>& series);

/// Writes per-flow FCT results: `flow,src,dst,size_bytes,start_us,fct_us,
/// ideal_us,slowdown`.
bool WriteFctCsv(const std::string& path, const FctRecorder& recorder);

}  // namespace fncc
