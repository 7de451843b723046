// Helpers for the bench program a spec cannot express (the fig12
// closed-form model): a banner per table plus paper-vs-measured summary
// lines.
#pragma once

#include <cstdio>
#include <string>

namespace fncc::bench {

inline void Banner(const char* title) {
  std::printf("==== %s ====\n", title);
}

/// One paper-vs-measured comparison row.
inline void PaperVsMeasured(const char* figure, const char* metric,
                            const char* paper, const std::string& measured) {
  std::printf("compare,%s,%s,paper=%s,measured=%s\n", figure, metric, paper,
              measured.c_str());
}

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

}  // namespace fncc::bench
