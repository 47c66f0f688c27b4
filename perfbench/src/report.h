#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// Command-line parsing and the result line shared by both benchmark modes.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
};

// Parses --workload NAME --seed N --seconds S (--trace is the caller's).
inline bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      out->workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      out->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      out->seconds = std::strtod(value, &end);
      if (*end != '\0' || out->seconds <= 0 || out->seconds > 120) {
        return false;
      }
    } else if (std::strcmp(flag, "--trace") != 0) {
      return false;
    }
  }
  return !out->workload.empty() && argc % 2 == 1;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
inline void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
