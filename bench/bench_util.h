#ifndef L2R_BENCH_BENCH_UTIL_H_
#define L2R_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <initializer_list>

#include "common/status.h"

namespace l2r {
namespace bench {

/// Workload scale shared by the reproduction benches. Override with
/// L2R_BENCH_SCALE (e.g. L2R_BENCH_SCALE=1.0 for the full-size
/// workloads; the default keeps every binary in the minutes range).
inline double BenchScale() {
  const char* env = std::getenv("L2R_BENCH_SCALE");
  return env != nullptr ? std::atof(env) : 0.3;
}

inline size_t BenchQueries() {
  const char* env = std::getenv("L2R_BENCH_QUERIES");
  return env != nullptr ? static_cast<size_t>(std::atoll(env)) : 180;
}

/// A paper bench's exit code over its dataset runs: prints each failed
/// run's status to stderr and returns 1 if any failed, else 0.
inline int ExitCode(std::initializer_list<Status> runs) {
  int code = 0;
  for (const Status& status : runs) {
    if (status.ok()) continue;
    std::fprintf(stderr, "build failed: %s\n", status.ToString().c_str());
    code = 1;
  }
  return code;
}

}  // namespace bench
}  // namespace l2r

#endif  // L2R_BENCH_BENCH_UTIL_H_
