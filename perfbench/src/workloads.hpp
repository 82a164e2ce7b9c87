// The workloads. Each runs in one of two modes:
//   - untraced: set up, then measure for the run's seconds and report the
//     end-to-end metrics;
//   - traced: set up, run a quarter of the time untraced and a quarter
//     with spans recorded at every layer boundary (obs.trace_overhead_frac
//     compares the two), then replay the run's inputs through each layer's
//     public functions, run the complexity sweeps and report the
//     per-layer metrics.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< where a traced run writes its spans
};

/// Number of times each workload repeats its set-up; setup_s is the
/// median.
inline constexpr int kSetupRepeats = 15;

/// Detail of release_p99_ms, which every run prints but which is not one
/// of the benchmark's metrics: a p99 is set by stalls of the host as much
/// as by its speed, and neither the host index nor the lowest round held
/// it steady from run to run, so it is reported as measured, for reading.
inline constexpr const char* kTailNote =
    "as measured, not scaled; printed only, not a benchmark metric";

void run_batch_wide(const RunOptions& opt, Report& report);
void run_serve_long(const RunOptions& opt, Report& report);

}  // namespace perfbench
