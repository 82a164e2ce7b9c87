// Host speed index. The benchmark's host shares its cores and caches
// with other tenants, and for minutes at a time it runs the same code
// 30-60% slower: long enough to cover whole runs, so repeating work
// inside a run cannot average it out. Between the timed repetitions of
// a workload, HostProbe times two fixed kernels of the benchmark's own,
// a dependent integer chain (the core's clock) and a pointer chase
// through 8 MiB (the shared cache the tenants contend for), and compares
// each with its time on the reference machine. The end-to-end times are
// divided by the run's index (rates multiplied), which scales them to the
// reference machine's speed. The kernels share no code with moldsched,
// so a change to the library moves the figures by its full amount.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class HostProbe {
 public:
  /// With `round_trips`, a third kernel times one-byte round trips
  /// between two threads over a socket pair, for workloads whose
  /// requests hop between threads.
  explicit HostProbe(bool round_trips);

  /// Times the kernels once (30-45 ms) and records the geometric mean of
  /// their times over their reference times.
  void sample();

  /// Median of the recorded samples: about 1 on the quiet reference
  /// machine, above 1 on a slower host. Throws when nothing was sampled.
  [[nodiscard]] double index() const;
  [[nodiscard]] std::size_t samples() const noexcept {
    return indices_.size();
  }

 private:
  std::vector<std::uint32_t> next_;  ///< one cycle through 8 MiB
  std::uint64_t sink_ = 0;           ///< keeps the chase's result live
  bool round_trips_;
  std::vector<double> indices_;
};

/// Detail text of a scaled figure: the wall-clock value it was scaled
/// from, then `detail`.
[[nodiscard]] std::string wall_clock(double value, const std::string& unit,
                                     const std::string& detail);

}  // namespace perfbench
