// Shared pieces of the benchmark: clocks, nearest-rank percentiles, core
// counts, the result report (human-readable lines plus the final JSON
// line) and the in-memory span recorder used by traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Minimum number of samples that must lie beyond a tail percentile's
/// rank before the percentile is reported.
inline constexpr std::size_t kMinBeyond = 10;

/// A nearest-rank percentile together with its sample count.
struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;  ///< size of the sample
  std::size_t beyond = 0;   ///< samples ranked strictly above `value`
};

/// Nearest-rank percentile of an ascending sample: the ceil(q n)-th
/// smallest value (1-based). nullopt when fewer than `min_beyond` samples
/// rank above it, so a p99 needs at least 100 * min_beyond samples.
[[nodiscard]] std::optional<Quantile> nearest_rank(
    const std::vector<double>& sorted, double q,
    std::size_t min_beyond = kMinBeyond);

/// Median of an unsorted sample (mean of the middle pair for even sizes);
/// 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

[[nodiscard]] double mean(const std::vector<double>& v);

/// Slope of the least-squares line through (log x, log y).
[[nodiscard]] double loglog_slope(const std::vector<double>& x,
                                  const std::vector<double>& y);

/// Lifetime peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mib();

/// Collects the metrics of one run. Every metric and note is printed as a
/// human-readable line; the metrics also go into the final JSON line, the
/// benchmark's machine-readable result.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& detail = "");
  /// Human-readable only: input properties and figures the result line
  /// does not carry.
  void note(const std::string& name, double value, const std::string& unit,
            const std::string& detail = "");
  /// Counts one attempted operation; `ok == false` also counts a failure.
  void op(bool ok, const std::string& what = "");
  void ops(std::uint64_t attempted, std::uint64_t failed,
           const std::string& what = "");
  /// Records what a failed op got wrong and marks the run incorrect; the
  /// failure itself is counted by op() or ops().
  void mismatch(const std::string& what);

  [[nodiscard]] bool correct() const noexcept { return mismatches_ == 0; }

  /// Prints every line, then the JSON result as the last line.
  void print(std::ostream& out) const;

 private:
  struct Line {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string detail;
    bool json = false;
  };
  std::vector<Line> lines_;
  std::vector<std::string> problems_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t mismatches_ = 0;
};

/// Cores the load shapes are written for: client threads, the server's
/// I/O thread and its executor workers add up to this many.
inline constexpr unsigned kLoadShapeCpus = 4;

/// Executor workers that fit beside `clients` client threads and the
/// server's I/O thread on the host's cores (at most kLoadShapeCpus of
/// them), and at least one. Notes on `report` when the host has fewer
/// cores than the load shape, so that the threads exceed them.
[[nodiscard]] unsigned server_workers(unsigned clients, Report& report);

/// Shortest decimal text that reads back as the same double.
[[nodiscard]] std::string number(double v);

/// One recorded span: a timed call into a layer, made from the benchmark.
struct Span {
  std::string name;
  std::uint64_t id = 0;   ///< shared by the spans of one request or session
  int parent = -1;        ///< index of the enclosing span, -1 for a root
  double start_us = 0.0;  ///< since the recorder was created
  double end_us = 0.0;
  double count = 0.0;     ///< work count at this boundary (tasks, bytes...)
};

/// In-memory span recorder. Spans are appended under a mutex and written
/// out once, when the run ends. A disabled recorder records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  [[nodiscard]] double to_us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  /// Records a finished span and returns its index (-1 when disabled).
  int add(const std::string& name, std::uint64_t id, int parent,
          double start_us, double end_us, double count = 0.0);
  /// Opens a span whose end is filled in by close().
  int open(const std::string& name, std::uint64_t id, int parent = -1);
  void close(int index, double count = 0.0);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Sum of durations and of counts over spans called `name`.
  struct Total {
    std::size_t spans = 0;
    double us = 0.0;
    double count = 0.0;
  };
  [[nodiscard]] Total total(const std::string& name) const;
  /// One JSON object per span and line. Returns false on a write error.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span over a scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, std::uint64_t id,
             int parent = -1)
      : tracer_(tracer), index_(tracer.open(name, id, parent)) {}
  ~ScopedSpan() { tracer_.close(index_, count_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_count(double c) noexcept { count_ = c; }

 private:
  Tracer& tracer_;
  int index_;
  double count_ = 0.0;
};

}  // namespace perfbench
