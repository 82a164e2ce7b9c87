// Tests of the benchmark itself: its percentile rule, its report format,
// the determinism of its inputs and its host speed index.
//
//   python3 perfbench/run.py --test
#include <cmath>
#include <cstdint>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"
#include "moldsched/svc/wire.hpp"
#include "probe.hpp"

namespace {

using namespace perfbench;
namespace svc = moldsched::svc;

int failures = 0;

#define CHECK(cond)                                                        \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ++failures;                                                          \
      std::cerr << __FILE__ << ':' << __LINE__ << ": CHECK failed: " #cond \
                << '\n';                                                   \
    }                                                                      \
  } while (0)

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

void percentile_needs_ten_samples_beyond_it() {
  // 999 samples leave only 9 beyond the p99 rank: not reported.
  CHECK(!nearest_rank(one_to(999), 0.99));
  const auto p99 = nearest_rank(one_to(1000), 0.99);
  CHECK(p99 && p99->value == 990.0 && p99->samples == 1000 &&
        p99->beyond == 10);
  const auto p50 = nearest_rank(one_to(1000), 0.50);
  CHECK(p50 && p50->value == 500.0 && p50->beyond == 500);
  CHECK(!nearest_rank(one_to(3), 0.50));
  const auto small = nearest_rank(one_to(3), 0.50, 0);
  CHECK(small && small->value == 2.0 && small->samples == 3);
  CHECK(!nearest_rank({}, 0.50, 0));
}

void report_prints_sample_counts_and_a_json_last_line() {
  Report r;
  r.metric("release_p99_ms", 1.5, "ms", "n=1000, 10 beyond");
  r.note("input.session_len_p50", 32, "tasks");
  r.op(true);
  std::ostringstream os;
  r.print(os);
  const std::string out = os.str();
  CHECK(out.find("release_p99_ms 1.5 ms  (n=1000, 10 beyond)\n") !=
        std::string::npos);
  const std::string last = out.substr(out.rfind('\n', out.size() - 2) + 1);
  CHECK(last ==
        "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": "
        "{\"release_p99_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}\n");
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  return h;
}

std::uint64_t digest(const std::vector<graph::TaskGraph>& graphs) {
  std::uint64_t h = 0;
  for (const auto& g : graphs) h = h * 31 + fnv1a(svc::encode_graph(g));
  return h;
}

void same_seed_same_inputs() {
  std::vector<graph::TaskGraph> a, b, c;
  a.push_back(make_batch_graph(7));
  b.push_back(make_batch_graph(7));
  c.push_back(make_batch_graph(8));
  CHECK(digest(a) == digest(b));
  CHECK(digest(a) != digest(c));
  CHECK(digest(make_long_sessions(7)) == digest(make_long_sessions(7)));
  CHECK(digest(make_long_sessions(7)) != digest(make_long_sessions(8)));
}

void host_index_is_a_median_of_samples() {
  HostProbe probe(/*round_trips=*/true);
  bool threw = false;
  try {
    (void)probe.index();
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);  // no figure is scaled by an index nobody measured
  for (int i = 0; i < 3; ++i) probe.sample();
  CHECK(probe.samples() == 3);
  CHECK(std::isfinite(probe.index()) && probe.index() > 0.0);
  CHECK(wall_clock(2.5, "ms", "n=10") == "wall clock 2.5 ms; n=10");
}

}  // namespace

int main() {
  percentile_needs_ten_samples_beyond_it();
  report_prints_sample_counts_and_a_json_last_line();
  same_seed_same_inputs();
  host_index_is_a_median_of_samples();
  if (failures > 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench_tests: all checks passed\n";
  return 0;
}
