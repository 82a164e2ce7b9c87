// Per-layer measurements of a traced run. Layers that cannot be timed in
// isolation while the workload runs (the allocator, the event heap, trace
// recording) are timed by replaying the exact inputs the run produced —
// its models, its end times, its trace records — through their public
// functions. Nothing here instruments the library itself.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "moldsched/core/online_scheduler.hpp"
#include "moldsched/graph/task_graph.hpp"
#include "moldsched/obs/metrics.hpp"

namespace perfbench {

namespace core = moldsched::core;
namespace graph = moldsched::graph;

/// Mean number of tasks waiting in Q when a task starts, from the ready
/// times and trace starts of one schedule. The waiting count at a start
/// instant s is #{ready <= s} - #{started before s}.
[[nodiscard]] double queue_len_mean(const core::ScheduleResult& r);

/// One schedule the workload produced, replayed layer by layer.
struct ScheduledGraph {
  const graph::TaskGraph* graph = nullptr;
  int P = 0;
  const core::ScheduleResult* result = nullptr;
};

/// graph, model, core, sim, analysis and sched layers on the workload's
/// own graphs and schedules. `cold_alloc` says whether the workload's
/// Algorithm 2 decisions are cache misses (batch) or hits (serving); the
/// queue remainder subtracts the matching allocator cost.
void replay_core_layers(const std::vector<ScheduledGraph>& runs,
                        bool cold_alloc, Report& report);

/// svc.session, svc.protocol and svc.wire on the given session graphs,
/// in process and without sockets.
void replay_session_layers(const std::vector<const graph::TaskGraph*>& sessions,
                           int P, Report& report);

/// What every traced run ends with: graph.build_ns_per_task from the
/// run's "graph.build" spans (count = tasks built); the complexity sweeps,
/// core.width_slope (schedule cost per task at three ready-set widths and
/// a fixed task count) and svc.session.release_len_slope (mean
/// Session::release cost at four session lengths); then the spans are
/// written to `trace_path` unless it is empty.
void finish_traced_run(std::uint64_t seed, const std::string& trace_path,
                       const Tracer& tracer, Report& report);

/// Counter deltas of the process-wide registry over one pass.
struct CounterDelta {
  double executor_pops = 0.0;
  double executor_steals = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
};
/// Reads the counters the delta is taken over.
[[nodiscard]] CounterDelta read_counters();
[[nodiscard]] CounterDelta operator-(const CounterDelta& a,
                                     const CounterDelta& b);
/// Decision-cache hits over lookups in a delta; 0 without lookups.
[[nodiscard]] double hit_rate(const CounterDelta& d);

/// svc.server.* from a server's private registry (phase histograms armed),
/// svc.client.overhead_ms_p50 and engine.executor.steal_frac.
void server_layers(const moldsched::obs::MetricRegistry& registry,
                   double client_p50_ms, const CounterDelta& delta,
                   Report& report);

}  // namespace perfbench
