#include "layers.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>

#include "inputs.hpp"
#include "moldsched/analysis/bounds.hpp"
#include "moldsched/core/allocator.hpp"
#include "moldsched/graph/generators.hpp"
#include "moldsched/model/sampler.hpp"
#include "moldsched/obs/metrics.hpp"
#include "moldsched/sched/registry.hpp"
#include "moldsched/sim/event_queue.hpp"
#include "moldsched/svc/protocol.hpp"
#include "moldsched/svc/session.hpp"
#include "moldsched/svc/wire.hpp"
#include "moldsched/util/rng.hpp"
#include "serve.hpp"

namespace perfbench {

namespace analysis = moldsched::analysis;
namespace sched = moldsched::sched;
namespace sim = moldsched::sim;
namespace svc = moldsched::svc;
namespace obs = moldsched::obs;

namespace {

double ns_since(Clock::time_point a) {
  return std::chrono::duration<double, std::nano>(Clock::now() - a).count();
}

/// Runs `body` `reps` times and returns the mean wall time of one run in
/// nanoseconds.
template <typename F>
double mean_ns(int reps, F&& body) {
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) body();
  return ns_since(t0) / reps;
}

/// Keeps the replayed results observable, so the timed calls are not
/// optimized away.
volatile double sink_out = 0.0;

/// Enough repetitions of a `calls`-call loop to time about 2e5 calls.
int reps_for(double calls) {
  return std::max(1, static_cast<int>(2e5 / std::max(calls, 1.0)));
}

}  // namespace

double queue_len_mean(const core::ScheduleResult& r) {
  const auto& records = r.trace.records();
  if (records.empty()) return 0.0;
  std::vector<double> ready = r.ready_time;
  std::sort(ready.begin(), ready.end());
  // Records are in start order, so the ones before index i started
  // earlier or at the same instant.
  double total = 0.0;
  std::size_t ready_upto = 0;
  std::size_t started_before = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const double s = records[i].start;
    while (ready_upto < ready.size() && ready[ready_upto] <= s) ++ready_upto;
    while (started_before < i && records[started_before].start < s)
      ++started_before;
    total += static_cast<double>(ready_upto - started_before);
  }
  return total / static_cast<double>(records.size());
}

void replay_core_layers(const std::vector<ScheduledGraph>& runs,
                        bool cold_alloc, Report& report) {
  const sched::SchedulerSpec spec = sched::spec_by_name(kSpec, kMu);
  auto& process_cache = *core::DecisionCache::process_wide();
  double tasks = 0.0, events = 0.0, queue_len = 0.0;
  for (const auto& run : runs) {
    tasks += run.graph->num_tasks();
    events += static_cast<double>(run.result->num_events);
    queue_len += queue_len_mean(*run.result);
  }
  const int reps = reps_for(tasks);

  // graph: TaskGraph::validate, run by every OnlineScheduler constructor.
  const double validate_ns = mean_ns(reps, [&] {
    for (const auto& run : runs) run.graph->validate();
  });

  // model: one SpeedupModel::time call per started task, at its allocation.
  double sink = 0.0;
  const double time_ns = mean_ns(reps, [&] {
    for (const auto& run : runs)
      for (graph::TaskId v = 0; v < run.graph->num_tasks(); ++v)
        sink += run.graph->model_of(v).time(
            run.result->allocation[static_cast<std::size_t>(v)]);
  });

  // core: Algorithm 2 through a fresh cache (first pass misses, later
  // passes hit), checked against the run's allocations.
  const core::LpaAllocator lpa(kMu);
  auto cache = std::make_shared<core::DecisionCache>(std::max<std::size_t>(
      core::DecisionCache::kDefaultCapacity, static_cast<std::size_t>(tasks)));
  const core::CachingAllocator cached(lpa, cache);
  bool alloc_ok = true;
  const auto allocate_all = [&] {
    for (const auto& run : runs)
      for (graph::TaskId v = 0; v < run.graph->num_tasks(); ++v)
        alloc_ok &= cached.allocate(run.graph->model_of(v), run.P) ==
                    run.result->allocation[static_cast<std::size_t>(v)];
  };
  const double cold_ns = mean_ns(1, allocate_all);
  const double warm_ns = mean_ns(reps, allocate_all);
  report.op(alloc_ok, "allocator replay");
  if (!alloc_ok) report.mismatch("replayed allocation differs from the run");

  // core: the whole Algorithm 1 engine, with the workload's cache state.
  double schedule_ns = 0.0;
  bool same = true;
  for (const auto& run : runs) {
    if (cold_alloc) process_cache.clear();
    const auto t0 = Clock::now();
    const auto r = core::schedule_online(*run.graph, run.P, *spec.allocator,
                                         spec.policy);
    schedule_ns += ns_since(t0);
    same &= r.makespan == run.result->makespan;
  }
  report.op(same, "schedule replay");
  if (!same) report.mismatch("replayed schedule differs from the run");

  // sched: SchedulerSpec::run on the prefixes a session re-runs.
  double spec_ns = 0.0, spec_tasks = 0.0;
  for (const auto& run : runs) {
    const int n = run.graph->num_tasks();
    std::vector<int> sizes = {n};
    if (n <= 10000) sizes = {n / 4, n / 2, 3 * n / 4, n};
    for (const int k : sizes) {
      if (k < 1) continue;
      const graph::TaskGraph prefix = prefix_graph(*run.graph, k);
      if (cold_alloc) process_cache.clear();
      const auto t0 = Clock::now();
      (void)spec.run(prefix, run.P);
      spec_ns += ns_since(t0);
      spec_tasks += k;
    }
  }

  // sim: the event heap, replaying the run's end times in start order
  // (completions at an instant pop before the starts made at it).
  std::vector<sim::Event> batch;
  const double queue_ns = mean_ns(reps, [&] {
    for (const auto& run : runs) {
      sim::EventQueue q;
      q.reserve(run.result->trace.num_records());
      for (const auto& rec : run.result->trace.records()) {
        while (!q.empty() && q.next_time() <= rec.start)
          q.pop_simultaneous_into(batch);
        q.schedule(rec.end, rec.task);
      }
      while (!q.empty()) q.pop_simultaneous_into(batch);
    }
  });

  // sim: trace recording, replaying the run's starts and ends in time
  // order (ends first at equal instants, as the engine records them).
  struct TraceOp {
    double time;
    int kind;  // 0 = end, 1 = start
    std::size_t order;
    int task;
    int procs;
  };
  std::vector<std::vector<TraceOp>> ops(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& records = runs[i].result->trace.records();
    for (std::size_t k = 0; k < records.size(); ++k) {
      ops[i].push_back({records[k].start, 1, k, records[k].task,
                        records[k].procs});
      ops[i].push_back({records[k].end, 0, k, records[k].task, 0});
    }
    std::sort(ops[i].begin(), ops[i].end(), [](const auto& a, const auto& b) {
      return std::tie(a.time, a.kind, a.order) <
             std::tie(b.time, b.kind, b.order);
    });
  }
  const double trace_ns = mean_ns(reps, [&] {
    for (const auto& list : ops) {
      sim::Trace t;
      for (const auto& op : list) {
        if (op.kind == 1)
          t.record_start(op.task, op.time, op.procs);
        else
          t.record_end(op.task, op.time);
      }
    }
  });

  // analysis: the Lemma 2 bound a close reply carries.
  const double bound_ns = mean_ns(reps, [&] {
    for (const auto& run : runs)
      sink += analysis::optimal_makespan_lower_bound(*run.graph, run.P);
  });
  sink_out = sink;

  const double per_task_alloc = (cold_alloc ? cold_ns : warm_ns) / tasks;
  const double events_per_task = events / tasks;
  const double eq_per_event = queue_ns / events;
  report.metric("graph.validate_ns_per_task", validate_ns / tasks, "ns");
  report.metric("model.time_ns", time_ns / tasks, "ns");
  report.metric("core.alloc_cold_ns", cold_ns / tasks, "ns");
  report.metric("core.alloc_warm_ns", warm_ns / tasks, "ns");
  report.metric("core.schedule_ns_per_task", schedule_ns / tasks, "ns");
  report.metric("core.queue_ns_per_task",
                schedule_ns / tasks - per_task_alloc -
                    events_per_task * eq_per_event - trace_ns / tasks -
                    validate_ns / tasks - time_ns / tasks,
                "ns",
                "schedule minus allocator, event heap, trace, validate, "
                "model.time");
  report.metric("core.queue_len_mean", queue_len / static_cast<double>(runs.size()),
                "tasks");
  report.metric("sim.events_per_task", events_per_task, "count");
  report.metric("sim.event_queue_ns_per_event", eq_per_event, "ns");
  report.metric("sim.trace_ns_per_task", trace_ns / tasks, "ns");
  report.metric("analysis.lower_bound_ns_per_task", bound_ns / tasks, "ns");
  report.metric("sched.spec_run_ns_per_task", spec_ns / spec_tasks, "ns");
}

namespace {

/// Percentile of an unsorted sample; 0 when the sample is too small to
/// report it.
double tail_or_zero(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto r = nearest_rank(v, q);
  return r ? r->value : 0.0;
}

}  // namespace

void replay_session_layers(const std::vector<const graph::TaskGraph*>& sessions,
                           int P, Report& report) {
  std::vector<double> release_us, close_us, req_json_ns, parse_req_ns,
      reply_json_ns, parse_reply_ns, frame_bytes;
  double close_json_ns = 0.0, parse_close_ns = 0.0, close_bytes = 0.0,
         tasks = 0.0, releases = 0.0, reschedules = 0.0, schedule_ms = 0.0,
         session_ms = 0.0;
  bool ok = true;
  // Short sessions are replayed again until the release sample can carry
  // a p99 (at least 1 000 releases).
  std::size_t per_pass = 0;
  for (const auto* g : sessions) per_pass += static_cast<std::size_t>(g->num_tasks());
  const std::size_t passes = std::max<std::size_t>(1, (999 + per_pass) / std::max<std::size_t>(per_pass, 1));
  for (std::size_t i = 0; i < passes * sessions.size(); ++i) {
    const graph::TaskGraph& g = *sessions[i % sessions.size()];
    const Reference ref = reference_run(g, P);
    svc::OpenParams open;
    open.scheduler = kSpec;
    open.P = P;
    open.mu = kMu;
    svc::Session session("bench-" + std::to_string(i), open);
    for (graph::TaskId v = 0; v < g.num_tasks(); ++v) {
      svc::ReleaseParams params;
      params.name = g.name(v);
      params.model = g.model_ptr(v);
      for (const graph::TaskId u : g.predecessors(v)) params.preds.push_back(u);
      params.expected_task = v;
      auto t = Clock::now();
      const std::string request =
          svc::release_request_json(session.id(), params, v + 2);
      req_json_ns.push_back(ns_since(t));
      frame_bytes.push_back(static_cast<double>(svc::encode_frame(request).size()));
      t = Clock::now();
      const svc::Request parsed = svc::parse_request(request);
      parse_req_ns.push_back(ns_since(t));
      t = Clock::now();
      svc::ReleaseReply reply = session.release(parsed.release);
      release_us.push_back(ns_since(t) / 1e3);
      reply.seq = v + 2;
      t = Clock::now();
      const std::string reply_json = svc::release_reply_json(reply);
      reply_json_ns.push_back(ns_since(t));
      t = Clock::now();
      const svc::ReleaseReply back = svc::parse_release_reply(reply_json);
      parse_reply_ns.push_back(ns_since(t));
      ok &= back.ok && back.alloc == ref.allocation[static_cast<std::size_t>(v)];
    }
    auto t = Clock::now();
    const svc::CloseReply closed = session.close();
    close_us.push_back(ns_since(t) / 1e3);
    t = Clock::now();
    const std::string close_json = svc::close_reply_json(closed);
    close_json_ns += ns_since(t);
    t = Clock::now();
    const svc::CloseReply back = svc::parse_close_reply(close_json);
    parse_close_ns += ns_since(t);
    close_bytes += static_cast<double>(close_json.size());
    std::string why;
    ok &= close_matches(back, ref, why);
    tasks += g.num_tasks();
    releases += static_cast<double>(closed.stats.releases);
    reschedules += static_cast<double>(closed.stats.reschedules);
    schedule_ms += closed.stats.schedule_ms;
  }
  for (const double us : release_us) session_ms += us / 1e3;
  for (const double us : close_us) session_ms += us / 1e3;
  report.op(ok, "in-process session replay");
  if (!ok) report.mismatch("in-process session differs from the reference");

  const double rel_p50 = tail_or_zero(release_us, 0.50);
  report.metric("svc.session.release_p50_us", rel_p50, "us",
                "n=" + std::to_string(release_us.size()));
  report.metric("svc.session.release_p99_us", tail_or_zero(release_us, 0.99),
                "us", "n=" + std::to_string(release_us.size()));
  report.metric("svc.session.reschedules_per_release", reschedules / releases,
                "count");
  report.metric("svc.session.schedule_share", schedule_ms / session_ms,
                "fraction");
  report.metric("svc.session.close_us", median(close_us), "us");
  report.metric("svc.protocol.release_request_json_ns", mean(req_json_ns), "ns");
  report.metric("svc.protocol.parse_request_ns", mean(parse_req_ns), "ns");
  report.metric("svc.protocol.release_reply_json_ns", mean(reply_json_ns), "ns");
  report.metric("svc.protocol.parse_release_reply_ns", mean(parse_reply_ns),
                "ns");
  report.metric("svc.protocol.close_reply_json_ns_per_task",
                close_json_ns / tasks, "ns");
  report.metric("svc.protocol.parse_close_reply_ns_per_task",
                parse_close_ns / tasks, "ns");
  report.metric("svc.wire.release_frame_bytes", mean(frame_bytes), "bytes");
  report.metric("svc.wire.close_bytes_per_task", close_bytes / tasks, "bytes");
}

namespace {

void width_sweep(std::uint64_t seed, Report& report) {
  constexpr int kTasks = 1 << 16;
  const int widths[] = {1024, 4096, 16384};
  const sched::SchedulerSpec spec = sched::spec_by_name(kSpec, kMu);
  std::vector<double> x, y;
  for (const int width : widths) {
    const moldsched::model::ModelSampler sampler(
        moldsched::model::ModelKind::kGeneral);
    moldsched::util::Rng rng(stream_seed(seed, 7));
    const graph::TaskGraph g = graph::layered_uniform(
        kTasks / width, width, kBatchDegree, stream_seed(seed, 8),
        graph::sampling_provider(sampler, rng, kBatchP));
    (void)spec.run(g, kBatchP);  // warms the decision cache
    const auto t0 = Clock::now();
    (void)spec.run(g, kBatchP);
    const double ns = ns_since(t0) / kTasks;
    x.push_back(width);
    y.push_back(ns);
    report.note("core.schedule_ns_per_task@width" + std::to_string(width), ns,
                "ns", "n=" + std::to_string(kTasks) + ", warm cache");
  }
  report.metric("core.width_slope", loglog_slope(x, y), "slope",
                "ns/task vs ready-set width 1024..16384");
}

void session_length_sweep(std::uint64_t seed, Report& report) {
  constexpr int kWidth = 125;
  const int layers[] = {4, 8, 16, 32};  // 500 .. 4 000 tasks
  std::vector<double> x, y;
  for (const int l : layers) {
    const graph::TaskGraph g =
        make_layered_session(stream_seed(seed, 9), l, kWidth);
    svc::OpenParams open;
    open.scheduler = kSpec;
    open.P = kLongP;
    open.mu = kMu;
    svc::Session session("sweep", open);
    const auto t0 = Clock::now();
    for (graph::TaskId v = 0; v < g.num_tasks(); ++v) {
      svc::ReleaseParams params;
      params.model = g.model_ptr(v);
      for (const graph::TaskId u : g.predecessors(v)) params.preds.push_back(u);
      (void)session.release(params);
    }
    const double us = ns_since(t0) / 1e3 / g.num_tasks();
    x.push_back(g.num_tasks());
    y.push_back(us);
    report.note("svc.session.release_us@len" + std::to_string(g.num_tasks()),
                us, "us", "mean over the session");
  }
  report.metric("svc.session.release_len_slope", loglog_slope(x, y), "slope",
                "mean release cost vs session length 500..4000");
}

}  // namespace

void finish_traced_run(std::uint64_t seed, const std::string& trace_path,
                       const Tracer& tracer, Report& report) {
  const auto build = tracer.total("graph.build");
  report.metric("graph.build_ns_per_task", 1e3 * build.us / build.count, "ns");
  width_sweep(seed, report);
  session_length_sweep(seed, report);
  if (!trace_path.empty() && !tracer.write_jsonl(trace_path))
    report.op(false, "write " + trace_path);
}

double hit_rate(const CounterDelta& d) {
  const double lookups = d.cache_hits + d.cache_misses;
  return lookups > 0 ? d.cache_hits / lookups : 0.0;
}

CounterDelta read_counters() {
  auto& reg = obs::default_registry();
  const auto& cache = *core::DecisionCache::process_wide();
  return CounterDelta{
      static_cast<double>(reg.counter("engine.executor.pops").value()),
      static_cast<double>(reg.counter("engine.executor.steals").value()),
      static_cast<double>(cache.hits()), static_cast<double>(cache.misses())};
}

CounterDelta operator-(const CounterDelta& a, const CounterDelta& b) {
  return CounterDelta{a.executor_pops - b.executor_pops,
                      a.executor_steals - b.executor_steals,
                      a.cache_hits - b.cache_hits,
                      a.cache_misses - b.cache_misses};
}

void server_layers(const obs::MetricRegistry& registry, double client_p50_ms,
                   const CounterDelta& delta, Report& report) {
  std::map<std::string, obs::MetricSample> m;
  for (auto& s : registry.snapshot()) m[s.name] = s;
  const auto sum = [&](const std::string& name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second.sum;
  };
  const auto value = [&](const std::string& name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second.value;
  };
  const double total = sum("svc.request.latency_ms");
  for (const char* phase : {"queue", "parse", "schedule", "serialize", "write"})
    report.metric(std::string("svc.server.") + phase + "_share",
                  total > 0 ? sum(std::string("svc.phase.") + phase + "_ms") /
                                  total
                            : 0.0,
                  "fraction", "of summed server latency");
  const auto q = m.find("svc.phase.queue_ms");
  report.metric("svc.server.queue_ms_p99",
                q == m.end() ? 0.0 : obs::sample_quantile(q->second, 0.99),
                "ms");
  const double received = value("svc.requests.received");
  // The fixture's admission limits are set so that nothing is refused;
  // a refusal would also count in fail_frac.
  report.note("svc.server.rejected_frac",
              received > 0 ? value("svc.rejected.overloaded") / received : 0.0,
              "fraction");
  const auto lat = m.find("svc.request.latency_ms");
  const double server_p50 =
      lat == m.end() ? 0.0 : obs::sample_quantile(lat->second, 0.50);
  report.metric("svc.client.overhead_ms_p50", client_p50_ms - server_p50, "ms",
                "client p50 minus server p50");
  const double taken = delta.executor_pops + delta.executor_steals;
  report.metric("engine.executor.steal_frac",
                taken > 0 ? delta.executor_steals / taken : 0.0, "fraction",
                "steals over own-deque pops plus steals");
}

}  // namespace perfbench
