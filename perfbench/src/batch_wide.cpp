// batch_wide: one wide layered DAG (~2.5e5 tasks, ready-set width ~16 000,
// degree 2, P = 256) with freshly sampled Eq. (1) models, scheduled by the
// registry `lpa` spec (FIFO, Algorithm 1) on one thread. The decision
// cache is cleared before every iteration, so Algorithm 2 runs cold; no
// svc code runs in the untraced run.
#include <algorithm>
#include <cmath>
#include <memory>

#include "inputs.hpp"
#include "layers.hpp"
#include "moldsched/analysis/bounds.hpp"
#include "moldsched/core/allocator.hpp"
#include "moldsched/obs/observer.hpp"
#include "moldsched/sched/registry.hpp"
#include "moldsched/sim/validator.hpp"
#include "probe.hpp"
#include "serve.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace analysis = moldsched::analysis;
namespace sched = moldsched::sched;
namespace sim = moldsched::sim;

/// Completion-event batches per latency sample. A single batch either
/// skips the queue scan or scans the whole queue, so per-batch times are
/// bimodal and their median jumps between the modes; a sample of 16
/// consecutive batches is not.
constexpr std::size_t kEventsPerSample = 16;

/// Wall time Algorithm 1 spends answering completion events: one sample
/// per kEventsPerSample consecutive on_event_batch callbacks (the first
/// sample also covers the time-0 reveal and scan).
class EventResponseTimer final : public moldsched::obs::Observer {
 public:
  void start() { last_ = Clock::now(); }
  void on_event_batch(double, std::size_t, std::size_t) override {
    ++batches_;
    if (batches_ % kEventsPerSample != 0) return;
    const auto t = Clock::now();
    samples_ms_.push_back(
        std::chrono::duration<double, std::milli>(t - last_).count());
    last_ = t;
  }
  [[nodiscard]] const std::vector<double>& samples_ms() const {
    return samples_ms_;
  }
  [[nodiscard]] std::size_t batches() const noexcept { return batches_; }

 private:
  Clock::time_point last_;
  std::size_t batches_ = 0;
  std::vector<double> samples_ms_;
};

struct BatchPass {
  std::vector<double> schedule_s;  ///< SchedulerSpec::run wall per iteration
  std::vector<double> close_s;     ///< Lemma 2 bound + ratio per iteration
  double lower_bound = 0.0;
  core::ScheduleResult first;      ///< the first iteration's schedule
  CounterDelta counters;
};

/// Schedules `g` until `seconds` have passed (at least `min_iterations`
/// times), each time from a cleared decision cache, and checks every
/// result: the first one validates and sits above the Lemma 2 bound, the
/// later ones repeat its makespan bit for bit. With a probe, samples the
/// host's speed after every iteration.
BatchPass batch_pass(const graph::TaskGraph& g, double seconds,
                     int min_iterations, Tracer* tracer, HostProbe* probe,
                     Report& report) {
  const sched::SchedulerSpec spec = sched::spec_by_name(kSpec, kMu);
  auto& cache = *core::DecisionCache::process_wide();
  BatchPass pass;
  const CounterDelta before = read_counters();
  const auto t0 = Clock::now();
  for (int it = 0;
       it < min_iterations || seconds_between(t0, Clock::now()) < seconds;
       ++it) {
    cache.clear();
    const auto id = static_cast<std::uint64_t>(it);
    const double s0 = tracer ? tracer->now_us() : 0.0;
    const auto a = Clock::now();
    core::ScheduleResult result = spec.run(g, kBatchP);
    const auto b = Clock::now();
    const double lb = analysis::optimal_makespan_lower_bound(g, kBatchP);
    const double ratio = result.makespan / lb;
    const auto c = Clock::now();
    if (tracer) {
      const int root = tracer->add("batch.iteration", id, -1, s0,
                                   tracer->to_us(c), g.num_tasks());
      tracer->add("sched.spec_run", id, root, tracer->to_us(a),
                  tracer->to_us(b), g.num_tasks());
      tracer->add("analysis.lower_bound", id, root, tracer->to_us(b),
                  tracer->to_us(c), g.num_tasks());
    }
    pass.schedule_s.push_back(seconds_between(a, b));
    pass.close_s.push_back(seconds_between(b, c));
    if (probe) probe->sample();
    if (it == 0) {
      const auto report_v = sim::validate_schedule(g, result.trace, kBatchP);
      if (!report_v.ok())
        report.mismatch("invalid schedule: " + report_v.to_string());
      const bool above_bound = result.makespan >= lb && std::isfinite(ratio);
      if (!above_bound) report.mismatch("makespan below the Lemma 2 bound");
      report.op(report_v.ok() && above_bound, "validate_schedule");
      pass.lower_bound = lb;
      pass.first = std::move(result);
      report.op(true, "schedule");
    } else {
      const bool same =
          result.makespan == pass.first.makespan && lb == pass.lower_bound;
      if (!same) report.mismatch("makespan not bit-identical across iterations");
      report.op(same, "schedule");
    }
  }
  pass.counters = read_counters() - before;
  return pass;
}

}  // namespace

void run_batch_wide(const RunOptions& opt, Report& report) {
  Tracer tracer(opt.trace);
  std::vector<double> setup_s;
  graph::TaskGraph g;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    ScopedSpan span(tracer, "graph.build", static_cast<std::uint64_t>(i));
    g = make_batch_graph(opt.seed);
    g.build_adjacency();
    span.set_count(g.num_tasks());
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const double n = g.num_tasks();
  const std::string setup_detail =
      "median of " + std::to_string(kSetupRepeats) + " set-ups";
  if (opt.trace) report.note("setup_s", median(setup_s), "s", setup_detail);
  report.note("input.tasks", n, "tasks");
  report.note("input.edges", static_cast<double>(g.num_edges()), "edges");

  if (!opt.trace) {
    HostProbe probe(/*round_trips=*/false);
    probe.sample();
    // Leave room for the observed iterations after the timed ones.
    const BatchPass pass =
        batch_pass(g, 0.5 * opt.seconds, 3, nullptr, &probe, report);
    const double sched_s = median(pass.schedule_s);

    // More cold iterations, observed, for the per-event response time
    // (at least 3, for 40% of the run); the quantiles pool every sample.
    const sched::SchedulerSpec spec = sched::spec_by_name(kSpec, kMu);
    std::vector<double> response_ms;
    std::size_t batches = 0;
    int observed_runs = 0;
    const auto t_observe = Clock::now();
    for (; observed_runs < 3 ||
           seconds_between(t_observe, Clock::now()) < 0.4 * opt.seconds;
         ++observed_runs) {
      core::DecisionCache::process_wide()->clear();
      EventResponseTimer timer;
      timer.start();
      const auto observed = core::schedule_online(g, kBatchP, *spec.allocator,
                                                  spec.policy, &timer);
      probe.sample();
      const bool same = observed.makespan == pass.first.makespan;
      if (!same) report.mismatch("observed run changed the makespan");
      report.op(same, "observed schedule");
      response_ms.insert(response_ms.end(), timer.samples_ms().begin(),
                         timer.samples_ms().end());
      batches = timer.batches();
    }
    std::sort(response_ms.begin(), response_ms.end());
    const auto p50 = nearest_rank(response_ms, 0.50);
    const auto p99 = nearest_rank(response_ms, 0.99);
    if (!p50 || !p99) throw std::runtime_error("too few event batches");

    const double host = probe.index();
    report.note("host.speed_index", host, "ratio",
                std::to_string(probe.samples()) + " probe samples");
    const std::string iters =
        "median of " + std::to_string(pass.schedule_s.size()) + " iterations";
    report.metric("setup_s", median(setup_s) / host, "s",
                  wall_clock(median(setup_s), "s", setup_detail));
    report.metric("tasks_per_s", n / sched_s * host, "tasks/s",
                  wall_clock(n / sched_s, "tasks/s", iters));
    report.metric("makespan_ratio", pass.first.makespan / pass.lower_bound,
                  "ratio");
    report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    const std::string per =
        "response to " + std::to_string(kEventsPerSample) +
        " completion batches, " + std::to_string(observed_runs) + " runs, n=";
    report.metric("release_p50_ms", p50->value / host, "ms",
                  wall_clock(p50->value, "ms",
                              per + std::to_string(p50->samples)));
    report.note("release_p99_ms", p99->value, "ms",
                per + std::to_string(p99->samples) + ", " +
                    std::to_string(p99->beyond) + " beyond; " + kTailNote);
    const double close_ms = 1e3 * median(pass.close_s);
    report.metric("close_p50_ms", close_ms / host, "ms",
                  wall_clock(close_ms, "ms", iters));
    report.metric("session_s", sched_s / host, "s",
                  wall_clock(sched_s, "s", iters));
    const double batch_rate = static_cast<double>(batches) / sched_s;
    report.metric("sustained_rps", batch_rate * host, "req/s",
                  wall_clock(batch_rate, "req/s",
                              "event batches answered per second"));
    report.note("core.queue_len_mean", queue_len_mean(pass.first), "tasks");
    report.note("core.alloc_cache_hit_rate", hit_rate(pass.counters),
                "fraction");
    report.note("input.session_len_p50", n, "tasks", "one batch");
    return;
  }

  // Traced: untraced half, traced half, then the layer replays.
  const BatchPass plain =
      batch_pass(g, 0.25 * opt.seconds, 1, nullptr, nullptr, report);
  const BatchPass traced =
      batch_pass(g, 0.25 * opt.seconds, 1, &tracer, nullptr, report);
  report.metric("obs.trace_overhead_frac",
                median(traced.schedule_s) / median(plain.schedule_s) - 1.0,
                "fraction");
  report.metric("core.alloc_cache_hit_rate", hit_rate(traced.counters),
                "fraction");

  replay_core_layers({ScheduledGraph{&g, kBatchP, &traced.first}},
                     /*cold_alloc=*/true, report);
  // The svc layers never run on this workload; they are measured on a
  // 1 000-task prefix of its graph so every layer has a figure.
  const graph::TaskGraph prefix = prefix_graph(g, 1000);
  replay_session_layers({&prefix}, kBatchP, report);
  server_probe_layers({&prefix}, kBatchP, tracer, report);
  report.metric("input.session_len_p50", n, "tasks");
  report.metric("input.session_len_max", n, "tasks");
  finish_traced_run(opt.seed, opt.trace_path, tracer, report);
}

}  // namespace perfbench
