// serve_long: an in-process server with two client connections; each
// streams two ~3 000-task layered sessions (width ~150, P = 64, Amdahl
// models) one task at a time in a closed loop, then closes them. Every
// release re-runs the session prefix, so prefix re-simulation dominates
// and grows with session length while the ready set stays narrow.
#include "serve.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "layers.hpp"
#include "moldsched/core/allocator.hpp"
#include "moldsched/sched/registry.hpp"
#include "probe.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string trace_id_of(std::uint64_t id) { return "s" + std::to_string(id); }

/// How often a fixture wakes its executor (see ServeFixture).
constexpr auto kKickInterval = std::chrono::milliseconds(2);

}  // namespace

void SpanCollector::on_request(const moldsched::obs::RequestSpan& span) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<moldsched::obs::RequestSpan> SpanCollector::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

ServeFixture::ServeFixture(unsigned workers, bool telemetry)
    : executor_(workers) {
  svc::ServerLimits limits;
  limits.max_sessions = 1 << 14;
  limits.max_in_flight = 1 << 20;
  svc::ServerTelemetry tele;
  if (telemetry) {
    tele.phases = true;
    tele.spans = &spans_;
  }
  server_ = std::make_unique<svc::Server>(limits, tele, executor_, registry_);
  port_ = server_->listen("127.0.0.1", 0);
  kicker_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(kick_mu_);
    while (!kick_cv_.wait_for(lock, kKickInterval,
                              [this] { return kick_stop_; }))
      executor_.submit([] {});
  });
}

ServeFixture::~ServeFixture() {
  {
    const std::lock_guard<std::mutex> lock(kick_mu_);
    kick_stop_ = true;
  }
  kick_cv_.notify_all();
  kicker_.join();
  server_->stop();
  server_->wait();
}

void Checks::merge_into(Report& report) const {
  report.ops(attempted, failed, "requests");
  for (const auto& m : mismatches) report.mismatch(m);
}

bool close_matches(const svc::CloseReply& reply, const Reference& ref,
                   std::string& why) {
  if (!reply.ok) {
    why = "close failed: " + reply.error.message;
    return false;
  }
  if (reply.makespan != ref.makespan) why = "close makespan differs";
  else if (reply.lower_bound != ref.lower_bound) why = "close bound differs";
  else if (reply.allocation != ref.allocation) why = "close allocation differs";
  else if (reply.records.size() != ref.records.size())
    why = "close record count differs";
  else {
    for (std::size_t i = 0; i < ref.records.size(); ++i) {
      const auto& a = reply.records[i];
      const auto& b = ref.records[i];
      if (a.task != b.task || a.start != b.start || a.end != b.end ||
          a.procs != b.procs) {
        why = "close record " + std::to_string(i) + " differs";
        break;
      }
    }
  }
  return why.empty();
}

SessionTiming stream_lockstep(svc::Client& client, const graph::TaskGraph& g,
                              const Reference& ref, int P, Checks& checks,
                              Tracer* tracer, std::uint64_t id) {
  SessionTiming out;
  int root = -1;
  if (tracer) {
    client.set_trace_id(trace_id_of(id));
    root = tracer->open("client.session", id);
  }
  const auto t_open = Clock::now();
  svc::OpenParams open;
  open.scheduler = kSpec;
  open.P = P;
  open.mu = kMu;
  const int open_span = tracer ? tracer->open("client.open", id, root) : -1;
  const svc::OpenReply opened = client.open(open);
  if (tracer) tracer->close(open_span);
  checks.op(opened.ok);
  if (!opened.ok) {
    checks.mismatch("open failed: " + opened.error.message);
    return out;
  }
  out.release_ms.reserve(static_cast<std::size_t>(g.num_tasks()));
  for (graph::TaskId v = 0; v < g.num_tasks(); ++v) {
    svc::ReleaseParams params;
    params.name = g.name(v);
    params.model = g.model_ptr(v);
    for (const graph::TaskId u : g.predecessors(v)) params.preds.push_back(u);
    params.expected_task = v;
    const int span = tracer ? tracer->open("client.release", id, root) : -1;
    const auto a = Clock::now();
    const svc::ReleaseReply reply = client.release(opened.session, params);
    out.release_ms.push_back(ms_between(a, Clock::now()));
    if (tracer) tracer->close(span, 1.0);
    const bool ok = reply.ok && reply.task == v &&
                    reply.alloc == ref.allocation[static_cast<std::size_t>(v)];
    checks.op(ok);
    if (!ok)
      checks.mismatch("release " + std::to_string(v) +
                      (reply.ok ? ": allocation differs" : ": not ok"));
  }
  const int span = tracer ? tracer->open("client.close", id, root) : -1;
  const auto a = Clock::now();
  const svc::CloseReply closed = client.close_session(opened.session);
  const auto b = Clock::now();
  if (tracer) {
    tracer->close(span, g.num_tasks());
    tracer->close(root, g.num_tasks());
  }
  out.close_ms = ms_between(a, b);
  out.session_s = seconds_between(t_open, b);
  std::string why;
  const bool ok = close_matches(closed, ref, why);
  checks.op(ok);
  if (!ok) checks.mismatch(why);
  out.ratio = closed.ratio;
  out.stats = closed.stats;
  return out;
}

void join_server_spans(const SpanCollector& collector, Tracer& tracer) {
  // Client request spans per trace id in send order; a lockstep
  // connection's server spans come back in seq order.
  std::map<std::uint64_t, std::vector<int>> client_index;
  const std::vector<Span> all = tracer.spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.name != "client.open" && s.name != "client.release" &&
        s.name != "client.close")
      continue;
    client_index[s.id].push_back(static_cast<int>(i));
  }
  std::map<std::string, std::vector<moldsched::obs::RequestSpan>> server;
  for (const auto& s : collector.spans())
    if (!s.trace_id.empty()) server[s.trace_id].push_back(s);
  for (auto& [trace_id, spans] : server) {
    std::sort(spans.begin(), spans.end(),
              [](const auto& a, const auto& b) { return a.seq < b.seq; });
    const std::uint64_t id = std::stoull(trace_id.substr(1));
    const auto it = client_index.find(id);
    if (it == client_index.end()) continue;
    const std::size_t n = std::min(spans.size(), it->second.size());
    for (std::size_t k = 0; k < n; ++k) {
      const int parent = it->second[k];
      const auto& rs = spans[k];
      double t = all[static_cast<std::size_t>(parent)].start_us;
      const int req = tracer.add("svc.server.request", id, parent, t,
                                 t + rs.total_us);
      const std::pair<const char*, double> phases[] = {
          {"svc.server.queue", rs.queue_us},
          {"svc.server.parse", rs.parse_us},
          {"svc.server.schedule", rs.schedule_us},
          {"svc.server.serialize", rs.serialize_us},
          {"svc.server.write", rs.write_us}};
      for (const auto& [name, us] : phases) {
        tracer.add(name, id, req, t, t + us);
        t += us;
      }
    }
  }
}

void server_probe_layers(const std::vector<const graph::TaskGraph*>& sessions,
                         int P, Tracer& tracer, Report& report) {
  std::vector<Reference> refs;
  for (const auto* g : sessions) refs.push_back(reference_run(*g, P));
  std::vector<double> release_ms;
  CounterDelta delta;
  {
    ServeFixture fixture(server_workers(1, report), /*telemetry=*/true);
    svc::Client client;
    client.connect("127.0.0.1", fixture.port());
    Checks checks;
    const CounterDelta before = read_counters();
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const SessionTiming t = stream_lockstep(
          client, *sessions[i], refs[i], P, checks, &tracer, 1000000 + i);
      release_ms.insert(release_ms.end(), t.release_ms.begin(),
                        t.release_ms.end());
    }
    delta = read_counters() - before;
    checks.merge_into(report);
    client.disconnect();
    join_server_spans(fixture.spans(), tracer);
    server_layers(fixture.registry(), median(release_ms), delta, report);
  }
}

namespace {

struct LongPass {
  /// rounds[s][r]: client-observed timings of session s in round r.
  std::vector<std::vector<SessionTiming>> rounds;
  std::vector<double> round_s;  ///< wall time of each round
  double round_tasks = 0.0;     ///< tasks one round releases
  double round_requests = 0.0;  ///< requests one round sends
  CounterDelta counters;

  /// Nearest-rank quantile `q` of the releases both clients made in one
  /// round, for the round where it is lowest. Every round replays the
  /// same requests, and a stall of the host adds to whichever releases
  /// it hits, so the lowest round is the least disturbed one; a tail the
  /// program itself makes recurs in every round and still shows.
  [[nodiscard]] Quantile lowest_round_quantile(double q) const {
    std::optional<Quantile> best;
    for (std::size_t r = 0; r < round_s.size(); ++r) {
      std::vector<double> sample;
      for (const auto& session : rounds)
        sample.insert(sample.end(), session[r].release_ms.begin(),
                      session[r].release_ms.end());
      std::sort(sample.begin(), sample.end());
      const auto v = nearest_rank(sample, q);
      if (!v) throw std::runtime_error("too few releases in a round");
      if (!best || v->value < best->value) best = v;
    }
    return *best;
  }
  [[nodiscard]] std::vector<double> all_release_ms() const {
    std::vector<double> out;
    for (const auto& session : rounds)
      for (const auto& t : session)
        out.insert(out.end(), t.release_ms.begin(), t.release_ms.end());
    return out;
  }
  /// `field` of every session of every round.
  [[nodiscard]] std::vector<double> all(double SessionTiming::*field) const {
    std::vector<double> out;
    for (const auto& session : rounds)
      for (const auto& t : session) out.push_back(t.*field);
    return out;
  }
};

/// Host probe samples taken before the first round and after each one.
constexpr int kProbesPerGap = 3;

/// Rounds in which two lockstep clients each stream their two sessions,
/// at least `min_rounds` and as many more as fit in `seconds`. With a
/// probe, samples the host's speed between rounds, while no client or
/// server thread runs.
LongPass long_pass(const ServeFixture& fixture,
                   const std::vector<graph::TaskGraph>& graphs,
                   const std::vector<Reference>& refs, double seconds,
                   int min_rounds, Tracer* tracer, HostProbe* probe,
                   Report& report) {
  constexpr std::size_t kClients = 2;
  LongPass pass;
  pass.rounds.resize(graphs.size());
  for (const auto& g : graphs) {
    pass.round_tasks += g.num_tasks();
    pass.round_requests += g.num_tasks() + 2;
  }
  std::array<svc::Client, kClients> clients;
  for (auto& c : clients) c.connect("127.0.0.1", fixture.port());
  std::vector<Checks> checks(kClients);
  const CounterDelta before = read_counters();
  const auto t0 = Clock::now();
  const auto sample_host = [&] {
    for (int i = 0; probe && i < kProbesPerGap; ++i) probe->sample();
  };
  sample_host();
  // Start another round only if it fits in the time left.
  for (int round = 0;
       round < min_rounds ||
       seconds_between(t0, Clock::now()) + pass.round_s.back() <= seconds;
       ++round) {
    const auto round_start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t me = 0; me < kClients; ++me)
      threads.emplace_back([&, me, round] {
        for (std::size_t s = 2 * me; s < 2 * me + 2; ++s)
          pass.rounds[s].push_back(stream_lockstep(
              clients[me], graphs[s], refs[s], kLongP, checks[me], tracer,
              static_cast<std::uint64_t>(round) * 16 + s));
      });
    for (auto& t : threads) t.join();
    pass.round_s.push_back(seconds_between(round_start, Clock::now()));
    sample_host();
  }
  for (auto& c : clients) c.disconnect();
  pass.counters = read_counters() - before;
  for (const Checks& c : checks) c.merge_into(report);
  return pass;
}

struct LongInputs {
  std::vector<graph::TaskGraph> graphs;
  std::vector<Reference> refs;
  std::vector<core::ScheduleResult> results;  ///< for the queue property
};

LongInputs make_long_inputs(std::uint64_t seed, Tracer& tracer) {
  LongInputs in;
  {
    ScopedSpan span(tracer, "graph.build", 0);
    in.graphs = make_long_sessions(seed);
    double n = 0;
    for (const auto& g : in.graphs) n += g.num_tasks();
    span.set_count(n);
  }
  const auto spec = moldsched::sched::spec_by_name(kSpec, kMu);
  for (const auto& g : in.graphs) {
    in.refs.push_back(reference_run(g, kLongP));
    in.results.push_back(spec.run(g, kLongP));
  }
  return in;
}

/// Streams a short prefix of each client's first session so connections,
/// executor threads and decision-cache entries are warm before timing.
void warm_up(const ServeFixture& fixture, const LongInputs& in) {
  std::vector<std::thread> threads;
  for (int c = 0; c < 2; ++c)
    threads.emplace_back([&, c] {
      svc::Client client;
      client.connect("127.0.0.1", fixture.port());
      const graph::TaskGraph prefix =
          prefix_graph(in.graphs[static_cast<std::size_t>(2 * c)], 200);
      Checks ignored;
      (void)stream_lockstep(client, prefix, reference_run(prefix, kLongP),
                            kLongP, ignored, nullptr, 0);
      client.disconnect();
    });
  for (auto& t : threads) t.join();
}

double queue_len_over(const std::vector<core::ScheduleResult>& results) {
  std::vector<double> v;
  for (const auto& r : results) v.push_back(queue_len_mean(r));
  return mean(v);
}

}  // namespace

void run_serve_long(const RunOptions& opt, Report& report) {
  Tracer tracer(opt.trace);
  const unsigned workers = server_workers(2, report);
  std::vector<double> setup_s;
  LongInputs in;
  std::unique_ptr<ServeFixture> fixture;
  for (int i = 0; i < kSetupRepeats; ++i) {
    fixture.reset();
    const auto t0 = Clock::now();
    in = make_long_inputs(opt.seed, tracer);
    fixture = std::make_unique<ServeFixture>(workers, false);
    warm_up(*fixture, in);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const std::string setup_detail =
      "median of " + std::to_string(kSetupRepeats) + " set-ups";
  std::vector<double> lengths;
  for (const auto& g : in.graphs) lengths.push_back(g.num_tasks());

  if (!opt.trace) {
    HostProbe probe(/*round_trips=*/true);
    const LongPass pass = long_pass(*fixture, in.graphs, in.refs, opt.seconds,
                                    2, nullptr, &probe, report);
    const Quantile p50 = pass.lowest_round_quantile(0.50);
    const Quantile p99 = pass.lowest_round_quantile(0.99);
    const double round_s = median(pass.round_s);
    const double close_ms = median(pass.all(&SessionTiming::close_ms));
    const double session_s = median(pass.all(&SessionTiming::session_s));

    const double host = probe.index();
    report.note("host.speed_index", host, "ratio",
                std::to_string(probe.samples()) + " probe samples");
    const std::string rounds = std::to_string(pass.round_s.size()) + " rounds";
    const std::string sessions =
        "median over " + std::to_string(pass.all(&SessionTiming::ratio).size()) +
        " sessions of " + rounds;
    report.metric("setup_s", median(setup_s) / host, "s",
                  wall_clock(median(setup_s), "s", setup_detail));
    report.metric("tasks_per_s", pass.round_tasks / round_s * host, "tasks/s",
                  wall_clock(pass.round_tasks / round_s, "tasks/s",
                             "both clients, median of " + rounds));
    report.metric("makespan_ratio", mean(pass.all(&SessionTiming::ratio)),
                  "ratio");
    report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    const std::string n = "n=" + std::to_string(p50.samples) +
                          " per round, lowest of " + rounds;
    report.metric("release_p50_ms", p50.value / host, "ms",
                  wall_clock(p50.value, "ms", n));
    report.note("release_p99_ms", p99.value, "ms",
                n + ", " + std::to_string(p99.beyond) + " beyond; " +
                    kTailNote);
    report.metric("close_p50_ms", close_ms / host, "ms",
                  wall_clock(close_ms, "ms", sessions));
    report.metric("session_s", session_s / host, "s",
                  wall_clock(session_s, "s", sessions));
    report.metric("sustained_rps", pass.round_requests / round_s * host,
                  "req/s",
                  wall_clock(pass.round_requests / round_s, "req/s",
                             "closed loop, 2 connections, median of " +
                                 rounds));
    report.note("core.queue_len_mean", queue_len_over(in.results), "tasks");
    report.note("core.alloc_cache_hit_rate", hit_rate(pass.counters),
                "fraction");
    report.note("input.session_len_p50", median(lengths), "tasks");
    report.note("input.session_len_max",
                *std::max_element(lengths.begin(), lengths.end()), "tasks");
    return;
  }

  report.note("setup_s", median(setup_s), "s", setup_detail);
  const LongPass plain = long_pass(*fixture, in.graphs, in.refs,
                                   0.25 * opt.seconds, 1, nullptr, nullptr,
                                   report);
  fixture.reset();
  ServeFixture traced_fixture(workers, /*telemetry=*/true);
  const LongPass traced = long_pass(traced_fixture, in.graphs, in.refs,
                                    0.25 * opt.seconds, 1, &tracer, nullptr,
                                    report);
  report.metric("obs.trace_overhead_frac",
                median(traced.all_release_ms()) /
                        median(plain.all_release_ms()) - 1.0,
                "fraction", "median release latency, traced vs untraced");
  report.metric("core.alloc_cache_hit_rate", hit_rate(traced.counters),
                "fraction");
  join_server_spans(traced_fixture.spans(), tracer);
  server_layers(traced_fixture.registry(), median(traced.all_release_ms()),
                traced.counters, report);

  std::vector<ScheduledGraph> runs;
  for (std::size_t i = 0; i < in.graphs.size(); ++i)
    runs.push_back(ScheduledGraph{&in.graphs[i], kLongP, &in.results[i]});
  replay_core_layers(runs, /*cold_alloc=*/false, report);
  replay_session_layers({&in.graphs[0]}, kLongP, report);
  report.metric("input.session_len_p50", median(lengths), "tasks");
  report.metric("input.session_len_max",
                *std::max_element(lengths.begin(), lengths.end()), "tasks");
  finish_traced_run(opt.seed, opt.trace_path, tracer, report);
}

}  // namespace perfbench
