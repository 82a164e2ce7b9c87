// In-process scheduling service for the serve workloads: a svc::Server on
// a loopback port with the benchmark's own executor and metric registry,
// plus the lockstep session streaming that serve_long and the traced
// server probe use.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"
#include "moldsched/engine/executor.hpp"
#include "moldsched/obs/metrics.hpp"
#include "moldsched/obs/span.hpp"
#include "moldsched/svc/client.hpp"
#include "moldsched/svc/server.hpp"

namespace perfbench {

namespace svc = moldsched::svc;

/// Keeps every server request span in memory.
class SpanCollector final : public moldsched::obs::SpanObserver {
 public:
  void on_request(const moldsched::obs::RequestSpan& span) override;
  [[nodiscard]] std::vector<moldsched::obs::RequestSpan> spans() const;

 private:
  mutable std::mutex mu_;
  std::vector<moldsched::obs::RequestSpan> spans_;  // guarded by mu_
};

/// A listening server with `workers` executor threads. With `telemetry`
/// the server times its phases into `registry` and hands request spans
/// to `spans`. Admission limits are raised so that no request of the
/// benchmark is refused: overload shows as latency, not as errors.
///
/// engine::Executor can lose a wakeup: a task pushed while a worker is
/// between finding its queues empty and going to sleep waits for the next
/// push. With one worker and lockstep clients no next push comes, and the
/// run hangs (one serve_long run in about forty did). The fixture
/// therefore submits a no-op every kKickInterval, which bounds that
/// delay; the defect itself is left to the library.
class ServeFixture {
 public:
  ServeFixture(unsigned workers, bool telemetry);
  ~ServeFixture();
  ServeFixture(const ServeFixture&) = delete;
  ServeFixture& operator=(const ServeFixture&) = delete;

  [[nodiscard]] int port() const noexcept { return port_; }
  [[nodiscard]] const moldsched::obs::MetricRegistry& registry() const {
    return registry_;
  }
  [[nodiscard]] const SpanCollector& spans() const { return spans_; }

 private:
  moldsched::obs::MetricRegistry registry_;
  SpanCollector spans_;
  moldsched::engine::Executor executor_;
  std::unique_ptr<svc::Server> server_;  // destroyed before the above
  int port_ = 0;
  std::mutex kick_mu_;
  std::condition_variable kick_cv_;
  bool kick_stop_ = false;  // guarded by kick_mu_
  std::thread kicker_;      // submits no-ops to executor_
};

/// Outcome checks gathered on one client thread, merged into the Report
/// after the thread joins.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> mismatches;
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void mismatch(std::string what) {
    if (mismatches.size() < 10) mismatches.push_back(std::move(what));
  }
  void merge_into(Report& report) const;
};

/// True when a close reply reproduces the in-process reference bit for
/// bit: makespan, Lemma 2 bound, allocation and every trace record.
[[nodiscard]] bool close_matches(const svc::CloseReply& reply,
                                 const Reference& ref, std::string& why);

/// Client-observed timings of one streamed session.
struct SessionTiming {
  std::vector<double> release_ms;
  double close_ms = 0.0;
  double session_s = 0.0;  ///< open sent -> close reply
  double ratio = 0.0;      ///< close reply makespan / Lemma 2 bound
  svc::SessionStats stats;
};

/// Streams `g` through `client` one task at a time (each release waits
/// for the previous reply), checking every release's allocation and the
/// close reply against `ref`. With a tracer, client spans share `id`,
/// which also rides the wire as the trace id.
SessionTiming stream_lockstep(svc::Client& client, const graph::TaskGraph& g,
                              const Reference& ref, int P, Checks& checks,
                              Tracer* tracer, std::uint64_t id);

/// svc.server.*, svc.client.overhead_ms_p50 and engine.executor.steal_frac
/// for workloads without a server of their own: streams `sessions`
/// through a one-client server with phase telemetry armed.
void server_probe_layers(const std::vector<const graph::TaskGraph*>& sessions,
                         int P, Tracer& tracer, Report& report);

/// Adds the server's request spans under the client spans that share
/// their trace id and seq. Server clocks differ from the client's, so a
/// server span is placed at its client span's start; durations are exact.
void join_server_spans(const SpanCollector& spans, Tracer& tracer);

}  // namespace perfbench
