#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "moldsched/io/json.hpp"
#include "moldsched/obs/process_stats.hpp"

namespace perfbench {

std::optional<Quantile> nearest_rank(const std::vector<double>& sorted,
                                     double q, std::size_t min_beyond) {
  if (sorted.empty() || q <= 0.0 || q > 1.0) return std::nullopt;
  const std::size_t n = sorted.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  const std::size_t beyond = n - rank;
  if (beyond < min_beyond) return std::nullopt;
  return Quantile{sorted[rank - 1], n, beyond};
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double loglog_slope(const std::vector<double>& x,
                    const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2)
    throw std::invalid_argument("loglog_slope: need two or more points");
  std::vector<double> lx, ly;
  for (std::size_t i = 0; i < x.size(); ++i) {
    lx.push_back(std::log(x[i]));
    ly.push_back(std::log(y[i]));
  }
  const double mx = mean(lx), my = mean(ly);
  double sxy = 0.0, sxx = 0.0;
  for (std::size_t i = 0; i < lx.size(); ++i) {
    sxy += (lx[i] - mx) * (ly[i] - my);
    sxx += (lx[i] - mx) * (lx[i] - mx);
  }
  return sxy / sxx;
}

double peak_rss_mib() {
  return moldsched::obs::read_peak_rss_bytes() / (1024.0 * 1024.0);
}

namespace {

unsigned bench_nproc() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, kLoadShapeCpus);
}

}  // namespace

unsigned server_workers(unsigned clients, Report& report) {
  const unsigned n = bench_nproc();
  if (n < kLoadShapeCpus)
    report.note("load.cpus", n, "cpus",
                "below the " + std::to_string(kLoadShapeCpus) +
                    " the load shape is written for: client threads, the "
                    "server's I/O thread and executor workers exceed it");
  // The server's I/O thread takes a core of its own.
  return n > clients + 1 ? n - clients - 1 : 1;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& detail) {
  lines_.push_back(Line{name, value, unit, detail, true});
}

void Report::note(const std::string& name, double value,
                  const std::string& unit, const std::string& detail) {
  lines_.push_back(Line{name, value, unit, detail, false});
}

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (problems_.size() < 20) problems_.push_back("failed: " + what);
  }
}

void Report::ops(std::uint64_t attempted, std::uint64_t failed,
                 const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0 && problems_.size() < 20)
    problems_.push_back(std::to_string(failed) + " failed: " + what);
}

void Report::mismatch(const std::string& what) {
  ++mismatches_;
  if (problems_.size() < 20) problems_.push_back("mismatch: " + what);
}

void Report::print(std::ostream& out) const {
  for (const auto& p : problems_) out << "# " << p << '\n';
  for (const auto& l : lines_) {
    out << l.name << ' ' << number(l.value) << ' ' << l.unit;
    if (!l.detail.empty()) out << "  (" << l.detail << ')';
    out << '\n';
  }
  const double fail_frac =
      attempted_ > 0 ? static_cast<double>(failed_) /
                           static_cast<double>(attempted_)
                     : 1.0;
  out << "fail_frac " << number(fail_frac) << " fraction  (" << failed_
      << " of " << attempted_ << " ops)\n";
  out << "{\"correct\": " << (correct() && failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& l : lines_) {
    if (!l.json) continue;
    out << (first ? "" : ", ") << '"' << l.name << "\": {\"value\": "
        << number(l.value) << ", \"unit\": \"" << l.unit << "\"}";
    first = false;
  }
  out << "}}" << std::endl;
}

int Tracer::add(const std::string& name, std::uint64_t id, int parent,
                double start_us, double end_us, double count) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, id, parent, start_us, end_us, count});
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::open(const std::string& name, std::uint64_t id, int parent) {
  if (!enabled_) return -1;
  const double t = now_us();
  return add(name, id, parent, t, t);
}

void Tracer::close(int index, double count) {
  if (!enabled_ || index < 0) return;
  const double t = now_us();
  const std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_us = t;
  s.count = count;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Tracer::Total Tracer::total(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  Total t;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    ++t.spans;
    t.us += s.end_us - s.start_us;
    t.count += s.count;
  }
  return t;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"index\":" << i << ",\"name\":\""
        << moldsched::io::json_escape(s.name) << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"start_us\":" << number(s.start_us)
        << ",\"end_us\":" << number(s.end_us)
        << ",\"count\":" << number(s.count) << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
