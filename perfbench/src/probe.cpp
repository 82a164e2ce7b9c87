#include "probe.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common.hpp"

namespace perfbench {

namespace {

// Work per kernel and its median time on the reference machine (4-vCPU
// VM, Release build). They only set the scale: a run's index compares its
// kernel times with these, and every run compares with the same ones.
constexpr long kAluSteps = 8'000'000;
constexpr long kChaseSteps = 200'000;
constexpr int kRoundTrips = 1'000;
constexpr double kAluRefS = 0.0118;
constexpr double kChaseRefS = 0.0163;
constexpr double kRoundTripRefS = 0.0128;

/// A random single-cycle permutation of n entries (Sattolo's shuffle):
/// following it from any entry visits all n in an order the hardware
/// prefetcher cannot guess, so each step waits on one load.
std::vector<std::uint32_t> single_cycle(std::size_t n, std::uint64_t x) {
  std::vector<std::uint32_t> next(n);
  std::iota(next.begin(), next.end(), 0u);
  for (std::size_t i = n - 1; i > 0; --i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(next[i], next[(x >> 33) % i]);
  }
  return next;
}

/// Seconds that kRoundTrips one-byte round trips between this thread and
/// a partner take over a socket pair: the cost of waking a thread on
/// another core and of the system calls, which every served request pays
/// several times over.
double round_trips() {
  int fd[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fd) != 0)
    throw std::runtime_error("HostProbe: socketpair failed");
  const auto a = Clock::now();
  bool ok = true;
  std::thread echo([&fd] {
    char c = 0;
    for (int i = 0; i < kRoundTrips; ++i)
      if (read(fd[1], &c, 1) != 1 || write(fd[1], &c, 1) != 1) break;
  });
  char c = 'x';
  for (int i = 0; i < kRoundTrips && ok; ++i)
    ok = write(fd[0], &c, 1) == 1 && read(fd[0], &c, 1) == 1;
  if (!ok) shutdown(fd[0], SHUT_RDWR);  // lets the partner's read return
  echo.join();
  const double s = seconds_between(a, Clock::now());
  close(fd[0]);
  close(fd[1]);
  if (!ok) throw std::runtime_error("HostProbe: round trip failed");
  return s;
}

}  // namespace

HostProbe::HostProbe(bool round_trips)
    : next_(single_cycle((8u << 20) / 4, 1)), round_trips_(round_trips) {}

void HostProbe::sample() {
  // A dependent integer chain: the core's clock.
  auto a = Clock::now();
  std::uint64_t y = 1;
  for (long i = 0; i < kAluSteps; ++i)
    y = y * 6364136223846793005ull + 1442695040888963407ull;
  auto b = Clock::now();
  const double alu = seconds_between(a, b) / kAluRefS;
  // A pointer chase through 8 MiB: the latency of the cache the host's
  // tenants share.
  std::uint32_t k = static_cast<std::uint32_t>(y % next_.size());
  for (long i = 0; i < kChaseSteps; ++i) k = next_[k];
  a = Clock::now();
  const double chase = seconds_between(b, a) / kChaseRefS;
  sink_ += k;
  if (!round_trips_) {
    indices_.push_back(std::sqrt(alu * chase));
    return;
  }
  const double trips = round_trips() / kRoundTripRefS;
  indices_.push_back(std::cbrt(alu * chase * trips));
}

double HostProbe::index() const {
  if (indices_.empty()) throw std::logic_error("HostProbe: no samples");
  return median(indices_);
}

std::string wall_clock(double value, const std::string& unit,
                       const std::string& detail) {
  return "wall clock " + number(value) + " " + unit + "; " + detail;
}

}  // namespace perfbench
