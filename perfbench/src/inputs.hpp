// Seeded input generation for the workloads. Everything the
// program under test receives is made here from the run's --seed, so two
// runs with one seed see identical graphs and models.
#pragma once

#include <cstdint>
#include <vector>

#include "moldsched/graph/task_graph.hpp"
#include "moldsched/sim/trace.hpp"

namespace perfbench {

namespace graph = moldsched::graph;

inline constexpr double kMu = 0.25;          ///< LPA parameter of every run
inline constexpr const char* kSpec = "lpa";  ///< registry scheduler spec

// batch_wide: one wide layered DAG with sampled Eq. (1) models.
inline constexpr int kBatchP = 256;
inline constexpr int kBatchLayers = 16;
inline constexpr int kBatchWidth = 16000;
inline constexpr int kBatchDegree = 2;

// serve_long: long layered sessions with Amdahl models.
inline constexpr int kLongP = 64;
inline constexpr int kLongLayers = 20;
inline constexpr int kLongWidth = 150;
inline constexpr int kLongSessions = 4;  ///< 2 connections x 2 sessions

[[nodiscard]] graph::TaskGraph make_batch_graph(std::uint64_t seed);

/// A layered session of `layers` x `width` tasks (Amdahl models, P=kLongP).
[[nodiscard]] graph::TaskGraph make_layered_session(std::uint64_t seed,
                                                    int layers, int width);
[[nodiscard]] std::vector<graph::TaskGraph> make_long_sessions(
    std::uint64_t seed);

/// The in-process result a served session must reproduce bit for bit.
struct Reference {
  std::vector<int> allocation;
  double makespan = 0.0;
  double lower_bound = 0.0;  ///< Lemma 2
  std::vector<moldsched::sim::TaskRecord> records;
  std::uint64_t num_events = 0;
};
[[nodiscard]] Reference reference_run(const graph::TaskGraph& g, int P);

/// The first `k` tasks of `g` (id order is topological) with the edges
/// among them: what a session streaming `g` holds after k releases.
[[nodiscard]] graph::TaskGraph prefix_graph(const graph::TaskGraph& g, int k);

/// Seed of one input stream of a run.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t k);

}  // namespace perfbench
