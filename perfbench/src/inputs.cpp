#include "inputs.hpp"

#include "moldsched/analysis/bounds.hpp"
#include "moldsched/graph/generators.hpp"
#include "moldsched/model/sampler.hpp"
#include "moldsched/sched/registry.hpp"
#include "moldsched/util/rng.hpp"

namespace perfbench {

namespace model = moldsched::model;
namespace util = moldsched::util;

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t k) {
  return util::derive_seed(seed, k);
}

graph::TaskGraph make_batch_graph(std::uint64_t seed) {
  const model::ModelSampler sampler(model::ModelKind::kGeneral);
  util::Rng rng(stream_seed(seed, 1));
  return graph::layered_uniform(kBatchLayers, kBatchWidth, kBatchDegree,
                                stream_seed(seed, 2),
                                graph::sampling_provider(sampler, rng, kBatchP));
}

graph::TaskGraph make_layered_session(std::uint64_t seed, int layers,
                                      int width) {
  const model::ModelSampler sampler(model::ModelKind::kAmdahl);
  util::Rng rng(stream_seed(seed, 3));
  return graph::layered_uniform(layers, width, 2, stream_seed(seed, 4),
                                graph::sampling_provider(sampler, rng, kLongP));
}

std::vector<graph::TaskGraph> make_long_sessions(std::uint64_t seed) {
  std::vector<graph::TaskGraph> out;
  for (int s = 0; s < kLongSessions; ++s)
    out.push_back(make_layered_session(
        stream_seed(seed, 100 + static_cast<std::uint64_t>(s)), kLongLayers,
        kLongWidth));
  return out;
}

graph::TaskGraph prefix_graph(const graph::TaskGraph& g, int k) {
  graph::TaskGraph out;
  for (graph::TaskId v = 0; v < k && v < g.num_tasks(); ++v) {
    out.add_task(g.model_ptr(v), g.name(v));
    for (const graph::TaskId u : g.predecessors(v)) out.add_edge(u, v);
  }
  return out;
}

Reference reference_run(const graph::TaskGraph& g, int P) {
  const auto result = moldsched::sched::spec_by_name(kSpec, kMu).run(g, P);
  Reference ref;
  ref.allocation = result.allocation;
  ref.makespan = result.makespan;
  ref.lower_bound = moldsched::analysis::optimal_makespan_lower_bound(g, P);
  ref.records = result.trace.records();
  ref.num_events = result.num_events;
  return ref;
}

}  // namespace perfbench
