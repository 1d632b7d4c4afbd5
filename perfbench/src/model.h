// Seeded inputs of the end-to-end benchmark: motion models grouped into
// similarity clusters, uncertain objects, contiguous query windows, and the
// loading of all of it into a ShardedDatabase. The benchmark keeps its own
// copy of every chain and observation (Model) so its correctness checks
// recompute answers apart from the service.
#ifndef USTDB_PERFBENCH_MODEL_H_
#define USTDB_PERFBENCH_MODEL_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/multi_observation.h"
#include "core/query_window.h"
#include "core/shard_router.h"
#include "markov/markov_chain.h"
#include "util/rng.h"

namespace perfbench {

using namespace ustdb;
using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Size and shape of one generated model.
struct ModelConfig {
  uint32_t num_states = 10'000;
  uint32_t clusters = 2;            ///< base chains
  uint32_t chains_per_cluster = 4;  ///< perturbed copies of each base
  uint32_t num_objects = 4'000;     ///< round-robin over chains
  uint32_t state_spread = 5;        ///< non-zeros per transition row
  uint32_t max_step = 40;           ///< transition band width
  uint32_t object_spread = 5;       ///< support of each observation pdf
};

/// The benchmark's own copy of a generated database.
struct Model {
  ModelConfig config;
  std::vector<markov::MarkovChain> chains;  ///< index = global ChainId
  std::vector<std::vector<ChainId>> clusters;
  std::vector<ChainId> object_chain;  ///< index = global ObjectId
  std::vector<std::vector<core::Observation>> observations;
  /// Anchor (lowest support state) of each object's first observation.
  std::vector<uint32_t> anchor;
  /// Object ids sorted by anchor, for "objects near a region" lookups.
  std::vector<ObjectId> by_anchor;
};

/// Generates the chains (timed into *chains_s) and the objects (timed into
/// *objects_s) of `config` from `seed`. Aborts on a generator error.
Model GenerateModel(const ModelConfig& config, uint64_t seed,
                    double* chains_s = nullptr, double* objects_s = nullptr);

/// Loads `model` into a ShardedDatabase of `shards` shards, in global id
/// order, so global ids match the model's indices.
std::unique_ptr<core::ShardedDatabase> LoadSharded(const Model& model,
                                                   uint32_t shards);

/// Contiguous window [s_lo, s_lo + extent) x [t_lo, t_lo + length).
core::QueryWindow MakeWindow(uint32_t num_states, uint32_t s_lo,
                             uint32_t extent, Timestamp t_lo,
                             uint32_t length);

/// Up to `count` objects whose anchors lie nearest to `state`.
std::vector<ObjectId> ObjectsNear(const Model& model, uint32_t state,
                                  uint32_t count);

/// Index of the largest entry of `pdf`.
uint32_t ArgMax(const sparse::ProbVector& pdf);

/// An observation pdf over the (up to) `spread` states around the most
/// likely state of `predicted`, weighted by the prediction and restricted
/// to states it reaches. Such an observation is consistent with every
/// history `predicted` was propagated from, and the likeliest one of its
/// width.
sparse::ProbVector MostLikelyObservation(const sparse::ProbVector& predicted,
                                         uint32_t spread);

/// Aborts the process with `what` when `ok` is false: generator and
/// set-up failures are faults of the benchmark's inputs, not measurements.
void Require(bool ok, const std::string& what);

}  // namespace perfbench

#endif  // USTDB_PERFBENCH_MODEL_H_
