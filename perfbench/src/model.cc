#include "model.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "workload/synthetic.h"

namespace perfbench {
namespace {

/// Relative weight perturbation of a cluster's member chains: well inside
/// Database::kChainClusterL1Threshold, so members cluster together.
constexpr double kJitter = 0.05;

}  // namespace

void Require(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

Model GenerateModel(const ModelConfig& config, uint64_t seed,
                    double* chains_s, double* objects_s) {
  Model model;
  model.config = config;
  workload::SyntheticConfig synth;
  synth.num_states = config.num_states;
  synth.state_spread = config.state_spread;
  synth.max_step = config.max_step;
  synth.object_spread = config.object_spread;

  const Clock::time_point t0 = Clock::now();
  util::Rng chain_rng(seed * 1000003ULL + 11);
  for (uint32_t c = 0; c < config.clusters; ++c) {
    auto base = workload::GenerateChain(synth, &chain_rng);
    Require(base.ok(), "chain generation failed");
    std::vector<ChainId> members;
    for (uint32_t m = 0; m < config.chains_per_cluster; ++m) {
      auto chain =
          workload::PerturbChain(base.value(), kJitter, &chain_rng);
      Require(chain.ok(), "chain perturbation failed");
      members.push_back(static_cast<ChainId>(model.chains.size()));
      model.chains.push_back(std::move(chain).ValueOrDie());
    }
    model.clusters.push_back(std::move(members));
  }
  const Clock::time_point t1 = Clock::now();

  util::Rng object_rng(seed * 1000003ULL + 29);
  const uint32_t num_chains = static_cast<uint32_t>(model.chains.size());
  model.object_chain.reserve(config.num_objects);
  model.observations.reserve(config.num_objects);
  model.anchor.reserve(config.num_objects);
  for (uint32_t o = 0; o < config.num_objects; ++o) {
    sparse::ProbVector pdf = workload::GenerateObjectPdf(synth, &object_rng);
    uint32_t anchor = config.num_states;
    pdf.ForEachNonZero(
        [&](uint32_t i, double) { anchor = std::min(anchor, i); });
    model.object_chain.push_back(o % num_chains);
    model.anchor.push_back(anchor);
    model.observations.push_back({core::Observation{0, std::move(pdf)}});
  }
  model.by_anchor.resize(config.num_objects);
  for (uint32_t o = 0; o < config.num_objects; ++o) model.by_anchor[o] = o;
  std::stable_sort(model.by_anchor.begin(), model.by_anchor.end(),
                   [&](ObjectId a, ObjectId b) {
                     return model.anchor[a] < model.anchor[b];
                   });
  const Clock::time_point t2 = Clock::now();
  if (chains_s != nullptr) *chains_s = Seconds(t0, t1);
  if (objects_s != nullptr) *objects_s = Seconds(t1, t2);
  return model;
}

std::unique_ptr<core::ShardedDatabase> LoadSharded(const Model& model,
                                                   uint32_t shards) {
  auto db = std::make_unique<core::ShardedDatabase>(
      core::ShardingOptions{.num_shards = shards});
  for (const markov::MarkovChain& chain : model.chains) db->AddChain(chain);
  for (size_t o = 0; o < model.observations.size(); ++o) {
    auto id = db->AddObject(model.object_chain[o], model.observations[o]);
    Require(id.ok() && id.value() == o, "object load failed");
  }
  return db;
}

core::QueryWindow MakeWindow(uint32_t num_states, uint32_t s_lo,
                             uint32_t extent, Timestamp t_lo,
                             uint32_t length) {
  auto window = core::QueryWindow::FromRanges(
      num_states, s_lo, s_lo + extent - 1, t_lo, t_lo + length - 1);
  Require(window.ok(), "window out of range");
  return std::move(window).ValueOrDie();
}

std::vector<ObjectId> ObjectsNear(const Model& model, uint32_t state,
                                  uint32_t count) {
  const auto& order = model.by_anchor;
  const auto it = std::lower_bound(
      order.begin(), order.end(), state,
      [&](ObjectId id, uint32_t s) { return model.anchor[id] < s; });
  size_t hi = static_cast<size_t>(it - order.begin());
  size_t lo = hi;
  std::vector<ObjectId> out;
  while (out.size() < count && (lo > 0 || hi < order.size())) {
    const bool take_hi =
        lo == 0 ||
        (hi < order.size() &&
         model.anchor[order[hi]] - state <= state - model.anchor[order[lo - 1]]);
    out.push_back(take_hi ? order[hi++] : order[--lo]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

uint32_t ArgMax(const sparse::ProbVector& pdf) {
  uint32_t best = 0;
  double best_p = -1.0;
  pdf.ForEachNonZero([&](uint32_t i, double p) {
    if (p > best_p) {
      best = i;
      best_p = p;
    }
  });
  return best;
}

sparse::ProbVector MostLikelyObservation(const sparse::ProbVector& predicted,
                                         uint32_t spread) {
  const uint32_t n = predicted.size();
  const uint32_t peak = ArgMax(predicted);
  const uint32_t lo = peak >= spread / 2 ? peak - spread / 2 : 0;
  std::vector<std::pair<uint32_t, double>> pairs;
  for (uint32_t s = lo; s < std::min(n, lo + spread); ++s) {
    const double p = predicted.Get(s);
    if (p > 0.0) pairs.emplace_back(s, p);
  }
  auto pdf = sparse::ProbVector::FromPairs(n, std::move(pairs),
                                           /*normalize=*/true);
  Require(pdf.ok(), "observation pdf failed");
  return std::move(pdf).ValueOrDie();
}

}  // namespace perfbench
