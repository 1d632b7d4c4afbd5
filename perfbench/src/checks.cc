#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/database.h"
#include "core/executor.h"
#include "core/multi_observation.h"
#include "core/object_based.h"
#include "exact/possible_worlds.h"

namespace perfbench {
namespace {

std::string Describe(const char* what, ObjectId id, double got, double want) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: object %u reported %.17g, expected %.17g",
                what, id, got, want);
  return buf;
}

/// P∃ of one object from its own observations: the object-based forward
/// engine for a single observation at t = 0, the Section VI engine else.
/// The Section VI reference renormalizes after every observation, which
/// the executor's engine (normalizing once at the end) does not, so the
/// two runs do not share their rounding or their small-entry cuts.
double ReferenceExists(const markov::MarkovChain& chain,
                       const std::vector<core::Observation>& obs,
                       const core::QueryWindow& window) {
  if (obs.size() == 1 && obs.front().time == 0) {
    return core::ObjectBasedEngine(&chain, window)
        .ExistsProbability(obs.front().pdf);
  }
  core::MultiObservationOptions options;
  options.eager_normalization = true;
  auto result =
      core::MultiObservationEngine(&chain, window, options).Evaluate(obs);
  Require(result.ok(), "reference multi-observation run failed");
  return result.value().exists_probability;
}

}  // namespace

CheckedAnswer Extract(const Model& model, const core::QueryRequest& request,
                      const core::QueryResult& result,
                      std::vector<ObjectId> sample) {
  CheckedAnswer a;
  a.predicate = request.predicate;
  a.window = request.window;
  a.tau = request.tau;
  a.k = request.k;
  a.evaluated = request.object_filter.has_value()
                    ? static_cast<uint32_t>(request.object_filter->size())
                    : static_cast<uint32_t>(model.observations.size());
  std::sort(sample.begin(), sample.end());
  sample.erase(std::unique(sample.begin(), sample.end()), sample.end());
  a.sample = std::move(sample);
  a.reported.assign(a.sample.size(), std::nullopt);
  for (ObjectId id : a.sample) a.sample_obs.push_back(model.observations[id]);
  if (request.predicate == core::PredicateKind::kKTimes) {
    a.distributions = result.distributions;
    return a;
  }
  for (const core::ObjectProbability& p : result.probabilities) {
    const auto it = std::lower_bound(a.sample.begin(), a.sample.end(), p.id);
    if (it != a.sample.end() && *it == p.id) {
      a.reported[it - a.sample.begin()] = p.probability;
    }
  }
  if (request.predicate == core::PredicateKind::kThresholdExists ||
      request.predicate == core::PredicateKind::kTopKExists) {
    a.entries = result.probabilities;
  }
  return a;
}

void CheckAnswer(const Model& model, const CheckedAnswer& a,
                 CheckReport* report) {
  using core::PredicateKind;
  if (a.predicate == PredicateKind::kKTimes) {
    for (const core::ObjectKTimes& d : a.distributions) {
      ++report->checked;
      double sum = 0.0;
      for (double p : d.distribution) sum += p;
      if (d.distribution.size() != a.window.num_times() + 1 ||
          std::abs(sum - 1.0) > kTolerance) {
        report->Fail(Describe("k-times distribution does not sum to 1", d.id,
                              sum, 1.0));
        continue;
      }
      const auto it = std::lower_bound(a.sample.begin(), a.sample.end(), d.id);
      if (it == a.sample.end() || *it != d.id) continue;
      const double exists = ReferenceExists(
          model.chains[model.object_chain[d.id]],
          a.sample_obs[it - a.sample.begin()], a.window);
      if (std::abs((1.0 - d.distribution[0]) - exists) > kTolerance) {
        report->Fail(Describe("k-times 1 - P(k=0) differs from P-exists",
                              d.id, 1.0 - d.distribution[0], exists));
      }
    }
    if (a.distributions.size() != a.evaluated) {
      report->Fail("k-times answer misses objects");
    }
    return;
  }

  double kth = 0.0;
  if (a.predicate == PredicateKind::kThresholdExists) {
    for (size_t i = 0; i < a.entries.size(); ++i) {
      ++report->checked;
      if (a.entries[i].probability < a.tau - kTolerance) {
        report->Fail(Describe("threshold answer below tau", a.entries[i].id,
                              a.entries[i].probability, a.tau));
      }
      if (i > 0 && a.entries[i - 1].id >= a.entries[i].id) {
        report->Fail("threshold answer not ascending by id");
      }
    }
  } else if (a.predicate == PredicateKind::kTopKExists) {
    ++report->checked;
    if (a.entries.size() != std::min(a.k, a.evaluated)) {
      report->Fail("top-k answer has the wrong size");
    }
    for (size_t i = 1; i < a.entries.size(); ++i) {
      if (a.entries[i - 1].probability < a.entries[i].probability) {
        report->Fail("top-k answer not in descending order");
      }
    }
    if (!a.entries.empty()) kth = a.entries.back().probability;
  }

  for (size_t i = 0; i < a.sample.size(); ++i) {
    const ObjectId id = a.sample[i];
    const markov::MarkovChain& chain = model.chains[model.object_chain[id]];
    const std::optional<double>& got = a.reported[i];
    ++report->checked;
    switch (a.predicate) {
      case PredicateKind::kExists: {
        const double want = ReferenceExists(chain, a.sample_obs[i], a.window);
        if (!got.has_value() || std::abs(*got - want) > kTolerance) {
          report->Fail(Describe("exists", id, got.value_or(-1.0), want));
        }
        break;
      }
      case PredicateKind::kForAll: {
        const double want =
            1.0 - ReferenceExists(chain, a.sample_obs[i],
                                  a.window.WithComplementRegion());
        const double exists =
            ReferenceExists(chain, a.sample_obs[i], a.window);
        if (!got.has_value() || std::abs(*got - want) > kTolerance) {
          report->Fail(Describe("forall", id, got.value_or(-1.0), want));
        } else if (*got > exists + kTolerance) {
          report->Fail(Describe("forall above exists", id, *got, exists));
        }
        break;
      }
      case PredicateKind::kThresholdExists: {
        const double want = ReferenceExists(chain, a.sample_obs[i], a.window);
        if (got.has_value()) {
          if (std::abs(*got - want) > kTolerance) {
            report->Fail(Describe("threshold", id, *got, want));
          }
        } else if (want >= a.tau + kTolerance) {
          report->Fail(Describe("threshold answer misses object", id, -1.0,
                                want));
        }
        break;
      }
      case PredicateKind::kTopKExists: {
        const double want = ReferenceExists(chain, a.sample_obs[i], a.window);
        if (got.has_value()) {
          if (std::abs(*got - want) > kTolerance) {
            report->Fail(Describe("top-k", id, *got, want));
          }
        } else if (a.entries.size() == a.k && want > kth + kTolerance) {
          report->Fail(Describe("top-k non-member above k-th", id, want, kth));
        }
        break;
      }
      case PredicateKind::kKTimes:
        break;
    }
  }
}

void CheckTinyModelExact(uint64_t seed, CheckReport* report) {
  ModelConfig config;
  config.num_states = 10;
  config.clusters = 2;
  config.chains_per_cluster = 1;
  config.num_objects = 6;
  config.state_spread = 3;
  config.max_step = 4;
  config.object_spread = 2;
  const Model model = GenerateModel(config, seed ^ 0x7157ULL);
  std::unique_ptr<core::ShardedDatabase> db = LoadSharded(model, 2);
  service::ServiceOptions options;
  options.executor.num_threads = 2;
  options.obs.enabled = false;
  service::QueryService service(db.get(), options);

  const core::QueryWindow windows[] = {MakeWindow(10, 3, 3, 1, 3),
                                       MakeWindow(10, 0, 4, 2, 2)};
  for (const core::QueryWindow& window : windows) {
    std::vector<double> exists;
    std::vector<double> forall;
    std::vector<std::vector<double>> ktimes;
    for (size_t o = 0; o < model.observations.size(); ++o) {
      const markov::MarkovChain& chain = model.chains[model.object_chain[o]];
      const sparse::ProbVector& pdf = model.observations[o].front().pdf;
      auto e = exact::ExistsByEnumeration(chain, pdf, window);
      auto f = exact::ForAllByEnumeration(chain, pdf, window);
      auto k = exact::KTimesByEnumeration(chain, pdf, window);
      Require(e.ok() && f.ok() && k.ok(), "possible-world enumeration failed");
      exists.push_back(e.value());
      forall.push_back(f.value());
      ktimes.push_back(k.value());
    }
    std::vector<double> sorted = exists;
    std::sort(sorted.rbegin(), sorted.rend());
    // τ halfway across the first clear gap below the top answer, so no
    // object sits on the threshold's knife edge.
    double tau = 0.5 * sorted.back();
    for (size_t i = 1; i < sorted.size(); ++i) {
      if (sorted[i - 1] - sorted[i] > 1e-6) {
        tau = 0.5 * (sorted[i - 1] + sorted[i]);
        break;
      }
    }
    const uint32_t k = 3;

    std::vector<core::QueryRequest> requests(5);
    const core::PredicateKind kinds[] = {
        core::PredicateKind::kExists, core::PredicateKind::kForAll,
        core::PredicateKind::kKTimes, core::PredicateKind::kThresholdExists,
        core::PredicateKind::kTopKExists};
    for (size_t i = 0; i < requests.size(); ++i) {
      requests[i].predicate = kinds[i];
      requests[i].window = window;
      requests[i].tau = tau;
      requests[i].k = k;
    }
    std::vector<service::QueryTicket> tickets =
        service.SubmitBurst(std::move(requests));
    std::vector<core::QueryResult> results;
    for (service::QueryTicket& ticket : tickets) {
      auto r = ticket.Get();
      if (!r.ok()) {
        report->Fail("tiny model request failed: " + r.status().ToString());
        return;
      }
      results.push_back(std::move(r).ValueOrDie());
    }
    const auto near = [](double a, double b) {
      return std::abs(a - b) <= kTolerance;
    };
    for (const core::ObjectProbability& p : results[0].probabilities) {
      ++report->checked;
      if (!near(p.probability, exists[p.id])) {
        report->Fail(Describe("tiny exists vs enumeration", p.id,
                              p.probability, exists[p.id]));
      }
    }
    for (const core::ObjectProbability& p : results[1].probabilities) {
      ++report->checked;
      if (!near(p.probability, forall[p.id])) {
        report->Fail(Describe("tiny forall vs enumeration", p.id,
                              p.probability, forall[p.id]));
      }
    }
    for (const core::ObjectKTimes& d : results[2].distributions) {
      ++report->checked;
      for (size_t j = 0; j < d.distribution.size(); ++j) {
        if (j >= ktimes[d.id].size() ||
            !near(d.distribution[j], ktimes[d.id][j])) {
          report->Fail(Describe("tiny k-times vs enumeration", d.id,
                                d.distribution[j], ktimes[d.id][j]));
          break;
        }
      }
    }
    std::vector<ObjectId> want_in;
    for (ObjectId o = 0; o < exists.size(); ++o) {
      if (exists[o] >= tau) want_in.push_back(o);
    }
    std::vector<ObjectId> got_in;
    for (const auto& p : results[3].probabilities) got_in.push_back(p.id);
    ++report->checked;
    if (got_in != want_in) report->Fail("tiny threshold set vs enumeration");
    ++report->checked;
    if (results[4].probabilities.size() != k) {
      report->Fail("tiny top-k size");
    } else {
      for (uint32_t i = 0; i < k; ++i) {
        if (!near(results[4].probabilities[i].probability, sorted[i])) {
          report->Fail(Describe("tiny top-k vs enumeration",
                                results[4].probabilities[i].id,
                                results[4].probabilities[i].probability,
                                sorted[i]));
        }
      }
    }
  }
}

void SubscriptionMirror::Apply(const service::SubscriptionDelta& delta) {
  if (delta.sequence != last_sequence + 1) gap = true;
  last_sequence = delta.sequence;
  ++deltas;
  for (ObjectId id : delta.left) answer.erase(id);
  for (const auto& p : delta.entered) answer[p.id] = p.probability;
  for (const auto& p : delta.changed) answer[p.id] = p.probability;
}

void CheckSubscriptions(const Model& model,
                        const std::vector<SubscriptionMirror>& mirrors,
                        uint64_t rounds, CheckReport* report) {
  core::Database db;
  for (const markov::MarkovChain& chain : model.chains) db.AddChain(chain);
  for (size_t o = 0; o < model.observations.size(); ++o) {
    Require(db.AddObject(model.object_chain[o], model.observations[o]).ok(),
            "rebuilding the plain database failed");
  }
  for (size_t i = 0; i < mirrors.size(); ++i) {
    const SubscriptionMirror& m = mirrors[i];
    ++report->checked;
    if (m.gap) report->Fail("subscription " + std::to_string(i) + " has a sequence gap");
    if (m.deltas != rounds) {
      report->Fail("subscription " + std::to_string(i) + " got " +
                   std::to_string(m.deltas) + " deltas, expected " +
                   std::to_string(rounds));
    }
    core::ExecutorOptions options;
    options.num_threads = 1;
    options.cache_capacity = 1;
    options.obs.enabled = false;
    core::QueryExecutor cold(&db, options);
    auto result = cold.Run(m.request);
    if (!result.ok()) {
      report->Fail("cold run failed: " + result.status().ToString());
      continue;
    }
    std::map<ObjectId, double> want;
    for (const auto& p : result.value().probabilities) want[p.id] = p.probability;
    const double tau = m.request.predicate ==
                               core::PredicateKind::kThresholdExists
                           ? m.request.tau
                           : -1.0;
    for (const auto& [id, p] : want) {
      const auto it = m.answer.find(id);
      if (it == m.answer.end()) {
        if (std::abs(p - tau) > kTolerance) {
          report->Fail(Describe("subscription mirror misses object", id, -1.0, p));
        }
      } else if (std::abs(it->second - p) > kTolerance) {
        report->Fail(Describe("subscription mirror", id, it->second, p));
      }
    }
    for (const auto& [id, p] : m.answer) {
      if (!want.count(id) && std::abs(p - tau) > kTolerance) {
        report->Fail(Describe("subscription mirror has extra object", id, p, -1.0));
      }
    }
  }
}

}  // namespace perfbench
