// Correctness checks of the end-to-end benchmark. Every check recomputes
// the answer apart from the service — ObjectBasedEngine (or, for objects
// with several observations, MultiObservationEngine with per-observation
// renormalization, which the executor does not use) on the benchmark's own
// copy of the model, exact:: possible-world enumeration on a tiny model,
// and a cold QueryExecutor for the standing queries — and compares.
#ifndef USTDB_PERFBENCH_CHECKS_H_
#define USTDB_PERFBENCH_CHECKS_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/query_request.h"
#include "model.h"
#include "service/query_service.h"

namespace perfbench {

/// Absolute tolerance of every probability comparison.
inline constexpr double kTolerance = 1e-9;

/// The facts of one delivered answer that the checks need, extracted when
/// the answer arrives so that no full result is kept.
struct CheckedAnswer {
  core::PredicateKind predicate = core::PredicateKind::kExists;
  core::QueryWindow window;
  double tau = 0.0;
  uint32_t k = 0;
  /// Objects the request evaluated (the filter, or every object).
  uint32_t evaluated = 0;
  /// Sampled objects, their observations when the request was submitted,
  /// and what the answer reported for each (absent = not in the answer).
  std::vector<ObjectId> sample;
  std::vector<std::vector<core::Observation>> sample_obs;
  std::vector<std::optional<double>> reported;
  /// Threshold and top-k: every answer entry, in answer order.
  std::vector<core::ObjectProbability> entries;
  /// k-times: every distribution of the answer.
  std::vector<core::ObjectKTimes> distributions;
};

/// Extracts the checked facts of `result` for `request`, sampling `sample`.
CheckedAnswer Extract(const Model& model, const core::QueryRequest& request,
                      const core::QueryResult& result,
                      std::vector<ObjectId> sample);

/// Outcome of the checks: number of facts checked and failures seen.
struct CheckReport {
  uint64_t checked = 0;
  std::vector<std::string> failures;
  bool ok() const { return failures.empty() && checked > 0; }
  void Fail(std::string what) {
    if (failures.size() < 20) failures.push_back(std::move(what));
    else if (failures.size() == 20) failures.push_back("...");
  }
};

/// Checks one answer against the independent engines (see file comment).
void CheckAnswer(const Model& model, const CheckedAnswer& answer,
                 CheckReport* report);

/// Runs every predicate through a 2-shard QueryService over a tiny model
/// (<= 12 states) from the same generator and compares each answer with
/// exact:: possible-world enumeration.
void CheckTinyModelExact(uint64_t seed, CheckReport* report);

/// A standing query's delivered deltas, folded into its answer set.
struct SubscriptionMirror {
  core::QueryRequest request;  ///< window advanced in step with the service
  std::map<ObjectId, double> answer;
  uint64_t last_sequence = 0;
  uint64_t deltas = 0;
  bool gap = false;
  void Apply(const service::SubscriptionDelta& delta);
};

/// Checks every mirror against a cold one-shot run of its request on a
/// fresh QueryExecutor over a plain Database rebuilt from `model` (no
/// cache reuse, no shift extension), plus gap-free sequences and exactly
/// `rounds` deltas per subscription.
void CheckSubscriptions(const Model& model,
                        const std::vector<SubscriptionMirror>& mirrors,
                        uint64_t rounds, CheckReport* report);

}  // namespace perfbench

#endif  // USTDB_PERFBENCH_CHECKS_H_
