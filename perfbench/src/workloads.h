// The two workloads of the end-to-end benchmark, each driven by one
// closed-loop client thread through the public QueryService API of a
// two-shard ShardedDatabase:
//
//   adhoc_scan  one request at a time over fresh, never repeated windows
//               on a larger clustered state space (planning, Section V-C
//               bound pass, backward-pass builds in the sparse regime);
//   monitoring  rounds of ingest + window tick + subscription refresh
//               with a few one-shot queries (ingest, epoch invalidation,
//               shift extension, Section VI multi-observation engine,
//               whose dense-regime forward passes run the SpMV kernels).
#ifndef USTDB_PERFBENCH_WORKLOADS_H_
#define USTDB_PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "model.h"
#include "obs/metrics.h"
#include "service/query_service.h"
#include "spans.h"

namespace perfbench {

/// Shards of the served ShardedDatabase, and the total executor worker
/// budget split across them (one worker per shard runs inline on the
/// shard's dispatcher thread). The same on every workload.
inline constexpr uint32_t kShards = 2;
inline constexpr unsigned kWorkerBudget = 2;

/// How one phase (set-up, warm-up, measured rounds, checks) is run.
struct PhaseOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Measured rounds; a fixed count, never a time budget.
  uint32_t rounds = 0;
  /// Feed the obs registry (MetricsRegistry::Global()) and attach a
  /// QueryTrace to every one-shot request.
  bool traced = false;
  /// Tiny inputs for the self-check mode.
  bool tiny = false;
  /// Process start: set-up time is measured from here.
  Clock::time_point start;
  SpanRecorder* spans = nullptr;
};

/// Everything one phase measured.
struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rounds = 0;
  uint64_t answers = 0;  ///< measured-phase answers delivered
  std::vector<double> latency_ms;  ///< per measured answer
  std::vector<double> round_ms;    ///< per measured round
  std::vector<double> round_cpu_s;      ///< process CPU per measured round
  std::vector<uint32_t> round_answers;  ///< answers per measured round
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  double setup_s = 0.0;
  double chains_s = 0.0;
  double objects_s = 0.0;
  double service_s = 0.0;
  double warmup_s = 0.0;
  // Client-timed layer calls (measured rounds only).
  std::vector<double> append_us;
  std::vector<double> refresh_ms;
  std::vector<double> notify_ms;
  // From the QueryTraces of one-shot requests (traced phase only).
  std::vector<double> queue_ms;
  double overhead_ms_sum = 0.0;
  double merge_ms_sum = 0.0;
  uint64_t traced_requests = 0;
  // Threshold requests and those that ran the Section V-C bound pass.
  uint64_t threshold_requests = 0;
  uint64_t threshold_bounded = 0;
  /// Service and registry state around the measured rounds, one window
  /// per service instance (monitoring restarts its service per session).
  struct StatsWindow {
    service::ServiceStats before;
    service::ServiceStats after;
    obs::MetricsSnapshot registry_before;
    obs::MetricsSnapshot registry_after;
  };
  std::vector<StatsWindow> windows;
  CheckReport report;
  /// Inputs, kept for the traced mode's outside probes.
  std::shared_ptr<Model> model;
  std::vector<std::vector<core::QueryRequest>> sample_rounds;
  /// Negative self-check hooks: answers as extracted, before checking.
  std::vector<CheckedAnswer> checked;
};

/// Rounds per block: throughput and CPU per answer are medians over
/// blocks of this many measured rounds, and a run measures whole blocks.
/// A monitoring block is one session (see Monitoring in workloads.cc).
uint32_t BlockRounds(const std::string& workload);

/// The fixed measured round count of a run of about `seconds` on the
/// reference machine (see README.md): whole blocks, at least one.
uint32_t MeasuredRounds(const std::string& workload, double seconds);

/// Runs one phase of `options.workload`. Unknown workloads abort.
PhaseResult RunPhase(const PhaseOptions& options);

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench

#endif  // USTDB_PERFBENCH_WORKLOADS_H_
