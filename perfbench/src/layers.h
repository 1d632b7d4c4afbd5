// Per-layer metrics of the traced mode: counters and stage histograms read
// from the obs registry and ServiceStats around the traced phase's measured
// rounds, plus "outside" probes that time each layer's public functions
// (planner, engines, kernels) on the workload's own inputs.
#ifndef USTDB_PERFBENCH_LAYERS_H_
#define USTDB_PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Every per-layer metric of BENCHMARK.json, from the traced phase
/// `traced` and the untraced phase `untraced` of the same workload and
/// seed. Probe spans are recorded into `spans`.
std::vector<Metric> LayerMetrics(const PhaseResult& traced,
                                 const PhaseResult& untraced,
                                 SpanRecorder* spans);

/// Median of `v` (0 for an empty sample).
double Median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1] of `v` (0 for an empty sample).
double Quantile(std::vector<double> v, double q);

}  // namespace perfbench

#endif  // USTDB_PERFBENCH_LAYERS_H_
