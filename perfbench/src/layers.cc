#include "layers.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>

#include "core/database.h"
#include "core/k_times.h"
#include "core/multi_observation.h"
#include "core/object_based.h"
#include "core/planner.h"
#include "core/query_based.h"
#include "kernels/isa.h"
#include "markov/interval_chain.h"
#include "util/aligned_alloc.h"

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

namespace {

/// Keeps probe results observable so the compiler cannot drop the work.
volatile double g_sink = 0.0;

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// Counter and histogram differences across the measured windows' registry
/// snapshots, summed over every point whose labels match an optional
/// key = value.
class RegistryDelta {
 public:
  explicit RegistryDelta(const std::vector<PhaseResult::StatsWindow>& windows)
      : windows_(windows) {}

  double Counter(const std::string& name, const std::string& key = "",
                 const std::string& value = "") const {
    return Delta(name, key, value, false);
  }
  /// Histogram value-sum difference.
  double HistSum(const std::string& name, const std::string& key = "",
                 const std::string& value = "") const {
    return Delta(name, key, value, true);
  }

 private:
  double Delta(const std::string& name, const std::string& key,
               const std::string& value, bool hist) const {
    double total = 0.0;
    for (const PhaseResult::StatsWindow& w : windows_) {
      total += Sum(w.registry_after, name, key, value, hist) -
               Sum(w.registry_before, name, key, value, hist);
    }
    return total;
  }

  static double Sum(const obs::MetricsSnapshot& s, const std::string& name,
                    const std::string& key, const std::string& value,
                    bool hist = false) {
    double total = 0.0;
    for (const obs::MetricFamily& f : s.families) {
      if (f.name != name) continue;
      for (const obs::MetricPoint& p : f.points) {
        if (!key.empty()) {
          const auto it = p.labels.find(key);
          if (it == p.labels.end() || it->second != value) continue;
        }
        total += hist ? p.histogram.sum : p.value;
      }
    }
    return total;
  }
  const std::vector<PhaseResult::StatsWindow>& windows_;
};

/// A ServiceStats counter summed over the measured windows.
template <typename F>
double ServiceDelta(const PhaseResult& r, F field) {
  double total = 0.0;
  for (const PhaseResult::StatsWindow& w : r.windows) {
    total += static_cast<double>(field(w.after) - field(w.before));
  }
  return total;
}

template <typename F>
double TimeSeconds(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return Seconds(t0, Clock::now());
}

/// Distinct windows of the sampled rounds, at most `limit`.
std::vector<core::QueryWindow> ProbeWindows(const PhaseResult& r,
                                            size_t limit) {
  std::vector<core::QueryWindow> out;
  for (const auto& round : r.sample_rounds) {
    for (const core::QueryRequest& q : round) {
      bool seen = false;
      for (const core::QueryWindow& w : out) {
        seen = seen || (w.region() == q.window.region() &&
                        w.times() == q.window.times());
      }
      if (!seen && out.size() < limit) out.push_back(q.window);
    }
  }
  return out;
}

double PlannerProbeUs(const PhaseResult& r, SpanRecorder* spans) {
  const Model& model = *r.model;
  core::Database db;
  for (const markov::MarkovChain& chain : model.chains) db.AddChain(chain);
  const core::QueryPlanner planner(&db);
  const uint32_t chains = static_cast<uint32_t>(model.chains.size());
  std::vector<uint32_t> per_chain(chains, 0);
  for (ChainId c : model.object_chain) ++per_chain[c];

  // Each sampled round is one PlanBatch call per (window group, chain),
  // with the members' per-chain object counts, as the executor plans it.
  struct Call {
    core::QueryWindow window;
    std::vector<core::MemberLoad> members;
  };
  std::vector<std::vector<Call>> rounds;
  for (const auto& round : r.sample_rounds) {
    std::vector<Call> calls;
    for (const core::QueryRequest& q : round) {
      core::QueryWindow w = q.predicate == core::PredicateKind::kForAll
                                ? q.window.WithComplementRegion()
                                : q.window;
      Call* group = nullptr;
      for (Call& c : calls) {
        if (c.window.region() == w.region() && c.window.times() == w.times()) {
          group = &c;
        }
      }
      if (group == nullptr) {
        calls.push_back({std::move(w), {}});
        group = &calls.back();
      }
      group->members.push_back({q.predicate, 0});
    }
    rounds.push_back(std::move(calls));
  }
  const uint64_t span = spans->Begin("probe.planner.plan_batch");
  uint64_t n = 0;
  const double s = TimeSeconds([&] {
    for (int rep = 0; rep < 20; ++rep) {
      for (const auto& calls : rounds) {
        for (const Call& call : calls) {
          for (ChainId c = 0; c < chains; ++c) {
            std::vector<core::MemberLoad> members = call.members;
            for (core::MemberLoad& m : members) m.num_objects = per_chain[c];
            const core::PlanDecision d = planner.PlanBatch(
                c, call.window, core::MatrixMode::kImplicit, members);
            g_sink = g_sink + d.cost.query_based;
            ++n;
          }
        }
      }
    }
  });
  spans->End(span);
  return Ratio(s * 1e6, static_cast<double>(n));
}

void EngineProbes(const PhaseResult& r, SpanRecorder* spans,
                  std::vector<Metric>* out) {
  const Model& model = *r.model;
  const markov::MarkovChain& chain = model.chains[0];
  const std::vector<core::QueryWindow> windows = ProbeWindows(r, 8);
  const uint32_t chains = static_cast<uint32_t>(model.chains.size());

  std::vector<ObjectId> objects;  // single-observation objects of chain 0
  for (ObjectId o = 0; o < model.observations.size() && objects.size() < 64;
       o += chains) {
    if (model.observations[o].size() == 1) objects.push_back(o);
  }

  {
    const uint64_t span = spans->Begin("probe.engines.qb_pass");
    uint64_t steps = 0;
    const double s = TimeSeconds([&] {
      for (int rep = 0; rep < 3; ++rep) {
        for (const core::QueryWindow& w : windows) {
          core::QueryBasedEngine qb(&chain, w);
          steps += qb.transitions();
          g_sink = g_sink + qb.start_vector().Sum();
        }
      }
    });
    spans->End(span);
    out->push_back({"engines.qb_pass_us_per_step",
                    Ratio(s * 1e6, static_cast<double>(steps)), "us"});
  }
  {
    const uint64_t span = spans->Begin("probe.engines.shift_extend");
    uint64_t steps = 0;
    double s = 0.0;
    for (const core::QueryWindow& w : windows) {
      core::QueryBasedEngine base(&chain, w);
      s += TimeSeconds([&] {
        for (Timestamp d = 1; d <= 8; ++d) {
          core::QueryBasedEngine shifted(base, w.ShiftedBy(d), d);
          steps += d;
          g_sink = g_sink + shifted.start_vector().Sum();
        }
      });
    }
    spans->End(span);
    out->push_back({"engines.shift_extend_us_per_step",
                    Ratio(s * 1e6, static_cast<double>(steps)), "us"});
  }
  {
    const uint64_t span = spans->Begin("probe.engines.object_based");
    uint64_t evals = 0;
    const double s = TimeSeconds([&] {
      for (const core::QueryWindow& w : windows) {
        core::ObjectBasedEngine ob(&chain, w);
        for (ObjectId o : objects) {
          g_sink = g_sink + ob.ExistsProbability(model.observations[o][0].pdf);
          ++evals;
        }
      }
    });
    spans->End(span);
    out->push_back({"engines.ob_us_per_object",
                    Ratio(s * 1e6, static_cast<double>(evals)), "us"});
  }
  {
    // Multi-observation histories: the workload's own when it has them,
    // else each object's first observation plus the likeliest observation
    // three steps later.
    std::vector<std::vector<core::Observation>> histories;
    for (ObjectId o = 0; o < model.observations.size(); o += chains) {
      if (model.observations[o].size() > 1) histories.push_back(model.observations[o]);
    }
    for (size_t i = 0; histories.size() < 32 && i < objects.size(); ++i) {
      const core::Observation& first = model.observations[objects[i]][0];
      histories.push_back(
          {first, core::Observation{3, MostLikelyObservation(
                                           chain.Distribution(first.pdf, 3),
                                           model.config.object_spread)}});
    }
    if (histories.size() > 32) histories.resize(32);
    const uint64_t span = spans->Begin("probe.engines.multi_observation");
    uint64_t evals = 0;
    const double s = TimeSeconds([&] {
      for (const core::QueryWindow& w : windows) {
        core::MultiObservationEngine engine(&chain, w);
        for (const auto& h : histories) {
          auto result = engine.Evaluate(h);
          if (result.ok()) g_sink = g_sink + result.value().exists_probability;
          ++evals;
        }
      }
    });
    spans->End(span);
    out->push_back({"engines.multi_obs_us_per_object",
                    Ratio(s * 1e6, static_cast<double>(evals)), "us"});
  }
  {
    const uint64_t span = spans->Begin("probe.engines.k_times");
    uint64_t evals = 0;
    const double s = TimeSeconds([&] {
      for (const core::QueryWindow& w : windows) {
        core::KTimesEngine engine(&chain, w);
        for (size_t i = 0; i < 8 && i < objects.size(); ++i) {
          g_sink = g_sink +
                   engine.Distribution(model.observations[objects[i]][0].pdf)[0];
          ++evals;
        }
      }
    });
    spans->End(span);
    out->push_back({"engines.ktimes_us_per_object",
                    Ratio(s * 1e6, static_cast<double>(evals)), "us"});
  }
  {
    std::vector<const markov::MarkovChain*> members;
    for (ChainId c : model.clusters[0]) members.push_back(&model.chains[c]);
    const uint64_t span = spans->Begin("probe.engines.envelope_build");
    const double s = TimeSeconds([&] {
      for (int rep = 0; rep < 3; ++rep) {
        auto env = markov::IntervalMarkovChain::FromChains(members);
        Require(env.ok(), "envelope build failed");
        g_sink = g_sink + static_cast<double>(env.value().nnz());
      }
    });
    spans->End(span);
    out->push_back({"engines.envelope_build_ms", s * 1e3 / 3.0, "ms"});
  }
}

/// Raw CSR arrays of one matrix, 64-byte aligned as the kernels require.
struct RawCsr {
  std::vector<sparse::NnzIndex> rp;
  util::AlignedVector<uint32_t> ci;
  util::AlignedVector<double> va;
  explicit RawCsr(const sparse::CsrMatrix& m) {
    rp.push_back(0);
    for (uint32_t row = 0; row < m.rows(); ++row) {
      for (uint32_t c : m.RowIndices(row)) ci.push_back(c);
      for (double v : m.RowValues(row)) va.push_back(v);
      rp.push_back(ci.size());
    }
  }
};

void KernelProbes(const PhaseResult& r, SpanRecorder* spans,
                  std::vector<Metric>* out) {
  const markov::MarkovChain& chain = r.model->chains[0];
  const kernels::KernelTable& table = kernels::Active();
  const uint32_t n = chain.num_states();
  const RawCsr forward(chain.matrix());
  const RawCsr backward(chain.transposed());
  const double nnz = static_cast<double>(forward.ci.size());
  util::AlignedVector<double> x(n, 1.0 / n);
  util::AlignedVector<double> acc(n, 0.0);
  // Enough repetitions for ~2e8 touched entries per probe.
  const int reps = std::max(1, static_cast<int>(2e8 / nnz));

  const uint64_t g_span = spans->Begin("probe.kernels.gather");
  const double gather_s = TimeSeconds([&] {
    for (int i = 0; i < reps; ++i) {
      table.gather(backward.rp.data(), backward.ci.data(), backward.va.data(),
                   x.data(), n, acc.data());
    }
  });
  spans->End(g_span);
  g_sink = g_sink + acc[n / 2];

  std::fill(acc.begin(), acc.end(), 0.0);
  const uint64_t s_span = spans->Begin("probe.kernels.scatter");
  const double scatter_s = TimeSeconds([&] {
    for (int i = 0; i < reps; ++i) {
      table.scatter_dense(forward.rp.data(), forward.ci.data(),
                          forward.va.data(), x.data(), n, acc.data());
    }
  });
  spans->End(s_span);
  g_sink = g_sink + acc[n / 2];

  // Compulsory bytes of one gather: column indices and values once, the
  // row pointers, the input vector and the output vector.
  const double bytes = nnz * (sizeof(uint32_t) + sizeof(double)) +
                       (n + 1.0) * sizeof(sparse::NnzIndex) +
                       2.0 * n * sizeof(double);
  // STREAM-style copy moving the same bytes (half read, half written), so
  // both run from the same level of the memory hierarchy.
  const size_t words = static_cast<size_t>(bytes / (2 * sizeof(double)));
  util::AlignedVector<double> src(words, 1.0);
  util::AlignedVector<double> dst(words, 0.0);
  const uint64_t c_span = spans->Begin("probe.kernels.copy");
  const double copy_s = TimeSeconds([&] {
    for (int i = 0; i < reps; ++i) {
      src[static_cast<size_t>(i) % words] = static_cast<double>(i);
      std::memcpy(dst.data(), src.data(), words * sizeof(double));
    }
  });
  spans->End(c_span);
  g_sink = g_sink + dst[words / 2];

  const double gather_gbps = Ratio(bytes * reps, gather_s) * 1e-9;
  const double copy_gbps =
      Ratio(2.0 * words * sizeof(double) * reps, copy_s) * 1e-9;
  out->push_back({"kernels.gather_ns_per_nnz",
                  Ratio(gather_s * 1e9, nnz * reps), "ns"});
  out->push_back({"kernels.scatter_ns_per_nnz",
                  Ratio(scatter_s * 1e9, nnz * reps), "ns"});
  out->push_back({"kernels.gather_gbps", gather_gbps, "GB/s"});
  out->push_back({"kernels.copy_gbps", copy_gbps, "GB/s"});
  out->push_back({"kernels.gather_roofline", Ratio(gather_gbps, copy_gbps),
                  "ratio"});
}

}  // namespace

std::vector<Metric> LayerMetrics(const PhaseResult& t, const PhaseResult& u,
                                 SpanRecorder* spans) {
  using Stats = service::ServiceStats;
  const RegistryDelta reg(t.windows);
  const double queries =
      ServiceDelta(t, [](const Stats& s) { return s.completed; });
  const double answers = static_cast<double>(t.answers);
  const double rounds = static_cast<double>(t.rounds);
  const double traced = static_cast<double>(t.traced_requests);
  std::vector<Metric> m;

  // service
  m.push_back({"service.queue_wait_ms_p50", Median(t.queue_ms), "ms"});
  m.push_back({"service.overhead_ms_per_answer",
               Ratio(t.overhead_ms_sum, traced), "ms"});
  m.push_back({"service.answers_per_dispatch",
               Ratio(answers, reg.Counter("ustdb_service_dispatches_total")),
               "answers"});
  m.push_back({"service.refresh_ms_per_round", Mean(t.refresh_ms), "ms"});
  m.push_back({"service.notify_ms_per_round", Mean(t.notify_ms), "ms"});

  // shard_router
  const double submitted =
      ServiceDelta(t, [](const Stats& s) { return s.submitted; });
  const double scattered =
      ServiceDelta(t, [](const Stats& s) { return s.scatter_requests; });
  const double scatter_subs =
      ServiceDelta(t, [](const Stats& s) { return s.scatter_subtasks; });
  m.push_back({"shard_router.subrequests_per_query",
               Ratio(scatter_subs + submitted - scattered, submitted),
               "subrequests"});
  m.push_back({"shard_router.merge_ms_per_query",
               Ratio(t.merge_ms_sum, traced), "ms"});
  {
    double max_busy = 0.0;
    double total_busy = 0.0;
    for (uint32_t s = 0; s < kShards; ++s) {
      const double busy = reg.HistSum("ustdb_service_dispatch_seconds",
                                      "shard", std::to_string(s));
      max_busy = std::max(max_busy, busy);
      total_busy += busy;
    }
    m.push_back({"shard_router.busy_imbalance",
                 Ratio(max_busy, total_busy / kShards), "ratio"});
  }

  // executor
  const char* kStage = "ustdb_exec_stage_seconds";
  m.push_back({"executor.plan_ms_per_query",
               Ratio(reg.HistSum(kStage, "stage", "plan") * 1e3, queries), "ms"});
  m.push_back({"executor.bound_ms_per_query",
               Ratio(reg.HistSum(kStage, "stage", "bound") * 1e3, queries), "ms"});
  m.push_back({"executor.engine_build_ms_per_query",
               Ratio(reg.HistSum(kStage, "stage", "engine_build") * 1e3, queries),
               "ms"});
  m.push_back({"executor.evaluate_ms_per_query",
               Ratio(reg.HistSum(kStage, "stage", "evaluate") * 1e3, queries),
               "ms"});
  m.push_back({"executor.subtasks_per_query",
               Ratio(ServiceDelta(t, [](const Stats& s) { return s.group_subtasks; }),
                     queries),
               "subtasks"});
  m.push_back({"executor.multi_obs_objects_per_query",
               Ratio(reg.Counter("ustdb_exec_objects_total", "kind", "multi"),
                     queries),
               "objects"});
  {
    const double by_bounds = reg.Counter("ustdb_prune_objects_total",
                                         "outcome", "decided_by_bounds");
    const double refined =
        reg.Counter("ustdb_prune_objects_total", "outcome", "refined");
    m.push_back({"executor.objects_pruned_share",
                 Ratio(by_bounds, by_bounds + refined), "ratio"});
    m.push_back({"executor.clusters_pruned_share",
                 Ratio(reg.Counter("ustdb_prune_clusters_total", "outcome",
                                   "pruned"),
                       reg.Counter("ustdb_prune_clusters_total", "outcome",
                                   "bounded")),
                 "ratio"});
  }

  // planner
  {
    const double qb =
        reg.Counter("ustdb_exec_chains_total", "plan", "query_based");
    const double ob =
        reg.Counter("ustdb_exec_chains_total", "plan", "object_based");
    m.push_back({"planner.qb_chain_share", Ratio(qb, qb + ob), "ratio"});
    m.push_back({"planner.bounds_plan_share",
                 Ratio(static_cast<double>(t.threshold_bounded),
                       static_cast<double>(t.threshold_requests)),
                 "ratio"});
    m.push_back({"planner.plan_us_per_call", PlannerProbeUs(t, spans), "us"});
  }

  // engine_cache
  {
    const char* kCache = "ustdb_exec_cache_events_total";
    const double hits = reg.Counter(kCache, "kind", "hit");
    const double misses = reg.Counter(kCache, "kind", "miss");
    const double bound_hits = reg.Counter(kCache, "kind", "bound_hit");
    const double bound_misses = reg.Counter(kCache, "kind", "bound_miss");
    m.push_back({"engine_cache.hit_ratio", Ratio(hits, hits + misses), "ratio"});
    m.push_back({"engine_cache.misses_per_query", Ratio(misses, queries),
                 "misses"});
    m.push_back({"engine_cache.evictions_per_query",
                 Ratio(reg.Counter(kCache, "kind", "eviction"), queries),
                 "evictions"});
    m.push_back({"engine_cache.bound_hit_ratio",
                 Ratio(bound_hits, bound_hits + bound_misses), "ratio"});
    m.push_back({"engine_cache.shift_extends_per_round",
                 Ratio(reg.Counter(kCache, "kind", "shift_extend"), rounds),
                 "extends"});
    m.push_back({"engine_cache.invalidations_per_round",
                 Ratio(reg.Counter(kCache, "kind", "invalidation"), rounds),
                 "invalidations"});
  }

  EngineProbes(t, spans, &m);

  m.push_back({"kernels.spmv_passes_per_query",
               Ratio(reg.Counter("ustdb_kernel_spmv_passes_total"), queries),
               "passes"});
  KernelProbes(t, spans, &m);

  m.push_back({"database.append_us_p50", Median(t.append_us), "us"});
  m.push_back({"setup.chains_s", u.chains_s, "s"});
  m.push_back({"setup.objects_s", u.objects_s, "s"});
  m.push_back({"setup.service_s", u.service_s, "s"});
  m.push_back({"setup.warmup_s", u.warmup_s, "s"});

  m.push_back({"obs.tracing_overhead",
               Ratio(Ratio(t.answers, t.wall_s), Ratio(u.answers, u.wall_s)),
               "ratio"});
  return m;
}

}  // namespace perfbench
