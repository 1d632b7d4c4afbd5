#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/shard_router.h"

namespace perfbench {
namespace {

using core::PredicateKind;
using core::QueryRequest;

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

QueryRequest Request(PredicateKind predicate, core::QueryWindow window,
                     double tau = 0.0, uint32_t k = 0) {
  QueryRequest r;
  r.predicate = predicate;
  r.window = std::move(window);
  r.tau = tau;
  r.k = k;
  return r;
}

/// Shared machinery of the workloads: set-up, the warm-up and
/// measured round loops, one-shot submission with client clocks, the
/// answer checks, and the traced mode's spans.
class Workload {
 public:
  explicit Workload(const PhaseOptions& options)
      : opt_(options), rng_(options.seed * 7919ULL + 3), spans_(&no_spans_) {}
  virtual ~Workload() = default;

  PhaseResult Run();

 protected:
  virtual ModelConfig Config() const = 0;
  virtual size_t CacheCapacity() const = 0;
  virtual uint32_t WarmupRounds() const = 0;
  /// Called once after the service starts (inside the warm-up time).
  virtual void Prepare() {}
  /// Called before every round, outside its timing.
  virtual void BeforeRound(uint32_t /*index*/) {}
  /// One client round; `index` counts warm-up rounds first.
  virtual void Round(uint32_t index, bool measured) = 0;
  /// Extra end-of-run checks.
  virtual void FinalChecks() {}

  /// Loads the model's current state into a fresh ShardedDatabase and
  /// starts a service over it.
  void StartService();
  /// Opens and closes a window of service and registry counters around
  /// measured rounds on the current service.
  void OpenStatsWindow();
  void CloseStatsWindow();

  /// Submits `requests` as one burst, waits for every ticket in order and
  /// records its client-clocked latency. When `check` is set the answers
  /// are extracted for checking after the round.
  void OneShots(std::vector<QueryRequest> requests, bool measured,
                bool check);
  /// 4 fixed objects plus the 4 anchored nearest the window's region, or
  /// the first 8 members of the request's filter.
  std::vector<ObjectId> SampleFor(const QueryRequest& request) const;
  void KeepSample(const std::vector<QueryRequest>& requests) {
    if (res_.sample_rounds.size() < 32) res_.sample_rounds.push_back(requests);
  }
  uint32_t RandomBelow(uint32_t n) {
    return static_cast<uint32_t>(rng_.NextBounded(n));
  }
  bool tiny() const { return opt_.tiny; }
  /// Whether round `index`'s answers are checked: every `stride`-th round
  /// (every other one at tiny size).
  bool CheckRound(uint32_t index, uint32_t stride) const {
    return index % (tiny() ? 2 : stride) == 0;
  }
  uint32_t num_states() const { return model_->config.num_states; }

  PhaseOptions opt_;
  PhaseResult res_;
  util::Rng rng_;
  std::shared_ptr<Model> model_;
  std::unique_ptr<core::ShardedDatabase> db_;
  std::unique_ptr<service::QueryService> service_;
  uint64_t round_span_ = 0;
  std::vector<ObjectId> fixed_sample_;
  /// opt_.spans during measured rounds, a disabled recorder otherwise.
  SpanRecorder* spans_;

 private:
  struct Pending {
    QueryRequest request;
    core::QueryResult result;
  };
  SpanRecorder no_spans_{false};
  bool window_open_ = false;
  std::vector<Pending> pending_;
};

PhaseResult Workload::Run() {
  res_.model = std::make_shared<Model>(GenerateModel(
      Config(), opt_.seed, &res_.chains_s, &res_.objects_s));
  model_ = res_.model;
  for (int i = 0; i < 4; ++i) {
    fixed_sample_.push_back(RandomBelow(model_->config.num_objects));
  }

  const Clock::time_point t_service = Clock::now();
  StartService();
  const Clock::time_point t_warm = Clock::now();
  res_.service_s = Seconds(t_service, t_warm);

  Prepare();
  const uint32_t warmup = WarmupRounds();
  for (uint32_t i = 0; i < warmup; ++i) {
    BeforeRound(i);
    Round(i, /*measured=*/false);
    pending_.clear();
  }
  const Clock::time_point t_ready = Clock::now();
  res_.warmup_s = Seconds(t_warm, t_ready);
  res_.setup_s = Seconds(opt_.start, t_ready);

  OpenStatsWindow();
  spans_ = opt_.spans;
  for (uint32_t i = warmup; i < warmup + opt_.rounds; ++i) {
    BeforeRound(i);
    const uint64_t answers_before = res_.answers;
    const double cpu0 = CpuSeconds();
    const Clock::time_point r0 = Clock::now();
    round_span_ = spans_->Begin("client.round");
    Round(i, /*measured=*/true);
    spans_->End(round_span_);
    const double ms = Seconds(r0, Clock::now()) * 1e3;
    res_.round_cpu_s.push_back(CpuSeconds() - cpu0);
    res_.round_answers.push_back(
        static_cast<uint32_t>(res_.answers - answers_before));
    res_.round_ms.push_back(ms);
    res_.wall_s += ms * 1e-3;
    ++res_.rounds;
    // Answer extraction is client bookkeeping, kept out of round time.
    for (const Pending& p : pending_) {
      res_.checked.push_back(
          Extract(*model_, p.request, p.result, SampleFor(p.request)));
    }
    pending_.clear();
  }
  CloseStatsWindow();
  res_.peak_rss_mb = PeakRssMb();

  for (const CheckedAnswer& a : res_.checked) {
    CheckAnswer(*model_, a, &res_.report);
  }
  CheckTinyModelExact(opt_.seed, &res_.report);
  FinalChecks();
  service_->Shutdown();
  return std::move(res_);
}

void Workload::StartService() {
  db_ = LoadSharded(*model_, kShards);
  service::ServiceOptions options;
  options.executor.num_threads = kWorkerBudget;
  options.executor.cache_capacity = CacheCapacity();
  options.obs.enabled = opt_.traced;
  options.obs.trace_sample_every = 0;  // the client attaches its own
  options.obs.slow_query_ring = 0;
  service_ = std::make_unique<service::QueryService>(db_.get(), options);
}

void Workload::OpenStatsWindow() {
  PhaseResult::StatsWindow w;
  w.before = service_->stats();
  if (opt_.traced) w.registry_before = obs::MetricsRegistry::Global()->Snapshot();
  res_.windows.push_back(std::move(w));
  window_open_ = true;
}

void Workload::CloseStatsWindow() {
  if (!window_open_) return;
  res_.windows.back().after = service_->stats();
  if (opt_.traced) {
    res_.windows.back().registry_after = obs::MetricsRegistry::Global()->Snapshot();
  }
  window_open_ = false;
}

void Workload::OneShots(std::vector<QueryRequest> requests, bool measured,
                        bool check) {
  SpanRecorder& spans = *spans_;
  const size_t n = requests.size();
  std::vector<QueryRequest> copies;
  if (check) copies = requests;
  std::vector<std::shared_ptr<obs::QueryTrace>> traces(n);
  const Clock::time_point submit = Clock::now();
  if (opt_.traced) {
    for (size_t i = 0; i < n; ++i) {
      traces[i] = std::make_shared<obs::QueryTrace>(submit);
      requests[i].trace = traces[i];
    }
  }
  std::vector<PredicateKind> kinds(n);
  for (size_t i = 0; i < n; ++i) kinds[i] = requests[i].predicate;
  std::vector<service::QueryTicket> tickets =
      service_->SubmitBurst(std::move(requests));
  spans.Add("service.submit_burst", round_span_, 0, submit,
            spans.enabled() ? Clock::now() : submit);
  for (size_t i = 0; i < n; ++i) {
    const Clock::time_point g0 = spans.enabled() ? Clock::now() : submit;
    util::Result<core::QueryResult> result = tickets[i].Get();
    const Clock::time_point done = Clock::now();
    ++res_.attempted;
    if (!result.ok()) {
      ++res_.failed;
      std::fprintf(stderr, "request failed: %s\n",
                   result.status().ToString().c_str());
      continue;
    }
    const double latency_ms = Seconds(submit, done) * 1e3;
    if (measured) {
      res_.latency_ms.push_back(latency_ms);
      ++res_.answers;
      if (kinds[i] == PredicateKind::kThresholdExists) {
        ++res_.threshold_requests;
        if (result.value().stats.prune.clusters_bounded > 0) {
          ++res_.threshold_bounded;
        }
      }
    }
    if (opt_.traced && measured) {
      // Spans of every 16th request keep the span file small; the
      // trace-derived figures below use every request.
      const uint64_t req = spans.NextRequestId();
      if (req % 16 == 1) {
        const uint64_t rs =
            spans.Add("client.request", round_span_, req, submit, done);
        spans.Add("service.ticket_get", rs, req, g0, done);
        spans.AddTrace(*traces[i], rs, req);
      }
      double dispatch_max = 0.0;
      for (const obs::TraceSpan& s : traces[i]->spans()) {
        if (s.stage == obs::Stage::kQueue) res_.queue_ms.push_back(s.seconds() * 1e3);
        if (s.stage == obs::Stage::kDispatch) dispatch_max = std::max(dispatch_max, s.seconds());
        if (s.stage == obs::Stage::kMerge) res_.merge_ms_sum += s.seconds() * 1e3;
      }
      res_.overhead_ms_sum += latency_ms - dispatch_max * 1e3;
      ++res_.traced_requests;
    }
    if (check) {
      pending_.push_back({std::move(copies[i]), std::move(result).ValueOrDie()});
    }
  }
}

std::vector<ObjectId> Workload::SampleFor(const QueryRequest& request) const {
  if (request.object_filter.has_value()) {
    std::vector<ObjectId> ids = *request.object_filter;
    std::sort(ids.begin(), ids.end());
    if (ids.size() > 8) ids.resize(8);
    return ids;
  }
  const sparse::IndexSet& region = request.window.region();
  std::vector<ObjectId> ids =
      ObjectsNear(*model_, (region.min() + region.max()) / 2, 4);
  ids.insert(ids.end(), fixed_sample_.begin(), fixed_sample_.end());
  return ids;
}

// ---------------------------------------------------------------------------
// adhoc_scan
// ---------------------------------------------------------------------------

class AdhocScan : public Workload {
 public:
  using Workload::Workload;

 protected:
  ModelConfig Config() const override {
    ModelConfig c;
    c.num_states = tiny() ? 1'000 : 16'000;
    c.num_objects = tiny() ? 480 : 6'400;
    c.clusters = 2;
    // Past the planner's break-even (~13 chains per cluster), so threshold
    // requests take the Section V-C bound pass. The backward passes stay
    // below ProbVector::kDenseThreshold within the window's reach, so they
    // run the sparse path, not the kernel table.
    c.chains_per_cluster = 16;
    c.max_step = 160;
    return c;
  }
  size_t CacheCapacity() const override { return 32; }
  uint32_t WarmupRounds() const override { return tiny() ? 2 : 8; }

  void Prepare() override { offset_ = RandomBelow(num_states() - kExtent); }

  void Round(uint32_t index, bool measured) override {
    // A fresh window every query: the region anchor walks a stride that
    // is coprime to the anchor range, so no (region, time) pair repeats.
    const uint32_t range = num_states() - kExtent;
    const uint32_t anchor = static_cast<uint32_t>(
        (offset_ + static_cast<uint64_t>(index) * 7919ULL) % range);
    core::QueryWindow window =
        MakeWindow(num_states(), anchor, kExtent, 10 + index % 16, 6);
    std::vector<QueryRequest> one;
    if (index % 3 == 2) {
      one.push_back(Request(PredicateKind::kExists, std::move(window)));
    } else {
      one.push_back(
          Request(PredicateKind::kThresholdExists, std::move(window), 0.3));
    }
    if (measured) KeepSample(one);
    OneShots(std::move(one), measured, CheckRound(index, 16));
  }

 private:
  static constexpr uint32_t kExtent = 32;
  uint32_t offset_ = 0;
};

// ---------------------------------------------------------------------------
// monitoring
// ---------------------------------------------------------------------------

class Monitoring : public Workload {
 public:
  using Workload::Workload;

 protected:
  ModelConfig Config() const override {
    ModelConfig c;
    c.num_states = tiny() ? 400 : 2'000;
    c.num_objects = tiny() ? 160 : 1'000;
    c.clusters = 2;
    c.chains_per_cluster = 4;
    return c;
  }
  size_t CacheCapacity() const override { return 256; }
  uint32_t WarmupRounds() const override { return 4; }

  void Prepare() override {
    // Hot set: kHotPerChain objects of every chain (objects are assigned
    // to chains round-robin), so every round's appends touch every chain.
    const uint32_t chains = static_cast<uint32_t>(model_->chains.size());
    const uint32_t per_chain = model_->config.num_objects / chains;
    std::vector<std::vector<ObjectId>> by_chain(chains);
    for (uint32_t c = 0; c < chains; ++c) {
      for (uint32_t p : rng_.SampleWithoutReplacement(per_chain, kHotPerChain)) {
        by_chain[c].push_back(p * chains + c);
      }
    }
    for (uint32_t k = 0; k < kHotPerChain; ++k) {
      for (uint32_t c = 0; c < chains; ++c) hot_.push_back(by_chain[c][k]);
    }
    initial_ = model_->observations;

    const uint32_t subs = tiny() ? 6 : kThresholdSubs + kWatchSubs;
    for (uint32_t i = 0; i < subs; ++i) {
      const uint32_t anchor = RandomBelow(num_states() - kExtent);
      core::QueryWindow window = MakeWindow(num_states(), anchor, kExtent, 2, 6);
      if (i % 3 != 2) {
        standing_.push_back(
            Request(PredicateKind::kThresholdExists, std::move(window), 0.2));
        continue;
      }
      QueryRequest watch = Request(PredicateKind::kExists, std::move(window));
      std::vector<ObjectId> ids = ObjectsNear(*model_, anchor, 8);
      for (uint32_t h = 0; h < 8; ++h) ids.push_back(hot_[(i + h) % hot_.size()]);
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      watch.object_filter = std::move(ids);
      standing_.push_back(std::move(watch));
    }
    StartSession();
  }

  /// Registers every standing query on the current service and delivers
  /// their first, full answers.
  void StartSession() {
    mirrors_.clear();
    subs_.clear();
    refresh_rounds_ = 0;
    for (size_t slot = 0; slot < standing_.size(); ++slot) {
      mirrors_.push_back({standing_[slot], {}, 0, 0, false});
      auto sub = service_->Subscribe(
          standing_[slot], service::WindowPolicy{.slide = 1},
          [this, slot](const service::SubscriptionDelta& delta) {
            const Clock::time_point now = Clock::now();
            if (!first_delivery_) first_delivery_ = now;
            if (measuring_) {
              res_.latency_ms.push_back(Seconds(round_start_, now) * 1e3);
              ++res_.answers;
            }
            mirrors_[slot].Apply(delta);
          });
      Require(sub.ok(), "subscribe failed");
      subs_.push_back(sub.value());
    }
    res_.attempted += subs_.size();
    res_.failed += subs_.size() - service_->RefreshSubscriptions();
    ++refresh_rounds_;
  }

  // The warm-up rounds run as a session of their own; then every
  // kSessionRounds rounds the monitoring session starts over on a fresh
  // database, so a hot object holds at most three appended observations.
  // The Section VI forward engine as the executor runs it (normalizing
  // once at the end) drifts from the per-observation-normalized reference
  // by more than 1e-9 from about five appended observations on, and fails
  // from about nine.
  void BeforeRound(uint32_t index) override {
    const uint32_t warmup = WarmupRounds();
    if (index < warmup || (index - warmup) % kSessionRounds != 0) return;
    session_start_ = index;
    CloseStatsWindow();
    FinalChecks();
    service_->Shutdown();
    service_.reset();
    db_.reset();
    model_->observations = initial_;
    StartService();
    StartSession();
    OpenStatsWindow();
  }

  void Round(uint32_t index, bool measured) override {
    SpanRecorder& spans = *spans_;
    measuring_ = measured;
    round_start_ = Clock::now();
    const Timestamp now = index - session_start_ + 1;
    const uint32_t appends = tiny() ? 4 : kAppendsPerRound;
    const uint32_t groups = static_cast<uint32_t>(hot_.size()) / appends;
    const uint32_t group = index % groups;
    for (uint32_t j = 0; j < appends; ++j) {
      const ObjectId id = hot_[group * appends + j];
      const markov::MarkovChain& chain = model_->chains[model_->object_chain[id]];
      const core::Observation& last = model_->observations[id].back();
      core::Observation obs{now, MostLikelyObservation(
                                     chain.Distribution(last.pdf, now - last.time),
                                     model_->config.object_spread)};
      model_->observations[id].push_back(obs);
      const Clock::time_point a0 = Clock::now();
      auto version = service_->AppendObservation(id, std::move(obs));
      const Clock::time_point a1 = Clock::now();
      spans.Add("service.append", round_span_, 0, a0, a1);
      ++res_.attempted;
      if (!version.ok()) {
        ++res_.failed;
        model_->observations[id].pop_back();
        std::fprintf(stderr, "append failed: %s\n",
                     version.status().ToString().c_str());
      } else if (measured) {
        res_.append_us.push_back(Seconds(a0, a1) * 1e6);
      }
    }
    const uint64_t tick = spans.Begin("service.tick", round_span_);
    service_->TickWindows(1);
    spans.End(tick);
    for (SubscriptionMirror& m : mirrors_) {
      m.request.window = m.request.window.ShiftedBy(1);
    }

    // One-shots: an alert over a fresh window, and the just-reported hot
    // objects' exists probabilities around the first one's position.
    std::vector<QueryRequest> shots;
    const uint32_t range = num_states() - kExtent;
    shots.push_back(Request(
        PredicateKind::kThresholdExists,
        MakeWindow(num_states(),
                   static_cast<uint32_t>((static_cast<uint64_t>(index) * 7919ULL) % range),
                   kExtent, now + 1, 6),
        0.2));
    {
      const uint32_t state = std::min(
          ArgMax(model_->observations[hot_[group * appends]].back().pdf), range);
      QueryRequest watch = Request(
          PredicateKind::kExists, MakeWindow(num_states(), state, kExtent, now, 6));
      std::vector<ObjectId> ids(hot_.begin() + group * appends,
                                hot_.begin() + (group + 1) * appends);
      std::sort(ids.begin(), ids.end());
      watch.object_filter = std::move(ids);
      shots.push_back(std::move(watch));
    }
    if (measured && res_.sample_rounds.size() < 32) {
      std::vector<QueryRequest> sample = shots;
      for (const SubscriptionMirror& m : mirrors_) sample.push_back(m.request);
      KeepSample(sample);
    }
    // A check stride coprime to the hot-set groups checks every group.
    OneShots(std::move(shots), measured, CheckRound(index, 3));

    first_delivery_.reset();
    const Clock::time_point f0 = Clock::now();
    const size_t delivered = service_->RefreshSubscriptions();
    const Clock::time_point f1 = Clock::now();
    const uint64_t refresh_span =
        spans.Add("service.refresh", round_span_, 0, f0, f1);
    if (first_delivery_) {
      spans.Add("service.deliver", refresh_span, 0, *first_delivery_, f1);
    }
    ++refresh_rounds_;
    res_.attempted += subs_.size();
    res_.failed += subs_.size() - delivered;
    if (measured) {
      res_.refresh_ms.push_back(Seconds(f0, f1) * 1e3);
      res_.notify_ms.push_back(
          first_delivery_ ? Seconds(*first_delivery_, f1) * 1e3 : 0.0);
    }
    measuring_ = false;
  }

  void FinalChecks() override {
    CheckSubscriptions(*model_, mirrors_, refresh_rounds_, &res_.report);
  }

 private:
  static constexpr uint32_t kExtent = 24;
  static constexpr uint32_t kHotPerChain = 8;  // 64 hot objects
  static constexpr uint32_t kAppendsPerRound = 16;
  static constexpr uint32_t kSessionRounds = 12;
  static constexpr uint32_t kThresholdSubs = 16;
  static constexpr uint32_t kWatchSubs = 8;
  std::vector<ObjectId> hot_;
  std::vector<std::vector<core::Observation>> initial_;
  std::vector<QueryRequest> standing_;
  std::vector<SubscriptionMirror> mirrors_;
  std::vector<service::Subscription> subs_;
  uint64_t refresh_rounds_ = 0;
  uint32_t session_start_ = 0;
  bool measuring_ = false;
  Clock::time_point round_start_;
  std::optional<Clock::time_point> first_delivery_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"adhoc_scan", "monitoring"};
  return names;
}

uint32_t BlockRounds(const std::string& workload) {
  if (workload == "adhoc_scan") return 96;  // whole predicate/time cycles
  return 12;                                // one monitoring session
}

uint32_t MeasuredRounds(const std::string& workload, double seconds) {
  // Rounds per second on the reference machine (see README.md).
  const double rate = workload == "adhoc_scan" ? 34.0 : 10.0;
  const uint32_t block = BlockRounds(workload);
  const long blocks = std::lround(seconds * rate / block);
  return block * static_cast<uint32_t>(std::max(1L, blocks));
}

PhaseResult RunPhase(const PhaseOptions& options) {
  std::unique_ptr<Workload> w;
  if (options.workload == "adhoc_scan") {
    w = std::make_unique<AdhocScan>(options);
  } else if (options.workload == "monitoring") {
    w = std::make_unique<Monitoring>(options);
  }
  Require(w != nullptr, "unknown workload " + options.workload);
  return w->Run();
}

}  // namespace perfbench
