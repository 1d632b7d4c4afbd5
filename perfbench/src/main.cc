// ustdb_perfbench — the end-to-end benchmark program. See perfbench/README.md.
//
//   ustdb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--out <dir>]
//   ustdb_perfbench --selfcheck
//
// --trace 0 runs one phase (set-up, warm-up, a fixed number of measured
// rounds, checks) with the obs registry off and prints the end-to-end
// metrics. --trace 1 runs that phase, then the same workload again with
// the registry on and a QueryTrace on every one-shot request, and prints
// the per-layer metrics; spans and the per-layer table go to <dir>.
// The last line of standard output is always one JSON object.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "kernels/isa.h"
#include "layers.h"
#include "workloads.h"

namespace {

using namespace perfbench;

// Set-up time is measured from here: static initialization runs at
// process start, before main.
const Clock::time_point g_process_start = Clock::now();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;
  int trace = 0;
  std::string out = ".bench_out";
  bool selfcheck = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: ustdb_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>] | --selfcheck\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selfcheck") {
      a.selfcheck = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(v);
    else if (flag == "--trace") a.trace = std::atoi(v);
    else if (flag == "--out") a.out = v;
    else Usage(("unknown flag " + flag).c_str());
  }
  if (a.selfcheck) return a;
  bool known = false;
  for (const std::string& w : WorkloadNames()) known = known || w == a.workload;
  if (!known) Usage("unknown or missing --workload");
  if (!(a.seconds > 0.0) || (a.trace != 0 && a.trace != 1)) {
    Usage("--seconds (> 0) is required and --trace must be 0 or 1");
  }
  return a;
}

std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}}";
}

/// The end-to-end metrics of a run. Each timing is the median over
/// blocks of BlockRounds() measured rounds of that block's own figure, so
/// a neighbour's burst on the shared machine moves one block, not the run.
std::vector<Metric> EndToEnd(const PhaseResult& r, uint32_t block) {
  std::vector<double> qps, p50, p90, round, cpu;
  size_t first_answer = 0;
  for (size_t b = 0; b + block <= r.round_ms.size(); b += block) {
    double ms = 0.0;
    double cpu_s = 0.0;
    size_t answers = 0;
    for (size_t i = b; i < b + block; ++i) {
      ms += r.round_ms[i];
      cpu_s += r.round_cpu_s[i];
      answers += r.round_answers[i];
    }
    const std::vector<double> lat(
        r.latency_ms.begin() + first_answer,
        r.latency_ms.begin() + first_answer + answers);
    first_answer += answers;
    qps.push_back(answers / (ms * 1e-3));
    cpu.push_back(cpu_s * 1e3 / answers);
    p50.push_back(Quantile(lat, 0.5));
    p90.push_back(Quantile(lat, 0.9));
    round.push_back(Median(std::vector<double>(r.round_ms.begin() + b,
                                               r.round_ms.begin() + b + block)));
  }
  return {
      {"setup_s", r.setup_s, "s"},
      {"throughput_qps", Median(qps), "answers/s"},
      {"latency_p50_ms", Median(p50), "ms"},
      {"latency_p90_ms", Median(p90), "ms"},
      {"round_p50_ms", Median(round), "ms"},
      {"cpu_ms_per_answer", Median(cpu), "ms"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
  };
}

void PrintReport(const char* phase, const PhaseResult& r) {
  std::printf("%s: rounds=%llu answers=%llu wall=%.3fs checked=%llu "
              "failures=%zu attempted=%llu failed=%llu\n",
              phase, static_cast<unsigned long long>(r.rounds),
              static_cast<unsigned long long>(r.answers), r.wall_s,
              static_cast<unsigned long long>(r.report.checked),
              r.report.failures.size(),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const std::string& f : r.report.failures) {
    std::printf("  check failed: %s\n", f.c_str());
  }
}

int RunBenchmark(const Args& a) {
  const uint32_t rounds = MeasuredRounds(a.workload, a.seconds);
  std::printf("workload=%s seed=%llu rounds=%u shards=%u workers=%u isa=%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              rounds, kShards, kWorkerBudget,
              kernels::IsaName(kernels::ActiveIsa()));
  SpanRecorder off(false);
  PhaseOptions options;
  options.workload = a.workload;
  options.seed = a.seed;
  options.rounds = rounds;
  options.start = g_process_start;
  options.spans = &off;
  const PhaseResult plain = RunPhase(options);
  PrintReport("untraced", plain);
  if (a.trace == 0) {
    const std::vector<Metric> metrics =
        EndToEnd(plain, BlockRounds(a.workload));
    for (const Metric& m : metrics) {
      std::printf("  %-20s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("%s\n", Json(plain.report.ok(), plain.attempted, plain.failed,
                             metrics).c_str());
    return 0;
  }

  SpanRecorder spans(true);
  options.traced = true;
  options.start = Clock::now();
  options.spans = &spans;
  const PhaseResult traced = RunPhase(options);
  PrintReport("traced", traced);
  const std::vector<Metric> metrics = LayerMetrics(traced, plain, &spans);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::string table = spans.Table();
  std::printf("%s", table.c_str());
  std::error_code ec;
  std::filesystem::create_directories(a.out, ec);
  const std::string stem =
      a.out + "/" + a.workload + "-seed" + std::to_string(a.seed);
  const bool wrote = spans.WriteJson(stem + "-spans.json");
  if (FILE* f = std::fopen((stem + "-layers.txt").c_str(), "w")) {
    std::fputs(table.c_str(), f);
    std::fclose(f);
  }
  std::printf("spans: %s (%s)\n", (stem + "-spans.json").c_str(),
              wrote ? "written" : "NOT written");
  std::printf("%s\n",
              Json(plain.report.ok() && traced.report.ok(),
                   plain.attempted + traced.attempted,
                   plain.failed + traced.failed, metrics)
                  .c_str());
  return 0;
}

/// Every workload at tiny size, untraced and traced, with all checks; then
/// negative cases that each corrupt one answer and must make a check fail.
int SelfCheck() {
  bool ok = true;
  const auto verdict = [&ok](bool pass, const std::string& what) {
    std::printf("selfcheck %s: %s\n", pass ? "PASS" : "FAIL", what.c_str());
    ok = ok && pass;
  };
  for (const std::string& w : WorkloadNames()) {
    SpanRecorder off(false);
    PhaseOptions options;
    options.workload = w;
    options.seed = 1;
    options.rounds = 30;  // monitoring crosses a session restart
    options.tiny = true;
    options.start = Clock::now();
    options.spans = &off;
    const PhaseResult plain = RunPhase(options);
    PrintReport(w.c_str(), plain);
    verdict(plain.report.ok() && plain.failed == 0 && plain.answers > 0,
            w + " answers pass every check (" +
                std::to_string(plain.report.checked) + " facts)");

    SpanRecorder spans(true);
    options.traced = true;
    options.start = Clock::now();
    options.spans = &spans;
    const PhaseResult traced = RunPhase(options);
    const std::vector<Metric> layers = LayerMetrics(traced, plain, &spans);
    bool finite = traced.report.ok();
    for (const Metric& m : layers) finite = finite && std::isfinite(m.value);
    verdict(finite && layers.size() == 43,
            w + " traced run checks and reports " +
                std::to_string(layers.size()) + " finite per-layer metrics");

    // Negative case 1: one reported probability off by 1e-6; on
    // monitoring also one of an object with appended observations, whose
    // reference is the Section VI engine.
    const auto perturb = [&](size_t min_observations, const std::string& what) {
      for (const CheckedAnswer& a : plain.checked) {
        for (size_t i = 0; i < a.reported.size(); ++i) {
          if (!a.reported[i].has_value() ||
              a.sample_obs[i].size() < min_observations) {
            continue;
          }
          CheckedAnswer bad = a;
          *bad.reported[i] += 1e-6;
          CheckReport report;
          CheckAnswer(*plain.model, bad, &report);
          verdict(!report.failures.empty(),
                  w + " " + what + " perturbed by 1e-6 fails the check");
          return;
        }
      }
      verdict(false, w + " found " + what + " to perturb");
    };
    perturb(1, "a probability");
    if (w == "monitoring") {
      perturb(2, "a multi-observation object's probability");
    }

    // Negative case 2: drop a qualifying object from a threshold answer.
    bool dropped = false;
    for (const CheckedAnswer& a : plain.checked) {
      if (a.predicate != core::PredicateKind::kThresholdExists) continue;
      for (size_t i = 0; i < a.reported.size() && !dropped; ++i) {
        if (!a.reported[i].has_value() || *a.reported[i] < a.tau + 1e-6) continue;
        CheckedAnswer bad = a;
        bad.reported[i].reset();
        std::erase_if(bad.entries, [&](const core::ObjectProbability& p) {
          return p.id == a.sample[i];
        });
        CheckReport report;
        CheckAnswer(*plain.model, bad, &report);
        verdict(!report.failures.empty(),
                w + " a threshold answer missing a qualifying object fails "
                    "the check");
        dropped = true;
      }
      if (dropped) break;
    }
    if (!dropped) verdict(false, w + " found a threshold answer to corrupt");
  }
  std::printf("selfcheck %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  return args.selfcheck ? SelfCheck() : RunBenchmark(args);
}
