// sbbench: runs one workload (or all, for the smoke test) for a fixed
// kRunSeconds, checks its outputs and prints every metric with its unit.
//
//   sbbench --workload W|all --seed N --trace 0|1 [--seconds 15] [--smoke]
//           [--git-sha SHA]
//
// Output: one JSON line with the full result (provenance, every metric,
// the checks), then, as the last line, {"correct", "attempted", "failed",
// "metrics"} holding the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). The full result and the span trace also go to
// benchmark/out/. Exit status is nonzero when a check fails.
//
// The seed draws a family of kInputsPerRound inputs. After one untimed
// warm-up trial, a run repeats rounds, each one trial per input, until
// kRunSeconds have passed (untraced: at least two). Each trial yields every
// end-to-end value; the run reports the median over its trials. Per-layer
// values are medians over traced trials. With --trace 1 every input's
// untraced trial is followed by a traced one, and the ratio of their
// median run_s is the tracing overhead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "report.h"
#include "workloads.h"

extern char** environ;

namespace sbbench {
namespace {

struct Args {
  std::string workload = "all";
  uint64_t seed = 1;
  bool trace = false;
  bool smoke = false;
  std::string git_sha = "unknown";
};

constexpr const char* kOutDir = "benchmark/out";
// Run length, the same on every commit compared. --seconds exists only
// because the command interface passes it, and must equal this.
constexpr double kRunSeconds = 15;
// Inputs per round. A workload's cost still moves a few percent from
// input to input (path-vector message counts over ten seeds: 723-753); a
// median over eight inputs keeps that out of the run-to-run spread.
constexpr size_t kInputsPerRound = 8;

// End-to-end metrics (BENCHMARK.json end_to_end), measured untraced.
const char* const kEndToEnd[] = {"setup_s", "run_s", "op_p50_ms", "op_p90_ms",
                                 "peak_rss_mb"};

// Per-layer metrics reported on every workload (BENCHMARK.json per_layer).
// Layer times that exist only on some workloads (crypto.seal_us,
// query.engine_s, ...) are in the full result instead.
const char* const kPerLayer[] = {
    "setup.credentials_s",  "setup.compile_s",
    "setup.install_s",      "engine.apply_s",
    "engine.apply_p50_us",  "engine.apply_p99_us",
    "engine.rounds",        "engine.firings",
    "engine.firings_skipped", "engine.derived",
    "engine.derived_per_firing", "engine.retractions",
    "engine.deleted",       "engine.rederives",
    "engine.plan_builds",   "engine.index_rebuilds",
    "engine.relation_mb",   "dist.runtime_s",
    "dist.sched_s",         "dist.overhead_s",
    "dist.residual_s",      "dist.accounted_frac",
    "dist.delivery_txns",   "dist.payloads_per_txn",
    "dist.rejected",        "dist.rerouted",
    "dist.handoff_rows",    "crypto.share",
    "wire.share",           "net.msgs",
    "net.bytes",            "net.bytes_per_msg",
    "net.kb_per_node",      "query.warm_ratio",
    "query.reprobes",       "query.seeds",
    "query.answers_per_query", "query.engine_share",
    "query.read_share",     "update.engine_share",
    "update.other_share",   "trace_overhead_frac",
};

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string UnitOf(const std::string& name) {
  if (name == "ops_per_s") return "1/s";
  if (EndsWith(name, "_s")) return "s";
  if (EndsWith(name, "_ms")) return "ms";
  if (EndsWith(name, "_us")) return "us";
  if (EndsWith(name, "_mb")) return "MB";
  if (EndsWith(name, "_frac") || EndsWith(name, "share") ||
      EndsWith(name, "_ratio")) {
    return "frac";
  }
  if (name == "net.bytes" || EndsWith(name, "bytes_per_msg")) return "B";
  if (EndsWith(name, "kb_per_node")) return "KB";
  if (EndsWith(name, "_per_firing") || EndsWith(name, "_per_txn") ||
      EndsWith(name, "_per_query")) {
    return "ratio";
  }
  return "count";
}

void ClearSbKnobs() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    std::string entry(*e);
    if (entry.rfind("SB_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      if (std::strtod(value.c_str(), &end) != kRunSeconds || *end != '\0') {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return true;
}

/// Seed of input `k` in the family drawn from the run seed.
uint64_t InputSeed(uint64_t seed, size_t k) {
  secureblox::SplitMix64 mix(seed);
  uint64_t out = 0;
  for (size_t i = 0; i <= k; ++i) out = mix.Next();
  return out;
}

std::string MetricsJson(const Values& values,
                        const std::vector<std::string>& names) {
  JsonObject metrics;
  for (const std::string& name : names) {
    auto it = values.find(name);
    JsonObject m;
    m.Num("value", it == values.end() ? NAN : it->second)
        .Str("unit", UnitOf(name));
    metrics.Raw(name, m.Text());
  }
  return metrics.Text();
}

std::string AllMetricsJson(const Values& values) {
  std::vector<std::string> names;
  for (const auto& [name, v] : values) names.push_back(name);
  return MetricsJson(values, names);
}

std::string ListJson(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + JsonNumber(values[i]);
  }
  return out + "]";
}

std::vector<double> Pool(const std::vector<Trial>& trials,
                         const std::string& key) {
  std::vector<double> out;
  for (const Trial& t : trials) {
    auto it = t.samples.find(key);
    if (it != t.samples.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  return out;
}

/// Median over trials of every value the trials report under `member`.
Values MedianOf(const std::vector<Trial>& trials, Values Trial::*member) {
  std::map<std::string, std::vector<double>> by_name;
  for (const Trial& t : trials) {
    for (const auto& [name, v] : t.*member) by_name[name].push_back(v);
  }
  Values out;
  for (const auto& [name, vs] : by_name) out[name] = Median(vs);
  return out;
}

/// Runs one workload; returns true when every check passed.
bool RunWorkload(const Workload& w, const Args& args) {
  // Smoke runs trace too, so both paths are checked, on one input.
  const bool trace = args.trace || args.smoke;
  const size_t inputs = args.smoke ? 1 : kInputsPerRound;
  // Every input runs at least twice, so the determinism check has a
  // repeat; a traced round already runs each input twice.
  const size_t min_rounds = trace ? 1 : 2;
  const double budget = args.smoke ? 0 : kRunSeconds;
  // An untimed warm-up trial on input 0 first: the process's first set-up
  // takes 0.1-0.2 s, ten or more times a later one (first-use
  // initialization), which no user pays twice. It still counts for the
  // checks.
  const Trial warmup = w.run({InputSeed(args.seed, 0), args.smoke, false, 0});
  // Trial i of `plain` (and of `traced`) ran input i % inputs.
  std::vector<Trial> plain, traced;
  size_t rounds = 0;
  uint64_t index = 1;
  const Clock::time_point start = Clock::now();
  for (; rounds < min_rounds || SecondsSince(start) < budget; ++rounds) {
    for (size_t k = 0; k < inputs; ++k) {
      TrialOptions opts{InputSeed(args.seed, k), args.smoke, false, index++};
      plain.push_back(w.run(opts));
      if (!trace) continue;
      opts.traced = true;
      opts.index = index++;
      traced.push_back(w.run(opts));
    }
  }

  std::vector<std::string> errors;
  uint64_t attempted = 0, failed = 0;
  for (const std::vector<Trial>* trials : {&plain, &traced}) {
    for (const Trial& t : *trials) {
      attempted += t.attempted;
      failed += t.failed;
      if (!t.error.empty()) errors.push_back(t.error);
    }
  }
  attempted += warmup.attempted;
  failed += warmup.failed;
  if (!warmup.error.empty()) errors.push_back(warmup.error);

  // Determinism self-check: the pinned schedule makes these counts repeat
  // exactly on every trial of one input, traced or not.
  std::vector<const Values*> exact(inputs, nullptr);
  std::string repeat = "identical";
  if (warmup.error.empty()) exact[0] = &warmup.exact;
  for (const std::vector<Trial>* trials : {&plain, &traced}) {
    for (size_t i = 0; i < trials->size(); ++i) {
      const Trial& t = (*trials)[i];
      const Values*& first = exact[i % inputs];
      if (!t.error.empty()) continue;
      if (first == nullptr) first = &t.exact;
      if (t.exact == *first || repeat == "differs") continue;
      repeat = "differs";
      errors.push_back("determinism: exact counts differ across trials of "
                       "one input (the pinned schedule leaked)");
    }
  }

  // Each trial yields setup_s, run_s and the p50/p90 of its own ops; a run
  // reports the median over its trials. Other tenants of the host slow
  // single trials by up to 80%, in bursts; the median ignores a minority of
  // slowed trials.
  std::map<std::string, std::vector<double>> per_trial;
  for (const Trial& t : plain) {
    per_trial["setup_s"].push_back(t.setup_s);
    per_trial["run_s"].push_back(t.run_s);
    auto it = t.samples.find("op_ms");
    if (it == t.samples.end()) continue;
    per_trial["op_p50_ms"].push_back(Percentile(it->second, 50));
    per_trial["op_p90_ms"].push_back(Percentile(it->second, 90));
  }
  for (const Trial& t : traced) per_trial["traced_run_s"].push_back(t.run_s);
  Values e2e;
  for (const auto& [name, values] : per_trial) e2e[name] = Median(values);
  // The warm-up runs first in the process, so its high-water mark is the
  // program's own set-up and run, not an earlier trial's checks.
  e2e["peak_rss_mb"] = warmup.rss_mb;

  Values extra = MedianOf(plain, &Trial::extra);
  // Tail percentiles need more samples than one trial has: pooled.
  const std::vector<double> op_ms = Pool(plain, "op_ms");
  extra["op_p99_ms"] = Percentile(op_ms, 99);
  const std::vector<double> query_us = Pool(plain, "query_us");
  const std::vector<double> update_ms = Pool(plain, "update_ms");
  if (!query_us.empty()) {
    extra["query_p50_us"] = Percentile(query_us, 50);
    extra["query_p99_us"] = Percentile(query_us, 99);
  }
  if (!update_ms.empty()) {
    extra["update_p50_ms"] = Percentile(update_ms, 50);
    extra["update_p90_ms"] = Percentile(update_ms, 90);
  }

  Values layers;
  if (!traced.empty()) {
    layers = MedianOf(traced, &Trial::layers);
    const std::vector<double> apply_us = Pool(traced, "engine.apply_us");
    layers["engine.apply_p50_us"] = Percentile(apply_us, 50);
    layers["engine.apply_p99_us"] = Percentile(apply_us, 99);
    layers["trace_overhead_frac"] = e2e["traced_run_s"] / e2e["run_s"] - 1.0;
    // Layers a workload never exercises read zero.
    for (const char* name : kPerLayer) layers.emplace(name, 0.0);
  }

  const std::vector<std::string> e2e_names(std::begin(kEndToEnd),
                                           std::end(kEndToEnd));
  const std::vector<std::string> layer_names(std::begin(kPerLayer),
                                             std::end(kPerLayer));
  // Shape check: every reported metric is a finite number, and end-to-end
  // values are positive.
  for (const std::string& name : e2e_names) {
    if (!(e2e[name] > 0) || !std::isfinite(e2e[name])) {
      errors.push_back("metric " + name + " is not a positive number");
    }
  }
  for (const auto& [name, v] : layers) {
    if (!std::isfinite(v)) errors.push_back("metric " + name + " not finite");
  }
  const bool correct = errors.empty() && failed == 0;

  std::string error_list = "[";
  for (size_t i = 0; i < errors.size(); ++i) {
    error_list += (i ? ", " : "") + JsonString(errors[i]);
  }
  error_list += "]";
  std::string exact_list = "[";
  for (size_t k = 0; k < inputs; ++k) {
    exact_list += (k ? ", " : "") + AllMetricsJson(exact[k] ? *exact[k]
                                                            : Values{});
  }
  exact_list += "]";
  JsonObject trials;
  trials.Int("rounds", rounds)
      .Int("inputs", inputs)
      .Int("plain", plain.size())
      .Int("traced", traced.size())
      .Int("op_samples", op_ms.size())
      .Num("warmup_setup_s", warmup.setup_s)
      .Num("warmup_run_s", warmup.run_s);
  for (const auto& [name, values] : per_trial) {
    trials.Raw(name, ListJson(values));
  }
  JsonObject full;
  full.Str("workload", w.name)
      .Int("seed", args.seed)
      .Num("seconds", kRunSeconds)
      .Bool("trace", args.trace)
      .Bool("smoke", args.smoke)
      .Raw("provenance", ProvenanceJson(args.git_sha))
      .Raw("trials", trials.Text())
      .Bool("correct", correct)
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Raw("errors", error_list)
      .Str("determinism", repeat)
      .Raw("exact", exact_list)
      .Raw("end_to_end", MetricsJson(e2e, e2e_names))
      .Raw("extra", AllMetricsJson(extra))
      .Raw("per_layer", AllMetricsJson(layers));
  std::printf("%s\n", full.Text().c_str());

  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  const std::string stem = std::string(kOutDir) + "/" + w.name;
  std::ofstream(stem + (args.trace ? ".trace" : "") + ".result.json")
      << full.Text() << "\n";
  if (!traced.empty()) {
    std::vector<Span> spans;
    for (const Trial& t : traced) {
      spans.insert(spans.end(), t.spans.begin(), t.spans.end());
    }
    WriteTrace(stem + ".trace.json", spans);
  }

  JsonObject line;
  line.Bool("correct", correct)
      .Int("attempted", std::max<uint64_t>(1, attempted))
      .Int("failed", failed)
      .Raw("metrics", args.trace ? MetricsJson(layers, layer_names)
                                 : MetricsJson(e2e, e2e_names));
  std::printf("%s\n", line.Text().c_str());
  std::fflush(stdout);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "sbbench %s: %s\n", w.name, e.c_str());
  }
  return correct;
}

}  // namespace
}  // namespace sbbench

int main(int argc, char** argv) {
  using namespace sbbench;
  // Measure the defaults: no SB_* knob may reach a Workspace.
  ClearSbKnobs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: sbbench --workload W|all --seed N --trace 0|1 "
                 "[--seconds 15] [--smoke] [--git-sha SHA]\n"
                 "The run length is fixed at 15 s; --seconds accepts only "
                 "that value.\n");
    return 2;
  }
  bool ok = true;
  bool found = false;
  for (const Workload& w : Workloads()) {
    if (args.workload != "all" && args.workload != w.name) continue;
    found = true;
    ok = RunWorkload(w, args) && ok;
  }
  if (!found) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return ok ? 0 : 1;
}
