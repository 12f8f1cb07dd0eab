// Ablation: SIMD filter kernels (SB_SIMD) A/B.
//
// Two workloads, each run with the kernels pinned to scalar (SB_SIMD=0)
// and resolved to the best host level (auto):
//
//   wide_filter_scan — a wide selective filter scan that the planner
//     sends down the kScanAll batch path:
//       hit(K) <- tick(T), span(K, T, "pad..").
//     span has two distinct (T, pad) filter pairs, so the tracked
//     two-column statistic estimates half the relation matches and the
//     cost-based probe choice picks the linear scan; the actually-bound
//     tag is rare, so the fused two-filter kernel does nearly all the
//     work and emission is cheap. Seeding happens before the clock
//     starts — the measured phase is tick churn, i.e. repeated fused
//     full-shard scans. Gate (AVX2 hosts only, auto-skipped with a note
//     elsewhere): auto must beat scalar by >= 1.25x.
//
//   narrow_recursion — the fig08-flavoured recursion + aggregate over a
//     narrow entity relation: all selective probes, batch sizes of a
//     handful of slots. SIMD cannot win here; the gate checks the
//     dispatch overhead does not lose: auto must stay within 1.10x of
//     scalar (min-of-trials on both sides).
//
// Timings are min-of-SB_TRIALS (default 3). SB_QUICK=1 shrinks sizes for
// CI. Set SB_BENCH_OUT=<path> to record results as BENCH_simd.json.
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "datalog/parser.h"
#include "engine/kernels.h"
#include "engine/workspace.h"

using namespace secureblox;
using namespace secureblox::bench;
using engine::FactUpdate;
using engine::Workspace;
using datalog::Value;

namespace {

bool Install(Workspace* ws, const std::string& src) {
  auto program = datalog::Parse(src);
  if (!program.ok()) {
    std::fprintf(stderr, "parse: %s\n", program.status().ToString().c_str());
    return false;
  }
  Status st = ws->Install(program.value());
  if (!st.ok()) {
    std::fprintf(stderr, "install: %s\n", st.ToString().c_str());
    return false;
  }
  return true;
}

bool Apply(Workspace* ws, const std::vector<FactUpdate>& ins,
           const std::vector<FactUpdate>& del = {}) {
  auto r = ws->Apply(ins, del);
  if (!r.ok()) {
    std::fprintf(stderr, "apply: %s\n", r.status().ToString().c_str());
    return false;
  }
  return true;
}

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

constexpr const char* kPad = "pad-filter-column-constant-payload";

/// Selective wide scan on the batch path: every tick insert/retract
/// replays a fused two-filter kernel over the whole span relation.
double RunWideFilterScan(int simd) {
  // The span's two filter columns (~1 MB of codes) stay cache-resident;
  // four identical rules re-scan them per delta tick, so nearly all the
  // measured work is fused-kernel passes over warm columns rather than
  // per-transaction fixed costs.
  const int64_t span_rows = QuickMode() ? 120000 : 250000;
  const int64_t cold_stride = 2999;  // rare tags: ~0.03% of rows match
  const int64_t cold_tags = 3;       // hot + 3 cold = 4 distinct filter pairs
  const int hit_rules = 4;
  const int iters = QuickMode() ? 12 : 24;

  Workspace ws;
  ws.fixpoint_options().simd = simd;
  std::string program = R"(
        tick(T) -> string(T).
        span(K, T, P) -> int(K), string(T), string(P).
  )";
  for (int r = 0; r < hit_rules; ++r) {
    const std::string head = "hit" + std::to_string(r);
    program += head + "(K) -> int(K).\n" + head +
               "(K) <- tick(T), span(K, T, \"" + kPad + "\").\n";
  }
  if (!Install(&ws, program)) return -1;

  // Seed outside the measured phase: ingest cost is identical at every
  // SIMD level; the A/B isolates the scan kernels.
  std::vector<FactUpdate> seed;
  seed.reserve(static_cast<size_t>(span_rows));
  for (int64_t i = 0; i < span_rows; ++i) {
    const std::string tag =
        i % cold_stride == 0
            ? "tag-cold-" + std::to_string((i / cold_stride) % cold_tags)
            : "tag-hot";
    seed.push_back(
        {"span", {Value::Int(i), Value::Str(tag), Value::Str(kPad)}});
  }
  if (!Apply(&ws, seed)) return -1;

  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    // Each cold tick joins ~0.03% of span through a full-shard fused
    // kernel pass (one per delta row, on insert and again on retract);
    // the miss tick is answered by the dictionary (equal cost at every
    // level — it never reaches the kernels).
    std::vector<FactUpdate> ticks;
    for (int64_t c = 0; c < cold_tags; ++c) {
      ticks.push_back({"tick", {Value::Str("tag-cold-" + std::to_string(c))}});
    }
    ticks.push_back({"tick", {Value::Str("tag-miss-" + std::to_string(i))}});
    if (!Apply(&ws, ticks)) return -1;
    if (!Apply(&ws, {}, ticks)) return -1;
  }
  return Seconds(t0);
}

/// Narrow recursion: tiny selective probes, no wide scans — pins the
/// kernel dispatch overhead on the row-at-a-time-sized batches.
double RunNarrowRecursion(int simd) {
  const int nodes = QuickMode() ? 32 : 48;

  Workspace ws;
  ws.fixpoint_options().simd = simd;
  if (!Install(&ws, R"(
        node(X) -> .
        link(X, Y) -> node(X), node(Y).
        reachable(X, Y) -> node(X), node(Y).
        reachable(X, Y) <- link(X, Y).
        reachable(X, Y) <- link(X, Z), reachable(Z, Y).
        dist[X] = D -> node(X), int(D).
        dist[X] = D <- agg<< D = count() >> reachable(X, _anon).
      )")) {
    return -1;
  }
  auto label = [](int i) { return Value::Str("v" + std::to_string(i)); };
  uint64_t lcg = 0x5eedULL;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };
  std::vector<FactUpdate> links;
  for (int i = 0; i < nodes; ++i) {
    links.push_back({"link", {label(i), label((i + 1) % nodes)}});
    links.push_back(
        {"link", {label(i), label(static_cast<int>(next() % nodes))}});
  }

  auto t0 = std::chrono::steady_clock::now();
  if (!Apply(&ws, links)) return -1;
  for (int i = 0; i < nodes; i += 5) {
    FactUpdate f{"link", {label(i), label((i + 1) % nodes)}};
    if (!Apply(&ws, {}, {f})) return -1;
    if (!Apply(&ws, {f})) return -1;
  }
  return Seconds(t0);
}

/// Interleaved A/B min-of-trials: alternate scalar and auto within each
/// trial so clock/load drift on a shared runner hits both sides alike.
/// Returns {scalar_min, auto_min}, either negative on failure.
std::pair<double, double> InterleavedMinOfTrials(double (*fn)(int),
                                                 size_t trials) {
  double scalar = -1, autod = -1;
  for (size_t t = 0; t < trials; ++t) {
    double s = fn(0);
    if (s < 0) return {s, s};  // propagate failure
    if (scalar < 0 || s < scalar) scalar = s;
    double a = fn(2);
    if (a < 0) return {a, a};
    if (autod < 0 || a < autod) autod = a;
  }
  return {scalar, autod};
}

}  // namespace

int main() {
  const engine::SimdMode host = engine::DetectSimdMode();
  PrintTitle(std::string("Ablation: SIMD filter kernels (SB_SIMD) A/B — "
                         "wide selective batch scan and a narrow "
                         "recursion; host=") +
             engine::SimdModeName(host));
  PrintHeader({"workload", "simd", "seconds"});

  struct Workload {
    const char* name;
    double (*fn)(int);
    size_t trials;  // the short noise-bound workload takes extra trials
  };
  const Workload workloads[] = {
      {"wide_filter_scan", RunWideFilterScan, Trials()},
      {"narrow_recursion", RunNarrowRecursion, Trials() * 3},
  };

  const char* out_path = std::getenv("SB_BENCH_OUT");
  FILE* json = nullptr;
  if (out_path != nullptr) {
    json = std::fopen(out_path, "w");
    if (json == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path);
      return 1;
    }
    std::fprintf(json,
                 "{\n  \"benchmark\": \"abl_simd_ab\",\n"
                 "  \"host\": \"%s\",\n  \"trials\": %zu,\n  \"rows\": [\n",
                 engine::SimdModeName(host), Trials());
  }

  bool gate_ok = true;
  bool first_row = true;
  std::vector<std::pair<std::string, double>> speedups;
  for (const Workload& w : workloads) {
    // simd knob: 0 pins scalar, 2 = auto resolves to the host's best.
    const auto [scalar, autod] = InterleavedMinOfTrials(w.fn, w.trials);
    if (scalar < 0 || autod < 0) {
      if (json) std::fclose(json);
      return 1;
    }
    for (const auto& [simd, secs] :
         {std::pair<int, double>{0, scalar}, {1, autod}}) {
      std::printf("%s\t%d\t%.4f\n", w.name, simd, secs);
      if (json) {
        std::fprintf(json,
                     "%s    {\"workload\": \"%s\", \"simd\": %d, "
                     "\"seconds\": %.6f}",
                     first_row ? "" : ",\n", w.name, simd, secs);
        first_row = false;
      }
    }
    const double speedup = scalar / autod;
    speedups.emplace_back(w.name, speedup);
    std::printf("# %s speedup (scalar/auto): %.2fx\n", w.name, speedup);
  }

  // Gates. The wide-scan win is only promised where AVX2 exists; on
  // weaker hosts the gate is skipped with a note so CI stays green on
  // any x86 (or non-x86) runner. The narrow no-regression bound holds
  // everywhere: auto must not lose to scalar by more than dispatch
  // noise.
  const double wide = speedups[0].second;
  const double narrow = speedups[1].second;
  const bool avx2 = host == engine::SimdMode::kAvx2;
  if (!avx2) {
    std::printf("# note: host lacks AVX2 (%s) — wide_filter_scan gate "
                "skipped\n",
                engine::SimdModeName(host));
  } else if (wide < 1.25) {
    std::fprintf(stderr,
                 "GATE FAILED: wide_filter_scan speedup %.2fx < 1.25x\n",
                 wide);
    gate_ok = false;
  }
  if (narrow < 1.0 / 1.10) {
    std::fprintf(stderr,
                 "GATE FAILED: narrow_recursion %.2fx slower with SIMD on "
                 "(bound 1.10x)\n",
                 1.0 / narrow);
    gate_ok = false;
  }

  if (json) {
    std::fprintf(json,
                 "\n  ],\n  \"speedup\": {\"wide_filter_scan\": %.4f, "
                 "\"narrow_recursion\": %.4f},\n"
                 "  \"gates\": {\"wide_min\": 1.25, \"wide_gated\": %s, "
                 "\"narrow_regression_max\": 1.10, \"ok\": %s}\n}\n",
                 wide, narrow, avx2 ? "true" : "false",
                 gate_ok ? "true" : "false");
    std::fclose(json);
  }
  return gate_ok ? 0 : 1;
}
