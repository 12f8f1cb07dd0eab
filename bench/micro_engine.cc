// Microbenchmarks for the DatalogLB evaluation engine (google-benchmark):
// fixpoint computation, incremental maintenance, constraint checking, the
// columnar filter kernels, program installation (typecheck, rule
// compilation, rule graph), and the BloxGenerics compiler itself.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/pathvector.h"
#include "common/strings.h"
#include "datalog/parser.h"
#include "engine/kernels.h"
#include "engine/workspace.h"
#include "generics/compiler.h"
#include "policy/says_policy.h"

namespace secureblox::engine {
namespace {

using datalog::Parse;
using datalog::Value;

const char* kTcProgram = R"(
node(X) -> .
link(X, Y) -> node(X), node(Y).
reachable(X, Y) -> node(X), node(Y).
reachable(X, Y) <- link(X, Y).
reachable(X, Y) <- link(X, Z), reachable(Z, Y).
)";

void BM_TransitiveClosureChain(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    Workspace ws;
    (void)ws.Install(Parse(kTcProgram).value());
    std::vector<FactUpdate> links;
    for (int64_t i = 0; i + 1 < n; ++i) {
      links.push_back({"link",
                       {Value::Str(StrCat({"v", std::to_string(i)})),
                        Value::Str(StrCat({"v", std::to_string(i + 1)}))}});
    }
    auto commit = ws.Apply(links);
    benchmark::DoNotOptimize(commit);
  }
  state.SetItemsProcessed(state.iterations() * n * (n - 1) / 2);
}
BENCHMARK(BM_TransitiveClosureChain)->Arg(16)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_IncrementalInsert(benchmark::State& state) {
  Workspace ws;
  (void)ws.Install(Parse(kTcProgram).value());
  // Prime a chain; each iteration extends it by one edge (semi-naïve
  // incremental maintenance).
  int64_t next = 0;
  for (int64_t i = 0; i < 64; ++i) {
    (void)ws.Insert("link", {Value::Str(StrCat({"w", std::to_string(i)})),
                             Value::Str(StrCat({"w", std::to_string(i + 1)}))});
    next = i + 1;
  }
  for (auto _ : state) {
    auto commit = ws.Apply(
        {{"link",
          {Value::Str(StrCat({"w", std::to_string(next)})),
           Value::Str(StrCat({"w", std::to_string(next + 1)}))}}});
    benchmark::DoNotOptimize(commit);
    ++next;
  }
}
BENCHMARK(BM_IncrementalInsert)->Unit(benchmark::kMillisecond);

void BM_ConstraintCheckedInsert(benchmark::State& state) {
  Workspace ws;
  (void)ws.Install(Parse(R"(
    node(X) -> .
    allowed(X) -> node(X).
    link(X, Y) -> node(X), node(Y).
    link(X, Y) -> allowed(X).
  )").value());
  int64_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::string src = StrCat({"a", std::to_string(i++)});
    (void)ws.Insert("allowed", {Value::Str(src)});
    state.ResumeTiming();
    auto commit = ws.Apply({{"link", {Value::Str(src), Value::Str("dst")}}});
    benchmark::DoNotOptimize(commit);
  }
}
BENCHMARK(BM_ConstraintCheckedInsert)->Unit(benchmark::kMicrosecond);

void BM_AggregateMaintenance(benchmark::State& state) {
  Workspace ws;
  (void)ws.Install(Parse(R"(
    sale(X, V) -> string(X), int(V).
    total[X] = V -> string(X), int(V).
    total[X] = V <- agg<< V = sum(S) >> sale(X, S).
  )").value());
  int64_t i = 0;
  for (auto _ : state) {
    auto commit = ws.Apply({{"sale",
                             {Value::Str(StrCat({"k", std::to_string(i % 10)})),
                              Value::Int(i)}}});
    benchmark::DoNotOptimize(commit);
    ++i;
  }
}
BENCHMARK(BM_AggregateMaintenance)->Unit(benchmark::kMicrosecond);

void BM_FixpointDependencyIndex(benchmark::State& state) {
  // Transitive closure next to `idle` unrelated rule groups. The rule
  // graph's worklist only fires rules whose body predicates changed, so
  // latency stays flat as idle rules pile up; the counters report how many
  // re-firings the dependency index skipped.
  const int64_t idle = state.range(0);
  std::string src(kTcProgram);
  for (int64_t i = 0; i < idle; ++i) {
    std::string p = StrCat({"aux", std::to_string(i)});
    src += p + "(X) -> int(X).\n";
    src += p + "_d(X) -> int(X).\n";
    src += p + "_d(X) <- " + p + "(X).\n";
  }
  Workspace ws;
  (void)ws.Install(Parse(src).value());
  int64_t next = 0;
  for (int64_t i = 0; i < 32; ++i) {
    (void)ws.Insert("link", {Value::Str(StrCat({"w", std::to_string(i)})),
                             Value::Str(StrCat({"w", std::to_string(i + 1)}))});
    next = i + 1;
  }
  for (auto _ : state) {
    auto commit = ws.Apply(
        {{"link",
          {Value::Str(StrCat({"w", std::to_string(next)})),
           Value::Str(StrCat({"w", std::to_string(next + 1)}))}}});
    benchmark::DoNotOptimize(commit);
    ++next;
  }
  state.counters["rounds"] =
      benchmark::Counter(static_cast<double>(ws.stats().fixpoint_rounds));
  state.counters["firings"] =
      benchmark::Counter(static_cast<double>(ws.stats().rule_firings));
  state.counters["skipped"] =
      benchmark::Counter(static_cast<double>(ws.stats().firings_skipped));
}
BENCHMARK(BM_FixpointDependencyIndex)->Arg(0)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// -- filter kernels ---------------------------------------------------------
//
// A wide selective scan straight through FilterFusedRange: one shard of
// 250k slots, two code columns filtered at once (a rare tag and a
// constant payload), about 0.03% of slots surviving. Nearly all the work
// is the fused compare over warm columns, so the rows compare the kernel
// tiers directly: one row per tier this CPU runs (scalar, plus AVX2 when
// the CPU has it). The rows record a number; they gate nothing.

void HostSimdModes(benchmark::internal::Benchmark* b) {
  b->Arg(static_cast<int>(SimdMode::kScalar));
  if (DetectSimdMode() == SimdMode::kAvx2) {
    b->Arg(static_cast<int>(SimdMode::kAvx2));
  }
}

void BM_FusedFilterRange(benchmark::State& state) {
  const auto mode = static_cast<SimdMode>(state.range(0));
  const uint32_t slots = 250000;
  const uint32_t rare_stride = 2999;
  std::vector<uint32_t> tag(slots), pad(slots, 0);
  for (uint32_t s = 0; s < slots; s += rare_stride) tag[s] = 1;
  const CodeFilter filters[] = {{tag.data(), 1}, {pad.data(), 0}};
  std::vector<uint32_t> out;
  out.reserve(slots / rare_stride + 1);
  for (auto _ : state) {
    out.clear();
    FilterFusedRange(mode, filters, 2, 0, slots, &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(SimdModeName(mode));
  state.counters["matched"] =
      benchmark::Counter(static_cast<double>(out.size()));
  state.SetItemsProcessed(state.iterations() * slots);
}
BENCHMARK(BM_FusedFilterRange)
    ->Apply(HostSimdModes)
    ->ArgName("mode")
    ->Unit(benchmark::kMicrosecond);

// -- parallel fixpoint scaling (recorded as BENCH_fixpoint.json) -------------
//
// Two workloads in the shape of the paper's evaluation, swept over
// 1/2/4/8 fixpoint workers:
//  - *convergence* (fig08 flavour): authenticated transitive closure —
//    every hop derivation pays a digest check, the way the paper's
//    path-vector convergence pays per-tuple HMAC/RSA work;
//  - *join* (fig10 flavour): a selective three-way hash join with a
//    digest prefilter, the secure-hash-join shape where candidates vastly
//    outnumber results.
// Both put the weight in body enumeration, which is the phase the
// fixpoint spreads across workers; the merge phase stays sequential.

const char* kAuthTcProgram = R"(
  warm(X) -> int(X).
  warmd(X) -> int(X).
  warmd(X) <- warm(X).
  n(X) -> int(X).
  link(X, Y) -> int(X), int(Y).
  reachable(X, Y) -> int(X), int(Y).
  reachable(X, Y) <- link(X, Y).
  reachable(X, Y) <- link(X, Z), reachable(Z, Y),
                     sha1_bucket(Z, 1000003, H), H >= 0.
)";

// Fresh workspace with the pool already spun up (the `warm` transaction
// stages a task, forcing worker-thread spawn), so the timed region
// measures fixpoint work, not thread creation. Returns null if setup
// fails — callers flag the benchmark as errored, because
// BENCH_fixpoint.json must never record timings of failing transactions.
std::unique_ptr<Workspace> WarmWorkspace(const char* program, int threads,
                                         size_t shards = 1) {
  auto ws = std::make_unique<Workspace>();
  ws->fixpoint_options().threads = threads;
  ws->fixpoint_options().shards = shards;
  auto parsed = Parse(program);
  Status st = parsed.ok() ? ws->Install(parsed.value()) : parsed.status();
  if (st.ok()) st = ws->Insert("warm", {Value::Int(0)});
  if (!st.ok()) return nullptr;
  return ws;
}

void BM_ParallelFixpointConvergence(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const size_t shards = static_cast<size_t>(state.range(1));
  const int nodes = 96;
  std::vector<FactUpdate> links;
  for (int i = 0; i < nodes; ++i) {
    links.push_back({"link", {Value::Int(i), Value::Int((i + 1) % nodes)}});
    links.push_back({"link", {Value::Int(i), Value::Int((i * 7 + 3) % nodes)}});
  }
  uint64_t derived = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto ws = WarmWorkspace(kAuthTcProgram, threads, shards);
    state.ResumeTiming();
    if (ws == nullptr) {
      state.SkipWithError("workspace setup failed");
      break;
    }
    auto commit = ws->Apply(links);
    benchmark::DoNotOptimize(commit);
    if (!commit.ok()) {
      state.SkipWithError(commit.status().ToString().c_str());
      break;
    }
    derived = commit->num_derived;
    state.PauseTiming();
    ws.reset();  // teardown (pool join) stays untimed
    state.ResumeTiming();
  }
  state.counters["derived"] = benchmark::Counter(static_cast<double>(derived));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(derived));
}
// Thread scaling at the unsharded layout, plus the shard-scaling curve
// (SB_SHARDS 1/4/8) at one and four workers — shard-aligned chunks must
// not regress the 1-shard latency while giving placement-ready partitions.
BENCHMARK(BM_ParallelFixpointConvergence)
    ->Args({1, 1})->Args({2, 1})->Args({4, 1})->Args({8, 1})
    ->Args({1, 4})->Args({1, 8})->Args({4, 4})->Args({4, 8})
    ->ArgNames({"threads", "shards"})->Unit(benchmark::kMillisecond);

const char* kSecureJoinProgram = R"(
  warm(X) -> int(X).
  warmd(X) -> int(X).
  warmd(X) <- warm(X).
  r(X, Y) -> int(X), int(Y).
  s(Y, Z) -> int(Y), int(Z).
  q(Z, W) -> int(Z), int(W).
  out(X, W) -> int(X), int(W).
  out(X, W) <- r(X, Y), s(Y, Z), sha1_bucket(Z, 4, H), H = 0, q(Z, W).
)";

void BM_ParallelFixpointJoin(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const size_t shards = static_cast<size_t>(state.range(1));
  const int rows = 3072;
  const int buckets = 48;
  std::vector<FactUpdate> facts;
  for (int i = 0; i < rows; ++i) {
    facts.push_back({"r", {Value::Int(i), Value::Int(i % buckets)}});
    facts.push_back({"s", {Value::Int(i % buckets), Value::Int(i)}});
  }
  for (int i = 0; i < rows; i += 16) {
    facts.push_back({"q", {Value::Int(i), Value::Int(i)}});
  }
  uint64_t derived = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto ws = WarmWorkspace(kSecureJoinProgram, threads, shards);
    state.ResumeTiming();
    if (ws == nullptr) {
      state.SkipWithError("workspace setup failed");
      break;
    }
    auto commit = ws->Apply(facts);
    benchmark::DoNotOptimize(commit);
    if (!commit.ok()) {
      state.SkipWithError(commit.status().ToString().c_str());
      break;
    }
    derived = commit->num_derived;
    state.PauseTiming();
    ws.reset();
    state.ResumeTiming();
  }
  state.counters["derived"] = benchmark::Counter(static_cast<double>(derived));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(derived));
}
BENCHMARK(BM_ParallelFixpointJoin)
    ->Args({1, 1})->Args({2, 1})->Args({4, 1})->Args({8, 1})
    ->Args({1, 4})->Args({1, 8})->Args({4, 4})->Args({4, 8})
    ->ArgNames({"threads", "shards"})->Unit(benchmark::kMillisecond);

// The insert path on a hashjoin-shaped batch (paper §7.2): two tables
// keyed by entities, a functional bucket-owner lookup in the join body and
// a counted join head. Reports time and value-to-code encodes per stored
// tuple (base facts, entity membership rows and join results).
const char* kInsertPathProgram = R"(
  node(X) -> .
  owner[J] = N -> int(J), node(N).
  r(K, J) -> node(K), int(J).
  s(K, J) -> node(K), int(J).
  joined(K1, J, K2) -> node(K1), int(J), node(K2).
  joined(K1, J, K2) <- r(K1, J), s(K2, J), owner[J] = N, N != K1.
)";

void BM_InsertPath(benchmark::State& state) {
  const int r_rows = 1200, s_rows = 1000, buckets = 400;
  std::vector<FactUpdate> facts;
  auto node = [](const char* prefix, int i) {
    return Value::Str(StrCat({prefix, std::to_string(i)}));
  };
  for (int j = 0; j < buckets; ++j) {
    facts.push_back({"owner", {Value::Int(j), node("n", j % 12)}});
  }
  for (int i = 0; i < r_rows; ++i) {
    facts.push_back({"r", {node("r", i), Value::Int((i * 7) % buckets)}});
  }
  for (int i = 0; i < s_rows; ++i) {
    facts.push_back({"s", {node("s", i), Value::Int((i * 3) % buckets)}});
  }
  uint64_t stored = 0, encodes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Workspace ws;
    Status st = ws.Install(Parse(kInsertPathProgram).value());
    const uint64_t start = ws.stats().mutation_encodes;
    state.ResumeTiming();
    auto commit = st.ok() ? ws.Apply(facts) : Result<TxCommit>(st);
    benchmark::DoNotOptimize(commit);
    if (!commit.ok()) {
      state.SkipWithError(commit.status().ToString().c_str());
      break;
    }
    state.PauseTiming();
    stored = 0;
    for (const char* pred : {"node", "owner", "r", "s", "joined"}) {
      stored += ws.Query(pred).value().size();
    }
    encodes = ws.stats().mutation_encodes - start;
    state.ResumeTiming();
  }
  state.counters["stored"] = benchmark::Counter(static_cast<double>(stored));
  // Seconds per stored tuple (printed with an SI prefix, e.g. "9us").
  state.counters["time_per_tuple"] = benchmark::Counter(
      static_cast<double>(stored) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["encodes_per_tuple"] = benchmark::Counter(
      stored == 0 ? 0.0
                  : static_cast<double>(encodes) / static_cast<double>(stored));
}
BENCHMARK(BM_InsertPath)->Unit(benchmark::kMillisecond);

void BM_InstallProgram(benchmark::State& state) {
  // Workspace::Install of the path-vector program under the RSA-AES says
  // policy: typecheck, rule and constraint compilation, the rule graph
  // and the program's facts. Parsing and BloxGenerics expansion run
  // untimed, as does each workspace's construction and destruction.
  policy::SaysPolicyOptions opts;
  opts.auth = policy::AuthScheme::kRsa;
  opts.enc = policy::EncScheme::kAes;
  const std::vector<std::string> sources = {policy::PreludeSource(),
                                            apps::PathVectorSource(),
                                            policy::SaysPolicySource(opts)};
  std::unique_ptr<Workspace> ws;
  size_t rules = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ws = std::make_unique<Workspace>();
    ws->set_allow_unstratified_negation(true);
    auto expanded = policy::CompileWithPolicies(ws.get(), sources);
    state.ResumeTiming();
    Status st = expanded.ok() ? ws->Install(expanded->program)
                              : expanded.status();
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      break;
    }
    rules = ws->compiled_rules().size();
  }
  state.counters["rules"] = benchmark::Counter(static_cast<double>(rules));
}
BENCHMARK(BM_InstallProgram)->Unit(benchmark::kMillisecond);

void BM_GenericsExpansion(benchmark::State& state) {
  // Full BloxGenerics compile of the says policy over `n` exportable
  // predicates — the static meta-programming cost (compile-time only).
  const int64_t n = state.range(0);
  std::string src = policy::PreludeSource();
  for (int64_t i = 0; i < n; ++i) {
    std::string p = StrCat({"pred", std::to_string(i)});
    src += p + "(X, Y) -> int(X), int(Y).\n";
    src += "exportable(`" + p + ").\n";
  }
  policy::SaysPolicyOptions opts;
  opts.auth = policy::AuthScheme::kRsa;
  src += policy::SaysPolicySource(opts);
  auto program = Parse(src).value();
  for (auto _ : state) {
    generics::BloxGenericsCompiler compiler;
    benchmark::DoNotOptimize(compiler.Compile(program));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GenericsExpansion)->Arg(1)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_ParseProgram(benchmark::State& state) {
  std::string src = policy::PreludeSource();
  policy::SaysPolicyOptions opts;
  src += policy::SaysPolicySource(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Parse(src));
  }
}
BENCHMARK(BM_ParseProgram)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace secureblox::engine

BENCHMARK_MAIN();
