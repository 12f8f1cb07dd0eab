// Microbenchmarks for counting-based incremental deletion: deleting one
// base fact from a large derived database must cost work proportional to
// the affected tuples, not the database size. The reported counters come
// from FixpointStats — `seeded` staying at zero as N grows, on cycles
// too, is the difference from the old over-delete-and-rederive engine,
// which replayed every derived tuple on every delete.
#include <benchmark/benchmark.h>

#include "common/strings.h"
#include "datalog/parser.h"
#include "engine/workspace.h"

namespace secureblox::engine {
namespace {

using datalog::Parse;
using datalog::Value;

// Non-recursive projection: counting path, no rederivation at all.
void BM_CountingDeleteFlat(benchmark::State& state) {
  const int64_t n = state.range(0);
  Workspace ws;
  (void)ws.Install(Parse(R"(
    pair(X, Y) -> string(X), string(Y).
    left(X) -> string(X).
    right(Y) -> string(Y).
    left(X) <- pair(X, Y).
    right(Y) <- pair(X, Y).
  )").value());
  std::vector<FactUpdate> inserts;
  for (int64_t i = 0; i < n; ++i) {
    inserts.push_back({"pair",
                       {Value::Str(StrCat({"k", std::to_string(i)})),
                        Value::Str(StrCat({"v", std::to_string(i)}))}});
  }
  (void)ws.Apply(inserts);

  uint64_t retract_firings = 0, seeded = 0, deleted = 0;
  int64_t victim = 0;
  for (auto _ : state) {
    std::vector<Value> fact = {
        Value::Str(StrCat({"k", std::to_string(victim)})),
        Value::Str(StrCat({"v", std::to_string(victim)}))};
    auto del = ws.Apply({}, {{"pair", fact}});
    benchmark::DoNotOptimize(del);
    retract_firings += del->fixpoint.retract_firings;
    seeded += del->fixpoint.rederive_seeded;
    deleted += del->fixpoint.deleted;
    (void)ws.Apply({{"pair", fact}});
    victim = (victim + 1) % n;
  }
  state.counters["retract_firings/iter"] =
      static_cast<double>(retract_firings) /
      static_cast<double>(state.iterations());
  state.counters["seeded/iter"] =
      static_cast<double>(seeded) / static_cast<double>(state.iterations());
  state.counters["deleted/iter"] =
      static_cast<double>(deleted) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_CountingDeleteFlat)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

// The transitive closure over a 12-link chain c0 -> ... -> c12 (closed
// into a ring by c12 -> c0 when `ring`), next to an unrelated predicate
// family of `n` pairs.
void LoadClosure(Workspace* ws, int64_t n, bool ring) {
  const int64_t chain = 12;
  (void)ws->Install(Parse(R"(
    node(X) -> .
    link(X, Y) -> node(X), node(Y).
    reachable(X, Y) -> node(X), node(Y).
    reachable(X, Y) <- link(X, Y).
    reachable(X, Y) <- link(X, Z), reachable(Z, Y).
    pair(X, Y) -> string(X), string(Y).
    left(X) -> string(X).
    left(X) <- pair(X, Y).
  )").value());
  std::vector<FactUpdate> inserts;
  for (int64_t i = 0; i < n; ++i) {
    inserts.push_back({"pair",
                       {Value::Str(StrCat({"k", std::to_string(i)})),
                        Value::Str(StrCat({"v", std::to_string(i)}))}});
  }
  for (int64_t i = 0; i < chain; ++i) {
    inserts.push_back({"link",
                       {Value::Str(StrCat({"c", std::to_string(i)})),
                        Value::Str(StrCat({"c", std::to_string(i + 1)}))}});
  }
  if (ring) {
    inserts.push_back({"link",
                       {Value::Str(StrCat({"c", std::to_string(chain)})),
                        Value::Str("c0")}});
  }
  (void)ws->Apply(inserts);
}

// Deletes and re-inserts link c5 -> c6, reporting the delete's counters.
void ChurnClosureEdge(benchmark::State& state, Workspace& ws) {
  uint64_t seeded = 0, rederives = 0, deleted = 0, proved = 0, disproved = 0;
  for (auto _ : state) {
    std::vector<Value> edge = {Value::Str("c5"), Value::Str("c6")};
    auto del = ws.Apply({}, {{"link", edge}});
    benchmark::DoNotOptimize(del);
    seeded += del->fixpoint.rederive_seeded;
    rederives += del->fixpoint.group_rederives;
    deleted += del->fixpoint.deleted;
    proved += del->fixpoint.suspects_proved;
    disproved += del->fixpoint.suspects_disproved;
    (void)ws.Apply({{"link", edge}});
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["seeded/iter"] = static_cast<double>(seeded) / iters;
  state.counters["rederives/iter"] = static_cast<double>(rederives) / iters;
  state.counters["deleted/iter"] = static_cast<double>(deleted) / iters;
  state.counters["proved/iter"] = static_cast<double>(proved) / iters;
  state.counters["disproved/iter"] = static_cast<double>(disproved) / iters;
}

// A delete from an acyclic chain retracts by counting through the
// recursive group: it erases just the closure rows through the edge
// (deleted/iter) and recomputes nothing (rederives/iter and seeded/iter
// 0), while the unrelated predicate family grows with N.
void BM_RecursiveCountingDelete(benchmark::State& state) {
  Workspace ws;
  LoadClosure(&ws, state.range(0), /*ring=*/false);
  ChurnClosureEdge(state, ws);
}
BENCHMARK(BM_RecursiveCountingDelete)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

// The same chain closed into a ring: survivors may rest on the cycle, so
// the cascade leaves suspects, and the proof search settles them with no
// recompute (rederives/iter and seeded/iter 0; proved/iter and
// disproved/iter count them) while the unrelated predicate family grows
// with N.
void BM_RecursiveRingDelete(benchmark::State& state) {
  Workspace ws;
  LoadClosure(&ws, state.range(0), /*ring=*/true);
  ChurnClosureEdge(state, ws);
}
BENCHMARK(BM_RecursiveRingDelete)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

// Sanity: a delete whose cascade really is large costs proportionally to
// the cascade, not more.
void BM_CountingDeleteCascade(benchmark::State& state) {
  const int64_t fan = state.range(0);
  Workspace ws;
  (void)ws.Install(Parse(R"(
    hub(X) -> string(X).
    spoke(X, Y) -> string(X), string(Y).
    live(Y) -> string(Y).
    live(Y) <- hub(X), spoke(X, Y).
  )").value());
  std::vector<FactUpdate> inserts = {{"hub", {Value::Str("h")}}};
  for (int64_t i = 0; i < fan; ++i) {
    inserts.push_back({"spoke",
                       {Value::Str("h"),
                        Value::Str(StrCat({"s", std::to_string(i)}))}});
  }
  (void)ws.Apply(inserts);

  for (auto _ : state) {
    auto del = ws.Apply({}, {{"hub", {Value::Str("h")}}});
    benchmark::DoNotOptimize(del);
    (void)ws.Apply({{"hub", {Value::Str("h")}}});
  }
  state.SetItemsProcessed(state.iterations() * fan);
}
BENCHMARK(BM_CountingDeleteCascade)->Arg(64)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace secureblox::engine

BENCHMARK_MAIN();
