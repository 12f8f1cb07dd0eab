// Cost-based rule execution planning: online relation statistics stay
// symmetric under insert/erase churn, worst-ordered rule bodies are
// reordered selective-first (in the plan the driver runs), every planned
// variant enumerates exactly the bindings of the compiled steps, the
// planned fixpoint is byte-identical at every SB_THREADS x SB_SHARDS
// combination (the base run checked against a closure oracle), the
// Executor's probe and batch paths allocate nothing in steady state, and
// the SB_EXPLAIN dump describes the chosen plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "datalog/parser.h"
#include "engine/kernels.h"
#include "engine/planner.h"
#include "engine/workspace.h"
#include "oracle_programs.h"

namespace secureblox::engine {
namespace {

using datalog::Parse;
using datalog::PredicateDecl;
using datalog::Value;

void Install(Workspace* ws, const std::string& src) {
  auto program = Parse(src);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Status st = ws->Install(program.value());
  ASSERT_TRUE(st.ok()) << st.ToString();
}

PredicateDecl MakeDecl(size_t arity, bool functional) {
  PredicateDecl d;
  d.name = "t";
  d.arg_types.assign(arity, 0);
  d.functional = functional;
  return d;
}

Tuple T(std::initializer_list<int64_t> vals) {
  Tuple t;
  for (int64_t v : vals) t.push_back(Value::Int(v));
  return t;
}

std::string Label(int i) { return StrCat({"v", std::to_string(i)}); }

/// Full database image: every predicate's tuples (rendered with entity
/// labels) with their support counts, order-insensitive.
using Snapshot = std::map<std::string, std::set<std::pair<std::string,
                                                          uint32_t>>>;

Snapshot Snap(const Workspace& ws) {
  Snapshot out;
  const datalog::Catalog& catalog = ws.catalog();
  for (size_t id = 0; id < catalog.num_predicates(); ++id) {
    const datalog::PredicateDecl& decl =
        catalog.decl(static_cast<datalog::PredId>(id));
    const Relation* rel =
        ws.GetRelationIfExists(static_cast<datalog::PredId>(id));
    if (rel == nullptr || rel->empty()) continue;
    auto& rows = out[decl.name];
    for (const Tuple& t : rel->AllTuples()) {
      rows.emplace(TupleToString(t, catalog), rel->SupportCount(t));
    }
  }
  return out;
}

/// The thread- and shard-count-invariant face of FixpointStats
/// (everything except parallel_tasks, which counts shard-aligned chunks).
std::vector<uint64_t> SemanticCounters(const FixpointStats& fp) {
  return {fp.rounds,          fp.rule_firings,    fp.firings_skipped,
          fp.agg_recomputes,  fp.agg_skipped,     fp.derivations,
          fp.retract_firings, fp.retractions,     fp.deleted,
          fp.rescued,         fp.group_rederives, fp.rederive_seeded,
          fp.plans_built};
}

// ---------------------------------------------------------------------------
// Online statistics: symmetric maintenance across Insert and Erase.
// ---------------------------------------------------------------------------

// Single-column masks read the column dictionary's exact live count, so
// these pin the hashed KeyStat path on the two-column mask 0x3. Row
// (i, j) projects onto 0x3 as (i, 10 * i): one key per i.
TEST(RelationStatsTest, DistinctKeysSymmetricUnderEraseChurn) {
  PredicateDecl decl = MakeDecl(3, false);
  auto row = [](int i, int j) { return T({i, 10 * i, j}); };
  Relation r(&decl, /*shards=*/3);
  EXPECT_FALSE(r.DistinctKeys(0x3).has_value());  // untracked
  r.EnsureKeyStat(0x3);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) r.Insert(row(i, j));
  }
  ASSERT_TRUE(r.DistinctKeys(0x3).has_value());
  EXPECT_EQ(*r.DistinctKeys(0x3), 8u);
  EXPECT_DOUBLE_EQ(r.EstimateMatches(0x3), 4.0);

  // Heavy retraction: erase every odd key completely (swap-remove churn in
  // every shard). Stats must shrink with the data, never inflate.
  for (int i = 1; i < 8; i += 2) {
    for (int j = 0; j < 4; ++j) EXPECT_TRUE(r.Erase(row(i, j)));
  }
  EXPECT_EQ(*r.DistinctKeys(0x3), 4u);
  EXPECT_DOUBLE_EQ(r.EstimateMatches(0x3), 4.0);

  // Partial erase of a surviving key: distinct count holds, estimate drops.
  for (int j = 0; j < 3; ++j) EXPECT_TRUE(r.Erase(row(0, j)));
  EXPECT_EQ(*r.DistinctKeys(0x3), 4u);
  EXPECT_DOUBLE_EQ(r.EstimateMatches(0x3), 13.0 / 4.0);

  // Erase the last row of that key: the key disappears from the stats.
  EXPECT_TRUE(r.Erase(row(0, 3)));
  EXPECT_EQ(*r.DistinctKeys(0x3), 3u);

  // Reinsert-after-erase must recount from the live data, not resurrect
  // stale counts.
  r.Insert(row(0, 0));
  EXPECT_EQ(*r.DistinctKeys(0x3), 4u);
  EXPECT_DOUBLE_EQ(r.EstimateMatches(0x3), 13.0 / 4.0);

  // A stat seeded *after* the same churn agrees with the incrementally
  // maintained one (seed-vs-maintain equivalence).
  Relation fresh(&decl, /*shards=*/3);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) fresh.Insert(row(i, j));
  }
  for (int i = 1; i < 8; i += 2) {
    for (int j = 0; j < 4; ++j) fresh.Erase(row(i, j));
  }
  for (int j = 0; j < 3; ++j) fresh.Erase(row(0, j));
  fresh.Erase(row(0, 3));
  fresh.Insert(row(0, 0));
  fresh.EnsureKeyStat(0x3);
  EXPECT_EQ(*fresh.DistinctKeys(0x3), *r.DistinctKeys(0x3));
  EXPECT_DOUBLE_EQ(fresh.EstimateMatches(0x3), r.EstimateMatches(0x3));
}

TEST(RelationStatsTest, EmptyAndUntrackedMasksFallBackToSize) {
  PredicateDecl decl = MakeDecl(3, false);
  Relation r(&decl);
  EXPECT_DOUBLE_EQ(r.EstimateMatches(0x3), 0.0);  // empty relation
  r.Insert(T({1, 2, 5}));
  r.Insert(T({1, 3, 5}));
  EXPECT_DOUBLE_EQ(r.EstimateMatches(0), 2.0);    // mask 0 = full scan
  EXPECT_DOUBLE_EQ(r.EstimateMatches(0x3), 2.0);  // untracked mask
  EXPECT_EQ(r.EstimateSourceFor(0x3), EstimateSource::kSize);
  r.EnsureKeyStat(0x3);
  EXPECT_DOUBLE_EQ(r.EstimateMatches(0x3), 1.0);  // 2 rows / 2 keys
  EXPECT_EQ(r.EstimateSourceFor(0x3), EstimateSource::kStat);
}

TEST(RelationStatsTest, EstimateMatchesFiniteOnJustEmptiedRelation) {
  // Pins the division guards in Relation::EstimateMatches (audit: the
  // total_size_ == 0 early return and the distinct == 0 fallback keep
  // every path off 0/0): a relation emptied AFTER its stats were seeded
  // must estimate 0 matches — finite, never NaN/inf — for the tracked
  // mask (0x3), the dictionary masks (0x1, 0x2) and mask 0, and the
  // planner's wide-match ratio (EstimateMatches * 4 >= size) must stay
  // well-defined.
  PredicateDecl decl = MakeDecl(2, false);
  Relation r(&decl, /*shards=*/3);
  r.EnsureKeyStat(0x3);
  for (int i = 0; i < 6; ++i) r.Insert(T({i, i * 10}));
  ASSERT_GT(r.EstimateMatches(0x1), 0.0);
  ASSERT_GT(r.EstimateMatches(0x3), 0.0);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(r.Erase(T({i, i * 10})));
  ASSERT_EQ(r.size(), 0u);
  for (uint32_t mask : {0x0u, 0x1u, 0x2u, 0x3u}) {
    const double est = r.EstimateMatches(mask);
    EXPECT_TRUE(std::isfinite(est)) << "mask=" << mask;
    EXPECT_DOUBLE_EQ(est, 0.0);
  }
  // The just-emptied dictionary reports zero live keys and the tracked
  // stat an empty count map; neither may reach the division.
  ASSERT_TRUE(r.DistinctKeys(0x1).has_value());
  EXPECT_EQ(*r.DistinctKeys(0x1), 0u);
  ASSERT_TRUE(r.DistinctKeys(0x3).has_value());
  EXPECT_EQ(*r.DistinctKeys(0x3), 0u);
  // Refill after the empty phase: estimates recover from live data.
  r.Insert(T({1, 2}));
  r.Insert(T({1, 3}));
  EXPECT_DOUBLE_EQ(r.EstimateMatches(0x1), 2.0);
  EXPECT_DOUBLE_EQ(r.EstimateMatches(0x3), 1.0);
}

TEST(RelationStatsTest, ProbeBucketsStaySortedAcrossEraseChurn) {
  PredicateDecl decl = MakeDecl(2, false);
  Relation r(&decl, /*shards=*/1);
  for (int j = 0; j < 20; ++j) {
    r.Insert(T({1, j}));
    r.Insert(T({2, j}));
  }
  Tuple key = T({1});
  ASSERT_EQ(r.ProbeShard(0, 0x1, key).size(), 20u);
  // Swap-remove churn: erases repoint moved rows, and the patched buckets
  // must stay ascending so probes walk each shard in slot order.
  for (int j = 0; j < 20; j += 2) ASSERT_TRUE(r.Erase(T({2, j})));
  for (int j = 1; j < 20; j += 3) ASSERT_TRUE(r.Erase(T({1, j})));
  for (uint32_t who = 1; who <= 2; ++who) {
    Tuple k = T({static_cast<int64_t>(who)});
    const std::vector<size_t>& rows = r.ProbeShard(0, 0x1, k);
    EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()))
        << "bucket for key " << who << " lost its sort order";
    for (size_t slot : rows) {
      EXPECT_EQ(r.At(0, slot, 0), Value::Int(who));
    }
  }
}

// ---------------------------------------------------------------------------
// Plan shape: worst-ordered bodies get reordered selective-first.
// ---------------------------------------------------------------------------

const char* kWorstOrderedProgram = R"(
  big(X, Y) -> int(X), int(Y).
  filt(X) -> int(X).
  hit(Y) -> int(Y).
  hit(Y) <- big(X, Y), filt(X).
)";

TEST(PlannerTest, WorstOrderedBodyReorderedSelectiveFirst) {
  Workspace ws;
  Install(&ws, kWorstOrderedProgram);
  // big: 300 rows over 100 keys; filt: 2 rows. Written order enumerates
  // all of big and probes filt 300 times; selective-first scans filt and
  // probes big's index twice.
  std::vector<FactUpdate> facts;
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 3; ++j) {
      facts.push_back({"big", {Value::Int(i), Value::Int(1000 + 3 * i + j)}});
    }
  }
  facts.push_back({"filt", {Value::Int(7)}});
  facts.push_back({"filt", {Value::Int(42)}});
  ASSERT_TRUE(ws.Apply(facts).ok());

  const datalog::PredId big_id = ws.catalog().Lookup("big").value();
  const datalog::PredId filt_id = ws.catalog().Lookup("filt").value();
  const CompiledRule* rule = nullptr;
  for (const CompiledRule& r : ws.compiled_rules()) {
    if (r.num_scan_occurrences == 2) rule = &r;
  }
  ASSERT_NE(rule, nullptr);
  // Compiled (written) order: big before filt — the worst order.
  ASSERT_EQ(rule->steps[0].pred, big_id);

  ExecPlanner planner(&ws.catalog(), &ws, &ws.fixpoint_options());
  const std::vector<Step>& full =
      planner.PlanFor(*rule, ExecPlanner::kFullBody);
  ASSERT_EQ(full.size(), rule->steps.size());
  // Selective-first: the 2-row filt scan leads, and big becomes an
  // indexed probe on its now-bound join column.
  EXPECT_EQ(full[0].pred, filt_id);
  EXPECT_EQ(full[0].kind, Step::Kind::kScan);
  const Step* big_step = nullptr;
  for (const Step& s : full) {
    if (s.pred == big_id) big_step = &s;
  }
  ASSERT_NE(big_step, nullptr);
  EXPECT_EQ(big_step->probe_mask, 0x1u) << "big should probe on bound X";
  EXPECT_NE(big_step->probe, Step::Probe::kScanAll);

  // Semi-naïve variants put their delta atom first regardless of cost.
  const std::vector<Step>& d0 = planner.PlanFor(*rule, 0);
  EXPECT_EQ(d0[0].pred, big_id);
  EXPECT_EQ(d0[0].occurrence, 0);
  const std::vector<Step>& d1 = planner.PlanFor(*rule, 1);
  EXPECT_EQ(d1[0].pred, filt_id);
  EXPECT_EQ(d1[0].occurrence, 1);
  // With filt's delta bound first, big is again an indexed probe.
  EXPECT_EQ(d1[1].pred, big_id);
  EXPECT_EQ(d1[1].probe_mask, 0x1u);

  // The workspace's own driver may have populated the shared cache's
  // occurrence slots during Apply; the full-body slot is ours.
  EXPECT_GE(planner.plans_built(), 1u);

  // The plan the driver ran: a filt insert fires occurrence 1 (cache slot
  // 2), and its cached plan leads with filt and probes big's index on the
  // bound X instead of walking big.
  ASSERT_TRUE(ws.Apply({{"filt", {Value::Int(13)}}}).ok());
  const std::optional<VariantPlan>& ran = rule->plan_cache->variants[2];
  ASSERT_TRUE(ran.has_value());
  ASSERT_EQ(ran->steps.size(), rule->steps.size())
      << "a filt-first plan is not the compiled order, so it keeps steps";
  EXPECT_EQ(ran->steps[0].pred, filt_id);
  EXPECT_EQ(ran->steps[0].occurrence, 1);
  EXPECT_EQ(ran->steps[1].pred, big_id);
  EXPECT_EQ(ran->steps[1].kind, Step::Kind::kScan);
  EXPECT_EQ(ran->steps[1].probe_mask, 0x1u);
  EXPECT_NE(ran->steps[1].probe, Step::Probe::kScanAll);
}

TEST(PlannerTest, BoundLeadingLookupStoresNoStepCopy) {
  // The zero-key singleton cfg leads the compiled body: its keys are bound
  // before anything runs. Its delta variant keeps the lookup there, so the
  // plan equals the compiled steps and its cache slot stores no copy.
  Workspace ws;
  Install(&ws, R"(
    cfg[] = V -> int(V).
    item(X) -> int(X).
    hit(X) -> int(X).
    hit(X) <- cfg[] = V, item(X), X > V.
  )");
  ASSERT_TRUE(ws.Apply({{"item", {Value::Int(1)}},
                        {"item", {Value::Int(5)}}})
                  .ok());
  const datalog::PredId cfg_id = ws.catalog().Lookup("cfg").value();
  const CompiledRule& rule = ws.compiled_rules().at(0);
  ASSERT_EQ(rule.steps[0].kind, Step::Kind::kLookup);
  ASSERT_EQ(rule.steps[0].pred, cfg_id);
  const int occ = rule.steps[0].occurrence;

  // A cfg insert fires that variant through the workspace's driver.
  ASSERT_TRUE(ws.Apply({{"cfg", {Value::Int(3)}}}).ok());
  EXPECT_TRUE(ws.ContainsFact("hit", {Value::Int(5)}).value());
  EXPECT_FALSE(ws.ContainsFact("hit", {Value::Int(1)}).value());
  const std::optional<VariantPlan>& ran = rule.plan_cache->variants[occ + 1];
  ASSERT_TRUE(ran.has_value());
  EXPECT_TRUE(ran->steps.empty()) << "the plan keeps a copy of "
                                  << ran->steps.size() << " steps";
  ExecPlanner planner(&ws.catalog(), &ws, &ws.fixpoint_options());
  EXPECT_EQ(&planner.PlanFor(rule, occ), &rule.steps);
}

TEST(PlannerTest, PlansReplanWhenStatsDrift) {
  Workspace ws;
  Install(&ws, kWorstOrderedProgram);
  ASSERT_TRUE(ws.Apply({{"big", {Value::Int(1), Value::Int(2)}},
                        {"filt", {Value::Int(1)}}})
                  .ok());
  ExecPlanner planner(&ws.catalog(), &ws, &ws.fixpoint_options());
  const CompiledRule* rule = nullptr;
  for (const CompiledRule& r : ws.compiled_rules()) {
    if (r.num_scan_occurrences == 2) rule = &r;
  }
  ASSERT_NE(rule, nullptr);
  planner.PlanFor(*rule, ExecPlanner::kFullBody);
  const uint64_t built = planner.plans_built();
  // Same sizes: cached plan, no rebuild.
  planner.PlanFor(*rule, ExecPlanner::kFullBody);
  EXPECT_EQ(planner.plans_built(), built);
  // Grow big far past the drift threshold: the next request replans.
  std::vector<FactUpdate> more;
  for (int i = 0; i < 200; ++i) {
    more.push_back({"big", {Value::Int(i + 10), Value::Int(i)}});
  }
  ASSERT_TRUE(ws.Apply(more).ok());
  planner.PlanFor(*rule, ExecPlanner::kFullBody);
  EXPECT_GT(planner.plans_built(), built);
  EXPECT_GE(rule->plan_cache->variants[0]->builds, 2u);
}

// ---------------------------------------------------------------------------
// Equivalence: SB_THREADS={1,4} x SB_SHARDS={1,7}, anchored by a closure
// oracle.
// ---------------------------------------------------------------------------

// fig08-flavoured convergence plus deletion churn — recursion, an
// aggregate recomputing, counting deletes and cluster recomputes, all
// through the planner's reordered bodies.
const char* kConvergenceProgram = R"(
  node(X) -> .
  link(X, Y) -> node(X), node(Y).
  reachable(X, Y) -> node(X), node(Y).
  reachable(X, Y) <- link(X, Y).
  reachable(X, Y) <- link(X, Z), reachable(Z, Y).
  cost(X, Y) -> node(X), node(Y).
  cost(X, Y) <- link(X, Y).
  dist[X] = D -> node(X), int(D).
  dist[X] = D <- agg<< D = count() >> reachable(X, _anon).
)";

std::vector<FactUpdate> ConvergenceLinks(int nodes, int degree) {
  uint64_t seed = 0x5eedULL;
  auto next = [&seed] {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return seed >> 33;
  };
  std::vector<FactUpdate> links;
  for (int i = 0; i < nodes; ++i) {
    links.push_back({"link", {Value::Str(Label(i)),
                              Value::Str(Label(static_cast<int>(
                                  (i + 1) % nodes)))}});
    for (int d = 0; d < degree; ++d) {
      links.push_back({"link", {Value::Str(Label(i)),
                                Value::Str(Label(static_cast<int>(
                                    next() % nodes)))}});
    }
  }
  return links;
}

/// Test-local oracle for kConvergenceProgram over a set of live links,
/// rendered like Snap's tuple strings (support counts are not modelled):
/// `cost` is the links themselves, `reachable` the BFS closure (targets
/// of paths of one or more links), and `dist[X]` the size of X's closure.
std::map<std::string, std::set<std::string>> ClosureOracle(
    const std::set<std::pair<std::string, std::string>>& links) {
  auto node = [](const std::string& v) { return StrCat({"node:", v}); };
  std::map<std::string, std::vector<std::string>> succ;
  std::map<std::string, std::set<std::string>> want;
  for (const auto& [x, y] : links) {
    succ[x].push_back(y);
    want["cost"].insert(StrCat({"(", node(x), ", ", node(y), ")"}));
  }
  for (const auto& [x, next] : succ) {
    std::set<std::string> seen(next.begin(), next.end());
    std::vector<std::string> queue(seen.begin(), seen.end());
    for (size_t i = 0; i < queue.size(); ++i) {
      auto it = succ.find(queue[i]);
      if (it == succ.end()) continue;
      for (const std::string& y : it->second) {
        if (seen.insert(y).second) queue.push_back(y);
      }
    }
    for (const std::string& y : seen) {
      want["reachable"].insert(StrCat({"(", node(x), ", ", node(y), ")"}));
    }
    want["dist"].insert(
        StrCat({"(", node(x), ", ", std::to_string(seen.size()), ")"}));
  }
  return want;
}

TEST(PlannerTest, PlannedFixpointThreadShardEquivalence) {
  struct Run {
    std::vector<Snapshot> trace;
    std::vector<std::vector<uint64_t>> counters;
  };
  const std::vector<FactUpdate> links = ConvergenceLinks(40, 2);
  // Deletion churn: counting path through the recursive group (a cluster
  // recompute when a survivor may rest on a cycle), aggregate recompute
  // on top.
  std::vector<FactUpdate> churn;
  for (int i = 0; i < 40; i += 7) {
    churn.push_back({"link", {Value::Str(Label(i)),
                              Value::Str(Label((i + 1) % 40))}});
  }
  auto run = [&](int threads, size_t shards) {
    Run out;
    Workspace ws;
    ws.fixpoint_options().threads = threads;
    ws.fixpoint_options().shards = shards;
    Install(&ws, kConvergenceProgram);
    auto seeded = ws.Apply(links);
    EXPECT_TRUE(seeded.ok()) << seeded.status().ToString();
    out.trace.push_back(Snap(ws));
    out.counters.push_back(SemanticCounters(seeded->fixpoint));
    for (const FactUpdate& del_link : churn) {
      auto del = ws.Apply({}, {del_link});
      EXPECT_TRUE(del.ok()) << del.status().ToString();
      out.trace.push_back(Snap(ws));
      out.counters.push_back(SemanticCounters(del->fixpoint));
    }
    return out;
  };
  // Base: one thread, one shard. Its tuple sets must match the closure
  // oracle at every step.
  Run base = run(1, 1);
  ASSERT_EQ(base.trace.size(), churn.size() + 1);
  std::set<std::pair<std::string, std::string>> live;
  for (const FactUpdate& l : links) {
    live.emplace(l.values[0].AsString(), l.values[1].AsString());
  }
  for (size_t step = 0; step < base.trace.size(); ++step) {
    if (step > 0) {
      live.erase({churn[step - 1].values[0].AsString(),
                  churn[step - 1].values[1].AsString()});
    }
    const auto want = ClosureOracle(live);
    for (const char* pred : {"reachable", "cost", "dist"}) {
      std::set<std::string> got;
      auto it = base.trace[step].find(pred);
      if (it != base.trace[step].end()) {
        for (const auto& [tuple, support] : it->second) got.insert(tuple);
      }
      auto wit = want.find(pred);
      ASSERT_NE(wit, want.end());
      EXPECT_EQ(got, wit->second) << pred << " at step " << step;
    }
  }
  for (int threads : {1, 4}) {
    for (size_t shards : {size_t{1}, size_t{7}}) {
      if (threads == 1 && shards == 1) continue;
      Run other = run(threads, shards);
      ASSERT_EQ(base.trace.size(), other.trace.size());
      for (size_t step = 0; step < base.trace.size(); ++step) {
        EXPECT_EQ(base.trace[step], other.trace[step])
            << "fixpoint diverged at step " << step << " threads=" << threads
            << " shards=" << shards;
        EXPECT_EQ(base.counters[step], other.counters[step])
            << "semantic counters diverged at step " << step
            << " threads=" << threads << " shards=" << shards;
      }
    }
  }
}

// Plan building itself is deterministic: identical transaction streams
// build the same number of plans at every thread x shard combination.
TEST(PlannerTest, PlanBuildCountsThreadAndShardInvariant) {
  auto run = [&](int threads, size_t shards) {
    Workspace ws;
    ws.fixpoint_options().threads = threads;
    ws.fixpoint_options().shards = shards;
    Install(&ws, kConvergenceProgram);
    auto commit = ws.Apply(ConvergenceLinks(40, 2));
    EXPECT_TRUE(commit.ok()) << commit.status().ToString();
    return ws.stats().plan_builds;
  };
  const uint64_t base = run(1, 1);
  EXPECT_GT(base, 0u);
  EXPECT_EQ(base, run(4, 1));
  EXPECT_EQ(base, run(1, 7));
  EXPECT_EQ(base, run(4, 7));
}

// ---------------------------------------------------------------------------
// Binding differential: each planned variant against the compiled steps.
// ---------------------------------------------------------------------------

// One rule per rebinding the planner performs beyond plain reordering:
//  - loop: the occurrence-1 plan leads with pair(Y, Y), so its second Y
//    must read the candidate row (kSame), not the unbound slot;
//  - looked: val's lookup is forced to a scan when its delta leads;
//  - next: with the second num leading, M is bound before `M = N + 1`,
//    which must become an equality filter;
//  - joined: a builtin binding an output, hoisted ahead of a scan;
//  - untagged: a wildcard negation and its flip variant.
constexpr const char* kRebindProgram = R"(
  pair(X, Y) -> string(X), string(Y).
  tag(X) -> string(X).
  val[X] = V -> string(X), int(V).
  num(X, N) -> string(X), int(N).
  loop(X, Y) -> string(X), string(Y).
  looked(X, V) -> string(X), int(V).
  next(X, M) -> string(X), int(M).
  joined(X, Z) -> string(X), string(Z).
  untagged(X) -> string(X).
  loop(X, Y) <- pair(X, Y), pair(Y, Y).
  looked(X, V) <- tag(X), val[X] = V.
  next(X, M) <- num(X, N), M = N + 1, num(X, M).
  joined(X, Z) <- tag(X), pair(X, Y), concat(X, Y, Z).
  untagged(X) <- tag(X), !pair(X, _).
)";

/// Facts over four sites for every predicate the programs above and the
/// oracle programs read, dense enough that each variant finds bindings.
std::vector<FactUpdate> DifferentialFacts(const Workspace& ws) {
  const char* const sites[] = {"a", "b", "c", "d"};
  auto s = [&](int i) { return Value::Str(sites[i % 4]); };
  std::vector<FactUpdate> out;
  auto declared = [&](const char* pred) {
    return ws.catalog().Lookup(pred).ok();
  };
  const bool weighted =
      declared("link") &&
      ws.catalog().decl(ws.catalog().Lookup("link").value()).arity() == 3;
  for (int i = 0; i < 4; ++i) {
    if (declared("site")) out.push_back({"site", {s(i)}});
    if (declared("tag") && i != 2) out.push_back({"tag", {s(i)}});
    if (declared("mark") && i % 2 == 1) out.push_back({"mark", {s(i)}});
    if (declared("val") && i != 1) {
      out.push_back({"val", {s(i), Value::Int(i)}});
    }
    for (int j = 0; j < 4; ++j) {
      const bool edge = (i * 3 + j) % 4 != 0;
      if (declared("pair") && (edge || i == j)) {
        out.push_back({"pair", {s(i), s(j)}});
      }
      if (declared("num") && i < 3) {
        out.push_back({"num", {s(i), Value::Int(j + (i == 1 ? 2 * j : 0))}});
      }
      if (!edge) continue;
      if (weighted) {
        out.push_back({"link", {s(i), s(j), Value::Int(1 + (i + j) % 3)}});
      } else if (declared("link")) {
        out.push_back({"link", {s(i), s(j)}});
      }
      if (declared("blocked") && (i + j) % 3 == 0) {
        out.push_back({"blocked", {s(i), s(j)}});
      }
      if (declared("seed") && j == (i + 1) % 4) {
        out.push_back({"seed", {s(i), s(j)}});
      }
    }
  }
  return out;
}

/// Does every step read only slots an earlier step bound, and bind only
/// slots still unbound? A kBound argument of an unbound slot would read an
/// empty environment slot at run time.
testing::AssertionResult BindsInOrder(const std::vector<Step>& steps,
                                      size_t num_slots) {
  std::vector<bool> bound(num_slots, false);
  for (size_t i = 0; i < steps.size(); ++i) {
    std::vector<int> binds;
    for (const ArgPat& p : steps[i].args) {
      if (p.kind == ArgPat::Kind::kBound && !bound[p.slot]) {
        return testing::AssertionFailure()
               << "step " << i << " reads unbound slot " << p.slot;
      }
      if (p.kind == ArgPat::Kind::kBind) binds.push_back(p.slot);
    }
    if (steps[i].kind == Step::Kind::kAssign) {
      binds.push_back(steps[i].assign_slot);
    }
    for (int slot : binds) {
      if (bound[slot]) {
        return testing::AssertionFailure()
               << "step " << i << " rebinds bound slot " << slot;
      }
      bound[slot] = true;
    }
  }
  return testing::AssertionSuccess();
}

/// Every binding `steps` enumerates, as the rendered slot values.
std::multiset<std::vector<std::string>> Bindings(
    Workspace* ws, const CompiledRule& rule, const std::vector<Step>& steps,
    const std::vector<OccView>* views) {
  EvalContext ctx;
  ctx.catalog = &ws->catalog();
  Executor executor(&ctx, ws);
  Env env(rule.num_slots);
  std::multiset<std::vector<std::string>> out;
  Status st = executor.Run(steps, &env, views, [&](Env& e) -> Status {
    std::vector<std::string> row;
    for (const auto& v : e) row.push_back(v ? v->ToString() : "-");
    out.insert(std::move(row));
    return Status::OK();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

/// Every other live tuple of `pred` (the first one at least): a delta.
std::vector<Tuple> DeltaFrom(Workspace* ws, datalog::PredId pred) {
  std::vector<Tuple> all = ws->GetRelation(pred)->AllTuples();
  std::vector<Tuple> out;
  for (size_t i = 0; i < all.size(); i += 2) out.push_back(all[i]);
  return out;
}

TEST(PlannerTest, PlannedVariantsEnumerateCompiledBindings) {
  // Variants with at least one binding, by kind (full, delta, flip,
  // head).
  std::map<std::string, size_t> found;
  size_t reused = 0;  // plans that run the compiled steps themselves
  size_t copied = 0;
  for (const char* program : {kNegationProgram, kRecursiveProgram,
                              kLatticeProgram, kRebindProgram}) {
    Workspace ws;
    Install(&ws, program);
    ASSERT_TRUE(ws.Apply(DifferentialFacts(ws)).ok());
    ExecPlanner planner(&ws.catalog(), &ws, &ws.fixpoint_options());
    for (const CompiledRule& rule : ws.compiled_rules()) {
      auto check = [&](const std::string& kind, int index,
                       const std::vector<Step>& compiled,
                       const std::vector<Step>& planned,
                       const std::vector<OccView>* views) {
        SCOPED_TRACE(rule.source.ToString() + " variant " + kind +
                     std::to_string(index));
        if (&planned == &compiled) {
          ++reused;
        } else {
          ++copied;
        }
        ASSERT_TRUE(BindsInOrder(planned, rule.num_slots));
        const auto want = Bindings(&ws, rule, compiled, views);
        EXPECT_EQ(Bindings(&ws, rule, planned, views), want);
        if (!want.empty()) ++found[kind];
      };
      check("full", 0, rule.steps,
            planner.PlanFor(rule, ExecPlanner::kFullBody), nullptr);
      const int n = rule.num_scan_occurrences;
      for (int occ = 0; occ < n; ++occ) {
        const std::vector<Tuple> delta = DeltaFrom(&ws, rule.scan_preds[occ]);
        std::vector<OccView> views(n);
        views[occ].only = &delta;
        check("delta", occ, rule.steps, planner.PlanFor(rule, occ), &views);
      }
      // Flip k: the negated atom's flipped tuples, with the kept negation
      // probe reading the relation as before they arrived.
      const size_t m = rule.neg_preds.size();
      for (size_t k = 0; k < m; ++k) {
        const std::vector<Tuple> flipped = DeltaFrom(&ws, rule.neg_preds[k]);
        const TupleSet before(flipped.begin(), flipped.end());
        std::vector<OccView> views(n + m + 1);
        views[rule.flip_occurrence()].only = &flipped;
        views[n + k].exclude = &before;
        check("flip", static_cast<int>(k), rule.flip_steps[k],
              planner.PlanForFlip(rule, k), &views);
      }
      // Head j: the instantiations deriving every other tuple of the
      // head's predicate (the compiled steps filter by the head last).
      for (size_t j = 0; j < rule.heads.size(); ++j) {
        const std::vector<Tuple> heads = DeltaFrom(&ws, rule.heads[j].pred);
        std::vector<OccView> views(rule.head_occurrence() + 1);
        views[rule.head_occurrence()].only = &heads;
        check("head", static_cast<int>(j),
              HeadBoundSteps(ws.catalog(), rule, j),
              planner.PlanForHead(rule, j), &views);
      }
    }
  }
  // Every kind of variant found bindings, and both plan forms — compiled
  // steps reused and a reordered copy — ran.
  for (const char* kind : {"full", "delta", "flip", "head"}) {
    EXPECT_GT(found[kind], 0u) << kind;
  }
  EXPECT_GT(reused, 0u);
  EXPECT_GT(copied, 0u);
}

// Runtime constraints in the shapes the compiler binds: a variable repeated
// within one lhs atom (kSame), an lhs lookup feeding an assignment, and
// rhs bodies that read lhs bindings, assign, and probe a wildcard negation.
constexpr const char* kConstraintProgram = R"(
  pair(X, Y) -> string(X), string(Y).
  tag(X) -> string(X).
  val[X] = V -> string(X), int(V).
  num(X, N) -> string(X), int(N).
  pair(X, X) -> tag(X).
  val[X] = V, M = V + 1 -> num(X, M).
  num(X, N) -> tag(X), !pair(X, _), M = N * 2, M >= 0.
)";

TEST(PlannerTest, CompiledBodiesBindInOrder) {
  size_t bodies = 0;
  size_t constraints = 0;
  for (const char* program : {kNegationProgram, kRecursiveProgram,
                              kLatticeProgram, kRebindProgram,
                              kConstraintProgram}) {
    Workspace ws;
    Install(&ws, program);
    for (const CompiledRule& rule : ws.compiled_rules()) {
      SCOPED_TRACE(rule.source.ToString());
      ASSERT_TRUE(BindsInOrder(rule.steps, rule.num_slots));
      for (const std::vector<Step>& flip : rule.flip_steps) {
        ASSERT_TRUE(BindsInOrder(flip, rule.num_slots));
      }
      ++bodies;
    }
    for (const CompiledConstraint& c : ws.compiled_constraints()) {
      SCOPED_TRACE(c.source.ToString());
      ASSERT_TRUE(BindsInOrder(c.lhs_steps, c.num_slots));
      // The rhs runs with the lhs bindings in scope.
      std::vector<Step> both = c.lhs_steps;
      both.insert(both.end(), c.rhs_steps.begin(), c.rhs_steps.end());
      ASSERT_TRUE(BindsInOrder(both, c.num_slots));
      ++constraints;
    }
  }
  EXPECT_GT(bodies, 0u);
  EXPECT_EQ(constraints, 3u);
}

// ---------------------------------------------------------------------------
// Cache-friendliness: no per-call allocation in steady state.
// ---------------------------------------------------------------------------

TEST(PlannerTest, SteadyStateEvaluationAllocatesNoFrames) {
  // The probe and batch paths (selection-vector kernels) must reuse
  // pooled frames in steady state.
  Workspace ws;
  ws.fixpoint_options().threads = 1;
  Install(&ws, R"(
    e(X, Y) -> string(X), string(Y).
    tc(X, Y) -> string(X), string(Y).
    tc(X, Y) <- e(X, Y).
    tc(X, Y) <- e(X, Z), tc(Z, Y).
  )");
  std::vector<FactUpdate> edges;
  for (int i = 0; i < 10; ++i) {
    edges.push_back({"e", {Value::Str(Label(i)), Value::Str(Label(i + 1))}});
  }
  ASSERT_TRUE(ws.Apply(edges).ok());
  FactUpdate churn{"e", {Value::Str(Label(3)), Value::Str(Label(8))}};
  // Warm-up: the first insert/delete pair reaches this workload's maximum
  // body depth and fills the thread-local frame pool.
  ASSERT_TRUE(ws.Apply({churn}).ok());
  ASSERT_TRUE(ws.Apply({}, {churn}).ok());
  const uint64_t warm = EvalFrameAllocs();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ws.Apply({churn}).ok());
    ASSERT_TRUE(ws.Apply({}, {churn}).ok());
  }
  EXPECT_EQ(EvalFrameAllocs(), warm)
      << "evaluation frames allocated in steady state";
  EXPECT_EQ(ws.stats().eval_frame_allocs, EvalFrameAllocs());
}

// ---------------------------------------------------------------------------
// SB_EXPLAIN dump and environment knobs.
// ---------------------------------------------------------------------------

TEST(PlannerTest, ExplainDescribesChosenPlan) {
  Workspace ws;
  Install(&ws, kWorstOrderedProgram);
  std::vector<FactUpdate> facts;
  for (int i = 0; i < 50; ++i) {
    facts.push_back({"big", {Value::Int(i), Value::Int(i + 100)}});
  }
  facts.push_back({"filt", {Value::Int(7)}});
  ASSERT_TRUE(ws.Apply(facts).ok());
  const CompiledRule* rule = nullptr;
  for (const CompiledRule& r : ws.compiled_rules()) {
    if (r.num_scan_occurrences == 2) rule = &r;
  }
  ASSERT_NE(rule, nullptr);
  // Built with SB_EXPLAIN on, the full-body plan dumps itself; Explain
  // plans the variant again to recover the estimates, and says the same.
  FixpointOptions explain_on = ws.fixpoint_options();
  explain_on.explain = true;
  ExecPlanner planner(&ws.catalog(), &ws, &explain_on);
  testing::internal::CaptureStderr();
  planner.PlanFor(*rule, ExecPlanner::kFullBody);
  const std::string built_dump = testing::internal::GetCapturedStderr();
  const std::string dump = planner.Explain(*rule, ExecPlanner::kFullBody);
  EXPECT_EQ(dump, built_dump);
  EXPECT_NE(dump.find("[plan] rule#"), std::string::npos);
  EXPECT_NE(dump.find("variant=full"), std::string::npos);
  EXPECT_NE(dump.find("scan filt"), std::string::npos);
  EXPECT_NE(dump.find("scan big"), std::string::npos);
  EXPECT_NE(dump.find("probe="), std::string::npos);
  EXPECT_NE(dump.find("est="), std::string::npos);
  // The header names the kernel tier this CPU runs.
  EXPECT_NE(dump.find(std::string("simd=") + SimdModeName(DetectSimdMode())),
            std::string::npos)
      << dump;
  // Estimate provenance: big's single-column probe estimate comes straight
  // from the dictionary's live distinct count; the unkeyed filt scan falls
  // back to relation size.
  EXPECT_NE(dump.find("via=dict"), std::string::npos) << dump;
  EXPECT_NE(dump.find("via=size"), std::string::npos) << dump;
  EXPECT_NE(dump.find("distinct=50"), std::string::npos) << dump;
  const std::string delta_dump = planner.Explain(*rule, 0);
  EXPECT_NE(delta_dump.find("variant=d0"), std::string::npos);
  EXPECT_NE(delta_dump.find("est=delta"), std::string::npos);

  // A two-column bound probe has no single dictionary to read: its
  // estimate comes from the hashed-mask statistic the planner seeds. The
  // one-row sel scan leads and binds both of pair's key columns.
  Workspace pair_ws;
  Install(&pair_ws, R"(
    pair(X, Y, Z) -> int(X), int(Y), int(Z).
    sel(X, Y) -> int(X), int(Y).
    hit(Z) -> int(Z).
    hit(Z) <- pair(X, Y, Z), sel(X, Y).
  )");
  std::vector<FactUpdate> pairs;
  for (int i = 0; i < 50; ++i) {
    pairs.push_back(
        {"pair", {Value::Int(i), Value::Int(i % 5), Value::Int(i + 100)}});
  }
  pairs.push_back({"sel", {Value::Int(7), Value::Int(2)}});
  ASSERT_TRUE(pair_ws.Apply(pairs).ok());
  const CompiledRule* pair_rule = nullptr;
  for (const CompiledRule& r : pair_ws.compiled_rules()) {
    if (r.num_scan_occurrences == 2) pair_rule = &r;
  }
  ASSERT_NE(pair_rule, nullptr);
  ExecPlanner pair_planner(&pair_ws.catalog(), &pair_ws,
                           &pair_ws.fixpoint_options());
  const std::string pair_dump =
      pair_planner.Explain(*pair_rule, ExecPlanner::kFullBody);
  EXPECT_NE(pair_dump.find("scan pair (occ 0) est=1 via=stat distinct=50 "
                           "probe=shard mask=0x3"),
            std::string::npos)
      << pair_dump;
}

TEST(PlannerTest, EnvironmentKnobsParsed) {
  ASSERT_EQ(setenv("SB_EXPLAIN", "1", 1), 0);
  {
    Workspace ws;
    EXPECT_TRUE(ws.fixpoint_options().explain);
  }
  ASSERT_EQ(setenv("SB_EXPLAIN", "garbage", 1), 0);
  {
    Workspace ws;
    EXPECT_FALSE(ws.fixpoint_options().explain) << "garbage keeps the default";
  }
  ASSERT_EQ(unsetenv("SB_EXPLAIN"), 0);
}

}  // namespace
}  // namespace secureblox::engine
