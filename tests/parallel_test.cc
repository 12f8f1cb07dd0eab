// Parallel fixpoint: group-at-a-time scheduling and partitioned delta
// evaluation must produce the byte-identical fixpoint — same tuples, same
// derivation-support counts, same anonymous-entity labels — at every
// thread count, for insert convergence, the counting/DRed deletion paths,
// and interleaved insert/delete churn. With sharded relation storage the
// same guarantee holds at every SB_SHARDS x SB_THREADS combination: the
// chunk decomposition follows shard boundaries (so task counts differ),
// but the database the fixpoint converges to does not.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "datalog/parser.h"
#include "engine/workspace.h"

namespace secureblox::engine {
namespace {

using datalog::Parse;
using datalog::Value;

void Install(Workspace* ws, const std::string& src) {
  auto program = Parse(src);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Status st = ws->Install(program.value());
  ASSERT_TRUE(st.ok()) << st.ToString();
}

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

std::string Label(int i) { return StrCat({"v", std::to_string(i)}); }

// fig08-flavoured convergence: transitive closure over a pseudo-random
// graph, a lattice shortest-path aggregate, and a stratified count on top.
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
  // Deterministic LCG so every thread count sees the same graph.
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

Snapshot RunConvergence(int threads, FixpointStats* fixpoint,
                        EngineStats* engine, size_t shards = 1) {
  Workspace ws;
  ws.fixpoint_options().threads = threads;
  ws.fixpoint_options().shards = shards;
  Install(&ws, kConvergenceProgram);
  auto commit = ws.Apply(ConvergenceLinks(48, 2));
  EXPECT_TRUE(commit.ok()) << commit.status().ToString();
  if (commit.ok()) *fixpoint = commit->fixpoint;
  *engine = ws.stats();
  return Snap(ws);
}

/// The shard-count-invariant face of FixpointStats: everything except
/// parallel_tasks, which by design counts shard-aligned chunks and so
/// scales with the shard count (it stays thread-count-invariant).
std::vector<uint64_t> SemanticCounters(const FixpointStats& fp) {
  return {fp.rounds,          fp.rule_firings, fp.firings_skipped,
          fp.agg_recomputes,  fp.agg_skipped,  fp.derivations,
          fp.retract_firings, fp.retractions,  fp.deleted,
          fp.rescued,         fp.group_rederives, fp.rederive_seeded};
}

TEST(ParallelFixpointTest, ConvergenceIdenticalAcrossThreadCounts) {
  FixpointStats base_fp;
  EngineStats base_stats;
  Snapshot base = RunConvergence(1, &base_fp, &base_stats);
  ASSERT_FALSE(base.empty());
  for (int threads : {2, 8}) {
    FixpointStats fp;
    EngineStats stats;
    Snapshot snap = RunConvergence(threads, &fp, &stats);
    EXPECT_EQ(base, snap) << "fixpoint diverged at threads=" << threads;
    // The work decomposition is thread-count independent, so the counters
    // must agree exactly — not just the final database.
    EXPECT_EQ(base_fp.rounds, fp.rounds);
    EXPECT_EQ(base_fp.rule_firings, fp.rule_firings);
    EXPECT_EQ(base_fp.derivations, fp.derivations);
    EXPECT_EQ(base_fp.parallel_tasks, fp.parallel_tasks);
    EXPECT_EQ(base_stats.derived_tuples, stats.derived_tuples);
  }
  // The convergence delta is wide enough that firings actually chunked.
  EXPECT_GT(base_fp.parallel_tasks, 0u);
}

// The delete_test scenarios, re-run at every thread count with a snapshot
// comparison after each transaction: alternative derivations surviving,
// diamond support counting, recursive DRed, aggregate retraction, and
// negation flips.
TEST(ParallelFixpointTest, DeleteScenariosIdenticalAcrossThreadCounts) {
  const std::string program = R"(
    a(X) -> string(X).
    b(X) -> string(X).
    p(X) -> string(X).
    p(X) <- a(X).
    p(X) <- b(X).
    q(X) -> string(X).
    q(X) <- p(X), a(X).
    e(X, Y) -> string(X), string(Y).
    tc(X, Y) -> string(X), string(Y).
    tc(X, Y) <- e(X, Y).
    tc(X, Y) <- e(X, Z), tc(Z, Y).
    total[] = V -> int(V).
    total[] = V <- agg<< V = count() >> tc(_anon1, _anon2).
    quiet(X) -> string(X).
    quiet(X) <- a(X), !b(X).
  )";
  // (pred, value, is_delete) script exercising both deletion paths.
  const std::vector<std::tuple<std::string, std::string, bool>> script = {
      {"a", "x", false}, {"b", "x", false}, {"a", "y", false},
      {"a", "x", true},   // counting path: p(x) survives via b(x)
      {"b", "x", true},   // now p(x) dies, q(x) already gone
      {"a", "y", true},
  };
  auto run = [&](int threads) {
    std::vector<Snapshot> trace;
    Workspace ws;
    ws.fixpoint_options().threads = threads;
    Install(&ws, program);
    // Chain + shortcut edges, then delete a bridge (recursive DRed).
    std::vector<FactUpdate> edges;
    for (int i = 0; i < 12; ++i) {
      edges.push_back({"e", {Value::Str(Label(i)), Value::Str(Label(i + 1))}});
    }
    edges.push_back({"e", {Value::Str(Label(0)), Value::Str(Label(6))}});
    auto seeded = ws.Apply(edges);
    EXPECT_TRUE(seeded.ok()) << seeded.status().ToString();
    trace.push_back(Snap(ws));
    for (const auto& [pred, value, is_delete] : script) {
      std::vector<FactUpdate> ins, del;
      (is_delete ? del : ins).push_back({pred, {Value::Str(value)}});
      auto commit = ws.Apply(ins, del);
      EXPECT_TRUE(commit.ok()) << commit.status().ToString();
      trace.push_back(Snap(ws));
    }
    // Bridge delete: counted through the recursive group, recomputing
    // its cluster when a survivor may rest on a cycle.
    auto bridge = ws.Apply(
        {}, {{"e", {Value::Str(Label(5)), Value::Str(Label(6))}}});
    EXPECT_TRUE(bridge.ok()) << bridge.status().ToString();
    trace.push_back(Snap(ws));
    return trace;
  };
  auto base = run(1);
  for (int threads : {2, 8}) {
    auto trace = run(threads);
    ASSERT_EQ(base.size(), trace.size());
    for (size_t step = 0; step < base.size(); ++step) {
      EXPECT_EQ(base[step], trace[step])
          << "divergence at step " << step << ", threads=" << threads;
    }
  }
}

// Head existentials create anonymous entities on the coordinating thread,
// after the pool drains, so even their generated labels must not depend on
// the thread count.
TEST(ParallelFixpointTest, ExistentialLabelsIdenticalAcrossThreadCounts) {
  const std::string program = R"(
    node(X) -> .
    pathvar(P) -> .
    link(X, Y) -> node(X), node(Y).
    hop(P, X, Y) -> pathvar(P), node(X), node(Y).
    hop(P, X, Y) <- link(X, Y).
  )";
  auto run = [&](int threads) {
    Workspace ws;
    ws.fixpoint_options().threads = threads;
    Install(&ws, program);
    auto commit = ws.Apply(ConvergenceLinks(32, 2));
    EXPECT_TRUE(commit.ok()) << commit.status().ToString();
    return Snap(ws);
  };
  Snapshot base = run(1);
  ASSERT_TRUE(base.count("hop"));
  EXPECT_EQ(base, run(2));
  EXPECT_EQ(base, run(8));
}

// Interleaved insert/delete churn under the pool: a pseudo-random but
// deterministic schedule of base-fact inserts and deletes over recursive
// and aggregate rules, compared transaction-by-transaction against the
// sequential engine.
TEST(ParallelFixpointTest, StressInterleavedInsertDeleteUnderPool) {
  const std::string program = R"(
    e(X, Y) -> string(X), string(Y).
    tc(X, Y) -> string(X), string(Y).
    tc(X, Y) <- e(X, Y).
    tc(X, Y) <- e(X, Z), tc(Z, Y).
    fanout[X] = D -> string(X), int(D).
    fanout[X] = D <- agg<< D = count() >> tc(X, _anon).
  )";
  constexpr int kNodes = 16;
  constexpr int kSteps = 60;
  auto run = [&](int threads) {
    std::vector<Snapshot> trace;
    Workspace ws;
    ws.fixpoint_options().threads = threads;
    Install(&ws, program);
    std::set<std::pair<int, int>> present;
    uint64_t seed = 0xfeedULL;
    auto next = [&seed] {
      seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
      return seed >> 33;
    };
    for (int step = 0; step < kSteps; ++step) {
      int from = static_cast<int>(next() % kNodes);
      int to = static_cast<int>(next() % kNodes);
      FactUpdate edge{"e", {Value::Str(Label(from)), Value::Str(Label(to))}};
      bool do_delete = present.count({from, to}) && next() % 2 == 0;
      auto commit = do_delete ? ws.Apply({}, {edge}) : ws.Apply({edge});
      EXPECT_TRUE(commit.ok()) << commit.status().ToString();
      if (do_delete) {
        present.erase({from, to});
      } else {
        present.insert({from, to});
      }
      trace.push_back(Snap(ws));
    }
    return trace;
  };
  auto base = run(1);
  auto parallel = run(8);
  ASSERT_EQ(base.size(), parallel.size());
  for (size_t step = 0; step < base.size(); ++step) {
    EXPECT_EQ(base[step], parallel[step]) << "divergence at step " << step;
  }
}

// Erases no longer invalidate secondary indexes: the bucket maps are
// patched in place, so the engine-wide (re)build counter stays at the
// initial build count however much deletion churn the probes see.
TEST(ParallelFixpointTest, EraseDoesNotRebuildSecondaryIndexes) {
  Workspace ws;
  Install(&ws, R"(
    e(X, Y) -> string(X), string(Y).
    join(X, Z) -> string(X), string(Z).
    join(X, Z) <- e(X, Y), e(Y, Z).
  )");
  std::vector<FactUpdate> edges;
  for (int i = 0; i < 64; ++i) {
    edges.push_back({"e", {Value::Str(Label(i)), Value::Str(Label(i + 1))}});
  }
  ASSERT_TRUE(ws.Apply(edges).ok());
  uint64_t builds_after_seed = ws.stats().index_rebuilds;
  EXPECT_GT(builds_after_seed, 0u);
  // Deletion churn with live probes after every transaction.
  for (int i = 10; i < 40; i += 3) {
    auto commit = ws.Apply(
        {}, {{"e", {Value::Str(Label(i)), Value::Str(Label(i + 1))}}});
    ASSERT_TRUE(commit.ok()) << commit.status().ToString();
    auto reinsert = ws.Apply(
        {{"e", {Value::Str(Label(i)), Value::Str(Label(i + 1))}}});
    ASSERT_TRUE(reinsert.ok()) << reinsert.status().ToString();
  }
  EXPECT_EQ(builds_after_seed, ws.stats().index_rebuilds)
      << "erase churn forced secondary-index rebuilds";
}

// ---------------------------------------------------------------------------
// Sharded storage: SB_SHARDS x SB_THREADS determinism.
// ---------------------------------------------------------------------------

// fig08-flavoured convergence at shard counts {1, 4, 7} crossed with
// thread counts {1, 4}: identical database, support counts, and semantic
// fixpoint counters everywhere (see SemanticCounters for the one
// intentionally shard-dependent field).
TEST(ShardedFixpointTest, ConvergenceIdenticalAcrossShardAndThreadCounts) {
  FixpointStats base_fp;
  EngineStats base_stats;
  Snapshot base = RunConvergence(1, &base_fp, &base_stats, /*shards=*/1);
  ASSERT_FALSE(base.empty());
  for (size_t shards : {size_t{4}, size_t{7}}) {
    for (int threads : {1, 4}) {
      FixpointStats fp;
      EngineStats stats;
      Snapshot snap = RunConvergence(threads, &fp, &stats, shards);
      EXPECT_EQ(base, snap) << "fixpoint diverged at shards=" << shards
                            << " threads=" << threads;
      EXPECT_EQ(SemanticCounters(base_fp), SemanticCounters(fp))
          << "counters diverged at shards=" << shards
          << " threads=" << threads;
      EXPECT_EQ(base_stats.derived_tuples, stats.derived_tuples);
    }
  }
  // At a fixed shard count the full stats — chunk decomposition included —
  // must still be thread-count invariant.
  FixpointStats fp_t1, fp_t4;
  EngineStats unused;
  Snapshot s1 = RunConvergence(1, &fp_t1, &unused, /*shards=*/4);
  Snapshot s4 = RunConvergence(4, &fp_t4, &unused, /*shards=*/4);
  EXPECT_EQ(s1, s4);
  EXPECT_EQ(fp_t1.parallel_tasks, fp_t4.parallel_tasks);
}

// Erase-heavy and FD-replacement workload: recursive closure with
// counting deletes, bridge deletes (counted cascades, or a cluster
// recompute's over-delete + reseed on a cycle: swap-remove churn patched
// per shard), and a recursive
// min-lattice whose functional head is replaced as costs improve and
// re-route. Transaction-by-transaction snapshots must match at every
// shard x thread combination.
TEST(ShardedFixpointTest, DeleteAndLatticeIdenticalAcrossShardCounts) {
  const std::string program = R"(
    node(X) -> .
    e(X, Y) -> string(X), string(Y).
    tc(X, Y) -> string(X), string(Y).
    tc(X, Y) <- e(X, Y).
    tc(X, Y) <- e(X, Z), tc(Z, Y).
    link(X, Y, C) -> node(X), node(Y), int(C).
    cost(X, Y, C) -> node(X), node(Y), int(C).
    bestcost[X, Y] = C -> node(X), node(Y), int(C).
    cost(X, Y, C) <- link(X, Y, C).
    cost(X, Y, C1 + C2) <- bestcost[X, Z] = C1, link(Z, Y, C2).
    bestcost[X, Y] = C <- agg<< C = min(Cx) >> cost(X, Y, Cx).
  )";
  auto run = [&](size_t shards, int threads) {
    std::vector<Snapshot> trace;
    Workspace ws;
    ws.fixpoint_options().threads = threads;
    ws.fixpoint_options().shards = shards;
    Install(&ws, program);
    // Seed: a closure-heavy edge set plus a weighted triangle fan.
    std::vector<FactUpdate> seed;
    for (int i = 0; i < 14; ++i) {
      seed.push_back({"e", {Value::Str(Label(i)), Value::Str(Label(i + 1))}});
    }
    seed.push_back({"e", {Value::Str(Label(0)), Value::Str(Label(7))}});
    for (int i = 0; i < 6; ++i) {
      seed.push_back({"link",
                      {Value::Str(StrCat({"n", std::to_string(i)})),
                       Value::Str(StrCat({"n", std::to_string(i + 1)})),
                       Value::Int(1)}});
      seed.push_back({"link",
                      {Value::Str("n0"),
                       Value::Str(StrCat({"n", std::to_string(i + 1)})),
                       Value::Int(10)}});
    }
    auto seeded = ws.Apply(seed);
    EXPECT_TRUE(seeded.ok()) << seeded.status().ToString();
    trace.push_back(Snap(ws));
    // Erase-heavy churn: delete every third closure edge (counting path +
    // DRed for the recursive group), then the cheap lattice legs so every
    // bestcost row is displaced by a worse value (FD replacement).
    for (int i = 0; i < 14; i += 3) {
      auto del = ws.Apply(
          {}, {{"e", {Value::Str(Label(i)), Value::Str(Label(i + 1))}}});
      EXPECT_TRUE(del.ok()) << del.status().ToString();
      trace.push_back(Snap(ws));
    }
    for (int i = 0; i < 6; i += 2) {
      auto del = ws.Apply(
          {}, {{"link",
                {Value::Str(StrCat({"n", std::to_string(i)})),
                 Value::Str(StrCat({"n", std::to_string(i + 1)})),
                 Value::Int(1)}}});
      EXPECT_TRUE(del.ok()) << del.status().ToString();
      trace.push_back(Snap(ws));
    }
    return trace;
  };
  auto base = run(1, 1);
  for (size_t shards : {size_t{4}, size_t{7}}) {
    for (int threads : {1, 4}) {
      auto trace = run(shards, threads);
      ASSERT_EQ(base.size(), trace.size());
      for (size_t step = 0; step < base.size(); ++step) {
        EXPECT_EQ(base[step], trace[step])
            << "divergence at step " << step << ", shards=" << shards
            << ", threads=" << threads;
      }
    }
  }
}

// Existential labels are content-addressed (rule id + head-relevant
// binding), so even entity creation survives shard-count changes intact.
TEST(ShardedFixpointTest, ExistentialLabelsIdenticalAcrossShardCounts) {
  const std::string program = R"(
    node(X) -> .
    pathvar(P) -> .
    link(X, Y) -> node(X), node(Y).
    hop(P, X, Y) -> pathvar(P), node(X), node(Y).
    hop(P, X, Y) <- link(X, Y).
  )";
  auto run = [&](size_t shards, int threads) {
    Workspace ws;
    ws.fixpoint_options().threads = threads;
    ws.fixpoint_options().shards = shards;
    Install(&ws, program);
    auto commit = ws.Apply(ConvergenceLinks(32, 2));
    EXPECT_TRUE(commit.ok()) << commit.status().ToString();
    return Snap(ws);
  };
  Snapshot base = run(1, 1);
  ASSERT_TRUE(base.count("hop"));
  for (size_t shards : {size_t{4}, size_t{7}}) {
    EXPECT_EQ(base, run(shards, 1)) << "shards=" << shards;
    EXPECT_EQ(base, run(shards, 4)) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace secureblox::engine
