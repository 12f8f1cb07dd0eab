// Rule dependency graph and fixpoint driver: SCC condensation, topological
// group order, stratification with negation through cycles (the
// declarative-networking path), multi-head rules feeding earlier strata,
// the pred -> consuming-rules index and its skipped-firing accounting, and
// the derivation budget.
#include <gtest/gtest.h>

#include "common/strings.h"
#include "datalog/parser.h"
#include "engine/rule_graph.h"
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

TEST(RuleGraphTest, SccCondensationOnMutualRecursion) {
  Workspace ws;
  Install(&ws, R"(
    base(X) -> int(X).
    p(X) -> int(X).
    q(X) -> int(X).
    r(X) -> int(X).
    p(X) <- base(X).
    p(X) <- q(X).
    q(X) <- p(X).
    r(X) <- q(X).
  )");
  const RuleGraph& g = ws.rule_graph();
  ASSERT_EQ(g.num_rules(), 4u);

  // p <- q and q <- p are mutually recursive: one group, marked recursive.
  EXPECT_EQ(g.group_of_rule(1), g.group_of_rule(2));
  EXPECT_TRUE(g.group(g.group_of_rule(1)).recursive);

  // The feeder and the consumer are their own (non-recursive) groups.
  int g_base = g.group_of_rule(0);
  int g_scc = g.group_of_rule(1);
  int g_r = g.group_of_rule(3);
  EXPECT_NE(g_base, g_scc);
  EXPECT_NE(g_scc, g_r);
  EXPECT_FALSE(g.group(g_base).recursive);
  EXPECT_FALSE(g.group(g_r).recursive);

  // Topological order: producers get smaller group ids than consumers.
  EXPECT_LT(g_base, g_scc);
  EXPECT_LT(g_scc, g_r);

  // The condensation records the group edges.
  const auto& succ = g.group(g_scc).successors;
  EXPECT_NE(std::find(succ.begin(), succ.end(), g_r), succ.end());

  // consumers_of: q feeds rules 1 (p <- q) and 3 (r <- q).
  auto q = ws.catalog().Lookup("q").value();
  EXPECT_EQ(g.consumers_of(q), (std::vector<size_t>{1, 3}));
}

TEST(RuleGraphTest, NegationThroughCycleNeedsDeclarativeMode) {
  const char* src = R"(
    p(X) -> int(X).
    q(X) -> int(X).
    p(X) <- q(X).
    q(X) <- p(X), !q(X).
  )";
  {
    Workspace strict;
    auto program = Parse(src);
    ASSERT_TRUE(program.ok());
    Status st = strict.Install(program.value());
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kCompileError);
  }
  Workspace ws;
  ws.set_allow_unstratified_negation(true);
  Install(&ws, src);
  // Derivation-time semantics: p(1) derives q(1) (q(1) absent when the
  // negation is checked), and the fixpoint still terminates.
  ASSERT_TRUE(ws.Insert("p", {Value::Int(1)}).ok());
  EXPECT_TRUE(ws.ContainsFact("q", {Value::Int(1)}).value());
  // The cyclic rules share a group in stratum 0.
  const RuleGraph& g = ws.rule_graph();
  EXPECT_EQ(g.group_of_rule(0), g.group_of_rule(1));
  EXPECT_EQ(g.stratum_of(0), 0);
}

TEST(RuleGraphTest, MultiHeadRuleFeedsEarlierStratum) {
  // The multi-head rule sits in stratum 1 (head `a` is in a negation-raised
  // SCC) but its second head `b` lives in stratum 0, feeding `bd <- b`
  // backwards — the cross-stratum feedback loop the driver must re-enter
  // earlier strata for.
  Workspace ws;
  Install(&ws, R"(
    seed(X) -> int(X).
    ng(X) -> int(X).
    a(X) -> int(X).
    b(X) -> int(X).
    bd(X) -> int(X).
    c(X) -> int(X).
    c(X) <- a(X), X < 10, !ng(X).
    a(X), b(X) <- seed(X).
    a(X) <- c(X).
    bd(X) <- b(X).
  )");
  const RuleGraph& g = ws.rule_graph();
  // Rule 1 (the multi-head) is above rule 3 (bd <- b).
  EXPECT_GT(g.stratum_of(1), g.stratum_of(3));
  EXPECT_EQ(g.max_stratum(), 1);

  // The feedback actually flows: bd derives even though its input is
  // produced by a later stratum.
  ASSERT_TRUE(ws.Insert("seed", {Value::Int(5)}).ok());
  EXPECT_TRUE(ws.ContainsFact("bd", {Value::Int(5)}).value());
  EXPECT_TRUE(ws.ContainsFact("c", {Value::Int(5)}).value());
}

TEST(RuleGraphTest, RulesWithUnchangedBodyPredicatesAreSkipped) {
  // Mutually recursive workload: the two rules share one group, but each
  // round only one of their body predicates has a delta — the dependency
  // index skips the other rule instead of re-firing it.
  Workspace ws;
  Install(&ws, R"(
    even(X) -> int(X).
    odd(X) -> int(X).
    odd(X + 1) <- even(X), X < 20.
    even(X + 1) <- odd(X), X < 20.
  )");
  auto commit = ws.Apply({{"even", {Value::Int(0)}}});
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_EQ(commit->num_derived, 20u);  // 1..20, alternating even/odd
  EXPECT_GT(commit->fixpoint.rounds, 10u);
  EXPECT_GT(commit->fixpoint.rule_firings, 0u);
  // Roughly every round fires one rule and skips the sibling.
  EXPECT_GT(commit->fixpoint.firings_skipped, 10u);
  // Cumulative counters mirror the per-transaction ones.
  EXPECT_GE(ws.stats().firings_skipped, commit->fixpoint.firings_skipped);
  EXPECT_GE(ws.stats().fixpoint_rounds, commit->fixpoint.rounds);
}

TEST(RuleGraphTest, UntriggeredGroupsNeverRun) {
  // Recursive closure next to an unrelated rule: the unrelated group gets
  // no deltas, so across all rounds the total firings stay well below
  // rounds x rules — the group worklist never visits it.
  Workspace ws;
  Install(&ws, R"(
    node(X) -> .
    link(X, Y) -> node(X), node(Y).
    reachable(X, Y) -> node(X), node(Y).
    reachable(X, Y) <- link(X, Y).
    reachable(X, Y) <- link(X, Z), reachable(Z, Y).
    other(X) -> int(X).
    other2(X) -> int(X).
    other2(X) <- other(X).
  )");
  std::vector<FactUpdate> links;
  for (int i = 0; i + 1 < 8; ++i) {
    links.push_back({"link",
                     {Value::Str(StrCat({"v", std::to_string(i)})),
                      Value::Str(StrCat({"v", std::to_string(i + 1)}))}});
  }
  auto commit = ws.Apply(links);
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_EQ(commit->num_derived, 7u * 8u / 2u);
  // Naive per-stratum evaluation would fire all 3 rules every round.
  EXPECT_LT(commit->fixpoint.rule_firings + commit->fixpoint.firings_skipped,
            commit->fixpoint.rounds * 3);
  EXPECT_EQ(ws.Query("other2").value().size(), 0u);
}

TEST(RuleGraphTest, UntouchedAggregatesAreNotRecomputed) {
  Workspace ws;
  Install(&ws, R"(
    sale(X, V) -> string(X), int(V).
    other(X) -> int(X).
    total[X] = V -> string(X), int(V).
    total[X] = V <- agg<< V = sum(S) >> sale(X, S).
  )");
  ASSERT_TRUE(ws.Insert("sale", {Value::Str("a"), Value::Int(3)}).ok());
  // A transaction not touching `sale` must skip the aggregate entirely.
  auto commit = ws.Apply({{"other", {Value::Int(1)}}});
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(commit->fixpoint.agg_recomputes, 0u);
  EXPECT_GT(commit->fixpoint.agg_skipped, 0u);
}

TEST(RuleGraphTest, DerivationBudgetNamesStratumAndRules) {
  Workspace ws;
  ws.fixpoint_options().max_derivations = 16;
  Install(&ws, R"(
    p(X) -> int(X).
    p(X + 1) <- p(X), X < 1000000.
  )");
  auto commit = ws.Apply({{"p", {Value::Int(0)}}});
  ASSERT_FALSE(commit.ok());
  const std::string& msg = commit.status().message();
  EXPECT_NE(msg.find("derivation budget"), std::string::npos) << msg;
  EXPECT_NE(msg.find("stratum 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("p(X)"), std::string::npos) << msg;
  // The failed transaction rolled back entirely.
  EXPECT_EQ(ws.Query("p").value().size(), 0u);
  EXPECT_EQ(ws.stats().aborts, 1u);
}

TEST(RuleGraphTest, BudgetExemptsDeleteAndRederive) {
  // The budget bounds new work, not rederivation: deleting from a database
  // larger than max_derivations must still succeed (DRed re-inserts every
  // surviving derived tuple, which does not count against the cap).
  Workspace ws;
  Install(&ws, R"(
    node(X) -> .
    link(X, Y) -> node(X), node(Y).
    reachable(X, Y) -> node(X), node(Y).
    reachable(X, Y) <- link(X, Y).
    reachable(X, Y) <- link(X, Z), reachable(Z, Y).
  )");
  std::vector<FactUpdate> links;
  for (int i = 0; i + 1 < 10; ++i) {
    links.push_back({"link",
                     {Value::Str(StrCat({"v", std::to_string(i)})),
                      Value::Str(StrCat({"v", std::to_string(i + 1)}))}});
  }
  ASSERT_TRUE(ws.Apply(links).ok());
  ASSERT_EQ(ws.Query("reachable").value().size(), 45u);

  ws.fixpoint_options().max_derivations = 4;  // far below the 44 rederived
  auto commit = ws.Apply({}, {{"link", {Value::Str("v0"), Value::Str("v1")}}});
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_EQ(ws.Query("reachable").value().size(), 36u);
}

}  // namespace
}  // namespace secureblox::engine
