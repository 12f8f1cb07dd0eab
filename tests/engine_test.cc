// Workspace / evaluator semantics: fixpoints, negation, aggregation,
// functional dependencies, head existentials, constraints with rollback,
// and deletion with rederivation.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "datalog/parser.h"
#include "engine/workspace.h"

namespace secureblox::engine {
namespace {

using datalog::Parse;
using datalog::Value;

// Parse + install, asserting success.
void Install(Workspace* ws, const std::string& src) {
  auto program = Parse(src);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Status st = ws->Install(program.value());
  ASSERT_TRUE(st.ok()) << st.ToString();
}

Status TryInstall(Workspace* ws, const std::string& src) {
  auto program = Parse(src);
  if (!program.ok()) return program.status();
  return ws->Install(program.value());
}

// Render query results as a sorted set of strings for easy comparison.
std::set<std::string> QuerySet(Workspace& ws, const std::string& pred) {
  auto rows = ws.Query(pred);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::set<std::string> out;
  if (!rows.ok()) return out;
  for (const auto& t : rows.value()) {
    out.insert(TupleToString(t, ws.catalog()));
  }
  return out;
}

const char* kGraphSchema = R"(
node(X) -> .
link(X, Y) -> node(X), node(Y).
reachable(X, Y) -> node(X), node(Y).
reachable(X, Y) <- link(X, Y).
reachable(X, Y) <- link(X, Z), reachable(Z, Y).
)";

TEST(WorkspaceTest, TransitiveClosure) {
  Workspace ws;
  Install(&ws, kGraphSchema);
  ASSERT_TRUE(ws.Insert("link", {Value::Str("a"), Value::Str("b")}).ok());
  ASSERT_TRUE(ws.Insert("link", {Value::Str("b"), Value::Str("c")}).ok());
  ASSERT_TRUE(ws.Insert("link", {Value::Str("c"), Value::Str("d")}).ok());
  EXPECT_EQ(QuerySet(ws, "reachable").size(), 6u);  // ab ac ad bc bd cd
  EXPECT_TRUE(ws.ContainsFact("reachable",
                              {Value::Str("a"), Value::Str("d")}).value());
  EXPECT_FALSE(ws.ContainsFact("reachable",
                               {Value::Str("d"), Value::Str("a")}).value());
}

TEST(WorkspaceTest, TransitiveClosureWithCycle) {
  Workspace ws;
  Install(&ws, kGraphSchema);
  // a -> b -> c -> a: everything reaches everything.
  auto commit = ws.Apply({{"link", {Value::Str("a"), Value::Str("b")}},
                          {"link", {Value::Str("b"), Value::Str("c")}},
                          {"link", {Value::Str("c"), Value::Str("a")}}});
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_EQ(QuerySet(ws, "reachable").size(), 9u);
}

TEST(WorkspaceTest, IncrementalMaintenance) {
  Workspace ws;
  Install(&ws, kGraphSchema);
  ASSERT_TRUE(ws.Insert("link", {Value::Str("a"), Value::Str("b")}).ok());
  EXPECT_EQ(QuerySet(ws, "reachable").size(), 1u);
  // Adding one edge extends closure incrementally (semi-naïve deltas).
  auto commit = ws.Apply({{"link", {Value::Str("b"), Value::Str("c")}}});
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(QuerySet(ws, "reachable").size(), 3u);
  EXPECT_GT(commit->num_derived, 0u);
}

TEST(WorkspaceTest, CommitReportsInsertedTuples) {
  Workspace ws;
  Install(&ws, kGraphSchema);
  auto commit = ws.Apply({{"link", {Value::Str("a"), Value::Str("b")}}});
  ASSERT_TRUE(commit.ok());
  auto reachable_id = ws.catalog().Lookup("reachable").value();
  EXPECT_EQ(commit->inserted(reachable_id).size(), 1u);
}

TEST(WorkspaceTest, JoinWithComparisonAndArithmetic) {
  Workspace ws;
  Install(&ws, R"(
    cost(X, C) -> string(X), int(C).
    bumped(X, C) -> string(X), int(C).
    bumped(X, C + 10) <- cost(X, C), C < 100.
  )");
  ASSERT_TRUE(ws.Insert("cost", {Value::Str("small"), Value::Int(5)}).ok());
  ASSERT_TRUE(ws.Insert("cost", {Value::Str("big"), Value::Int(500)}).ok());
  auto rows = ws.Query("bumped").value();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].AsInt(), 15);
}

TEST(WorkspaceTest, NegationStratified) {
  Workspace ws;
  Install(&ws, R"(
    node(X) -> .
    link(X, Y) -> node(X), node(Y).
    unlinked(X, Y) -> node(X), node(Y).
    unlinked(X, Y) <- node(X), node(Y), !link(X, Y), X != Y.
  )");
  auto commit = ws.Apply({{"link", {Value::Str("a"), Value::Str("b")}},
                          {"link", {Value::Str("b"), Value::Str("c")}}});
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  // pairs: (a,c),(b,a),(c,a),(c,b) — all ordered pairs minus links & self.
  EXPECT_EQ(QuerySet(ws, "unlinked").size(), 4u);
}

TEST(WorkspaceTest, UnstratifiedNegationRejected) {
  Workspace ws;
  Status st = TryInstall(&ws, R"(
    p(X) -> string(X).
    q(X) -> string(X).
    p(X) <- q(X).
    q(X) <- p(X), !q(X).
  )");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCompileError);
  EXPECT_NE(st.message().find("unstratified"), std::string::npos);
}

TEST(WorkspaceTest, NegatedFunctionalWildcard) {
  Workspace ws;
  Install(&ws, R"(
    owner[X] = Y -> string(X), string(Y).
    item(X) -> string(X).
    orphan(X) -> string(X).
    orphan(X) <- item(X), !owner[X] = _.
  )");
  ASSERT_TRUE(ws.Insert("item", {Value::Str("book")}).ok());
  ASSERT_TRUE(ws.Insert("item", {Value::Str("pen")}).ok());
  ASSERT_TRUE(
      ws.Insert("owner", {Value::Str("book"), Value::Str("ann")}).ok());
  EXPECT_EQ(QuerySet(ws, "orphan"), std::set<std::string>{"(\"pen\")"});
}

TEST(WorkspaceTest, FunctionalDependencyConflictAborts) {
  Workspace ws;
  Install(&ws, "owner[X] = Y -> string(X), string(Y).");
  ASSERT_TRUE(
      ws.Insert("owner", {Value::Str("book"), Value::Str("ann")}).ok());
  auto commit =
      ws.Apply({{"owner", {Value::Str("book"), Value::Str("bob")}}});
  EXPECT_FALSE(commit.ok());
  EXPECT_EQ(commit.status().code(), StatusCode::kConstraintViolation);
  // Original value untouched.
  EXPECT_TRUE(
      ws.ContainsFact("owner", {Value::Str("book"), Value::Str("ann")})
          .value());
  EXPECT_FALSE(
      ws.ContainsFact("owner", {Value::Str("book"), Value::Str("bob")})
          .value());
}

TEST(WorkspaceTest, DuplicateInsertIsIdempotent) {
  Workspace ws;
  Install(&ws, kGraphSchema);
  ASSERT_TRUE(ws.Insert("link", {Value::Str("a"), Value::Str("b")}).ok());
  ASSERT_TRUE(ws.Insert("link", {Value::Str("a"), Value::Str("b")}).ok());
  EXPECT_EQ(QuerySet(ws, "link").size(), 1u);
}

TEST(WorkspaceTest, SingletonPredicate) {
  Workspace ws;
  Install(&ws, R"(
    principal(X) -> .
    self[] = P -> principal(P).
    greeting(P) -> principal(P).
    greeting(P) <- self[] = P.
  )");
  ASSERT_TRUE(ws.Insert("self", {Value::Str("alice")}).ok());
  EXPECT_EQ(ws.catalog().ValueToString(ws.SingletonValue("self").value()),
            "principal:alice");
  EXPECT_EQ(QuerySet(ws, "greeting").size(), 1u);
  // A second value violates the singleton's FD.
  auto commit = ws.Apply({{"self", {Value::Str("bob")}}});
  EXPECT_FALSE(commit.ok());
}

TEST(WorkspaceTest, RuntimeConstraintViolationRollsBackWholeBatch) {
  Workspace ws;
  Install(&ws, R"(
    node(X) -> .
    link(X, Y) -> node(X), node(Y).
    allowed(X) -> node(X).
    link(X, Y) -> allowed(X).
  )");
  ASSERT_TRUE(ws.Insert("allowed", {Value::Str("a")}).ok());
  // Batch: one OK link and one violating link — everything rolls back.
  auto commit = ws.Apply({{"link", {Value::Str("a"), Value::Str("b")}},
                          {"link", {Value::Str("evil"), Value::Str("b")}}});
  EXPECT_FALSE(commit.ok());
  EXPECT_EQ(commit.status().code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(QuerySet(ws, "link").size(), 0u);
  EXPECT_EQ(ws.stats().aborts, 1u);
  // The OK tuple alone commits.
  ASSERT_TRUE(ws.Insert("link", {Value::Str("a"), Value::Str("b")}).ok());
  EXPECT_EQ(QuerySet(ws, "link").size(), 1u);
}

TEST(WorkspaceTest, RepeatedVariableInBodyAtomMatchesDiagonal) {
  // Regression: a variable repeated within ONE body atom — link(X, X) —
  // used to compile its second occurrence as kBound, which read the
  // environment slot at match time, before the scan's accept step had
  // bound it: a dereference of an unengaged optional, whose garbage value
  // reached the dictionary probe and could crash on stale heap contents.
  // The repeated column now compiles to ArgPat::Kind::kSame, a
  // row-vs-row equality against the atom's earlier column, in both the
  // compiler and the planner's reorder path.
  Workspace ws;
  Install(&ws, R"(
    node(X) -> .
    link(X, Y) -> node(X), node(Y).
    self(X) -> node(X).
    pair(X, Y) -> node(X), node(Y).
    self(X) <- link(X, X).
    pair(X, Y) <- link(X, Y), link(Y, Y).
  )");
  auto commit = ws.Apply({{"link", {Value::Str("a"), Value::Str("b")}},
                          {"link", {Value::Str("b"), Value::Str("b")}},
                          {"link", {Value::Str("c"), Value::Str("c")}}});
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_EQ(QuerySet(ws, "self").size(), 2u);  // b, c
  EXPECT_TRUE(ws.ContainsFact("self", {Value::Str("b")}).value());
  EXPECT_TRUE(ws.ContainsFact("self", {Value::Str("c")}).value());
  EXPECT_FALSE(ws.ContainsFact("self", {Value::Str("a")}).value());
  // The diagonal filter also composes with a join: pair(X, Y) needs
  // link(X, Y) where Y is a self-loop.
  EXPECT_EQ(QuerySet(ws, "pair").size(), 3u);  // (a,b), (b,b), (c,c)
  EXPECT_TRUE(
      ws.ContainsFact("pair", {Value::Str("a"), Value::Str("b")}).value());
  EXPECT_TRUE(
      ws.ContainsFact("pair", {Value::Str("b"), Value::Str("b")}).value());
  EXPECT_TRUE(
      ws.ContainsFact("pair", {Value::Str("c"), Value::Str("c")}).value());
  // Deletion walks the same patterns through the retraction variants.
  auto del = ws.Apply({}, {{"link", {Value::Str("b"), Value::Str("b")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(QuerySet(ws, "self").size(), 1u);  // c
  EXPECT_TRUE(ws.ContainsFact("self", {Value::Str("c")}).value());
  EXPECT_EQ(QuerySet(ws, "pair").size(), 1u);  // (c,c)
  EXPECT_TRUE(
      ws.ContainsFact("pair", {Value::Str("c"), Value::Str("c")}).value());
}

TEST(WorkspaceTest, RepeatedVariableInConstraintLhsMatchesDiagonal) {
  // A constraint whose left side repeats a variable within one atom binds
  // like a rule body: the second X compares the candidate row with its own
  // first column (kSame), so only self-loops need a vip.
  Workspace ws;
  Install(&ws, R"(
    node(X) -> .
    vip(X) -> node(X).
    link(X, Y) -> node(X), node(Y).
    link(X, X) -> vip(X).
  )");
  // Off-diagonal links commit without a vip.
  ASSERT_TRUE(ws.Apply({{"link", {Value::Str("a"), Value::Str("b")}},
                        {"link", {Value::Str("b"), Value::Str("a")}}})
                  .ok());
  // A self-loop without a vip rolls back, with the rest of its batch.
  auto commit = ws.Apply({{"link", {Value::Str("c"), Value::Str("d")}},
                          {"link", {Value::Str("c"), Value::Str("c")}}});
  EXPECT_FALSE(commit.ok());
  EXPECT_EQ(commit.status().code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(QuerySet(ws, "link").size(), 2u);
  EXPECT_FALSE(
      ws.ContainsFact("link", {Value::Str("c"), Value::Str("c")}).value());
  // With the vip, the self-loop commits.
  ASSERT_TRUE(ws.Apply({{"vip", {Value::Str("c")}},
                        {"link", {Value::Str("c"), Value::Str("c")}}})
                  .ok());
  EXPECT_EQ(QuerySet(ws, "link").size(), 3u);
}

TEST(WorkspaceTest, RolledBackTxnLeavesColumnarDictionariesClean) {
  // Audit pin for dictionary refcount hygiene across transaction
  // rollback: the undo log erases every tuple the aborted transaction
  // inserted, and Relation::Erase symmetrically releases the codes each
  // row held — so live counts, CodeOf visibility, and estimates must all
  // read as if the transaction never ran.
  Workspace ws;
  Install(&ws, R"(
    node(X) -> .
    allowed(X) -> node(X).
    link(X, Y) -> node(X), node(Y).
    link(X, Y) -> allowed(X).
  )");
  ASSERT_TRUE(ws.Insert("allowed", {Value::Str("a")}).ok());
  ASSERT_TRUE(ws.Insert("link", {Value::Str("a"), Value::Str("b")}).ok());
  const Relation* link = ws.GetRelationIfExists(
      ws.catalog().Lookup("link").value());
  ASSERT_NE(link, nullptr);
  const auto live0 = link->ColumnDistinct(0);
  const auto live1 = link->ColumnDistinct(1);
  // The violating batch interns novel entities into the dictionaries
  // while applying, then rolls back; its codes must be fully retired.
  auto commit = ws.Apply({{"link", {Value::Str("a"), Value::Str("fresh1")}},
                          {"link", {Value::Str("evil"), Value::Str("fresh2")}}});
  ASSERT_FALSE(commit.ok());
  EXPECT_EQ(link->ColumnDistinct(0), live0);
  EXPECT_EQ(link->ColumnDistinct(1), live1);
  EXPECT_EQ(link->size(), 1u);
  EXPECT_EQ(QuerySet(ws, "link").size(), 1u);
  // The surviving good row still commits afterwards, reviving any
  // retired code rather than minting a duplicate.
  ASSERT_TRUE(ws.Insert("link", {Value::Str("a"), Value::Str("fresh1")}).ok());
  EXPECT_EQ(link->ColumnDistinct(1), live1 + 1);
  EXPECT_EQ(QuerySet(ws, "link").size(), 2u);
}

TEST(WorkspaceTest, ConstraintOnDerivedFacts) {
  Workspace ws;
  Install(&ws, R"(
    node(X) -> .
    link(X, Y) -> node(X), node(Y).
    reachable(X, Y) -> node(X), node(Y).
    reachable(X, Y) <- link(X, Y).
    reachable(X, Y) <- link(X, Z), reachable(Z, Y).
    forbidden(X) -> node(X).
    reachable(X, Y) -> node(X), node(Y), !forbidden(Y).
  )");
  ASSERT_TRUE(ws.Insert("forbidden", {Value::Str("x")}).ok());
  ASSERT_TRUE(ws.Insert("link", {Value::Str("a"), Value::Str("b")}).ok());
  // Deriving reachable(a,x) transitively violates the constraint.
  auto commit = ws.Apply({{"link", {Value::Str("b"), Value::Str("x")}}});
  EXPECT_FALSE(commit.ok());
  EXPECT_EQ(QuerySet(ws, "reachable").size(), 1u);  // only (a,b)
}

TEST(WorkspaceTest, StratifiedAggregates) {
  Workspace ws;
  Install(&ws, R"(
    sale(X, V) -> string(X), int(V).
    total[X] = V -> string(X), int(V).
    cheapest[X] = V -> string(X), int(V).
    biggest[X] = V -> string(X), int(V).
    howmany[X] = V -> string(X), int(V).
    total[X] = V <- agg<< V = sum(S) >> sale(X, S).
    cheapest[X] = V <- agg<< V = min(S) >> sale(X, S).
    biggest[X] = V <- agg<< V = max(S) >> sale(X, S).
    howmany[X] = V <- agg<< V = count() >> sale(X, S).
  )");
  auto commit = ws.Apply({{"sale", {Value::Str("a"), Value::Int(10)}},
                          {"sale", {Value::Str("a"), Value::Int(3)}},
                          {"sale", {Value::Str("a"), Value::Int(7)}},
                          {"sale", {Value::Str("b"), Value::Int(5)}}});
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_TRUE(ws.ContainsFact("total", {Value::Str("a"), Value::Int(20)})
                  .value());
  EXPECT_TRUE(ws.ContainsFact("cheapest", {Value::Str("a"), Value::Int(3)})
                  .value());
  EXPECT_TRUE(ws.ContainsFact("biggest", {Value::Str("a"), Value::Int(10)})
                  .value());
  EXPECT_TRUE(ws.ContainsFact("howmany", {Value::Str("a"), Value::Int(3)})
                  .value());
  EXPECT_TRUE(ws.ContainsFact("total", {Value::Str("b"), Value::Int(5)})
                  .value());
  // Aggregates update when more data arrives.
  ASSERT_TRUE(ws.Insert("sale", {Value::Str("b"), Value::Int(2)}).ok());
  EXPECT_TRUE(ws.ContainsFact("total", {Value::Str("b"), Value::Int(7)})
                  .value());
  EXPECT_TRUE(ws.ContainsFact("cheapest", {Value::Str("b"), Value::Int(2)})
                  .value());
}

TEST(WorkspaceTest, RecursiveLatticeMinShortestPath) {
  // Recursive aggregation (bestcost over cost, cost over bestcost) — the
  // declarative-networking pattern the path-vector protocol relies on.
  Workspace ws;
  Install(&ws, R"(
    node(X) -> .
    link(X, Y, C) -> node(X), node(Y), int(C).
    cost(X, Y, C) -> node(X), node(Y), int(C).
    bestcost[X, Y] = C -> node(X), node(Y), int(C).
    cost(X, Y, C) <- link(X, Y, C).
    cost(X, Y, C1 + C2) <- bestcost[X, Z] = C1, link(Z, Y, C2).
    bestcost[X, Y] = C <- agg<< C = min(Cx) >> cost(X, Y, Cx).
  )");
  auto commit = ws.Apply({
      {"link", {Value::Str("a"), Value::Str("b"), Value::Int(1)}},
      {"link", {Value::Str("b"), Value::Str("c"), Value::Int(1)}},
      {"link", {Value::Str("a"), Value::Str("c"), Value::Int(5)}},
      {"link", {Value::Str("c"), Value::Str("d"), Value::Int(1)}},
  });
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  // a->c best is 2 via b, not the direct 5.
  EXPECT_TRUE(
      ws.ContainsFact("bestcost",
                      {Value::Str("a"), Value::Str("c"), Value::Int(2)})
          .value());
  EXPECT_TRUE(
      ws.ContainsFact("bestcost",
                      {Value::Str("a"), Value::Str("d"), Value::Int(3)})
          .value());
  // The transaction replaced bestcost[a, c] = 5 (and [a, d] = 6) with the
  // cheaper path: the commit reports each surviving row once and none of
  // the superseded ones it erased.
  const auto bestcost = ws.catalog().Lookup("bestcost").value();
  std::vector<std::string> reported;
  for (const Tuple& t : commit->inserted(bestcost)) {
    reported.push_back(TupleToString(t, ws.catalog()));
  }
  const std::set<std::string> stored = QuerySet(ws, "bestcost");
  EXPECT_EQ(reported.size(), stored.size());
  EXPECT_EQ(std::set<std::string>(reported.begin(), reported.end()), stored);
}

TEST(WorkspaceTest, RecursiveSumRejected) {
  Workspace ws;
  Status st = TryInstall(&ws, R"(
    p(X, V) -> string(X), int(V).
    q[X] = V -> string(X), int(V).
    p(X, V) <- q[X] = V.
    q[X] = V <- agg<< V = sum(S) >> p(X, S).
  )");
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("lattice"), std::string::npos);
}

TEST(WorkspaceTest, HeadExistentialCreatesEntities) {
  Workspace ws;
  Install(&ws, R"(
    person(X) -> .
    team(X) -> .
    member(T, P) -> team(T), person(P).
    pair(A, B) -> person(A), person(B).
    team(T), member(T, A), member(T, B) <- pair(A, B).
  )");
  ASSERT_TRUE(
      ws.Insert("pair", {Value::Str("ann"), Value::Str("bob")}).ok());
  EXPECT_EQ(QuerySet(ws, "team").size(), 1u);
  EXPECT_EQ(QuerySet(ws, "member").size(), 2u);
  // Re-inserting the same pair must reuse the memoized entity.
  ASSERT_TRUE(
      ws.Insert("pair", {Value::Str("ann"), Value::Str("bob")}).ok());
  EXPECT_EQ(QuerySet(ws, "team").size(), 1u);
  // A different pair creates a fresh team.
  ASSERT_TRUE(
      ws.Insert("pair", {Value::Str("cid"), Value::Str("dee")}).ok());
  EXPECT_EQ(QuerySet(ws, "team").size(), 2u);
}

TEST(WorkspaceTest, DeleteAndRederive) {
  Workspace ws;
  Install(&ws, kGraphSchema);
  auto commit = ws.Apply({{"link", {Value::Str("a"), Value::Str("b")}},
                          {"link", {Value::Str("b"), Value::Str("c")}},
                          {"link", {Value::Str("a"), Value::Str("c")}}});
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(QuerySet(ws, "reachable").size(), 3u);
  // Remove a->b: a->c still holds via the direct link; b->c remains.
  auto del = ws.Apply({}, {{"link", {Value::Str("a"), Value::Str("b")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  auto set = QuerySet(ws, "reachable");
  EXPECT_EQ(set.size(), 2u);
  EXPECT_FALSE(ws.ContainsFact("reachable",
                               {Value::Str("a"), Value::Str("b")}).value());
  EXPECT_TRUE(ws.ContainsFact("reachable",
                              {Value::Str("a"), Value::Str("c")}).value());
}

TEST(WorkspaceTest, DeleteCascades) {
  Workspace ws;
  Install(&ws, kGraphSchema);
  auto commit = ws.Apply({{"link", {Value::Str("a"), Value::Str("b")}},
                          {"link", {Value::Str("b"), Value::Str("c")}},
                          {"link", {Value::Str("c"), Value::Str("d")}}});
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(QuerySet(ws, "reachable").size(), 6u);
  auto del = ws.Apply({}, {{"link", {Value::Str("b"), Value::Str("c")}}});
  ASSERT_TRUE(del.ok());
  // Only a->b and c->d survive.
  EXPECT_EQ(QuerySet(ws, "reachable").size(), 2u);
}

TEST(WorkspaceTest, DeleteDerivedFactRejected) {
  Workspace ws;
  Install(&ws, kGraphSchema);
  ASSERT_TRUE(ws.Insert("link", {Value::Str("a"), Value::Str("b")}).ok());
  auto del =
      ws.Apply({}, {{"reachable", {Value::Str("a"), Value::Str("b")}}});
  EXPECT_FALSE(del.ok());
  EXPECT_EQ(QuerySet(ws, "reachable").size(), 1u);
}

TEST(WorkspaceTest, BuiltinInRuleBody) {
  Workspace ws;
  Install(&ws, R"(
    item(X) -> string(X).
    bucket(X, B) -> string(X), int(B).
    bucket(X, B) <- item(X), sha1_bucket(X, 4, B).
  )");
  for (const char* name : {"a", "b", "c", "d", "e", "f"}) {
    ASSERT_TRUE(ws.Insert("item", {Value::Str(name)}).ok());
  }
  auto rows = ws.Query("bucket").value();
  ASSERT_EQ(rows.size(), 6u);
  for (const auto& r : rows) {
    EXPECT_GE(r[1].AsInt(), 0);
    EXPECT_LT(r[1].AsInt(), 4);
  }
}

// Pins sha1_bucket for every value kind it hashes, including a string whose
// canonical bytes span two SHA-1 blocks: hash-join placement and the
// benchmark's balanced join values depend on these exact buckets.
TEST(WorkspaceTest, Sha1BucketKnownAnswers) {
  Workspace ws;
  Install(&ws, R"(
    node(X) -> .
    bv(X) -> bool(X).
    iv(X) -> int(X).
    sv(X) -> string(X).
    bb(X, B) -> bool(X), int(B).
    bb(X, B) <- bv(X), sha1_bucket(X, 1000000, B).
    ib(X, B) -> int(X), int(B).
    ib(X, B) <- iv(X), sha1_bucket(X, 1000000, B).
    sb(X, B) -> string(X), int(B).
    sb(X, B) <- sv(X), sha1_bucket(X, 1000000, B).
    db(X, B) -> string(X), int(B).
    db(X, B) <- sv(X), sha1(X, D), sha1_bucket(D, 1000000, B).
    eb(X, B) -> node(X), int(B).
    eb(X, B) <- node(X), sha1_bucket(X, 1000000, B).
    node("n1").
    node("n2").
  )");
  for (bool b : {false, true}) {
    ASSERT_TRUE(ws.Insert("bv", {Value::Bool(b)}).ok());
  }
  for (int64_t i : {int64_t{0}, int64_t{-1}, int64_t{42}, int64_t{1} << 40}) {
    ASSERT_TRUE(ws.Insert("iv", {Value::Int(i)}).ok());
  }
  const std::string long_value =
      "join-value-0123456789-0123456789-0123456789-0123456789-0123456789";
  for (const std::string& s : {std::string(), std::string("a"), long_value}) {
    ASSERT_TRUE(ws.Insert("sv", {Value::Str(s)}).ok());
  }
  EXPECT_EQ(QuerySet(ws, "bb"),
            (std::set<std::string>{"(false, 885225)", "(true, 354501)"}));
  EXPECT_EQ(QuerySet(ws, "ib"),
            (std::set<std::string>{"(-1, 772469)", "(0, 786124)",
                                   "(1099511627776, 394267)",
                                   "(42, 838103)"}));
  EXPECT_EQ(QuerySet(ws, "sb"),
            (std::set<std::string>{"(\"\", 156804)", "(\"a\", 254887)",
                                   "(\"" + long_value + "\", 411436)"}));
  EXPECT_EQ(QuerySet(ws, "db"),
            (std::set<std::string>{"(\"\", 851028)", "(\"a\", 302267)",
                                   "(\"" + long_value + "\", 420810)"}));
  EXPECT_EQ(QuerySet(ws, "eb"),
            (std::set<std::string>{"(node:n1, 507453)", "(node:n2, 560636)"}));
}

TEST(WorkspaceTest, FactsInProgramSource) {
  Workspace ws;
  Install(&ws, R"(
    node(X) -> .
    link(X, Y) -> node(X), node(Y).
    reachable(X, Y) -> node(X), node(Y).
    reachable(X, Y) <- link(X, Y).
    reachable(X, Y) <- link(X, Z), reachable(Z, Y).
    link("a", "b").
    link("b", "c").
  )");
  EXPECT_EQ(QuerySet(ws, "reachable").size(), 3u);
}

TEST(WorkspaceTest, MultipleInstallsAccumulate) {
  Workspace ws;
  Install(&ws, kGraphSchema);
  ASSERT_TRUE(ws.Insert("link", {Value::Str("a"), Value::Str("b")}).ok());
  Install(&ws, R"(
    twohop(X, Y) -> node(X), node(Y).
    twohop(X, Y) <- link(X, Z), link(Z, Y).
  )");
  ASSERT_TRUE(ws.Insert("link", {Value::Str("b"), Value::Str("c")}).ok());
  EXPECT_EQ(QuerySet(ws, "twohop").size(), 1u);
}

TEST(WorkspaceTest, EntityStringComparisonCoercion) {
  Workspace ws;
  Install(&ws, R"(
    principal(X) -> .
    trusted(P) -> principal(P).
    trusted(P) -> P = "ca".
  )");
  ASSERT_TRUE(ws.Insert("trusted", {Value::Str("ca")}).ok());
  auto bad = ws.Apply({{"trusted", {Value::Str("mallory")}}});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kConstraintViolation);
}

TEST(WorkspaceTest, SubtypePropagation) {
  Workspace ws;
  Install(&ws, R"(
    animal(X) -> .
    dog(X) -> .
    dog(X) -> animal(X).
    sound(A, S) -> animal(A), string(S).
    barks(D) -> dog(D).
    sound(D, "woof") <- barks(D).
  )");
  ASSERT_TRUE(ws.Insert("barks", {Value::Str("rex")}).ok());
  EXPECT_EQ(QuerySet(ws, "sound").size(), 1u);
  // rex is a member of both dog and animal.
  EXPECT_EQ(QuerySet(ws, "animal").size(), 1u);
}

TEST(WorkspaceTest, InstallAddingASupertypeReachesEntitiesInUse) {
  Workspace ws;
  Install(&ws, R"(
    person(X) -> .
    knows(X, Y) -> person(X), person(Y).
  )");
  ASSERT_TRUE(ws.Insert("knows", {Value::Str("ann"), Value::Str("bob")}).ok());
  // person gains a supertype after ann is in use: the next insert that
  // mentions ann gives her the new membership row.
  Install(&ws, R"(
    agent(X) -> .
    person(X) -> agent(X).
  )");
  ASSERT_TRUE(ws.Insert("knows", {Value::Str("ann"), Value::Str("cy")}).ok());
  EXPECT_EQ(QuerySet(ws, "agent"),
            (std::set<std::string>{"(person:ann)", "(person:cy)"}));
}

TEST(WorkspaceTest, DeletedMembershipComesBackWithTheNextUse) {
  Workspace ws;
  Install(&ws, kGraphSchema);
  ASSERT_TRUE(ws.Insert("link", {Value::Str("a"), Value::Str("b")}).ok());
  // Separate transactions, then delete and re-use in one transaction.
  ASSERT_TRUE(ws.Apply({}, {{"node", {Value::Str("a")}}}).ok());
  EXPECT_FALSE(ws.ContainsFact("node", {Value::Str("a")}).value());
  ASSERT_TRUE(ws.Insert("link", {Value::Str("a"), Value::Str("c")}).ok());
  EXPECT_TRUE(ws.ContainsFact("node", {Value::Str("a")}).value());
  auto both = ws.Apply({{"link", {Value::Str("b"), Value::Str("d")}}},
                       {{"node", {Value::Str("b")}}});
  ASSERT_TRUE(both.ok()) << both.status().ToString();
  EXPECT_TRUE(ws.ContainsFact("node", {Value::Str("b")}).value());
  EXPECT_EQ(QuerySet(ws, "node").size(), 4u);
}

// One value-to-code encode per Relation insert (base facts, each new
// entity's membership row, every counted head derivation) and one per
// located delete (the base delete and each retraction).
TEST(WorkspaceTest, MutationEncodesOnePerInsertAndDelete) {
  Workspace ws;
  Install(&ws, kGraphSchema);
  const uint64_t start = ws.stats().mutation_encodes;
  const std::vector<FactUpdate> links = {
      {"link", {Value::Str("a"), Value::Str("b")}},
      {"link", {Value::Str("b"), Value::Str("c")}},
      {"link", {Value::Str("a"), Value::Str("c")}},
      {"link", {Value::Str("c"), Value::Str("d")}}};
  ASSERT_TRUE(ws.Apply(links).ok());
  // Every derivation of a counted head is one insert (new or duplicate),
  // so the derivations are the sum of the supports.
  const Relation* reach =
      ws.GetRelationIfExists(ws.catalog().Lookup("reachable").value());
  ASSERT_NE(reach, nullptr);
  uint64_t derivations = 0;
  for (const Tuple& t : reach->AllTuples()) {
    derivations += reach->SupportCount(t);
  }
  EXPECT_EQ(derivations, 8u);  // a->c and a->d twice each
  const uint64_t nodes = QuerySet(ws, "node").size();
  EXPECT_EQ(ws.stats().mutation_encodes - start,
            links.size() + nodes + derivations);

  const uint64_t before = ws.stats().mutation_encodes;
  auto del = ws.Apply({}, {{"link", {Value::Str("a"), Value::Str("c")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del->fixpoint.retractions, 2u);
  EXPECT_EQ(ws.stats().mutation_encodes - before,
            1 + del->fixpoint.retractions);
}

TEST(WorkspaceTest, TypeErrorsSurfaceAtInstall) {
  Workspace ws;
  // Head var typed string flowing into int position.
  Status st = TryInstall(&ws, R"(
    p(X) -> string(X).
    q(X) -> int(X).
    q(X) <- p(X).
  )");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
}

TEST(WorkspaceTest, PaperTypeSafetyExample) {
  // Paper §2: p(...) <- s(xn) rejected unless s's elements are contained in
  // p's argument type; fixed by declaring the containment s(X) -> qn(X).
  Workspace ws;
  Status bad = TryInstall(&ws, R"(
    qn(X) -> .
    other(X) -> .
    p(X) -> qn(X).
    s(X) -> other(X).
    p(X) <- s(X).
  )");
  EXPECT_FALSE(bad.ok());

  Workspace ws2;
  Status good = TryInstall(&ws2, R"(
    qn(X) -> .
    s(X) -> .
    s(X) -> qn(X).
    p(X) -> qn(X).
    p(X) <- s(X).
  )");
  EXPECT_TRUE(good.ok()) << good.ToString();
}

TEST(WorkspaceTest, StatsTracking) {
  Workspace ws;
  Install(&ws, kGraphSchema);
  ASSERT_TRUE(ws.Insert("link", {Value::Str("a"), Value::Str("b")}).ok());
  ASSERT_TRUE(ws.Insert("link", {Value::Str("b"), Value::Str("c")}).ok());
  EXPECT_GE(ws.stats().transactions, 2u);
  EXPECT_GT(ws.stats().derived_tuples, 0u);
  EXPECT_EQ(ws.tx_durations_us().size(), ws.stats().transactions);
}

TEST(WorkspaceTest, UndeclaredPredicateErrors) {
  Workspace ws;
  Install(&ws, kGraphSchema);
  EXPECT_FALSE(ws.Insert("nosuch", {Value::Int(1)}).ok());
  EXPECT_FALSE(ws.Query("nosuch").ok());
  Status st = TryInstall(&ws, "foo(X) <- bar(X).");
  EXPECT_FALSE(st.ok());
}

}  // namespace
}  // namespace secureblox::engine
