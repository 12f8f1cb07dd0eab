// Counting-based incremental deletion: support counts keep tuples with
// alternative derivations alive, deletes cascade through recursive groups
// by counting and recompute the cluster only when a survivor may rest on a
// cycle, negation flips retract or derive exactly the instantiations they
// block or unblock, aggregate outputs retract with their inputs (all
// checked against a from-scratch oracle), and failed deletes roll back
// exactly — including functional key slots.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>

#include "common/strings.h"
#include "datalog/parser.h"
#include "engine/workspace.h"
#include "oracle_programs.h"

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

bool Contains(Workspace& ws, const std::string& pred,
              std::vector<Value> values) {
  auto r = ws.ContainsFact(pred, values);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() && r.value();
}

TEST(CountingDeleteTest, AlternativeDerivationSurvives) {
  Workspace ws;
  Install(&ws, R"(
    a(X) -> string(X).
    b(X) -> string(X).
    p(X) -> string(X).
    p(X) <- a(X).
    p(X) <- b(X).
  )");
  ASSERT_TRUE(ws.Insert("a", {Value::Str("x")}).ok());
  ASSERT_TRUE(ws.Insert("b", {Value::Str("x")}).ok());
  EXPECT_TRUE(Contains(ws, "p", {Value::Str("x")}));

  // Dropping one support must keep the tuple (count 2 -> 1), not erase it.
  auto del1 = ws.Apply({}, {{"a", {Value::Str("x")}}});
  ASSERT_TRUE(del1.ok()) << del1.status().ToString();
  EXPECT_TRUE(Contains(ws, "p", {Value::Str("x")}));
  EXPECT_GE(del1->fixpoint.rescued, 1u);
  EXPECT_EQ(del1->fixpoint.deleted, 0u);
  EXPECT_EQ(del1->fixpoint.group_rederives, 0u);  // pure counting path

  // The last support goes: now the tuple cascades out.
  auto del2 = ws.Apply({}, {{"b", {Value::Str("x")}}});
  ASSERT_TRUE(del2.ok()) << del2.status().ToString();
  EXPECT_FALSE(Contains(ws, "p", {Value::Str("x")}));
  EXPECT_GE(del2->fixpoint.deleted, 1u);
}

TEST(CountingDeleteTest, CascadesThroughStrata) {
  Workspace ws;
  Install(&ws, R"(
    a(X) -> string(X).
    p(X) -> string(X).
    q(X) -> string(X).
    p(X) <- a(X).
    q(X) <- p(X).
  )");
  ASSERT_TRUE(ws.Insert("a", {Value::Str("x")}).ok());
  EXPECT_TRUE(Contains(ws, "q", {Value::Str("x")}));
  auto del = ws.Apply({}, {{"a", {Value::Str("x")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_FALSE(Contains(ws, "p", {Value::Str("x")}));
  EXPECT_FALSE(Contains(ws, "q", {Value::Str("x")}));
  EXPECT_EQ(del->fixpoint.group_rederives, 0u);
}

TEST(CountingDeleteTest, MultiOccurrenceCountsAreExact) {
  // twohop joins link with itself: inserting both edges in one transaction
  // must count the (a,b),(b,c) instantiation exactly once — a double count
  // would leave twohop(a,c) alive after deleting link(a,b).
  Workspace ws;
  Install(&ws, R"(
    node(X) -> .
    link(X, Y) -> node(X), node(Y).
    twohop(X, Y) -> node(X), node(Y).
    twohop(X, Y) <- link(X, Z), link(Z, Y).
  )");
  auto commit = ws.Apply({{"link", {Value::Str("a"), Value::Str("b")}},
                          {"link", {Value::Str("b"), Value::Str("c")}}});
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_TRUE(Contains(ws, "twohop", {Value::Str("a"), Value::Str("c")}));

  auto del = ws.Apply({}, {{"link", {Value::Str("a"), Value::Str("b")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_FALSE(Contains(ws, "twohop", {Value::Str("a"), Value::Str("c")}));
}

TEST(CountingDeleteTest, DiamondSupportsCountBothPaths) {
  Workspace ws;
  Install(&ws, R"(
    node(X) -> .
    link(X, Y) -> node(X), node(Y).
    twohop(X, Y) -> node(X), node(Y).
    twohop(X, Y) <- link(X, Z), link(Z, Y).
  )");
  auto commit = ws.Apply({{"link", {Value::Str("a"), Value::Str("m1")}},
                          {"link", {Value::Str("m1"), Value::Str("c")}},
                          {"link", {Value::Str("a"), Value::Str("m2")}},
                          {"link", {Value::Str("m2"), Value::Str("c")}}});
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  // Two distinct instantiations derive twohop(a,c): losing one leg keeps it.
  auto del = ws.Apply({}, {{"link", {Value::Str("a"), Value::Str("m1")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_TRUE(Contains(ws, "twohop", {Value::Str("a"), Value::Str("c")}));
  auto del2 = ws.Apply({}, {{"link", {Value::Str("m2"), Value::Str("c")}}});
  ASSERT_TRUE(del2.ok()) << del2.status().ToString();
  EXPECT_FALSE(Contains(ws, "twohop", {Value::Str("a"), Value::Str("c")}));
}

constexpr const char* kReachableProgram = R"(
  node(X) -> .
  link(X, Y) -> node(X), node(Y).
  reachable(X, Y) -> node(X), node(Y).
  reachable(X, Y) <- link(X, Y).
  reachable(X, Y) <- link(X, Z), reachable(Z, Y).
)";

/// Links a->b, a->c, c->a, b->d. Deleting a->b leaves reachable(a, b) and
/// reachable(a, d) supported only through c, which rests on them: a cycle
/// counting cannot see through. The two survivors are the suspects, and
/// the proof search disproves them.
std::vector<FactUpdate> CyclicLinks() {
  return {{"link", {Value::Str("a"), Value::Str("b")}},
          {"link", {Value::Str("a"), Value::Str("c")}},
          {"link", {Value::Str("c"), Value::Str("a")}},
          {"link", {Value::Str("b"), Value::Str("d")}}};
}

/// The chain a->b->c->d: every reachable row has one derivation.
std::vector<FactUpdate> ChainLinks() {
  return {{"link", {Value::Str("a"), Value::Str("b")}},
          {"link", {Value::Str("b"), Value::Str("c")}},
          {"link", {Value::Str("c"), Value::Str("d")}}};
}

TEST(CountingDeleteTest, CyclicSurvivorsAreDisprovedByProofSearch) {
  Workspace ws;
  Install(&ws, kReachableProgram);
  auto commit = ws.Apply(CyclicLinks());
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(QuerySet(ws, "reachable").size(), 9u);

  auto del = ws.Apply({}, {{"link", {Value::Str("a"), Value::Str("b")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(QuerySet(ws, "reachable"),
            (std::set<std::string>{"(node:a, node:a)", "(node:a, node:c)",
                                   "(node:b, node:d)", "(node:c, node:a)",
                                   "(node:c, node:c)"}));
  EXPECT_EQ(del->fixpoint.group_rederives, 0u);
  EXPECT_EQ(del->fixpoint.rederive_seeded, 0u);
  EXPECT_EQ(del->fixpoint.suspects_disproved, 2u);
  EXPECT_EQ(del->fixpoint.suspects_proved, 0u);
}

TEST(CountingDeleteTest, AcyclicRecursiveDeleteRetractsByCounting) {
  // Every reachable row of a chain has one derivation: deleting b->c
  // erases exactly the four rows through it, one support each, with no
  // recompute.
  Workspace ws;
  Install(&ws, kReachableProgram);
  ASSERT_TRUE(ws.Apply(ChainLinks()).ok());
  EXPECT_EQ(QuerySet(ws, "reachable").size(), 6u);

  auto del = ws.Apply({}, {{"link", {Value::Str("b"), Value::Str("c")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(QuerySet(ws, "reachable").size(), 2u);  // a->b, c->d
  EXPECT_EQ(del->fixpoint.group_rederives, 0u);
  EXPECT_EQ(del->fixpoint.rederive_seeded, 0u);
  EXPECT_EQ(del->fixpoint.deleted, 4u);
  EXPECT_EQ(del->fixpoint.retractions, 4u);
}

TEST(CountingDeleteTest, CyclicDeleteReportsNothingInserted) {
  // The cyclic delete erases the disproved rows and derives nothing. The
  // commit must not report a surviving row as new — the distribution
  // layer would re-export it.
  Workspace ws;
  Install(&ws, kReachableProgram);
  ASSERT_TRUE(ws.Apply(CyclicLinks()).ok());
  auto del = ws.Apply({}, {{"link", {Value::Str("a"), Value::Str("b")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del->fixpoint.group_rederives, 0u);
  EXPECT_EQ(del->fixpoint.rederive_seeded, 0u);
  EXPECT_EQ(del->fixpoint.suspects_disproved, 2u);
  EXPECT_EQ(del->fixpoint.suspects_proved, 0u);
  // b->d, a->c, c->a, a->a, c->c
  EXPECT_EQ(QuerySet(ws, "reachable").size(), 5u);
  auto reachable = ws.catalog().Lookup("reachable");
  ASSERT_TRUE(reachable.ok());
  EXPECT_EQ(del->inserted(reachable.value()).size(), 0u)
      << "rederived rows reported as inserted";
}

TEST(CountingDeleteTest, CountedRecursiveDeleteReportsNothingInserted) {
  // The acyclic twin: counting erases c->d's three rows and derives
  // nothing, so the commit reports no reachable row.
  Workspace ws;
  Install(&ws, kReachableProgram);
  ASSERT_TRUE(ws.Apply(ChainLinks()).ok());
  auto del = ws.Apply({}, {{"link", {Value::Str("c"), Value::Str("d")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del->fixpoint.group_rederives, 0u);
  EXPECT_EQ(del->fixpoint.rederive_seeded, 0u);
  EXPECT_EQ(del->fixpoint.deleted, 3u);
  EXPECT_EQ(del->fixpoint.retractions, 3u);
  EXPECT_EQ(QuerySet(ws, "reachable").size(), 3u);  // a->b, b->c, a->c
  auto reachable = ws.catalog().Lookup("reachable");
  ASSERT_TRUE(reachable.ok());
  EXPECT_EQ(del->inserted(reachable.value()).size(), 0u)
      << "rows reported as inserted";
}

TEST(CountingDeleteTest, DeleteRetractsAggregateAndDownstream) {
  // A retraction must flow through an aggregate recompute point: the stale
  // total — and anything derived from it — cannot survive.
  Workspace ws;
  Install(&ws, R"(
    sale(X, V) -> string(X), int(V).
    total[X] = V -> string(X), int(V).
    big(X) -> string(X).
    total[X] = V <- agg<< V = sum(S) >> sale(X, S).
    big(X) <- total[X] = V, V > 10.
  )");
  auto commit = ws.Apply({{"sale", {Value::Str("a"), Value::Int(8)}},
                          {"sale", {Value::Str("a"), Value::Int(7)}}});
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_TRUE(Contains(ws, "total", {Value::Str("a"), Value::Int(15)}));
  EXPECT_TRUE(Contains(ws, "big", {Value::Str("a")}));

  auto del = ws.Apply({}, {{"sale", {Value::Str("a"), Value::Int(7)}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_TRUE(Contains(ws, "total", {Value::Str("a"), Value::Int(8)}));
  EXPECT_FALSE(Contains(ws, "total", {Value::Str("a"), Value::Int(15)}));
  EXPECT_FALSE(Contains(ws, "big", {Value::Str("a")}));

  // Deleting the last input drops the group entirely.
  auto del2 = ws.Apply({}, {{"sale", {Value::Str("a"), Value::Int(8)}}});
  ASSERT_TRUE(del2.ok()) << del2.status().ToString();
  EXPECT_EQ(QuerySet(ws, "total").size(), 0u);
}

TEST(CountingDeleteTest, DeleteRecomputesLatticeShortestPath) {
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
  });
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_TRUE(Contains(ws, "bestcost",
                       {Value::Str("a"), Value::Str("c"), Value::Int(2)}));

  // Retracting the cheap leg must re-route a->c through the direct link —
  // a monotone lattice cannot do this incrementally, so the group
  // rederives locally.
  auto del = ws.Apply(
      {}, {{"link", {Value::Str("a"), Value::Str("b"), Value::Int(1)}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_TRUE(Contains(ws, "bestcost",
                       {Value::Str("a"), Value::Str("c"), Value::Int(5)}));
  EXPECT_FALSE(Contains(ws, "bestcost",
                        {Value::Str("a"), Value::Str("b"), Value::Int(1)}));
  EXPECT_GE(del->fixpoint.group_rederives, 1u);
}

TEST(CountingDeleteTest, NegationFlipRecomputesAggregate) {
  // A negated atom inside an aggregate body is invisible to the
  // scan-predicate delta index; the flip queue alone must force the
  // recompute, in both directions.
  Workspace ws;
  Install(&ws, R"(
    sale(X, V) -> string(X), int(V).
    excluded(X) -> string(X).
    total[X] = V -> string(X), int(V).
    total[X] = V <- agg<< V = sum(S) >> sale(X, S), !excluded(X).
  )");
  auto commit = ws.Apply({{"sale", {Value::Str("a"), Value::Int(5)}},
                          {"sale", {Value::Str("b"), Value::Int(7)}}});
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_EQ(QuerySet(ws, "total").size(), 2u);

  ASSERT_TRUE(ws.Insert("excluded", {Value::Str("a")}).ok());
  EXPECT_EQ(QuerySet(ws, "total").size(), 1u);
  EXPECT_FALSE(Contains(ws, "total", {Value::Str("a"), Value::Int(5)}));

  auto del = ws.Apply({}, {{"excluded", {Value::Str("a")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_TRUE(Contains(ws, "total", {Value::Str("a"), Value::Int(5)}));
}

TEST(CountingDeleteTest, NegationFlipsOnDeleteAndInsert) {
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
  EXPECT_EQ(QuerySet(ws, "unlinked").size(), 4u);

  // Insert into the negated predicate: unlinked(a,c) must retract — the
  // one instantiation the new link blocks, without a recompute.
  auto ins = ws.Apply({{"link", {Value::Str("a"), Value::Str("c")}}});
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_FALSE(Contains(ws, "unlinked", {Value::Str("a"), Value::Str("c")}));
  EXPECT_EQ(QuerySet(ws, "unlinked").size(), 3u);
  EXPECT_EQ(ins->fixpoint.group_rederives, 0u);
  EXPECT_EQ(ins->fixpoint.flip_matches, 1u);

  // Delete from the negated predicate: unlinked(a,b) must appear.
  auto del = ws.Apply({}, {{"link", {Value::Str("a"), Value::Str("b")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_TRUE(Contains(ws, "unlinked", {Value::Str("a"), Value::Str("b")}));
  EXPECT_EQ(QuerySet(ws, "unlinked").size(), 4u);
  EXPECT_EQ(del->fixpoint.group_rederives, 0u);
  EXPECT_EQ(del->fixpoint.flip_matches, 1u);
}

TEST(CountingDeleteTest, NegationFlipInLatticeAggregate) {
  // The aggregate itself negates `closed`: a delete unblocks a binding,
  // which can only improve the lattice value; an insert blocks one, which
  // only the group's recompute can undo.
  Workspace ws;
  Install(&ws, R"(
    node(X) -> .
    edge(X, Y) -> node(X), node(Y).
    start(X) -> node(X).
    closed(X) -> node(X).
    hop(Y, D) -> node(Y), int(D).
    dist[Y] = D -> node(Y), int(D).
    hop(X, 0) <- start(X).
    hop(Y, D + 1) <- dist[X] = D, edge(X, Y).
    dist[Y] = D <- agg<< D = min(Dx) >> hop(Y, Dx), !closed(Y).
  )");
  ASSERT_TRUE(ws.Apply({{"edge", {Value::Str("a"), Value::Str("b")}},
                        {"edge", {Value::Str("b"), Value::Str("c")}},
                        {"start", {Value::Str("a")}},
                        {"closed", {Value::Str("b")}}})
                  .ok());
  EXPECT_EQ(QuerySet(ws, "dist").size(), 1u);  // a only: b is closed

  auto open = ws.Apply({}, {{"closed", {Value::Str("b")}}});
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_EQ(open->fixpoint.flip_matches, 1u);
  EXPECT_TRUE(Contains(ws, "dist", {Value::Str("b"), Value::Int(1)}));
  EXPECT_TRUE(Contains(ws, "dist", {Value::Str("c"), Value::Int(2)}));

  auto close = ws.Apply({{"closed", {Value::Str("b")}}});
  ASSERT_TRUE(close.ok()) << close.status().ToString();
  EXPECT_GE(close->fixpoint.group_rederives, 1u);
  EXPECT_EQ(QuerySet(ws, "dist").size(), 1u);
}

TEST(CountingDeleteTest, BaseFactWithDerivedSupportSurvivesBaseDelete) {
  Workspace ws;
  Install(&ws, R"(
    a(X) -> string(X).
    p(X) -> string(X).
    p(X) <- a(X).
  )");
  // p("x") asserted as base AND derived from a("x").
  ASSERT_TRUE(ws.Insert("a", {Value::Str("x")}).ok());
  ASSERT_TRUE(ws.Insert("p", {Value::Str("x")}).ok());
  // Deleting the base assertion keeps the derived support.
  auto del = ws.Apply({}, {{"p", {Value::Str("x")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_TRUE(Contains(ws, "p", {Value::Str("x")}));
  // Now the derivation goes too.
  auto del2 = ws.Apply({}, {{"a", {Value::Str("x")}}});
  ASSERT_TRUE(del2.ok()) << del2.status().ToString();
  EXPECT_FALSE(Contains(ws, "p", {Value::Str("x")}));
}

TEST(CountingDeleteTest, UnassertedBaseFactOnACycleGoes) {
  // reach(a, b) is asserted and also derived through itself (the b->b
  // loop): once the assertion goes, that cyclic support founds nothing.
  Workspace ws;
  Install(&ws, R"(
    link(X, Y) -> string(X), string(Y).
    reach(X, Y) -> string(X), string(Y).
    reach(X, Y) <- link(X, Y).
    reach(X, Y) <- reach(X, Z), link(Z, Y).
  )");
  ASSERT_TRUE(ws.Apply({{"link", {Value::Str("b"), Value::Str("b")}},
                        {"reach", {Value::Str("a"), Value::Str("b")}}})
                  .ok());
  auto del = ws.Apply({}, {{"reach", {Value::Str("a"), Value::Str("b")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_FALSE(Contains(ws, "reach", {Value::Str("a"), Value::Str("b")}));
  EXPECT_TRUE(Contains(ws, "reach", {Value::Str("b"), Value::Str("b")}));
}

TEST(CountingDeleteTest, RollbackAfterFailedDelete) {
  Workspace ws;
  Install(&ws, R"(
    item(X) -> string(X).
    approved(X) -> string(X).
    item(X) -> approved(X).
  )");
  ASSERT_TRUE(ws.Insert("approved", {Value::Str("x")}).ok());
  ASSERT_TRUE(ws.Insert("item", {Value::Str("x")}).ok());

  // Deleting the approval while the item remains violates the constraint;
  // the whole transaction — including the delete — must roll back.
  auto del = ws.Apply({}, {{"approved", {Value::Str("x")}}});
  EXPECT_FALSE(del.ok());
  EXPECT_EQ(del.status().code(), StatusCode::kConstraintViolation);
  EXPECT_TRUE(Contains(ws, "approved", {Value::Str("x")}));
  EXPECT_TRUE(Contains(ws, "item", {Value::Str("x")}));
  EXPECT_GE(ws.stats().aborts, 1u);

  // The workspace stays fully usable: delete both in one transaction.
  auto ok = ws.Apply({}, {{"item", {Value::Str("x")}},
                          {"approved", {Value::Str("x")}}});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_FALSE(Contains(ws, "item", {Value::Str("x")}));
}

TEST(CountingDeleteTest, RollbackRestoresReoccupiedFunctionalSlot) {
  Workspace ws;
  Install(&ws, R"(
    owner[X] = Y -> string(X), string(Y).
    ok(Y) -> string(Y).
    owner[X] = Y -> ok(Y).
  )");
  ASSERT_TRUE(ws.Insert("ok", {Value::Str("ann")}).ok());
  ASSERT_TRUE(
      ws.Insert("owner", {Value::Str("book"), Value::Str("ann")}).ok());

  // One transaction frees the key slot and reoccupies it with a value that
  // violates the constraint: rollback must restore owner[book] = ann, not
  // silently drop it because the slot was taken.
  auto swap = ws.Apply({{"owner", {Value::Str("book"), Value::Str("bob")}}},
                       {{"owner", {Value::Str("book"), Value::Str("ann")}}});
  EXPECT_FALSE(swap.ok());
  EXPECT_EQ(swap.status().code(), StatusCode::kConstraintViolation);
  EXPECT_TRUE(Contains(ws, "owner", {Value::Str("book"), Value::Str("ann")}));
  EXPECT_FALSE(Contains(ws, "owner", {Value::Str("book"), Value::Str("bob")}));

  // Counts survived the rollback: deleting the restored fact still works.
  auto del = ws.Apply({}, {{"owner", {Value::Str("book"),
                                      Value::Str("ann")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(QuerySet(ws, "owner").size(), 0u);
}

// Every stored row of `preds` with its support count and base bit.
std::set<std::string> StorageSnapshot(Workspace& ws,
                                      const std::vector<std::string>& preds) {
  std::set<std::string> out;
  for (const std::string& pred : preds) {
    auto id = ws.catalog().Lookup(pred);
    EXPECT_TRUE(id.ok()) << pred;
    if (!id.ok()) continue;
    const Relation* rel = ws.GetRelationIfExists(id.value());
    if (rel == nullptr) continue;
    for (size_t sh = 0; sh < rel->shard_count(); ++sh) {
      for (size_t i = 0; i < rel->shard_size(sh); ++i) {
        const RowRef row{static_cast<uint32_t>(sh), static_cast<uint32_t>(i)};
        out.insert(StrCat(
            {pred, TupleToString(rel->MaterializeTuple(sh, i), ws.catalog()),
             "#", std::to_string(rel->support(row)),
             rel->is_base(row) ? " base" : ""}));
      }
    }
  }
  return out;
}

// One transaction that fails its constraint after it introduced a new
// entity, added support to existing derived tuples, un-asserted a base
// fact that keeps derivation support and erased tuples: the rollback
// restores every row, support count and base bit, and forgets the new
// entity's membership.
TEST(CountingDeleteTest, RollbackRestoresSupportsBaseBitsAndMembership) {
  const std::string program = R"(
    node(X) -> .
    link(X, Y) -> node(X), node(Y).
    banned(X) -> node(X).
    reach(X, Y) -> node(X), node(Y).
    reach(X, Y) <- link(X, Y).
    reach(X, Y) <- link(X, Z), reach(Z, Y).
    reach(X, Y) -> !banned(Y).
  )";
  auto s = [](const char* v) { return Value::Str(v); };
  const std::vector<FactUpdate> load = {
      {"link", {s("a"), s("b")}}, {"link", {s("b"), s("c")}},
      {"link", {s("a"), s("c")}}, {"link", {s("c"), s("d")}},
      {"reach", {s("a"), s("d")}},  // asserted, and derived twice
      {"banned", {s("x")}}};
  const std::vector<std::string> preds = {"node", "link", "banned", "reach"};
  for (size_t shards : {size_t{1}, size_t{7}}) {
    SCOPED_TRACE(StrCat({"shards=", std::to_string(shards)}));
    Workspace ws, twin;
    ws.fixpoint_options().shards = shards;
    twin.fixpoint_options().shards = shards;
    Install(&ws, program);
    Install(&twin, program);
    ASSERT_TRUE(ws.Apply(load).ok());
    ASSERT_TRUE(twin.Apply(load).ok());
    const std::set<std::string> before = StorageSnapshot(ws, preds);
    ASSERT_TRUE(before.count("reach(node:a, node:d)#2 base"));

    auto bad = ws.Apply(
        {{"link", {s("b"), s("z")}},   // new entity z
         {"link", {s("b"), s("d")}},   // more support for reach(a|b, d)
         {"link", {s("z"), s("x")}}},  // reach(_, x): the violation
        {{"reach", {s("a"), s("d")}},  // un-asserted, still derived
         {"link", {s("a"), s("b")}}}); // erased, with what it derived
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kConstraintViolation);
    EXPECT_EQ(StorageSnapshot(ws, preds), before);

    // The restored assertion deletes exactly as in a workspace that never
    // ran the failed transaction.
    auto del = ws.Apply({}, {{"reach", {s("a"), s("d")}}});
    auto twin_del = twin.Apply({}, {{"reach", {s("a"), s("d")}}});
    ASSERT_TRUE(del.ok()) << del.status().ToString();
    ASSERT_TRUE(twin_del.ok()) << twin_del.status().ToString();
    EXPECT_EQ(StorageSnapshot(ws, preds), StorageSnapshot(twin, preds));

    // z was interned but its membership row rolled back: the next use of
    // z must create it again.
    ASSERT_TRUE(ws.Apply({{"link", {s("c"), s("z")}}}).ok());
    EXPECT_TRUE(Contains(ws, "node", {s("z")}));
    ASSERT_TRUE(twin.Apply({{"link", {s("c"), s("z")}}}).ok());
    EXPECT_EQ(StorageSnapshot(ws, preds), StorageSnapshot(twin, preds));
  }
}

TEST(CountingDeleteTest, DeleteWorkIsProportionalToAffectedTuples) {
  // Large non-recursive database: deleting one base fact must not replay
  // the whole database (the old engine over-deleted and rederived all of
  // it; firings would scale with N).
  Workspace ws;
  Install(&ws, R"(
    pair(X, Y) -> string(X), string(Y).
    left(X) -> string(X).
    left(X) <- pair(X, Y).
  )");
  std::vector<FactUpdate> inserts;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    inserts.push_back({"pair",
                       {Value::Str(StrCat({"k", std::to_string(i)})),
                        Value::Str(StrCat({"v", std::to_string(i)}))}});
  }
  ASSERT_TRUE(ws.Apply(inserts).ok());
  ASSERT_EQ(QuerySet(ws, "left").size(), static_cast<size_t>(n));

  auto del = ws.Apply({}, {{"pair", {Value::Str("k7"), Value::Str("v7")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(QuerySet(ws, "left").size(), static_cast<size_t>(n - 1));
  // One retraction variant fired, one support dropped, one tuple deleted —
  // and nothing was reseeded.
  EXPECT_EQ(del->fixpoint.group_rederives, 0u);
  EXPECT_EQ(del->fixpoint.rederive_seeded, 0u);
  EXPECT_EQ(del->fixpoint.retractions, 1u);
  EXPECT_EQ(del->fixpoint.deleted, 1u);
  EXPECT_LE(del->fixpoint.rule_firings + del->fixpoint.retract_firings, 4u);
}

/// kReachableProgram plus a large unrelated predicate family.
const std::string kReachableAndPairsProgram =
    std::string(kReachableProgram) + R"(
  pair(X, Y) -> string(X), string(Y).
  left(X) -> string(X).
  left(X) <- pair(X, Y).
)";

std::vector<FactUpdate> Pairs(int n) {
  std::vector<FactUpdate> out;
  for (int i = 0; i < n; ++i) {
    out.push_back({"pair",
                   {Value::Str(StrCat({"k", std::to_string(i)})),
                    Value::Str(StrCat({"v", std::to_string(i)}))}});
  }
  return out;
}

TEST(CountingDeleteTest, CyclicDeleteReseedsNothing) {
  // A cycle sends the delete to the proof search, which reads only the
  // suspects' derivations: nothing is reseeded, the big unrelated
  // predicate family included.
  Workspace ws;
  Install(&ws, kReachableAndPairsProgram);
  std::vector<FactUpdate> inserts = Pairs(400);
  for (FactUpdate& link : CyclicLinks()) inserts.push_back(std::move(link));
  ASSERT_TRUE(ws.Apply(inserts).ok());

  auto del = ws.Apply({}, {{"link", {Value::Str("a"), Value::Str("b")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  // b->d, a->c, c->a, a->a, c->c
  EXPECT_EQ(QuerySet(ws, "reachable").size(), 5u);
  EXPECT_EQ(del->fixpoint.group_rederives, 0u);
  EXPECT_EQ(del->fixpoint.rederive_seeded, 0u);
  EXPECT_EQ(del->fixpoint.suspects_disproved, 2u);
  EXPECT_EQ(del->fixpoint.suspects_proved, 0u);
}

TEST(CountingDeleteTest, CountedRecursiveDeleteTouchesOnlyItsRows) {
  // The acyclic twin: deleting a->b from a->b->c erases its two rows by
  // counting and reseeds nothing.
  Workspace ws;
  Install(&ws, kReachableAndPairsProgram);
  std::vector<FactUpdate> inserts = Pairs(400);
  inserts.push_back({"link", {Value::Str("a"), Value::Str("b")}});
  inserts.push_back({"link", {Value::Str("b"), Value::Str("c")}});
  ASSERT_TRUE(ws.Apply(inserts).ok());

  auto del = ws.Apply({}, {{"link", {Value::Str("a"), Value::Str("b")}}});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(QuerySet(ws, "reachable").size(), 1u);  // b->c
  EXPECT_EQ(del->fixpoint.group_rederives, 0u);
  EXPECT_EQ(del->fixpoint.rederive_seeded, 0u);
  EXPECT_EQ(del->fixpoint.deleted, 2u);
  EXPECT_EQ(del->fixpoint.retractions, 2u);
}

// -- from-scratch oracle ------------------------------------------------------

using Snapshot =
    std::map<std::string, std::set<std::pair<std::string, uint32_t>>>;

/// Every stored tuple with its support count, by predicate name; only the
/// predicates in `only` when it is not empty.
Snapshot Snap(const Workspace& ws, const std::vector<std::string>& only = {}) {
  Snapshot out;
  const datalog::Catalog& catalog = ws.catalog();
  for (size_t id = 0; id < catalog.num_predicates(); ++id) {
    const auto pred = static_cast<datalog::PredId>(id);
    const Relation* rel = ws.GetRelationIfExists(pred);
    if (rel == nullptr || rel->empty()) continue;
    const std::string& name = catalog.decl(pred).name;
    if (!only.empty() &&
        std::find(only.begin(), only.end(), name) == only.end()) {
      continue;
    }
    auto& rows = out[name];
    for (const Tuple& t : rel->AllTuples()) {
      rows.emplace(TupleToString(t, catalog), rel->SupportCount(t));
    }
  }
  return out;
}

TEST(CountingDeleteTest, PlacementChurnShapedDeleteRetractsByCounting) {
  // The closure sbbench's placement-churn workload churns: every key's
  // seed grows one row per hop of a chain, each row with one derivation.
  // Deleting a seed erases its hops + 1 rows by counting, and the
  // supports left equal a from-scratch load's.
  constexpr const char* kGrowProgram = R"(
    link(X, Y) -> string(X), string(Y).
    seed(X, Y) -> string(X), string(Y).
    grow(X, Y) -> string(X), string(Y).
    grow(X, Y) <- seed(X, Y).
    grow(X, Y) <- grow(X, Z), link(Z, Y).
  )";
  constexpr int kKeys = 20;
  constexpr int kHops = 8;
  std::vector<FactUpdate> facts;
  for (int h = 0; h < kHops; ++h) {
    facts.push_back({"link",
                     {Value::Str(StrCat({"c", std::to_string(h)})),
                      Value::Str(StrCat({"c", std::to_string(h + 1)}))}});
  }
  for (int k = 0; k < kKeys; ++k) {
    facts.push_back({"seed",
                     {Value::Str(StrCat({"key", std::to_string(k)})),
                      Value::Str("c0")}});
  }
  Workspace ws;
  Install(&ws, kGrowProgram);
  ASSERT_TRUE(ws.Apply(facts).ok());
  EXPECT_EQ(QuerySet(ws, "grow").size(),
            static_cast<size_t>(kKeys * (kHops + 1)));

  const FactUpdate victim = {"seed", {Value::Str("key7"), Value::Str("c0")}};
  auto del = ws.Apply({}, {victim});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del->fixpoint.group_rederives, 0u);
  EXPECT_EQ(del->fixpoint.rederive_seeded, 0u);
  EXPECT_EQ(del->fixpoint.deleted, static_cast<uint64_t>(kHops + 1));
  EXPECT_EQ(del->fixpoint.retractions, static_cast<uint64_t>(kHops + 1));

  facts.erase(std::find_if(facts.begin(), facts.end(), [&](const auto& f) {
    return f.pred == victim.pred && f.values == victim.values;
  }));
  Workspace fresh;
  Install(&fresh, kGrowProgram);
  ASSERT_TRUE(fresh.Apply(facts).ok());
  EXPECT_EQ(Snap(ws), Snap(fresh));
}

TEST(CountingDeleteTest, CycleHangingOffAProvedSuspectSurvives) {
  // Deleting x->y leaves reachable(x, y) a suspect, founded through d.
  // reachable(b, y) has one derivation, through reachable(x, y) on the
  // x/b cycle: the search may meet reachable(x, y) again from there before
  // it is proved, which must not disprove reachable(b, y). Inserting x->b
  // before or after x->d changes the order the search meets the two; with
  // the path d->e->y the proof lands a level after that meeting.
  auto link = [](const char* from, const char* to) {
    return FactUpdate{"link", {Value::Str(from), Value::Str(to)}};
  };
  const std::vector<FactUpdate> cases[] = {
      {link("x", "y"), link("x", "b"), link("b", "x"), link("x", "d"),
       link("d", "y")},
      {link("x", "y"), link("x", "d"), link("d", "y"), link("x", "b"),
       link("b", "x")},
      {link("x", "y"), link("x", "b"), link("b", "x"), link("x", "d"),
       link("d", "e"), link("e", "y")},
  };
  for (const std::vector<FactUpdate>& links : cases) {
    for (size_t shards : {size_t{1}, size_t{7}}) {
      Workspace ws;
      ws.fixpoint_options().shards = shards;
      Install(&ws, kReachableProgram);
      for (const FactUpdate& l : links) ASSERT_TRUE(ws.Apply({l}).ok());

      auto del = ws.Apply({}, {links[0]});
      ASSERT_TRUE(del.ok()) << del.status().ToString();
      EXPECT_TRUE(
          Contains(ws, "reachable", {Value::Str("x"), Value::Str("y")}));
      EXPECT_TRUE(
          Contains(ws, "reachable", {Value::Str("b"), Value::Str("y")}));
      EXPECT_EQ(del->fixpoint.suspects_proved, 1u);
      EXPECT_EQ(del->fixpoint.suspects_disproved, 0u);
      EXPECT_EQ(del->fixpoint.deleted, 0u);
      EXPECT_EQ(del->fixpoint.group_rederives, 0u);

      Workspace fresh;
      Install(&fresh, kReachableProgram);
      ASSERT_TRUE(fresh.Apply({links.begin() + 1, links.end()}).ok());
      EXPECT_EQ(Snap(ws), Snap(fresh)) << "shards=" << shards;
    }
  }
}

TEST(CountingDeleteTest, HeadDerivedByALaterGroupRecomputes) {
  // The multi-head rule puts p among the recursive group's heads, and the
  // later group {p <- f, q} derives p too. Deleting e(b, a) leaves p(a, a)
  // a suspect held up by f(a, a), q(a, a), an instantiation the later
  // group has yet to retract: the proof search cannot see it, so the
  // cluster recomputes, taking in that group, and ends where a fresh load
  // does.
  constexpr const char* kProgram = R"(
    e(X, Y) -> string(X), string(Y).
    f(X, Y) -> string(X), string(Y).
    q(X, Y) -> string(X), string(Y).
    p(X, Y) -> string(X), string(Y).
    q(X, Y) <- e(X, Y).
    q(X, Y), p(X, Y) <- q(X, Z), e(Z, Y).
    p(X, Y) <- f(X, Y), q(X, Y).
  )";
  auto fact = [](const char* pred, const char* x, const char* y) {
    return FactUpdate{pred, {Value::Str(x), Value::Str(y)}};
  };
  std::vector<FactUpdate> facts = {fact("e", "a", "b"), fact("e", "b", "a"),
                                   fact("f", "a", "a")};
  Workspace ws;
  Install(&ws, kProgram);
  ASSERT_TRUE(ws.Apply(facts).ok());
  EXPECT_TRUE(Contains(ws, "p", {Value::Str("a"), Value::Str("a")}));

  auto del = ws.Apply({}, {facts[1]});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del->fixpoint.group_rederives, 1u);
  EXPECT_FALSE(Contains(ws, "p", {Value::Str("a"), Value::Str("a")}));

  facts.erase(facts.begin() + 1);
  Workspace fresh;
  Install(&fresh, kProgram);
  ASSERT_TRUE(fresh.Apply(facts).ok());
  EXPECT_EQ(Snap(ws), Snap(fresh));
}

TEST(CountingDeleteTest, GroupNegatingItsOwnHeadRecomputes) {
  // Under derivation-time negation a recursive group counts each
  // instantiation with its negation read when it fired. One round derives
  // reach(z, w) and reach(w, z); each then blocks the instantiation that
  // derived the other, but the group ignores those flips. Retract variants
  // probing the current state would miss (reach(z, y), link(y, w),
  // !reach(w, z)) once z->y goes, and reach(z, w) would survive although
  // z has no out-link. The group recomputes instead and ends where a fresh
  // load does.
  constexpr const char* kProgram = R"(
    link(X, Y) -> string(X), string(Y).
    reach(X, Y) -> string(X), string(Y).
    reach(X, Y) <- link(X, Y).
    reach(X, Y) <- reach(X, Z), link(Z, Y), !reach(Y, X).
  )";
  auto link = [](const char* from, const char* to) {
    return FactUpdate{"link", {Value::Str(from), Value::Str(to)}};
  };
  std::vector<FactUpdate> links = {link("x", "z"), link("z", "y"),
                                   link("y", "w"), link("w", "x")};
  Workspace ws;
  ws.set_allow_unstratified_negation(true);
  Install(&ws, kProgram);
  ASSERT_TRUE(ws.Apply(links).ok());
  EXPECT_TRUE(Contains(ws, "reach", {Value::Str("z"), Value::Str("w")}));
  EXPECT_TRUE(Contains(ws, "reach", {Value::Str("w"), Value::Str("z")}));

  auto del = ws.Apply({}, {link("z", "y")});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_GE(del->fixpoint.group_rederives, 1u);
  EXPECT_FALSE(Contains(ws, "reach", {Value::Str("z"), Value::Str("w")}));

  links.erase(links.begin() + 1);
  Workspace fresh;
  fresh.set_allow_unstratified_negation(true);
  Install(&fresh, kProgram);
  ASSERT_TRUE(fresh.Apply(links).ok());
  EXPECT_EQ(QuerySet(ws, "reach"), QuerySet(fresh, "reach"));
  EXPECT_EQ(Snap(ws), Snap(fresh));
}

TEST(CountingDeleteTest, NonRecursiveGroupNegatingItsOwnHeadRecomputes) {
  // q(a) fired with !q(a) read before q(a) existed. The group is not
  // recursive (RuleGraph counts scan edges only), but counting cannot
  // replay that instantiation either: the retract variant for p(a) probes
  // !q(a) against the live q(a) and enumerates nothing, which would leave
  // q(a) with support 1. The group recomputes instead and ends where a
  // fresh load does.
  constexpr const char* kProgram = R"(
    p(X) -> string(X).
    q(X) -> string(X).
    q(X) <- p(X), !q(X).
  )";
  const FactUpdate pa{"p", {Value::Str("a")}};
  const FactUpdate pb{"p", {Value::Str("b")}};
  Workspace ws;
  ws.set_allow_unstratified_negation(true);
  Install(&ws, kProgram);
  ASSERT_TRUE(ws.Apply({pa, pb}).ok());
  EXPECT_TRUE(Contains(ws, "q", {Value::Str("a")}));

  auto del = ws.Apply({}, {pa});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del->fixpoint.group_rederives, 1u);
  EXPECT_FALSE(Contains(ws, "q", {Value::Str("a")}));

  Workspace fresh;
  fresh.set_allow_unstratified_negation(true);
  Install(&fresh, kProgram);
  ASSERT_TRUE(fresh.Apply({pb}).ok());
  EXPECT_EQ(Snap(ws), Snap(fresh));
}

struct OracleTx {
  std::vector<FactUpdate> inserts;
  std::vector<FactUpdate> deletes;
};

using FactDraw = FactUpdate (*)(std::mt19937_64&);

Value Site(std::mt19937_64& rng) {
  static const char* const kSites[] = {"a", "b", "c", "d"};
  return Value::Str(kSites[rng() % 4]);
}

/// link, blocked and mark facts for kNegationProgram.
FactUpdate NegationFact(std::mt19937_64& rng) {
  const uint64_t kind = rng() % 8;
  if (kind < 4) return {"link", {Site(rng), Site(rng)}};
  if (kind < 6) return {"blocked", {Site(rng), Site(rng)}};
  return {"mark", {Site(rng)}};
}

/// link and seed facts for kRecursiveProgram, and now and then a grow fact
/// asserted outright (derived as well, often through a cycle): four sites
/// make cycles common, so counted deletes and recomputes both occur.
FactUpdate RecursiveFact(std::mt19937_64& rng) {
  const uint64_t kind = rng() % 6;
  if (kind < 4) return {"link", {Site(rng), Site(rng)}};
  if (kind < 5) return {"seed", {Site(rng), Site(rng)}};
  return {"grow", {Site(rng), Site(rng)}};
}

/// Weighted links for kLatticeProgram.
FactUpdate LatticeFact(std::mt19937_64& rng) {
  return {"link", {Site(rng), Site(rng),
                   Value::Int(1 + static_cast<int64_t>(rng() % 3))}};
}

/// e, f and g facts for kExistentialProgram.
FactUpdate ExistentialFact(std::mt19937_64& rng) {
  const uint64_t kind = rng() % 5;
  if (kind < 1) return {"e", {Site(rng)}};
  if (kind < 3) return {"f", {Site(rng)}};
  return {"g", {Site(rng), Site(rng)}};
}

std::string FactKey(const FactUpdate& u) {
  std::string key = u.pred;
  for (const Value& v : u.values) key += StrCat({"|", v.ToString()});
  return key;
}

/// One row of the oracle table: a program over `site` facts (loaded first,
/// never changed) and the facts its stream draws.
struct OracleRow {
  const char* name;
  const char* program;
  FactDraw draw;
  size_t seeds;
  /// Predicates compared with the from-scratch load; empty = all.
  std::vector<std::string> compared;
  /// The program negates a predicate, so the stream must flip it.
  bool flips;
  /// A derived predicate the stream also asserts facts of. Only a fact
  /// asserted before a transaction may be deleted in it: deleting a
  /// derived-only fact is an error.
  const char* asserted_derived;
  /// Delete paths beyond counting the stream must reach: cluster
  /// recomputes (a lattice group, or a flip blocking an instantiation in
  /// a recursive group), and suspects both proved and disproved by the
  /// proof search.
  bool recomputes;
  bool searches;
};

/// A seeded insert/delete stream of the row's facts. Transactions mix
/// predicates, so a negated predicate and a positive body predicate often
/// change together; deletes of absent facts and re-inserts are included.
std::vector<OracleTx> OracleStream(uint64_t seed, size_t num_tx,
                                   const OracleRow& row) {
  std::mt19937_64 rng(seed);
  std::set<std::string> asserted;  // asserted_derived facts
  std::vector<OracleTx> out(num_tx);
  for (OracleTx& tx : out) {
    const size_t ops = 1 + rng() % 4;
    std::vector<std::string> added;
    for (size_t i = 0; i < ops; ++i) {
      FactUpdate u = row.draw(rng);
      const bool del = rng() % 3 == 0;
      if (row.asserted_derived != nullptr && u.pred == row.asserted_derived) {
        if (!del) {
          added.push_back(FactKey(u));
        } else if (asserted.erase(FactKey(u)) == 0) {
          continue;
        }
      }
      (del ? tx.deletes : tx.inserts).push_back(std::move(u));
    }
    asserted.insert(added.begin(), added.end());
  }
  return out;
}

void PrintTo(const OracleRow& row, std::ostream* os) { *os << row.name; }

class FromScratchOracleTest : public testing::TestWithParam<OracleRow> {};

/// After every transaction of every stream, the incrementally maintained
/// fixpoint — tuples and support counts — must equal a fresh workspace
/// loaded with the surviving base facts, at every threads × shards
/// setting. Every row must reach transactions whose deletes counting
/// settled (no recompute), and the paths the row names beyond that.
TEST_P(FromScratchOracleTest, IncrementalMatchesFromScratch) {
  const OracleRow& row = GetParam();
  constexpr size_t kTx = 10;
  struct Setting {
    int threads;
    size_t shards;
  };
  std::vector<Setting> settings;
  for (int threads : {1, 4}) {
    for (size_t shards : {size_t{1}, size_t{7}}) {
      settings.push_back({threads, shards});
    }
  }
  auto configure = [](Workspace* ws, const Setting& s) {
    ws->fixpoint_options().threads = s.threads;
    ws->fixpoint_options().shards = s.shards;
  };
  std::vector<FactUpdate> sites;
  for (const char* x : {"a", "b", "c", "d"}) {
    sites.push_back({"site", {Value::Str(x)}});
  }
  uint64_t flip_matches = 0;
  uint64_t counted = 0;
  uint64_t recomputes = 0;
  uint64_t proved = 0;
  uint64_t disproved = 0;
  for (uint64_t seed = 1; seed <= row.seeds; ++seed) {
    const std::vector<OracleTx> stream = OracleStream(seed, kTx, row);
    // The from-scratch oracle after each transaction (setting-independent:
    // one load, sequential, unsharded).
    std::vector<Snapshot> want;
    std::map<std::string, FactUpdate> live;
    for (const FactUpdate& u : sites) live[FactKey(u)] = u;
    for (const OracleTx& tx : stream) {
      for (const FactUpdate& d : tx.deletes) live.erase(FactKey(d));
      for (const FactUpdate& i : tx.inserts) live[FactKey(i)] = i;
      Workspace fresh;
      configure(&fresh, {1, 1});
      Install(&fresh, row.program);
      std::vector<FactUpdate> facts;
      for (const auto& [key, u] : live) facts.push_back(u);
      auto loaded = fresh.Apply(facts);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      want.push_back(Snap(fresh, row.compared));
    }
    for (const Setting& s : settings) {
      Workspace ws;
      configure(&ws, s);
      Install(&ws, row.program);
      ASSERT_TRUE(ws.Apply(sites).ok());
      for (size_t t = 0; t < stream.size(); ++t) {
        auto commit = ws.Apply(stream[t].inserts, stream[t].deletes);
        ASSERT_TRUE(commit.ok())
            << "seed " << seed << " tx " << t << " threads=" << s.threads
            << " shards=" << s.shards << ": " << commit.status().ToString();
        ASSERT_EQ(Snap(ws, row.compared), want[t])
            << "seed " << seed << " tx " << t << " threads=" << s.threads
            << " shards=" << s.shards;
        const FixpointStats& f = commit->fixpoint;
        flip_matches += f.flip_matches;
        proved += f.suspects_proved;
        disproved += f.suspects_disproved;
        if (f.group_rederives > 0) {
          ++recomputes;
        } else if (f.deleted > 0) {
          ++counted;
        }
      }
    }
  }
  EXPECT_GT(counted, 0u);
  if (row.recomputes) {
    EXPECT_GT(recomputes, 0u);
  }
  if (row.searches) {
    EXPECT_GT(proved, 0u);
    EXPECT_GT(disproved, 0u);
  }
  if (row.flips) {
    EXPECT_GT(flip_matches, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rows, FromScratchOracleTest,
    testing::Values(
        OracleRow{"Negation", kNegationProgram, NegationFact, 200, {}, true,
                  nullptr, true, true},
        OracleRow{"Recursion", kRecursiveProgram, RecursiveFact, 100, {},
                  true, "grow", false, true},
        // A lattice improvement does not retract what the superseded value
        // derived, so `cost` keeps rows that depend on the order values
        // improved in; the aggregate and its reader do not.
        OracleRow{"LatticeAggregate",
                  kLatticeProgram,
                  LatticeFact,
                  60,
                  {"link", "bestcost", "near"},
                  false,
                  nullptr,
                  true,
                  false},
        // `tag` holds the membership rows of created entities, which are
        // base facts and outlive the instantiations that created them.
        OracleRow{"Existential",
                  kExistentialProgram,
                  ExistentialFact,
                  60,
                  {"site", "e", "f", "g", "q", "s"},
                  false,
                  nullptr,
                  false,
                  true}),
    [](const testing::TestParamInfo<OracleRow>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace secureblox::engine
