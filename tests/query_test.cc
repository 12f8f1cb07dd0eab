// Query-driven evaluation (engine/query): magic-sets answers pinned
// byte-identical against the materialized fixpoint across the threads /
// shards knob matrix, including after delete-delta churn; a
// cold point query touching only its slice; memo warm hits;
// install-after-query reconciliation; fallback slices for aggregates and
// negation; and the NodeRuntime query-serving front end under concurrent
// readers.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "datalog/parser.h"
#include "dist/runtime.h"
#include "engine/query.h"
#include "engine/workspace.h"
#include "policy/says_policy.h"

namespace secureblox::engine {
namespace {

using datalog::Value;

void Install(Workspace* ws, const std::string& src) {
  auto program = datalog::Parse(src);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Status st = ws->Install(program.value());
  ASSERT_TRUE(st.ok()) << st.ToString();
}

std::set<std::string> Render(const std::vector<Tuple>& tuples,
                             const Workspace& ws) {
  std::set<std::string> out;
  for (const Tuple& t : tuples) out.insert(TupleToString(t, ws.catalog()));
  return out;
}

// Answers the query engine should produce, computed the slow way from a
// fully materialized workspace: scan the relation, filter on the bound
// positions (entity labels resolved through the catalog, exactly like
// QueryEngine::Resolve).
std::set<std::string> ExpectedSet(
    Workspace& ws, const std::string& pred,
    const std::vector<std::optional<Value>>& args) {
  auto pid = ws.catalog().Lookup(pred);
  EXPECT_TRUE(pid.ok());
  const datalog::PredicateDecl& decl = ws.catalog().decl(pid.value());
  std::vector<std::optional<Value>> bound(args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    if (!args[i].has_value()) continue;
    const datalog::PredicateDecl& t = ws.catalog().decl(decl.arg_types[i]);
    if (t.is_entity_type && args[i]->kind() == datalog::ValueKind::kString) {
      auto e = ws.catalog().FindEntity(decl.arg_types[i], args[i]->AsString());
      if (!e.ok()) return {};  // unknown label: no answers
      bound[i] = e.value();
    } else {
      bound[i] = *args[i];
    }
  }
  auto rows = ws.Query(pred);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::set<std::string> out;
  for (const Tuple& t : rows.value()) {
    bool match = true;
    for (size_t i = 0; i < t.size() && match; ++i) {
      if (bound[i].has_value() && !(t[i] == *bound[i])) match = false;
    }
    if (match) out.insert(TupleToString(t, ws.catalog()));
  }
  return out;
}

std::set<std::string> QueryAnswers(QueryEngine* qe, Workspace& ws,
                                   const QueryGoal& goal) {
  auto rows = qe->Query(goal);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  if (!rows.ok()) return {};
  return Render(rows.value(), ws);
}

const char* kGraphSchema = R"(
node(X) -> .
link(X, Y) -> node(X), node(Y).
reachable(X, Y) -> node(X), node(Y).
reachable(X, Y) <- link(X, Y).
reachable(X, Y) <- link(X, Z), reachable(Z, Y).
)";

std::vector<FactUpdate> LineLinks(int n) {
  std::vector<FactUpdate> out;
  for (int i = 0; i + 1 < n; ++i) {
    out.push_back({"link",
                   {Value::Str(StrCat({"v", std::to_string(i)})),
                    Value::Str(StrCat({"v", std::to_string(i + 1)}))}});
  }
  return out;
}

// An unrelated second subsystem: querying `reachable` must not touch it.
const char* kSecondSubsystem = R"(
wire(X, Y) -> node(X), node(Y).
connected(X, Y) -> node(X), node(Y).
connected(X, Y) <- wire(X, Y).
connected(X, Y) <- wire(X, Z), connected(Z, Y).
)";

TEST(QueryTest, PointQueryMatchesFixpoint) {
  Workspace mat;
  Install(&mat, kGraphSchema);
  Install(&mat, kSecondSubsystem);
  ASSERT_TRUE(mat.Apply(LineLinks(6)).ok());
  ASSERT_TRUE(
      mat.Apply({{"wire", {Value::Str("w0"), Value::Str("w1")}},
                 {"wire", {Value::Str("w1"), Value::Str("w2")}}}).ok());

  Workspace qws;
  qws.set_defer_rules(true);
  Install(&qws, kGraphSchema);
  Install(&qws, kSecondSubsystem);
  ASSERT_TRUE(qws.Apply(LineLinks(6)).ok());
  ASSERT_TRUE(
      qws.Apply({{"wire", {Value::Str("w0"), Value::Str("w1")}},
                 {"wire", {Value::Str("w1"), Value::Str("w2")}}}).ok());
  QueryEngine qe(&qws);

  std::vector<std::vector<std::optional<Value>>> goals = {
      {Value::Str("v0"), std::nullopt},              // bf
      {std::nullopt, Value::Str("v5")},              // fb
      {Value::Str("v1"), Value::Str("v4")},          // bb
      {Value::Str("v4"), Value::Str("v1")},          // bb, empty
      {Value::Str("nosuch"), std::nullopt},          // unknown label
  };
  for (const auto& args : goals) {
    EXPECT_EQ(QueryAnswers(&qe, qws, {"reachable", args}),
              ExpectedSet(mat, "reachable", args));
  }
  // The queries only demanded the reachable slice: the second subsystem's
  // closure stays unmaterialized in the query-serving workspace.
  EXPECT_EQ(ExpectedSet(mat, "connected", {std::nullopt, std::nullopt}).size(),
            3u);
  auto connected = qws.catalog().Lookup("connected");
  ASSERT_TRUE(connected.ok());
  const Relation* rel = qws.GetRelationIfExists(connected.value());
  EXPECT_TRUE(rel == nullptr || rel->AllTuples().empty());
}

TEST(QueryTest, AllFreeGoalFallsBackToFullSlice) {
  Workspace mat;
  Install(&mat, kGraphSchema);
  ASSERT_TRUE(mat.Apply(LineLinks(5)).ok());

  Workspace qws;
  qws.set_defer_rules(true);
  Install(&qws, kGraphSchema);
  ASSERT_TRUE(qws.Apply(LineLinks(5)).ok());
  QueryEngine qe(&qws);

  std::vector<std::optional<Value>> free2 = {std::nullopt, std::nullopt};
  EXPECT_EQ(QueryAnswers(&qe, qws, {"reachable", free2}),
            ExpectedSet(mat, "reachable", free2));
  EXPECT_GE(qe.stats().full_slices, 1u);
  // The full slice marks the predicate complete; a later bound goal is a
  // probe, not a new install.
  uint64_t installs = qe.stats().slices_installed;
  std::vector<std::optional<Value>> bf = {Value::Str("v0"), std::nullopt};
  EXPECT_EQ(QueryAnswers(&qe, qws, {"reachable", bf}),
            ExpectedSet(mat, "reachable", bf));
  EXPECT_EQ(qe.stats().slices_installed, installs);
}

// The acceptance gate: answers are byte-identical (same rendered strings,
// same sorted order) across threads x shards, including after delete-delta
// churn.
TEST(QueryTest, KnobMatrixDifferential) {
  Workspace mat;
  Install(&mat, kGraphSchema);
  ASSERT_TRUE(mat.Apply(LineLinks(6)).ok());
  // The churn drops one edge and adds a shortcut. The reference after it
  // is a fresh load of the surviving edges, so it runs no delete and
  // cannot share a delete-path defect with the workspace under test.
  auto churn_del = FactUpdate{"link", {Value::Str("v2"), Value::Str("v3")}};
  auto churn_add = FactUpdate{"link", {Value::Str("v1"), Value::Str("v4")}};
  std::vector<std::optional<Value>> bf = {Value::Str("v0"), std::nullopt};
  std::vector<std::optional<Value>> fb = {std::nullopt, Value::Str("v5")};
  // v5 is only ever a target, so column 0 never stores it (a dictionary
  // miss). The churn deletes v2's only out-edge:
  // afterwards v2 keeps its column code but has no live rows.
  std::vector<std::optional<Value>> target_only = {Value::Str("v5"),
                                                   std::nullopt};
  std::vector<std::optional<Value>> v2 = {Value::Str("v2"), std::nullopt};
  auto before_del = ExpectedSet(mat, "reachable", bf);
  auto before_v2 = ExpectedSet(mat, "reachable", v2);
  std::vector<FactUpdate> survivors;
  for (const FactUpdate& l : LineLinks(6)) {
    if (l.values != churn_del.values) survivors.push_back(l);
  }
  survivors.push_back(churn_add);
  Workspace fresh;
  Install(&fresh, kGraphSchema);
  ASSERT_TRUE(fresh.Apply(survivors).ok());
  auto after_bf = ExpectedSet(fresh, "reachable", bf);
  auto after_fb = ExpectedSet(fresh, "reachable", fb);
  auto after_v2 = ExpectedSet(fresh, "reachable", v2);
  auto after_target_only = ExpectedSet(fresh, "reachable", target_only);
  ASSERT_NE(before_del, after_bf);  // the churn must actually change answers
  ASSERT_FALSE(before_v2.empty());
  ASSERT_TRUE(after_v2.empty());
  ASSERT_TRUE(after_target_only.empty());

  std::vector<std::string> first_bf, first_fb;
  bool have_first = false;
  for (int threads : {1, 4}) {
    for (size_t shards : {size_t{1}, size_t{7}}) {
      Workspace qws;
      qws.set_defer_rules(true);
      qws.fixpoint_options().threads = threads;
      qws.fixpoint_options().shards = shards;
      Install(&qws, kGraphSchema);
      ASSERT_TRUE(qws.Apply(LineLinks(6)).ok());
      QueryEngine qe(&qws);
      EXPECT_EQ(QueryAnswers(&qe, qws, {"reachable", bf}), before_del);
      EXPECT_EQ(QueryAnswers(&qe, qws, {"reachable", v2}), before_v2);
      ASSERT_TRUE(qws.Apply({churn_add}, {churn_del}).ok());
      auto rows_bf = qe.Query({"reachable", bf});
      auto rows_fb = qe.Query({"reachable", fb});
      ASSERT_TRUE(rows_bf.ok() && rows_fb.ok());
      EXPECT_EQ(Render(rows_bf.value(), qws), after_bf);
      EXPECT_EQ(Render(rows_fb.value(), qws), after_fb);
      EXPECT_EQ(QueryAnswers(&qe, qws, {"reachable", v2}), after_v2);
      EXPECT_EQ(QueryAnswers(&qe, qws, {"reachable", target_only}),
                after_target_only);
      // Byte-identical including order, across every knob combination.
      std::vector<std::string> r_bf, r_fb;
      for (const Tuple& t : rows_bf.value()) {
        r_bf.push_back(TupleToString(t, qws.catalog()));
      }
      for (const Tuple& t : rows_fb.value()) {
        r_fb.push_back(TupleToString(t, qws.catalog()));
      }
      if (!have_first) {
        first_bf = r_bf;
        first_fb = r_fb;
        have_first = true;
      } else {
        EXPECT_EQ(r_bf, first_bf) << "threads=" << threads
                                  << " shards=" << shards;
        EXPECT_EQ(r_fb, first_fb);
      }
    }
  }
}

// A cold point query installs and runs only its goal's slice. Five
// independent closure families share one node domain: left-recursive
// reachability over link, and four tag families over their own edge
// relations, each a chain of 80 nodes plus sparse skip edges. Answering
// reachable(v10, _) must derive under a quarter of the full fixpoint's
// tuples and fire under a quarter of its rules, and must answer exactly
// the materialized extension.
TEST(QueryTest, ColdPointQueryTouchesOnlyItsSlice) {
  constexpr size_t kNodes = 80;
  constexpr size_t kTagFamilies = 4;
  std::string program = R"(
node(X) -> .
link(X, Y) -> node(X), node(Y).
reachable(X, Y) -> node(X), node(Y).
reachable(X, Y) <- link(X, Y).
reachable(X, Y) <- reachable(X, Z), link(Z, Y).
)";
  std::vector<std::string> edge_preds = {"link"};
  for (size_t f = 0; f < kTagFamilies; ++f) {
    const std::string e = StrCat({"attr", std::to_string(f)});
    const std::string t = StrCat({"tag", std::to_string(f)});
    program += e + "(X, Y) -> node(X), node(Y).\n";
    program += t + "(X, Y) -> node(X), node(Y).\n";
    program += t + "(X, Y) <- " + e + "(X, Y).\n";
    program += t + "(X, Y) <- " + t + "(X, Z), " + e + "(Z, Y).\n";
    edge_preds.push_back(e);
  }
  auto label = [](size_t i) {
    return Value::Str(StrCat({"v", std::to_string(i)}));
  };
  std::vector<FactUpdate> edges;
  for (size_t p = 0; p < edge_preds.size(); ++p) {
    for (size_t i = 0; i + 1 < kNodes; ++i) {
      edges.push_back({edge_preds[p], {label(i), label(i + 1)}});
    }
    for (size_t i = 0; i < kNodes / 4; ++i) {
      edges.push_back({edge_preds[p],
                       {label((i * 7 + p) % kNodes),
                        label((i * 13 + 5 + 3 * p) % kNodes)}});
    }
  }

  Workspace mat;
  Install(&mat, program);
  ASSERT_TRUE(mat.Apply(edges).ok());
  const uint64_t full_derived = mat.stats().derived_tuples;
  const uint64_t full_firings = mat.stats().rule_firings;

  Workspace qws;
  qws.set_defer_rules(true);
  Install(&qws, program);
  ASSERT_TRUE(qws.Apply(edges).ok());
  QueryEngine qe(&qws);
  const std::vector<std::optional<Value>> goal = {label(kNodes / 8),
                                                  std::nullopt};
  const uint64_t derived_before = qws.stats().derived_tuples;
  const uint64_t firings_before = qws.stats().rule_firings;
  const std::set<std::string> answers =
      QueryAnswers(&qe, qws, {"reachable", goal});
  const uint64_t cold_derived = qws.stats().derived_tuples - derived_before;
  const uint64_t cold_firings = qws.stats().rule_firings - firings_before;

  EXPECT_FALSE(answers.empty());
  EXPECT_EQ(answers, ExpectedSet(mat, "reachable", goal));
  EXPECT_GT(cold_derived, 0u);
  EXPECT_LT(cold_derived * 4, full_derived)
      << "cold query derived " << cold_derived << " of " << full_derived;
  EXPECT_LT(cold_firings * 4, full_firings)
      << "cold query fired " << cold_firings << " of " << full_firings;
}

TEST(QueryTest, DeleteChurnInvalidatesMemo) {
  Workspace qws;
  qws.set_defer_rules(true);
  Install(&qws, kGraphSchema);
  ASSERT_TRUE(qws.Apply(LineLinks(5)).ok());
  QueryEngine qe(&qws);

  std::vector<std::optional<Value>> bf = {Value::Str("v0"), std::nullopt};
  EXPECT_EQ(QueryAnswers(&qe, qws, {"reachable", bf}).size(), 4u);
  // Warm repeat: answered from the snapshot.
  auto warm = qe.TryWarm({"reachable", bf});
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->size(), 4u);

  // Cut the line at v2 -> v3: the slice's delete deltas retract the
  // dependent closure, and the version-stamp epoch stales the snapshot.
  ASSERT_TRUE(
      qws.Apply({}, {{"link", {Value::Str("v2"), Value::Str("v3")}}}).ok());
  EXPECT_FALSE(qe.TryWarm({"reachable", bf}).has_value());
  EXPECT_EQ(QueryAnswers(&qe, qws, {"reachable", bf}).size(), 2u);

  // Restore the edge: answers come back, again through the delta path.
  ASSERT_TRUE(
      qws.Apply({{"link", {Value::Str("v2"), Value::Str("v3")}}}).ok());
  EXPECT_EQ(QueryAnswers(&qe, qws, {"reachable", bf}).size(), 4u);
  EXPECT_GE(qe.stats().warm_hits, 1u);
}

TEST(QueryTest, AnswerCapEvictsSnapshotsNeverAnswers) {
  Workspace qws;
  qws.set_defer_rules(true);
  Install(&qws, kGraphSchema);
  ASSERT_TRUE(qws.Apply(LineLinks(6)).ok());
  QueryEngine qe(&qws);
  qe.set_answer_cap(2);
  EXPECT_EQ(qe.answer_cap(), 2u);

  // Five distinct bound patterns against a cap of two.
  auto goal = [](int i) -> QueryGoal {
    return {"reachable",
            {Value::Str(StrCat({"v", std::to_string(i)})), std::nullopt}};
  };
  std::vector<std::set<std::string>> first;
  for (int i = 0; i < 5; ++i) {
    first.push_back(QueryAnswers(&qe, qws, goal(i)));
    EXPECT_EQ(first.back(), ExpectedSet(qws, "reachable", goal(i).args))
        << "v" << i;
  }
  EXPECT_EQ(qe.stats().answer_evictions, 3u);

  // The two most recently stored snapshots survive as warm pure reads;
  // evicted goals miss TryWarm — but the exclusive path still answers
  // them identically. Eviction moves cold/warm accounting, nothing else.
  EXPECT_TRUE(qe.TryWarm(goal(4)).has_value());
  EXPECT_TRUE(qe.TryWarm(goal(3)).has_value());
  EXPECT_FALSE(qe.TryWarm(goal(0)).has_value());
  uint64_t warm_before = qe.stats().warm_hits;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(QueryAnswers(&qe, qws, goal(i)), first[i]) << "v" << i;
  }
  EXPECT_GE(qe.stats().answer_evictions, 6u);  // churned through the cap
  EXPECT_EQ(qe.stats().warm_hits, warm_before);  // all five went cold

  // Re-storing an already-cached goal refreshes its recency instead of
  // duplicating it: cap 2, repeat v4 then add v0 -> v3 evicted, v4 kept.
  QueryAnswers(&qe, qws, goal(4));
  QueryAnswers(&qe, qws, goal(3));
  QueryAnswers(&qe, qws, goal(4));
  QueryAnswers(&qe, qws, goal(0));
  EXPECT_TRUE(qe.TryWarm(goal(4)).has_value());
  EXPECT_TRUE(qe.TryWarm(goal(0)).has_value());
  EXPECT_FALSE(qe.TryWarm(goal(3)).has_value());

  // Lifting the cap restores unbounded memoization.
  qe.set_answer_cap(0);
  for (int i = 0; i < 5; ++i) QueryAnswers(&qe, qws, goal(i));
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(qe.TryWarm(goal(i)).has_value()) << "v" << i;
  }
}

TEST(QueryTest, InstallAfterQueriesReconciles) {
  const char* schema = R"(
node(X) -> .
link(X, Y) -> node(X), node(Y).
shortcut(X, Y) -> node(X), node(Y).
reachable(X, Y) -> node(X), node(Y).
reachable(X, Y) <- link(X, Y).
reachable(X, Y) <- link(X, Z), reachable(Z, Y).
)";
  const char* late = "link(X, Y) <- shortcut(X, Y).\n";
  auto shortcut = FactUpdate{"shortcut",
                             {Value::Str("v3"), Value::Str("v0")}};
  Workspace qws;
  qws.set_defer_rules(true);
  Install(&qws, schema);
  ASSERT_TRUE(qws.Apply(LineLinks(4)).ok());
  ASSERT_TRUE(qws.Apply({shortcut}).ok());
  QueryEngine qe(&qws);

  std::vector<std::optional<Value>> bf = {Value::Str("v0"), std::nullopt};
  EXPECT_EQ(QueryAnswers(&qe, qws, {"reachable", bf}).size(), 3u);

  // A later Install appends a rule that closes the cycle through the
  // pre-existing shortcut fact. `link` was EDB when the slice was
  // installed and becomes IDB here — the reconcile must pick up the new
  // producer over pre-existing data. (Unlike the bottom-up engine, where
  // a late Install only applies to future deltas, the query front end is
  // declarative: answers reflect the full rule set over the current base
  // facts — the reference installs every rule before the data.)
  Install(&qws, late);

  Workspace mat;
  Install(&mat, schema);
  Install(&mat, late);
  ASSERT_TRUE(mat.Apply(LineLinks(4)).ok());
  ASSERT_TRUE(mat.Apply({shortcut}).ok());
  auto expected = ExpectedSet(mat, "reachable", bf);
  EXPECT_GT(expected.size(), 3u);  // the new rule must widen the answers
  EXPECT_EQ(QueryAnswers(&qe, qws, {"reachable", bf}), expected);
}

TEST(QueryTest, AggregateSliceFallsBackUnguarded) {
  const char* src = R"(
node(X) -> .
link(X, Y) -> node(X), node(Y).
outdeg[X] = C -> node(X), int(C).
outdeg[X] = C <- agg<< C = count() >> link(X, _).
)";
  Workspace mat;
  Install(&mat, src);
  ASSERT_TRUE(mat.Apply(LineLinks(5)).ok());
  ASSERT_TRUE(
      mat.Apply({{"link", {Value::Str("v0"), Value::Str("v2")}}}).ok());

  Workspace qws;
  qws.set_defer_rules(true);
  Install(&qws, src);
  ASSERT_TRUE(qws.Apply(LineLinks(5)).ok());
  ASSERT_TRUE(
      qws.Apply({{"link", {Value::Str("v0"), Value::Str("v2")}}}).ok());
  QueryEngine qe(&qws);

  std::vector<std::optional<Value>> bf = {Value::Str("v0"), std::nullopt};
  EXPECT_EQ(QueryAnswers(&qe, qws, {"outdeg", bf}),
            ExpectedSet(mat, "outdeg", bf));
  EXPECT_GE(qe.stats().full_slices, 1u);
}

TEST(QueryTest, NegatedIdbSliceFallsBackUnguarded) {
  const char* src = R"(
node(X) -> .
link(X, Y) -> node(X), node(Y).
reachable(X, Y) -> node(X), node(Y).
reachable(X, Y) <- link(X, Y).
reachable(X, Y) <- link(X, Z), reachable(Z, Y).
unreachable(X, Y) -> node(X), node(Y).
unreachable(X, Y) <- node(X), node(Y), !reachable(X, Y).
)";
  Workspace mat;
  Install(&mat, src);
  ASSERT_TRUE(mat.Apply(LineLinks(4)).ok());

  Workspace qws;
  qws.set_defer_rules(true);
  Install(&qws, src);
  ASSERT_TRUE(qws.Apply(LineLinks(4)).ok());
  QueryEngine qe(&qws);

  std::vector<std::optional<Value>> bf = {Value::Str("v2"), std::nullopt};
  EXPECT_EQ(QueryAnswers(&qe, qws, {"unreachable", bf}),
            ExpectedSet(mat, "unreachable", bf));
  EXPECT_GE(qe.stats().full_slices, 1u);
  // Positive slices stay guarded even in the same workspace.
  std::vector<std::optional<Value>> r = {Value::Str("v0"), std::nullopt};
  EXPECT_EQ(QueryAnswers(&qe, qws, {"reachable", r}),
            ExpectedSet(mat, "reachable", r));
}

TEST(QueryTest, EdbGoalAndMaterializedWorkspaceProbe) {
  Workspace ws;  // materialized: queries degrade to filtered scans
  Install(&ws, kGraphSchema);
  ASSERT_TRUE(ws.Apply(LineLinks(4)).ok());
  QueryEngine qe(&ws);
  std::vector<std::optional<Value>> bf = {Value::Str("v1"), std::nullopt};
  EXPECT_EQ(QueryAnswers(&qe, ws, {"reachable", bf}),
            ExpectedSet(ws, "reachable", bf));
  EXPECT_EQ(QueryAnswers(&qe, ws, {"link", bf}),
            ExpectedSet(ws, "link", bf));
  // EDB goals on a deferred workspace are plain probes too.
  Workspace qws;
  qws.set_defer_rules(true);
  Install(&qws, kGraphSchema);
  ASSERT_TRUE(qws.Apply(LineLinks(4)).ok());
  QueryEngine dqe(&qws);
  EXPECT_EQ(QueryAnswers(&dqe, qws, {"link", bf}),
            ExpectedSet(ws, "link", bf));

  // The sparse goals of KnobMatrixDifferential on a materialized
  // workspace, through Query and the shared-lock TryWarm read alike: v5
  // is only ever a target; v2 loses its only out-edge to the churn.
  Workspace mat;
  Install(&mat, kGraphSchema);
  ASSERT_TRUE(mat.Apply(LineLinks(6)).ok());
  QueryEngine mqe(&mat);
  auto check = [&](const std::vector<std::optional<Value>>& args) {
    auto expected = ExpectedSet(mat, "reachable", args);
    EXPECT_EQ(QueryAnswers(&mqe, mat, {"reachable", args}), expected);
    auto warm = mqe.TryWarm({"reachable", args});
    EXPECT_TRUE(warm.has_value());
    if (warm.has_value()) {
      EXPECT_EQ(Render(*warm, mat), expected);
    }
    return expected;
  };
  std::vector<std::optional<Value>> target_only = {Value::Str("v5"),
                                                   std::nullopt};
  std::vector<std::optional<Value>> v2 = {Value::Str("v2"), std::nullopt};
  EXPECT_TRUE(check(target_only).empty());
  EXPECT_FALSE(check(v2).empty());
  ASSERT_TRUE(
      mat.Apply({}, {{"link", {Value::Str("v2"), Value::Str("v3")}}}).ok());
  EXPECT_TRUE(check(v2).empty());
  EXPECT_TRUE(check(target_only).empty());
}

TEST(QueryTest, GoalErrorsAreReported) {
  Workspace qws;
  qws.set_defer_rules(true);
  Install(&qws, kGraphSchema);
  QueryEngine qe(&qws);
  EXPECT_FALSE(qe.Query({"nosuchpred", {}}).ok());
  EXPECT_FALSE(qe.Query({"reachable", {Value::Str("v0")}}).ok());  // arity
  EXPECT_FALSE(
      qe.Query({"reachable", {Value::Int(3), std::nullopt}}).ok());  // type
}

// serve-churn's program shape — left-recursive closures over chains with
// forward and backward skip edges, two families — under single-edge
// deletes and re-inserts, chain edges included. A delete leaves suspects
// on the skip-edge cycles; the proof search must keep the founded ones
// and erase the rest, with no cluster recompute. After every write the
// query answers equal a fresh materialized load of the edges present then
// (no delete runs in it), at every threads × shards setting.
TEST(QueryTest, ServeChurnShapedDeleteDifferential) {
  constexpr int kNodes = 24;
  const std::vector<std::pair<std::string, std::string>> families = {
      {"link", "reachable"}, {"attr0", "tag0"}};
  std::string program = "node(X) -> .\n";
  for (const auto& [edge, goal] : families) {
    program += edge + "(X, Y) -> node(X), node(Y).\n";
    program += goal + "(X, Y) -> node(X), node(Y).\n";
    program += goal + "(X, Y) <- " + edge + "(X, Y).\n";
    program += goal + "(X, Y) <- " + goal + "(X, Z), " + edge + "(Z, Y).\n";
  }
  auto v = [](int i) { return Value::Str(StrCat({"v", std::to_string(i)})); };
  std::vector<FactUpdate> edges;
  std::vector<size_t> chain, skips;  // indexes into `edges`
  for (size_t f = 0; f < families.size(); ++f) {
    const std::string& e = families[f].first;
    for (int i = 0; i + 1 < kNodes; ++i) {
      chain.push_back(edges.size());
      edges.push_back({e, {v(i), v(i + 1)}});
    }
    // Forward skips, and backward skips that close cycles over the chain.
    for (int i = 0; i < 4; ++i) {
      const int a = (5 * i + 2 + static_cast<int>(f)) % kNodes;
      skips.push_back(edges.size());
      edges.push_back({e, {v(a), v((a + 4 + i) % kNodes)}});
      const int b = (7 * i + 9 + 3 * static_cast<int>(f)) % kNodes;
      skips.push_back(edges.size());
      edges.push_back({e, {v(b), v((b + kNodes - 3 - i) % kNodes)}});
    }
  }
  // Each write toggles one edge: deleted when present, re-inserted when
  // not. Every third write is a chain edge.
  std::vector<size_t> writes;
  for (size_t k = 0; k < 48; ++k) {
    writes.push_back(k % 3 == 0 ? chain[(k * 7) % chain.size()]
                                : skips[(k * 5) % skips.size()]);
  }
  std::vector<QueryGoal> goals;
  for (const auto& [edge, goal] : families) {
    for (int src : {0, 3, 10, 17}) {
      goals.push_back({goal, {v(src), std::nullopt}});
    }
  }

  // want[w]: every goal's answers before write w (want[0] after the load).
  std::vector<std::vector<std::set<std::string>>> want;
  std::vector<bool> present(edges.size(), true);
  for (size_t w = 0; w <= writes.size(); ++w) {
    if (w > 0) present[writes[w - 1]] = !present[writes[w - 1]];
    std::vector<FactUpdate> live;
    for (size_t k = 0; k < edges.size(); ++k) {
      if (present[k]) live.push_back(edges[k]);
    }
    Workspace mat;
    Install(&mat, program);
    ASSERT_TRUE(mat.Apply(live).ok());
    std::vector<std::set<std::string>>& answers = want.emplace_back();
    for (const QueryGoal& g : goals) {
      answers.push_back(ExpectedSet(mat, g.pred, g.args));
    }
  }

  std::vector<uint64_t> first_counts;
  for (int threads : {1, 4}) {
    for (size_t shards : {size_t{1}, size_t{7}}) {
      SCOPED_TRACE(StrCat({"threads=", std::to_string(threads), " shards=",
                           std::to_string(shards)}));
      Workspace qws;
      qws.set_defer_rules(true);
      qws.fixpoint_options().threads = threads;
      qws.fixpoint_options().shards = shards;
      Install(&qws, program);
      ASSERT_TRUE(qws.Apply(edges).ok());
      QueryEngine qe(&qws);
      for (size_t i = 0; i < goals.size(); ++i) {
        ASSERT_EQ(QueryAnswers(&qe, qws, goals[i]), want[0][i]);
      }
      std::fill(present.begin(), present.end(), true);
      uint64_t proved = 0, disproved = 0;
      for (size_t w = 0; w < writes.size(); ++w) {
        const size_t k = writes[w];
        std::vector<FactUpdate> ins, del;
        (present[k] ? del : ins).push_back(edges[k]);
        present[k] = !present[k];
        auto commit = qws.Apply(ins, del);
        ASSERT_TRUE(commit.ok()) << commit.status().ToString();
        EXPECT_EQ(commit->fixpoint.group_rederives, 0u) << "write " << w;
        proved += commit->fixpoint.suspects_proved;
        disproved += commit->fixpoint.suspects_disproved;
        for (size_t i = 0; i < goals.size(); ++i) {
          ASSERT_EQ(QueryAnswers(&qe, qws, goals[i]), want[w + 1][i])
              << "write " << w << " goal " << goals[i].pred << "("
              << goals[i].args[0]->AsString() << ", ?)";
        }
      }
      EXPECT_GT(proved, 0u);
      EXPECT_GT(disproved, 0u);
      // The search settles the same suspects at every setting.
      if (first_counts.empty()) first_counts = {proved, disproved};
      EXPECT_EQ(std::vector<uint64_t>({proved, disproved}), first_counts);
    }
  }
}

}  // namespace
}  // namespace secureblox::engine

namespace secureblox::dist {
namespace {

using datalog::Value;
using engine::FactUpdate;

// NodeRuntime in query-serving mode: concurrent warm queries between
// transactions, and exclusion against Apply.
TEST(QueryTest, NodeRuntimeServesConcurrentQueries) {
  policy::SaysPolicyOptions opts;
  opts.auth = policy::AuthScheme::kNone;
  opts.enc = policy::EncScheme::kNone;
  opts.accept = policy::AcceptMode::kBenign;
  const char* app = R"(
link(X, Y) -> principal(X), principal(Y).
reachable(X, Y) -> principal(X), principal(Y).
reachable(X, Y) <- link(X, Y).
reachable(X, Y) <- link(X, Z), reachable(Z, Y).
)";
  std::vector<std::string> principals = {"alice", "bob"};
  policy::CredentialAuthority::Options copts;
  copts.rsa_bits = 512;
  copts.seed = "query-test";
  policy::CredentialAuthority authority(principals, copts);

  NodeRuntime::Config cfg;
  cfg.index = 0;
  cfg.principals = principals;
  cfg.creds = authority.IssueFor("alice").value();
  cfg.query_mode = true;
  auto rt = NodeRuntime::Create(
      std::move(cfg),
      {policy::PreludeSource(), app, policy::SaysPolicySource(opts)});
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  NodeRuntime& node = **rt;

  std::vector<FactUpdate> links;
  for (int i = 0; i + 1 < 6; ++i) {
    links.push_back({"link",
                     {Value::Str(StrCat({"p", std::to_string(i)})),
                      Value::Str(StrCat({"p", std::to_string(i + 1)}))}});
  }
  ASSERT_TRUE(node.InsertLocal(links).ok());

  engine::QueryGoal goal{"reachable", {Value::Str("p0"), std::nullopt}};
  auto first = node.Query(goal);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->size(), 5u);

  // Concurrent readers racing a mutating transaction; every read must see
  // a consistent pre- or post-churn answer set (5 or 3 tuples).
  std::atomic<bool> bad{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&node, &goal, &bad] {
      for (int i = 0; i < 50; ++i) {
        auto rows = node.Query(goal);
        if (!rows.ok() || (rows->size() != 5 && rows->size() != 3)) {
          bad = true;
          return;
        }
      }
    });
  }
  auto churn = node.ApplyLocal(
      {}, {{"link", {Value::Str("p3"), Value::Str("p4")}}});
  ASSERT_TRUE(churn.ok()) << churn.status().ToString();
  for (auto& th : readers) th.join();
  EXPECT_FALSE(bad.load());

  auto after = node.Query(goal);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 3u);
  EXPECT_GE(node.query_stats().warm_hits, 1u);
}

}  // namespace
}  // namespace secureblox::dist
