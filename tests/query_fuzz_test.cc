// Differential fuzz for the query front end (engine/query): seeded
// randomized Datalog programs — random positive (possibly recursive) rule
// bodies over a shared entity domain — evaluated two ways, magic-sets
// query slices vs the materialized fixpoint, for every derivable goal
// shape, before and after randomized insert/delete churn, against a fresh
// load of the live base facts. Any divergence
// is a soundness or completeness bug in the rewrite, the demand seeding,
// or the inherited delete-delta invalidation.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/strings.h"
#include "datalog/parser.h"
#include "engine/query.h"
#include "engine/workspace.h"

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

// Reference answers from the fully materialized workspace: scan, filter on
// bound positions with labels resolved exactly like QueryEngine::Resolve.
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

constexpr int kNumEdb = 3;
constexpr int kNumIdb = 4;
constexpr int kNumLabels = 8;
constexpr int kNumVars = 4;

std::string Edb(int k) { return StrCat({"e", std::to_string(k)}); }
std::string Idb(int k) { return StrCat({"i", std::to_string(k)}); }
std::string LabelOf(int k) { return StrCat({"n", std::to_string(k)}); }
std::string VarOf(int k) { return StrCat({"V", std::to_string(k)}); }

// One random program: fixed schema (all binary over one entity domain),
// randomized rule set. Bodies are positive atoms over EDBs and IDBs up to
// and including the head's own index (so recursion happens, but the
// program stays stratified); all atom arguments are variables, and head
// variables are drawn from the body so every rule is range-restricted and
// typechecks by construction.
std::string RandomProgram(std::mt19937* rng) {
  std::string src = "node(X) -> .\n";
  for (int k = 0; k < kNumEdb; ++k) {
    src += Edb(k) + "(X, Y) -> node(X), node(Y).\n";
  }
  for (int k = 0; k < kNumIdb; ++k) {
    src += Idb(k) + "(X, Y) -> node(X), node(Y).\n";
  }
  auto pick = [&](int n) { return static_cast<int>((*rng)() % n); };
  for (int k = 0; k < kNumIdb; ++k) {
    const int num_rules = 1 + pick(2);
    for (int r = 0; r < num_rules; ++r) {
      const int body_len = 1 + pick(3);
      std::string body;
      std::set<int> body_vars;
      for (int b = 0; b < body_len; ++b) {
        // Producers: any EDB, or an IDB at most this head's index.
        std::string pred;
        const int choice = pick(kNumEdb + k + 1);
        pred = choice < kNumEdb ? Edb(choice) : Idb(choice - kNumEdb);
        const int v0 = pick(kNumVars);
        const int v1 = pick(kNumVars);
        body_vars.insert(v0);
        body_vars.insert(v1);
        if (!body.empty()) body += ", ";
        body += pred + "(" + VarOf(v0) + ", " + VarOf(v1) + ")";
      }
      std::vector<int> vars(body_vars.begin(), body_vars.end());
      const int h0 = vars[pick(static_cast<int>(vars.size()))];
      const int h1 = vars[pick(static_cast<int>(vars.size()))];
      src += Idb(k) + "(" + VarOf(h0) + ", " + VarOf(h1) + ") <- " + body +
             ".\n";
    }
  }
  return src;
}

std::vector<FactUpdate> RandomFacts(std::mt19937* rng, int count) {
  std::vector<FactUpdate> out;
  auto pick = [&](int n) { return static_cast<int>((*rng)() % n); };
  for (int i = 0; i < count; ++i) {
    out.push_back({Edb(pick(kNumEdb)),
                   {Value::Str(LabelOf(pick(kNumLabels))),
                    Value::Str(LabelOf(pick(kNumLabels)))}});
  }
  return out;
}

// Compare the query path against the materialized reference on every goal
// shape for every predicate: all-free, first-bound, second-bound, and
// fully bound, with both present and absent labels.
void CheckAllGoals(std::mt19937* rng, Workspace& mat, QueryEngine* qe,
                   Workspace& qws, const std::string& where) {
  auto pick = [&](int n) { return static_cast<int>((*rng)() % n); };
  std::vector<std::string> preds;
  for (int k = 0; k < kNumEdb; ++k) preds.push_back(Edb(k));
  for (int k = 0; k < kNumIdb; ++k) preds.push_back(Idb(k));
  for (const std::string& pred : preds) {
    std::vector<std::vector<std::optional<Value>>> shapes;
    shapes.push_back({std::nullopt, std::nullopt});
    // Random labels, occasionally outside the inserted domain.
    const Value a = Value::Str(LabelOf(pick(kNumLabels + 2)));
    const Value b = Value::Str(LabelOf(pick(kNumLabels + 2)));
    shapes.push_back({a, std::nullopt});
    shapes.push_back({std::nullopt, b});
    shapes.push_back({a, b});
    for (const auto& args : shapes) {
      auto rows = qe->Query({pred, args});
      ASSERT_TRUE(rows.ok()) << where << " " << pred << ": "
                             << rows.status().ToString();
      EXPECT_EQ(Render(rows.value(), qws), ExpectedSet(mat, pred, args))
          << where << " " << pred;
    }
  }
}

// Base facts tracked as "pred a b" keys so deletes are always unique and
// always live (answers compare as rendered labels, so interned entity IDs
// need never be compared across catalogs).
std::string KeyOf(const FactUpdate& f) {
  return f.pred + " " + f.values[0].AsString() + " " + f.values[1].AsString();
}

std::vector<FactUpdate> FromKeys(const std::set<std::string>& keys) {
  std::vector<FactUpdate> out;
  for (const std::string& k : keys) {
    const size_t s1 = k.find(' ');
    const size_t s2 = k.find(' ', s1 + 1);
    out.push_back({k.substr(0, s1),
                   {Value::Str(k.substr(s1 + 1, s2 - s1 - 1)),
                    Value::Str(k.substr(s2 + 1))}});
  }
  return out;
}

TEST(QueryFuzzTest, RandomProgramsAgreeWithFixpointUnderChurn) {
  // 80 seeds keep the sweep under a second in release builds while still
  // covering a wide mix of rule shapes; seed 9 is the one that exposed
  // the within-atom repeated-variable miscompilation (i0(V0, V0) bodies).
  for (uint32_t seed = 1; seed <= 80; ++seed) {
    std::mt19937 rng(seed * 2654435761u);
    const std::string program = RandomProgram(&rng);
    SCOPED_TRACE(StrCat({"seed ", std::to_string(seed), "\n", program}));

    Workspace qws;
    qws.set_defer_rules(true);
    Install(&qws, program);
    QueryEngine qe(&qws);

    std::set<std::string> live;
    const std::vector<FactUpdate> base = RandomFacts(&rng, 10 + (rng() % 6));
    for (const FactUpdate& f : base) live.insert(KeyOf(f));
    ASSERT_TRUE(qws.Apply(base).ok());

    // The reference is a fresh materialized load of the live base facts
    // at each check, so it runs no delete: a delete-path defect cannot
    // pass by hitting the reference too.
    auto check = [&](const std::string& where) {
      Workspace mat;
      Install(&mat, program);
      ASSERT_TRUE(mat.Apply(FromKeys(live)).ok());
      CheckAllGoals(&rng, mat, &qe, qws, where);
    };
    check("pre-churn");

    // Churn: delete a random subset of the live base facts and add new
    // ones. The query side's installed slices must be maintained by the
    // inherited delete-delta machinery.
    std::set<std::string> doomed;
    for (const std::string& k : live) {
      if (rng() % 3 == 0) doomed.insert(k);
    }
    const std::vector<FactUpdate> adds = RandomFacts(&rng, 4);
    for (const std::string& k : doomed) live.erase(k);
    std::vector<FactUpdate> kept_adds;
    for (const FactUpdate& f : adds) {
      // An add resurrecting a fact doomed in the same batch would make
      // the final state order-dependent; keep churn unambiguous.
      if (doomed.count(KeyOf(f))) continue;
      live.insert(KeyOf(f));
      kept_adds.push_back(f);
    }
    ASSERT_TRUE(qws.Apply(kept_adds, FromKeys(doomed)).ok());

    check("post-churn");

    // Second churn round: everything out, a fresh small base in — the
    // emptied-relation edge of the estimate and memo paths.
    const std::vector<FactUpdate> all_out = FromKeys(live);
    std::vector<FactUpdate> fresh;
    for (const FactUpdate& f : RandomFacts(&rng, 5)) {
      if (live.count(KeyOf(f))) continue;
      fresh.push_back(f);
    }
    ASSERT_TRUE(qws.Apply(fresh, all_out).ok());
    live.clear();
    for (const FactUpdate& f : fresh) live.insert(KeyOf(f));

    check("post-empty-refill");
  }
}

}  // namespace
}  // namespace secureblox::engine
