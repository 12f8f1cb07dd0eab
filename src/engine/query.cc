#include "engine/query.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_set>

#include "engine/kernels.h"

namespace secureblox::engine {

using datalog::PredId;
using datalog::Value;
using datalog::ValueKind;

namespace {

// Deterministic answer order: position-wise value order (kind, then
// payload — Value::operator<), independent of storage layout and shard
// count.
void SortAnswers(std::vector<Tuple>* tuples) {
  std::sort(tuples->begin(), tuples->end(),
            [](const Tuple& a, const Tuple& b) {
              size_t n = std::min(a.size(), b.size());
              for (size_t i = 0; i < n; ++i) {
                if (a[i] < b[i]) return true;
                if (b[i] < a[i]) return false;
              }
              return a.size() < b.size();
            });
}

std::string MagicPredName(const datalog::PredicateDecl& decl, Adornment a) {
  // '$' cannot appear in parsed predicate names, so generated names never
  // collide with application predicates.
  return "magic$" + decl.name + "$" + AdornmentString(a, decl.arity());
}

}  // namespace

QueryEngine::QueryEngine(Workspace* ws) : ws_(ws) {
  if (const char* env = std::getenv("SB_QUERY_ANSWER_CAP")) {
    char* end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') answer_cap_ = static_cast<size_t>(v);
  }
}

void QueryEngine::set_answer_cap(size_t cap) {
  answer_cap_ = cap;
  TrimAnswers();
}

void QueryEngine::TrimAnswers() {
  while (answer_cap_ != 0 && answers_.size() > answer_cap_) {
    answers_.erase(lru_.back());
    lru_.pop_back();
    ++answer_evictions_;
  }
}

Result<QueryEngine::ResolvedGoal> QueryEngine::Resolve(
    const QueryGoal& goal) const {
  const datalog::Catalog& catalog = ws_->catalog();
  ResolvedGoal out;
  SB_ASSIGN_OR_RETURN(out.pred, catalog.Lookup(goal.pred));
  const datalog::PredicateDecl& decl = catalog.decl(out.pred);
  if (goal.args.size() != decl.arity()) {
    return Status::InvalidArgument(
        "goal arity mismatch for '" + decl.name + "': got " +
        std::to_string(goal.args.size()) + ", declared " +
        std::to_string(decl.arity()));
  }
  if (decl.arity() > 32) {
    return Status::InvalidArgument("goal arity exceeds adornment width");
  }
  for (size_t i = 0; i < goal.args.size(); ++i) {
    if (!goal.args[i].has_value()) continue;
    out.adornment |= 1u << i;
    const Value& v = *goal.args[i];
    PredId type = decl.arg_types[i];
    const datalog::PredicateDecl& t = catalog.decl(type);
    if (t.is_entity_type) {
      if (v.kind() == ValueKind::kString) {
        // A label never interned here names no entity: the goal has no
        // answers. (FindEntity, not InternEntity — a read-only query must
        // not grow the entity tables.)
        auto e = catalog.FindEntity(type, v.AsString());
        if (!e.ok()) {
          out.missing_entity = true;
          return out;
        }
        out.bound.push_back(e.value());
        continue;
      }
      if (v.is_entity() && catalog.IsSubtype(v.entity_type(), type)) {
        out.bound.push_back(v);
        continue;
      }
      return Status::TypeError("bound value " + catalog.ValueToString(v) +
                               " does not inhabit entity type '" + t.name +
                               "' (arg " + std::to_string(i) + " of " +
                               decl.name + ")");
    }
    if (t.is_primitive) {
      if (v.kind() != t.primitive_kind) {
        return Status::TypeError("bound value " + v.ToString() +
                                 " does not have type '" + t.name +
                                 "' (arg " + std::to_string(i) + " of " +
                                 decl.name + ")");
      }
      out.bound.push_back(v);
      continue;
    }
    return Status::TypeError("argument type of '" + decl.name +
                             "' is not a type predicate");
  }
  return out;
}

std::vector<Tuple> QueryEngine::Probe(const ResolvedGoal& goal) const {
  std::vector<Tuple> out;
  const Relation* rel = ws_->GetRelationIfExists(goal.pred);
  if (rel == nullptr) return out;
  // Bound columns in position order; goal.bound[k] belongs to cols[k].
  std::vector<size_t> cols;
  for (size_t i = 0; i < rel->decl().arity(); ++i) {
    if ((goal.adornment >> i) & 1) cols.push_back(i);
  }
  // Each bound value resolves to its column code once. A value never
  // stored in its column matches no row, so the scan is skipped.
  std::vector<CodeFilter> filters(cols.size());
  for (size_t k = 0; k < cols.size(); ++k) {
    auto code = rel->CodeOf(cols[k], goal.bound[k]);
    if (!code) return out;
    filters[k].code = *code;
  }
  std::vector<uint32_t> sel;
  for (size_t sh = 0; sh < rel->shard_count(); ++sh) {
    for (size_t k = 0; k < cols.size(); ++k) {
      filters[k].codes = rel->shard_codes(sh, cols[k]).data();
    }
    sel.clear();
    FilterFusedRange(DetectSimdMode(), filters.data(), filters.size(), 0,
                     static_cast<uint32_t>(rel->shard_size(sh)), &sel);
    for (uint32_t slot : sel) out.push_back(rel->MaterializeTuple(sh, slot));
  }
  SortAnswers(&out);
  return out;
}

std::optional<uint64_t> QueryEngine::EpochIfKnown(PredId pred) const {
  auto it = closure_memo_.find(pred);
  if (it == closure_memo_.end()) return std::nullopt;
  uint64_t epoch = 0;
  for (PredId p : it->second) {
    const Relation* rel = ws_->GetRelationIfExists(p);
    // Versions start at 1 and only grow; an uncreated relation counts 0,
    // so the sum is monotone and equality means "nothing changed".
    epoch += rel ? rel->version() : 0;
  }
  return epoch;
}

std::optional<std::vector<Tuple>> QueryEngine::TryWarm(
    const QueryGoal& goal) const {
  auto resolved = Resolve(goal);
  if (!resolved.ok()) return std::nullopt;  // cold path reports the error
  if (resolved->missing_entity) {
    warm_hits_.fetch_add(1, std::memory_order_relaxed);
    queries_.fetch_add(1, std::memory_order_relaxed);
    return std::vector<Tuple>{};
  }
  if (!ws_->defer_rules()) {
    // Materialized workspace: every answer is already derived, so the
    // filtered probe is itself a pure read.
    queries_.fetch_add(1, std::memory_order_relaxed);
    warm_hits_.fetch_add(1, std::memory_order_relaxed);
    return Probe(*resolved);
  }
  if (ws_->deferred_rules().size() != indexed_rules_) return std::nullopt;
  auto it = answers_.find(
      SubgoalKey{resolved->pred, resolved->adornment, resolved->bound});
  if (it == answers_.end()) return std::nullopt;
  auto epoch = EpochIfKnown(resolved->pred);
  if (!epoch.has_value() || *epoch != it->second.epoch) return std::nullopt;
  queries_.fetch_add(1, std::memory_order_relaxed);
  warm_hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second.tuples;
}

Result<std::vector<Tuple>> QueryEngine::Query(const QueryGoal& goal) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  SB_ASSIGN_OR_RETURN(ResolvedGoal resolved, Resolve(goal));
  if (resolved.missing_entity) return std::vector<Tuple>{};
  if (!ws_->defer_rules()) return Probe(resolved);

  SB_RETURN_IF_ERROR(RefreshIndex());
  if (index_->IsIdb(resolved.pred)) {
    SB_RETURN_IF_ERROR(EnsureSliceReady(resolved));
  }
  std::vector<Tuple> answers = Probe(resolved);
  if (index_->IsIdb(resolved.pred)) {
    if (!closure_memo_.count(resolved.pred)) {
      closure_memo_[resolved.pred] = index_->SliceClosure(resolved.pred);
    }
    reprobes_.fetch_add(1, std::memory_order_relaxed);
    SubgoalKey key{resolved.pred, resolved.adornment, resolved.bound};
    auto [it, inserted] = answers_.try_emplace(key);
    if (!inserted) lru_.erase(it->second.lru_it);
    lru_.push_front(key);
    it->second =
        AnswerSnapshot{answers, *EpochIfKnown(resolved.pred), lru_.begin()};
    TrimAnswers();
  }
  return answers;
}

Status QueryEngine::RefreshIndex() {
  if (index_.has_value() &&
      ws_->deferred_rules().size() == indexed_rules_) {
    return Status::OK();
  }
  SB_ASSIGN_OR_RETURN(
      DeferredRuleIndex index,
      DeferredRuleIndex::Build(ws_->deferred_rules(), ws_->catalog(),
                               ws_->builtins().Signatures()));
  bool first = !index_.has_value();
  size_t old_rules = indexed_rules_;
  // Predicates that just gained their first producer: installed slices
  // read them as plain EDB relations, so their demand chains carry no
  // magic rules for them — those slices must degrade to the unguarded
  // install below.
  std::set<PredId> newly_idb;
  if (!first) {
    const std::vector<datalog::Rule>& rules = ws_->deferred_rules();
    for (size_t r = old_rules; r < rules.size(); ++r) {
      for (const datalog::Atom& head : rules[r].heads) {
        auto hid = ws_->catalog().Lookup(head.pred.name);
        if (hid.ok() && !index_->IsIdb(hid.value())) {
          newly_idb.insert(hid.value());
        }
      }
    }
  }
  index_ = std::move(index);
  indexed_rules_ = ws_->deferred_rules().size();
  closure_memo_.clear();
  answers_.clear();
  lru_.clear();
  if (first) return Status::OK();

  // Install happened after queries ran: reconcile every live slice with
  // the appended rules (the high-water marks make this incremental) so
  // previously answered goals stay complete. The batch seed fires the new
  // rules over pre-existing data and magic facts.
  datalog::Program batch;
  std::vector<FactUpdate> seeds;
  batch_seed_pred_.clear();
  std::vector<PredId> full_snapshot(full_ready_.begin(), full_ready_.end());
  for (PredId p : full_snapshot) {
    SB_RETURN_IF_ERROR(CollectFullSlice(p, &batch, &seeds));
  }
  std::vector<std::pair<PredId, Adornment>> adorned_snapshot;
  for (const auto& [key, covered] : installed_adorned_) {
    adorned_snapshot.push_back(key);
  }
  for (const auto& [pred, a] : adorned_snapshot) {
    bool demote = false;
    if (!newly_idb.empty()) {
      for (PredId p : index_->SliceClosure(pred)) {
        if (newly_idb.count(p)) demote = true;
      }
    }
    if (demote) {
      // The slice's installed rules read a newly derived predicate without
      // demanding it; install the whole (deduplicated) closure unguarded.
      SB_RETURN_IF_ERROR(CollectFullSlice(pred, &batch, &seeds));
    } else {
      SB_RETURN_IF_ERROR(CollectAdorned(pred, a, &batch, &seeds));
    }
  }
  if (!batch.rules.empty()) {
    SB_RETURN_IF_ERROR(ws_->InstallSlice(batch));
    ++slices_installed_;
  }
  if (!seeds.empty()) {
    auto commit = ws_->Apply(seeds);
    if (!commit.ok()) return commit.status();
  }
  return Status::OK();
}

Status QueryEngine::EnsureSliceReady(const ResolvedGoal& goal) {
  datalog::Program batch;
  std::vector<FactUpdate> seeds;
  batch_seed_pred_.clear();

  bool magic = goal.adornment != 0 && !full_ready_.count(goal.pred) &&
               !index_->RequiresFull(goal.pred) &&
               !index_->SliceHasNegatedIdb(goal.pred);
  if (magic) {
    SB_RETURN_IF_ERROR(
        CollectAdorned(goal.pred, goal.adornment, &batch, &seeds));
  } else {
    SB_RETURN_IF_ERROR(CollectFullSlice(goal.pred, &batch, &seeds));
  }
  if (!batch.rules.empty()) {
    SB_RETURN_IF_ERROR(ws_->InstallSlice(batch));
    ++slices_installed_;
  }
  if (magic) {
    SubgoalKey key{goal.pred, goal.adornment, goal.bound};
    if (!seeded_.count(key)) {
      seeded_[key] = true;
      ++seeds_;
      const datalog::PredicateDecl& decl = ws_->catalog().decl(goal.pred);
      seeds.push_back({MagicPredName(decl, goal.adornment), goal.bound});
    }
  }
  if (!seeds.empty()) {
    auto commit = ws_->Apply(seeds);
    if (!commit.ok()) return commit.status();
  }
  return Status::OK();
}

Result<std::string> QueryEngine::EnsureMagicPred(PredId pred, Adornment a) {
  datalog::Catalog& catalog = ws_->catalog();
  const datalog::PredicateDecl& decl = catalog.decl(pred);
  std::string name = MagicPredName(decl, a);
  if (!catalog.IsDeclared(name)) ++magic_preds_;
  std::vector<PredId> arg_types;
  for (size_t i = 0; i < decl.arity(); ++i) {
    if ((a >> i) & 1) arg_types.push_back(decl.arg_types[i]);
  }
  auto id = catalog.DeclarePredicate(name, std::move(arg_types), false);
  if (!id.ok()) return id.status();
  return name;
}

Result<datalog::Atom> QueryEngine::BatchSeedGuard(
    std::vector<FactUpdate>* seeds) {
  datalog::Catalog& catalog = ws_->catalog();
  if (batch_seed_pred_.empty()) {
    batch_seed_pred_ = "magic$seed$" + std::to_string(batch_counter_++);
    auto id = catalog.DeclarePredicate(batch_seed_pred_,
                                       {catalog.string_type()}, false);
    if (!id.ok()) return id.status();
    seeds->push_back({batch_seed_pred_, {Value::Str("go")}});
  }
  datalog::Atom guard;
  guard.pred.name = batch_seed_pred_;
  guard.args.push_back(datalog::Term::Var(
      "SbSeed$" + std::to_string(guard_var_counter_++)));
  return guard;
}

Status QueryEngine::CollectFullSlice(PredId pred, datalog::Program* batch,
                                     std::vector<FactUpdate>* seeds) {
  if (full_ready_.insert(pred).second) ++full_slices_;
  const std::vector<datalog::Rule>& rules = ws_->deferred_rules();
  for (size_t ridx : index_->SliceRules(pred)) {
    if (!installed_full_.insert(ridx).second) continue;
    datalog::Rule guarded = rules[ridx];
    SB_ASSIGN_OR_RETURN(datalog::Atom guard, BatchSeedGuard(seeds));
    guarded.body.insert(guarded.body.begin(),
                        datalog::Literal::MakeAtom(std::move(guard)));
    batch->rules.push_back(std::move(guarded));
  }
  // Every IDB predicate in the closure now has all its producers
  // installed: the whole sub-slice is complete.
  for (PredId p : index_->SliceClosure(pred)) {
    if (index_->IsIdb(p)) full_ready_.insert(p);
  }
  return Status::OK();
}

Status QueryEngine::CollectAdorned(PredId root, Adornment root_a,
                                   datalog::Program* batch,
                                   std::vector<FactUpdate>* seeds) {
  datalog::Catalog& catalog = ws_->catalog();
  const std::vector<datalog::Rule>& rules = ws_->deferred_rules();
  const datalog::BuiltinSignatureMap sigs = ws_->builtins().Signatures();

  std::vector<std::pair<PredId, Adornment>> work{{root, root_a}};
  while (!work.empty()) {
    auto [q, qa] = work.back();
    work.pop_back();
    if (!index_->IsIdb(q)) continue;
    if (qa == 0 || full_ready_.count(q) || index_->RequiresFull(q) ||
        index_->SliceHasNegatedIdb(q)) {
      // All-free demand, unadornable closure, or negation in the slice:
      // fall back to the unguarded (but still sliced) installation.
      SB_RETURN_IF_ERROR(CollectFullSlice(q, batch, seeds));
      continue;
    }
    auto it = installed_adorned_.find({q, qa});
    size_t from = it == installed_adorned_.end() ? 0 : it->second;
    if (from >= rules.size()) continue;
    installed_adorned_[{q, qa}] = rules.size();
    SB_ASSIGN_OR_RETURN(std::string magic_name, EnsureMagicPred(q, qa));

    for (size_t ridx : index_->ProducersOf(q)) {
      if (ridx < from) continue;  // covered by an earlier install
      const datalog::Rule& rule = rules[ridx];
      const datalog::Atom& head = rule.heads[0];

      // The guard: the demanded patterns for this head's bound positions.
      datalog::Atom guard;
      guard.pred.name = magic_name;
      for (size_t i = 0; i < head.args.size(); ++i) {
        if ((qa >> i) & 1) guard.args.push_back(head.args[i]);
      }

      // Answer rule: head <- batch_seed, magic guard, original body. The
      // batch seed makes a freshly installed copy evaluate over
      // pre-existing data (including magic facts seeded before this
      // install); afterwards it is a one-tuple join the planner folds
      // away.
      datalog::Rule answer;
      answer.heads = {head};
      SB_ASSIGN_OR_RETURN(datalog::Atom bseed, BatchSeedGuard(seeds));
      answer.body.push_back(datalog::Literal::MakeAtom(std::move(bseed)));
      answer.body.push_back(datalog::Literal::MakeAtom(guard));
      for (const datalog::Literal& lit : rule.body) {
        answer.body.push_back(lit);
      }
      batch->rules.push_back(std::move(answer));

      // Left-to-right sideways information passing: walk the body tracking
      // bound variables, emitting a magic rule + demand per IDB subgoal.
      //
      // Magic-rule bodies carry only the *bindable prefix*: literals whose
      // variables are available left-to-right (the checker binds from the
      // whole body, so a truncated body may not contain a comparison,
      // negation, or builtin whose variables were bound further right).
      // Dropping such literals over-approximates demand, which is sound —
      // the answer rules still carry the full original body.
      std::unordered_set<std::string> bound;
      for (size_t i = 0; i < head.args.size(); ++i) {
        if (((qa >> i) & 1) &&
            head.args[i]->kind == datalog::TermKind::kVar) {
          bound.insert(head.args[i]->name);
        }
      }
      auto all_bound = [&bound](const datalog::TermPtr& t) {
        std::vector<datalog::TermPtr> stack{t};
        while (!stack.empty()) {
          datalog::TermPtr cur = stack.back();
          stack.pop_back();
          if (cur == nullptr) continue;
          if (cur->kind == datalog::TermKind::kVar &&
              !bound.count(cur->name)) {
            return false;
          }
          if (cur->kind == datalog::TermKind::kArith) {
            stack.push_back(cur->lhs);
            stack.push_back(cur->rhs);
          }
        }
        return true;
      };
      std::vector<datalog::Literal> prefix;
      for (const datalog::Literal& lit : rule.body) {
        if (lit.kind == datalog::Literal::Kind::kCompare) {
          // `V = <expr>` with the other side bound is an assignment.
          if (lit.cmp.op == datalog::CmpOp::kEq) {
            if (lit.cmp.lhs->kind == datalog::TermKind::kVar &&
                !bound.count(lit.cmp.lhs->name) && all_bound(lit.cmp.rhs)) {
              bound.insert(lit.cmp.lhs->name);
              prefix.push_back(lit);
              continue;
            }
            if (lit.cmp.rhs->kind == datalog::TermKind::kVar &&
                !bound.count(lit.cmp.rhs->name) && all_bound(lit.cmp.lhs)) {
              bound.insert(lit.cmp.rhs->name);
              prefix.push_back(lit);
              continue;
            }
          }
          // Fully bound comparisons filter demand; others are dropped.
          if (all_bound(lit.cmp.lhs) && all_bound(lit.cmp.rhs)) {
            prefix.push_back(lit);
          }
          continue;
        }
        const datalog::Atom& atom = lit.atom;
        if (atom.negated) {
          // Keep the probe only when every (non-anonymous) variable is
          // already bound; it binds nothing either way.
          bool ok = true;
          for (const datalog::TermPtr& t : atom.args) {
            if (t->kind == datalog::TermKind::kVar && !bound.count(t->name) &&
                t->name.rfind("_anon", 0) != 0) {
              ok = false;
            }
          }
          if (ok) prefix.push_back(lit);
          continue;
        }
        auto sig = sigs.find(atom.pred.name);
        if (sig != sigs.end()) {
          bool inputs_ok = true;
          for (int i = 0; i < sig->second.num_inputs &&
                          i < static_cast<int>(atom.args.size());
               ++i) {
            if (atom.args[i]->kind == datalog::TermKind::kVar &&
                !bound.count(atom.args[i]->name)) {
              inputs_ok = false;
            }
          }
          if (!inputs_ok) continue;  // outputs stay free downstream
          for (size_t i = sig->second.num_inputs; i < atom.args.size();
               ++i) {
            if (atom.args[i]->kind == datalog::TermKind::kVar) {
              bound.insert(atom.args[i]->name);
            }
          }
          prefix.push_back(lit);
          continue;
        }
        SB_ASSIGN_OR_RETURN(PredId pid, catalog.Lookup(atom.pred.name));
        if (index_->IsIdb(pid)) {
          Adornment sub_a = 0;
          for (size_t i = 0; i < atom.args.size() && i < 32; ++i) {
            const datalog::TermPtr& t = atom.args[i];
            if (t->kind == datalog::TermKind::kConst ||
                (t->kind == datalog::TermKind::kVar &&
                 bound.count(t->name))) {
              sub_a |= 1u << i;
            }
          }
          bool sub_magic = sub_a != 0 && !full_ready_.count(pid) &&
                           !index_->RequiresFull(pid) &&
                           !index_->SliceHasNegatedIdb(pid);
          if (sub_magic) {
            SB_ASSIGN_OR_RETURN(std::string sub_name,
                                EnsureMagicPred(pid, sub_a));
            // magic$sub$a(bound args) <- batch_seed, magic$q$qa(...),
            //                            bindable body prefix.
            datalog::Rule mrule;
            datalog::Atom mhead;
            mhead.pred.name = sub_name;
            for (size_t i = 0; i < atom.args.size(); ++i) {
              if ((sub_a >> i) & 1) mhead.args.push_back(atom.args[i]);
            }
            mrule.heads = {std::move(mhead)};
            SB_ASSIGN_OR_RETURN(datalog::Atom mseed, BatchSeedGuard(seeds));
            mrule.body.push_back(datalog::Literal::MakeAtom(std::move(mseed)));
            mrule.body.push_back(datalog::Literal::MakeAtom(guard));
            for (const datalog::Literal& p : prefix) mrule.body.push_back(p);
            batch->rules.push_back(std::move(mrule));
            work.push_back({pid, sub_a});
          } else {
            work.push_back({pid, 0});  // degrades to the full sub-slice
          }
        }
        for (const datalog::TermPtr& t : atom.args) {
          if (t->kind == datalog::TermKind::kVar) bound.insert(t->name);
        }
        prefix.push_back(lit);
      }
    }
  }
  return Status::OK();
}

QueryEngine::Stats QueryEngine::stats() const {
  Stats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.warm_hits = warm_hits_.load(std::memory_order_relaxed);
  s.reprobes = reprobes_.load(std::memory_order_relaxed);
  s.slices_installed = slices_installed_;
  s.magic_preds = magic_preds_;
  s.seeds = seeds_;
  s.full_slices = full_slices_;
  s.answer_evictions = answer_evictions_;
  return s;
}

}  // namespace secureblox::engine
