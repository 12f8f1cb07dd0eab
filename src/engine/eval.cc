#include "engine/eval.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <deque>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "engine/kernels.h"

namespace secureblox::engine {

using datalog::Atom;
using datalog::Catalog;
using datalog::CmpOp;
using datalog::Literal;
using datalog::PredicateDecl;
using datalog::PredId;
using datalog::Rule;
using datalog::Term;
using datalog::TermKind;
using datalog::TermPtr;
using datalog::Value;
using datalog::ValueKind;

namespace {

bool IsAnonymous(const std::string& name) {
  return name.rfind("_anon", 0) == 0;
}

void CollectTermVars(const TermPtr& t, std::vector<std::string>* out) {
  if (t == nullptr) return;
  if (t->kind == TermKind::kVar) out->push_back(t->name);
  if (t->kind == TermKind::kArith) {
    CollectTermVars(t->lhs, out);
    CollectTermVars(t->rhs, out);
  }
}

// Slot assignment for all variables in a rule/constraint.
class SlotMap {
 public:
  int SlotOf(const std::string& name) {
    auto it = map_.find(name);
    if (it != map_.end()) return it->second;
    int slot = static_cast<int>(names_.size());
    map_[name] = slot;
    names_.push_back(name);
    return slot;
  }
  int Find(const std::string& name) const {
    auto it = map_.find(name);
    return it == map_.end() ? -1 : it->second;
  }
  size_t size() const { return names_.size(); }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::unordered_map<std::string, int> map_;
  std::vector<std::string> names_;
};

std::shared_ptr<CExpr> CompileExpr(const TermPtr& t, SlotMap* slots) {
  auto e = std::make_shared<CExpr>();
  switch (t->kind) {
    case TermKind::kVar:
      e->kind = CExpr::Kind::kSlot;
      e->slot = slots->SlotOf(t->name);
      break;
    case TermKind::kConst:
      e->kind = CExpr::Kind::kConst;
      e->constant = t->constant;
      break;
    case TermKind::kArith:
      e->kind = CExpr::Kind::kArith;
      e->op = t->op;
      e->lhs = CompileExpr(t->lhs, slots);
      e->rhs = CompileExpr(t->rhs, slots);
      break;
    default:
      // Quoted predicates / varargs never reach the evaluator.
      e->kind = CExpr::Kind::kConst;
      break;
  }
  return e;
}

bool ExprBound(const CExpr& e, const std::vector<bool>& bound) {
  switch (e.kind) {
    case CExpr::Kind::kConst:
      return true;
    case CExpr::Kind::kSlot:
      return bound[e.slot];
    case CExpr::Kind::kArith:
      return ExprBound(*e.lhs, bound) && ExprBound(*e.rhs, bound);
  }
  return false;
}

// Planner for one body (rule body, constraint lhs, or constraint rhs).
class BodyPlanner {
 public:
  BodyPlanner(const Catalog& catalog, const BuiltinRegistry& builtins,
              SlotMap* slots, std::vector<bool>* bound)
      : catalog_(catalog), builtins_(builtins), slots_(*slots),
        bound_(*bound) {}

  Result<std::vector<Step>> Plan(const std::vector<Literal>& body,
                                 int* scan_occurrences,
                                 std::vector<PredId>* scan_preds) {
    std::vector<Step> steps;
    std::vector<bool> used(body.size(), false);
    size_t remaining = body.size();

    // Pre-register all variable slots so the environment is sized once.
    for (const Literal& lit : body) {
      std::vector<std::string> vars;
      if (lit.kind == Literal::Kind::kAtom) {
        for (const auto& a : lit.atom.args) CollectTermVars(a, &vars);
      } else {
        CollectTermVars(lit.cmp.lhs, &vars);
        CollectTermVars(lit.cmp.rhs, &vars);
      }
      for (const auto& v : vars) slots_.SlotOf(v);
    }
    if (bound_.size() < slots_.size()) bound_.resize(slots_.size(), false);

    while (remaining > 0) {
      int pick = PickNext(body, used);
      if (pick < 0) {
        return Status::Internal(
            "cannot order body literals (unsafe rule slipped past the type "
            "checker)");
      }
      used[pick] = true;
      --remaining;
      SB_ASSIGN_OR_RETURN(Step step,
                          CompileLiteral(body[pick], scan_occurrences,
                                         scan_preds));
      steps.push_back(std::move(step));
      if (bound_.size() < slots_.size()) bound_.resize(slots_.size(), false);
    }
    return steps;
  }

 private:
  bool TermsBound(const TermPtr& t) const {
    std::vector<std::string> vars;
    CollectTermVars(t, &vars);
    for (const auto& v : vars) {
      int s = slots_.Find(v);
      if (s < 0 || static_cast<size_t>(s) >= bound_.size() || !bound_[s]) {
        return false;
      }
    }
    return true;
  }

  bool IsBoundVar(const std::string& name) const {
    int s = slots_.Find(name);
    return s >= 0 && static_cast<size_t>(s) < bound_.size() && bound_[s];
  }

  bool IsBuiltin(const Atom& a) const {
    return builtins_.Find(a.pred.name) != nullptr;
  }

  bool IsPrimitiveType(const Atom& a) const {
    auto id = catalog_.Lookup(a.pred.name);
    return id.ok() && catalog_.decl(id.value()).is_primitive;
  }

  // Priority: compare > assign > typecheck > lookup > negcheck > builtin >
  // scan (max bound args).
  int PickNext(const std::vector<Literal>& body,
               const std::vector<bool>& used) const {
    int best_scan = -1;
    int best_scan_bound = -1;
    int builtin_ready = -1;
    int neg_ready = -1;
    int lookup_ready = -1;
    int typecheck_ready = -1;

    for (size_t i = 0; i < body.size(); ++i) {
      if (used[i]) continue;
      const Literal& lit = body[i];
      if (lit.kind == Literal::Kind::kCompare) {
        const auto& c = lit.cmp;
        bool lb = TermsBound(c.lhs);
        bool rb = TermsBound(c.rhs);
        if (lb && rb) return static_cast<int>(i);  // pure filter
        if (c.op == CmpOp::kEq &&
            ((lb && c.rhs->kind == TermKind::kVar) ||
             (rb && c.lhs->kind == TermKind::kVar))) {
          return static_cast<int>(i);  // assignment
        }
        continue;
      }
      const Atom& a = lit.atom;
      if (IsBuiltin(a)) {
        const BuiltinImpl* impl = builtins_.Find(a.pred.name);
        bool inputs_ready = true;
        for (int j = 0; j < impl->sig.num_inputs &&
                        j < static_cast<int>(a.args.size());
             ++j) {
          if (a.args[j]->kind == TermKind::kVar &&
              !IsBoundVar(a.args[j]->name)) {
            inputs_ready = false;
          }
        }
        if (inputs_ready && builtin_ready < 0) {
          builtin_ready = static_cast<int>(i);
        }
        continue;
      }
      if (IsPrimitiveType(a)) {
        if (a.args[0]->kind != TermKind::kVar || IsBoundVar(a.args[0]->name)) {
          if (typecheck_ready < 0) typecheck_ready = static_cast<int>(i);
        }
        continue;
      }
      // Relation atom.
      int bound_args = 0;
      bool all_nonanon_bound = true;
      bool keys_bound = true;
      for (size_t j = 0; j < a.args.size(); ++j) {
        const TermPtr& arg = a.args[j];
        bool b = arg->kind == TermKind::kConst ||
                 (arg->kind == TermKind::kVar && IsBoundVar(arg->name));
        if (b) ++bound_args;
        if (!b && arg->kind == TermKind::kVar && !IsAnonymous(arg->name)) {
          all_nonanon_bound = false;
        }
        if (!b && a.functional && j + 1 < a.args.size()) keys_bound = false;
      }
      if (a.negated) {
        if (all_nonanon_bound && neg_ready < 0) neg_ready = static_cast<int>(i);
        continue;
      }
      if (a.functional && keys_bound && lookup_ready < 0) {
        lookup_ready = static_cast<int>(i);
      }
      if (bound_args > best_scan_bound) {
        best_scan_bound = bound_args;
        best_scan = static_cast<int>(i);
      }
    }
    if (typecheck_ready >= 0) return typecheck_ready;
    if (lookup_ready >= 0) return lookup_ready;
    if (neg_ready >= 0) return neg_ready;
    if (builtin_ready >= 0) return builtin_ready;
    return best_scan;
  }

  /// `col`/`atom_cols`, when given, track which column of the atom being
  /// compiled first bound each slot: a later occurrence of the same
  /// variable in the SAME atom compiles to kSame (compare the candidate
  /// row against its own earlier column) instead of kBound — the slot is
  /// only bound once the row is accepted, so a kBound read of env[slot]
  /// here would dereference an unengaged optional.
  Result<ArgPat> PatFor(const TermPtr& arg, bool binds, bool wild_anon,
                        int col = -1,
                        std::vector<std::pair<int, int>>* atom_cols = nullptr) {
    ArgPat pat;
    if (arg->kind == TermKind::kConst) {
      pat.kind = ArgPat::Kind::kConst;
      pat.constant = std::make_shared<const Value>(arg->constant);
      return pat;
    }
    if (arg->kind != TermKind::kVar) {
      return Status::Internal("non-variable term in compiled atom: " +
                              arg->ToString());
    }
    int slot = slots_.SlotOf(arg->name);
    if (static_cast<size_t>(slot) >= bound_.size()) {
      bound_.resize(slot + 1, false);
    }
    pat.slot = slot;
    if (atom_cols != nullptr) {
      for (const auto& [s, c] : *atom_cols) {
        if (s == slot) {
          pat.kind = ArgPat::Kind::kSame;
          pat.same_col = c;
          return pat;
        }
      }
    }
    if (bound_[slot]) {
      pat.kind = ArgPat::Kind::kBound;
    } else if (wild_anon && IsAnonymous(arg->name)) {
      pat.kind = ArgPat::Kind::kWild;
    } else if (binds) {
      pat.kind = ArgPat::Kind::kBind;
      bound_[slot] = true;
      if (atom_cols != nullptr && col >= 0) {
        atom_cols->push_back({slot, col});
      }
    } else {
      return Status::Internal("unbound variable '" + arg->name +
                              "' in non-binding position");
    }
    return pat;
  }

  Result<Step> CompileLiteral(const Literal& lit, int* scan_occurrences,
                              std::vector<PredId>* scan_preds) {
    Step step;
    if (lit.kind == Literal::Kind::kCompare) {
      const auto& c = lit.cmp;
      bool lb = TermsBound(c.lhs);
      bool rb = TermsBound(c.rhs);
      if (lb && rb) {
        step.kind = Step::Kind::kCompare;
        step.cmp_op = c.op;
        step.lhs = CompileExpr(c.lhs, &slots_);
        step.rhs = CompileExpr(c.rhs, &slots_);
        return step;
      }
      // Assignment.
      step.kind = Step::Kind::kAssign;
      const TermPtr& var = lb ? c.rhs : c.lhs;
      const TermPtr& expr = lb ? c.lhs : c.rhs;
      step.assign_slot = slots_.SlotOf(var->name);
      if (static_cast<size_t>(step.assign_slot) >= bound_.size()) {
        bound_.resize(step.assign_slot + 1, false);
      }
      bound_[step.assign_slot] = true;
      step.rhs = CompileExpr(expr, &slots_);
      return step;
    }

    const Atom& a = lit.atom;
    if (const BuiltinImpl* impl = builtins_.Find(a.pred.name)) {
      step.kind = Step::Kind::kBuiltin;
      step.builtin = impl;
      for (size_t j = 0; j < a.args.size(); ++j) {
        bool is_output = static_cast<int>(j) >= impl->sig.num_inputs;
        SB_ASSIGN_OR_RETURN(ArgPat pat, PatFor(a.args[j], is_output, false));
        step.args.push_back(std::move(pat));
      }
      return step;
    }

    SB_ASSIGN_OR_RETURN(PredId pred, catalog_.Lookup(a.pred.name));
    const PredicateDecl& decl = catalog_.decl(pred);
    step.pred = pred;

    if (decl.is_primitive) {
      step.kind = Step::Kind::kTypeCheck;
      step.check_kind = decl.primitive_kind;
      SB_ASSIGN_OR_RETURN(ArgPat pat, PatFor(a.args[0], false, false));
      step.args.push_back(std::move(pat));
      return step;
    }

    if (a.negated) {
      step.kind = Step::Kind::kNegCheck;
      for (const auto& arg : a.args) {
        SB_ASSIGN_OR_RETURN(ArgPat pat, PatFor(arg, false, true));
        step.args.push_back(std::move(pat));
      }
      return step;
    }

    // Functional lookup when all keys bound?
    bool keys_bound = decl.functional;
    if (decl.functional) {
      for (size_t j = 0; j + 1 < a.args.size(); ++j) {
        const TermPtr& arg = a.args[j];
        if (arg->kind == TermKind::kVar && !IsBoundVar(arg->name)) {
          keys_bound = false;
        }
      }
    }
    if (keys_bound) {
      step.kind = Step::Kind::kLookup;
      // Lookups still get a delta occurrence so semi-naïve re-runs the rule
      // when the looked-up relation (e.g. a singleton) changes.
      step.occurrence = (*scan_occurrences)++;
      scan_preds->push_back(pred);
      for (size_t j = 0; j < a.args.size(); ++j) {
        SB_ASSIGN_OR_RETURN(ArgPat pat,
                            PatFor(a.args[j], j + 1 == a.args.size(), false));
        step.args.push_back(std::move(pat));
      }
      return step;
    }

    step.kind = Step::Kind::kScan;
    step.occurrence = (*scan_occurrences)++;
    scan_preds->push_back(pred);
    std::vector<std::pair<int, int>> atom_cols;
    for (size_t j = 0; j < a.args.size(); ++j) {
      SB_ASSIGN_OR_RETURN(ArgPat pat,
                          PatFor(a.args[j], true, false,
                                 static_cast<int>(j), &atom_cols));
      step.args.push_back(std::move(pat));
    }
    return step;
  }

  const Catalog& catalog_;
  const BuiltinRegistry& builtins_;
  SlotMap& slots_;
  std::vector<bool>& bound_;
};

/// Fill CompiledRule::neg_preds and flip_steps from the compiled body. The
/// flipped atom's scan sits where its negation did, so every argument is
/// already bound there and the scan filters the flipped tuples; the
/// planner hoists it to the front (ExecPlanner::PlanForFlip).
void BuildFlipSteps(const Catalog& catalog, CompiledRule* rule) {
  if (std::none_of(rule->steps.begin(), rule->steps.end(), [](const Step& s) {
        return s.kind == Step::Kind::kNegCheck;
      })) {
    return;
  }
  const int n = rule->num_scan_occurrences;
  std::vector<Step> base = rule->steps;
  for (Step& s : base) {
    if (s.kind != Step::Kind::kNegCheck) continue;
    s.occurrence = n + static_cast<int>(rule->neg_preds.size());
    rule->neg_preds.push_back(s.pred);
  }
  for (size_t i = 0; i < base.size(); ++i) {
    if (base[i].kind != Step::Kind::kNegCheck) continue;
    std::vector<Step> steps = base;
    Step scan = base[i];
    scan.kind = Step::Kind::kScan;
    scan.occurrence = rule->flip_occurrence();
    steps.insert(steps.begin() + static_cast<std::ptrdiff_t>(i),
                 std::move(scan));
    ComputeProbeInfo(catalog, &steps);
    rule->flip_steps.push_back(std::move(steps));
  }
}

}  // namespace

std::vector<Step> HeadBoundSteps(const Catalog& catalog,
                                 const CompiledRule& rule, size_t head) {
  std::vector<Step> steps = rule.steps;
  Step scan;
  scan.kind = Step::Kind::kScan;
  scan.pred = rule.heads[head].pred;
  scan.args = rule.heads[head].args;
  scan.occurrence = rule.head_occurrence();
  steps.push_back(std::move(scan));
  ComputeProbeInfo(catalog, &steps);
  return steps;
}

void ComputeProbeInfo(const Catalog& catalog, std::vector<Step>* steps) {
  for (Step& s : *steps) {
    s.probe_mask = 0;
    s.probe = Step::Probe::kScanAll;
    if (s.kind != Step::Kind::kScan && s.kind != Step::Kind::kNegCheck) {
      continue;
    }
    for (size_t i = 0; i < s.args.size() && i < 32; ++i) {
      if (s.args[i].kind == ArgPat::Kind::kConst ||
          s.args[i].kind == ArgPat::Kind::kBound) {
        s.probe_mask |= 1u << i;
      }
    }
    if (s.probe_mask == 0) continue;
    const uint32_t skm = ShardKeyMask(catalog.decl(s.pred));
    s.probe = (s.probe_mask & skm) == skm ? Step::Probe::kShardProbe
                                          : Step::Probe::kFanout;
  }
}

// --- RuleCompiler ----------------------------------------------------------

Result<CompiledRule> RuleCompiler::CompileRule(const Rule& rule,
                                               int id) const {
  CompiledRule out;
  out.source = rule;
  out.id = id;

  SlotMap slots;
  std::vector<bool> bound;
  BodyPlanner planner(catalog_, builtins_, &slots, &bound);
  SB_ASSIGN_OR_RETURN(out.steps,
                      planner.Plan(rule.body, &out.num_scan_occurrences,
                                   &out.scan_preds));
  if (out.num_scan_occurrences == 0) {
    return Status::CompileError("rule body must reference at least one "
                                "predicate: " + rule.ToString());
  }
  for (const Step& s : out.steps) {
    if (s.kind == Step::Kind::kBuiltin && !s.builtin->thread_safe) {
      out.parallel_safe = false;
    }
  }
  ComputeProbeInfo(catalog_, &out.steps);
  BuildFlipSteps(catalog_, &out);

  if (rule.agg.has_value()) {
    if (rule.heads.size() != 1 || !rule.heads[0].functional) {
      return Status::CompileError(
          "aggregate rules must have a single functional head: " +
          rule.ToString());
    }
    CompiledAgg agg;
    agg.func = rule.agg->func;
    if (rule.agg->func == datalog::AggFunc::kCount) {
      agg.input_slot = -1;
    } else {
      agg.input_slot = slots.Find(rule.agg->input_var);
      if (agg.input_slot < 0) {
        return Status::CompileError("aggregate input variable '" +
                                    rule.agg->input_var + "' not in body");
      }
    }
    const Atom& head = rule.heads[0];
    SB_ASSIGN_OR_RETURN(agg.head_pred, catalog_.Lookup(head.pred.name));
    // Value position must be exactly the result variable.
    const TermPtr& value_arg = head.args.back();
    if (value_arg->kind != TermKind::kVar ||
        value_arg->name != rule.agg->result_var) {
      return Status::CompileError(
          "aggregate head value must be the aggregate result variable");
    }
    for (size_t j = 0; j + 1 < head.args.size(); ++j) {
      const TermPtr& arg = head.args[j];
      ArgPat pat;
      if (arg->kind == TermKind::kConst) {
        pat.kind = ArgPat::Kind::kConst;
        pat.constant = std::make_shared<const Value>(arg->constant);
      } else if (arg->kind == TermKind::kVar) {
        int slot = slots.Find(arg->name);
        if (slot < 0 || !bound[slot]) {
          return Status::CompileError("aggregate key variable '" + arg->name +
                                      "' is not bound by the body");
        }
        pat.kind = ArgPat::Kind::kBound;
        pat.slot = slot;
      } else {
        return Status::CompileError("bad aggregate key term");
      }
      agg.key_args.push_back(std::move(pat));
    }
    out.agg = std::move(agg);
    out.num_slots = slots.size();
    out.slot_names = slots.names();
    return out;
  }

  // Normal heads (with possible existentials).
  std::set<int> memo_slots;
  std::unordered_map<int, PredId> existential_types;
  for (const Atom& head : rule.heads) {
    CompiledHead ch;
    SB_ASSIGN_OR_RETURN(ch.pred, catalog_.Lookup(head.pred.name));
    const PredicateDecl& decl = catalog_.decl(ch.pred);
    for (size_t j = 0; j < head.args.size(); ++j) {
      const TermPtr& arg = head.args[j];
      ArgPat pat;
      if (arg->kind == TermKind::kConst) {
        pat.kind = ArgPat::Kind::kConst;
        pat.constant = std::make_shared<const Value>(arg->constant);
      } else if (arg->kind == TermKind::kVar) {
        int slot = slots.SlotOf(arg->name);
        pat.slot = slot;
        if (static_cast<size_t>(slot) < bound.size() && bound[slot]) {
          pat.kind = ArgPat::Kind::kBound;
          memo_slots.insert(slot);
        } else {
          // Head existential: entity creation (typecheck verified type).
          pat.kind = ArgPat::Kind::kBind;
          if (!existential_types.count(slot)) {
            existential_types[slot] = decl.arg_types[j];
          }
        }
      } else {
        return Status::CompileError("bad head term " + arg->ToString());
      }
      ch.args.push_back(std::move(pat));
    }
    out.heads.push_back(std::move(ch));
  }
  for (const auto& [slot, type] : existential_types) {
    out.existential_slots.push_back(slot);
    out.existential_types.push_back(type);
  }
  // Head existentials create entities (catalog + memo mutation) during
  // enumeration, so such rules enumerate inline on the coordinating
  // thread, after the pool drains, against the round's snapshot.
  if (!out.existential_slots.empty()) out.parallel_safe = false;
  out.memo_key_slots.assign(memo_slots.begin(), memo_slots.end());
  out.num_slots = slots.size();
  out.slot_names = slots.names();
  return out;
}

Result<CompiledConstraint> RuleCompiler::CompileConstraint(
    const datalog::ConstraintDecl& c, int id) const {
  CompiledConstraint out;
  out.source = c;
  out.id = id;

  SlotMap slots;
  std::vector<bool> bound;
  BodyPlanner lhs_planner(catalog_, builtins_, &slots, &bound);
  SB_ASSIGN_OR_RETURN(out.lhs_steps,
                      lhs_planner.Plan(c.lhs, &out.num_scan_occurrences,
                                       &out.scan_preds));
  // rhs: existence check with lhs bindings in scope. Extra rhs scans are
  // not delta candidates (occurrence counter is separate and unused).
  int rhs_occurrences = 0;
  std::vector<PredId> rhs_scan_preds;
  BodyPlanner rhs_planner(catalog_, builtins_, &slots, &bound);
  SB_ASSIGN_OR_RETURN(out.rhs_steps,
                      rhs_planner.Plan(c.rhs, &rhs_occurrences,
                                       &rhs_scan_preds));
  ComputeProbeInfo(catalog_, &out.lhs_steps);
  ComputeProbeInfo(catalog_, &out.rhs_steps);
  out.num_slots = slots.size();
  out.slot_names = slots.names();
  return out;
}

// --- Executor ----------------------------------------------------------------

Result<Value> Executor::Eval(const CExpr& e, const Env& env) {
  switch (e.kind) {
    case CExpr::Kind::kConst:
      return e.constant;
    case CExpr::Kind::kSlot:
      if (!env[e.slot].has_value()) {
        return Status::Internal("evaluating unbound slot");
      }
      return *env[e.slot];
    case CExpr::Kind::kArith: {
      SB_ASSIGN_OR_RETURN(Value l, Eval(*e.lhs, env));
      SB_ASSIGN_OR_RETURN(Value r, Eval(*e.rhs, env));
      if (l.kind() != ValueKind::kInt || r.kind() != ValueKind::kInt) {
        return Status::TypeError("arithmetic on non-integer values");
      }
      switch (e.op) {
        case '+':
          return Value::Int(l.AsInt() + r.AsInt());
        case '-':
          return Value::Int(l.AsInt() - r.AsInt());
        case '*':
          return Value::Int(l.AsInt() * r.AsInt());
        case '/':
          if (r.AsInt() == 0) return Status::InvalidArgument("division by zero");
          return Value::Int(l.AsInt() / r.AsInt());
      }
      return Status::Internal("bad arithmetic operator");
    }
  }
  return Status::Internal("bad expression kind");
}

Result<bool> Executor::Compare(const Value& a, CmpOp op, const Value& b) {
  // Entity-vs-string comparisons go through the entity's label (refmode).
  if (a.is_entity() && b.kind() == ValueKind::kString) {
    SB_ASSIGN_OR_RETURN(std::string label, ctx_.catalog->EntityLabel(a));
    return Compare(Value::Str(label), op, b);
  }
  if (b.is_entity() && a.kind() == ValueKind::kString) {
    SB_ASSIGN_OR_RETURN(std::string label, ctx_.catalog->EntityLabel(b));
    return Compare(a, op, Value::Str(label));
  }
  if (a.kind() != b.kind()) {
    switch (op) {
      case CmpOp::kEq:
        return false;
      case CmpOp::kNe:
        return true;
      default:
        return Status::TypeError("ordered comparison between incompatible "
                                 "kinds");
    }
  }
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return a != b;
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return !(b < a);
    case CmpOp::kGt:
      return b < a;
    case CmpOp::kGe:
      return !(a < b);
  }
  return Status::Internal("bad comparison operator");
}

namespace {

// Does `tuple` match the bound/const positions of `pats`?
bool TupleMatches(const std::vector<ArgPat>& pats, const Tuple& tuple,
                  const Env& env) {
  for (size_t i = 0; i < pats.size(); ++i) {
    const ArgPat& p = pats[i];
    if (p.kind == ArgPat::Kind::kConst && !(tuple[i] == *p.constant)) {
      return false;
    }
    if (p.kind == ArgPat::Kind::kBound && !(tuple[i] == *env[p.slot])) {
      return false;
    }
    if (p.kind == ArgPat::Kind::kSame &&
        !(tuple[i] == tuple[p.same_col])) {
      return false;
    }
  }
  return true;
}

// The probe key of a kScan/kNegCheck step: the values of its const/bound
// columns, in column order (the set bits of probe_mask).
void ProbeKey(const Step& step, const Env& env, Tuple* key) {
  key->clear();
  for (uint32_t m = step.probe_mask; m != 0; m &= m - 1) {
    const ArgPat& p = step.args[std::countr_zero(m)];
    key->push_back(p.kind == ArgPat::Kind::kConst ? *p.constant
                                                  : *env[p.slot]);
  }
}

// Per-occurrence view for this step, or nullptr for a plain relation read.
const OccView* ViewFor(const std::vector<OccView>* views, const Step& step) {
  if (views == nullptr || step.occurrence < 0 ||
      static_cast<size_t>(step.occurrence) >= views->size()) {
    return nullptr;
  }
  const OccView& v = (*views)[step.occurrence];
  return v.active() ? &v : nullptr;
}

// Visit, in order, the delta slice a view's `only` selects.
template <typename Fn>
Status ForEachOnly(const OccView& view, Fn&& fn) {
  const std::vector<Tuple>& only = *view.only;
  const std::vector<uint32_t>* oi = view.only_index;
  const size_t end =
      std::min(view.only_end, oi != nullptr ? oi->size() : only.size());
  for (size_t k = view.only_begin; k < end; ++k) {
    SB_RETURN_IF_ERROR(fn(oi != nullptr ? only[(*oi)[k]] : only[k]));
  }
  return Status::OK();
}

}  // namespace

/// Reusable per-depth scratch for one body step: probe-key materialization,
/// slots bound at this depth, and builtin argument staging. Frames live in a
/// thread-local pool indexed by absolute depth (`Executor::frame_base_` +
/// step index); containers keep their capacity across calls, so steady-state
/// enumeration allocates nothing here.
struct EvalFrame {
  Tuple key;
  std::vector<int> bound_here;
  std::vector<datalog::Value> inputs;
  std::vector<datalog::Value> outputs;
  /// Scans: (column, expected code) per const/bound argument, resolved
  /// through the dictionaries once per step invocation.
  std::vector<std::pair<int, uint32_t>> col_filters;
  /// Row materialization scratch for functional lookups (LookupByKeys).
  Tuple row;
  /// Batch scan path: the per-shard filter descriptors handed to the
  /// fused kernels, and the selection vector of surviving slots they emit.
  std::vector<CodeFilter> kernel_filters;
  std::vector<uint32_t> sel;
  /// Exclude set encoded to dictionary codes once per invocation
  /// (arity-stride chunks in exclude_flat, chunk indices sorted
  /// lexicographically in exclude_order) plus the candidate-row code
  /// scratch the membership probe compares against.
  std::vector<uint32_t> exclude_flat;
  std::vector<uint32_t> exclude_order;
  std::vector<uint32_t> row_codes;
};

namespace {

/// Initial selection-vector capacity reserved when a pooled frame is
/// first constructed, so small steady-state scans never allocate on the
/// batch path (larger shards grow the buffer once, then keep it).
constexpr size_t kSelReserve = 256;

std::atomic<uint64_t> g_frame_allocs{0};
// std::deque: references to existing frames stay valid while nested Run
// calls grow the pool.
thread_local std::deque<EvalFrame> t_frames;
thread_local size_t t_frame_top = 0;

}  // namespace

uint64_t EvalFrameAllocs() {
  return g_frame_allocs.load(std::memory_order_relaxed);
}

EvalFrame& Executor::Frame(size_t idx) { return (*frames_)[frame_base_ + idx]; }

Status Executor::RunFrom(const std::vector<Step>& steps, size_t idx, Env& env,
                         const std::vector<OccView>* views,
                         const std::function<Status(Env&)>& on_match) {
  if (idx == steps.size()) return on_match(env);
  const Step& step = steps[idx];

  switch (step.kind) {
    case Step::Kind::kScan: {
      Relation* rel = store_.GetRelation(step.pred);
      const OccView* view = ViewFor(views, step);
      EvalFrame& frame = Frame(idx);
      auto try_tuple = [&](const Tuple& t) -> Status {
        if (!TupleMatches(step.args, t, env)) return Status::OK();
        frame.bound_here.clear();
        for (size_t i = 0; i < step.args.size(); ++i) {
          if (step.args[i].kind == ArgPat::Kind::kBind) {
            env[step.args[i].slot] = t[i];
            frame.bound_here.push_back(step.args[i].slot);
          }
        }
        Status st = RunFrom(steps, idx + 1, env, views, on_match);
        for (int s : frame.bound_here) env[s].reset();
        return st;
      };

      if (view != nullptr && view->only != nullptr) {
        // Segment slice: a staged chunk reads the round's delta vector
        // through an index list instead of a per-shard copy.
        return ForEachOnly(*view, try_tuple);
      }
      const TupleSet* exclude = view != nullptr ? view->exclude : nullptr;
      if (view != nullptr && view->extra != nullptr) {
        for (const Tuple& t : *view->extra) {
          SB_RETURN_IF_ERROR(try_tuple(t));
        }
      }
      if (rel == nullptr) return Status::OK();  // no facts yet
      // Probe a secondary index on the bound columns when possible. The
      // bound-column mask is precomputed on the step (ComputeProbeInfo);
      // materializing the key is a flat walk over its set bits into this
      // depth's reusable frame.
      const uint32_t mask = step.probe_mask;
      // Resolve every const/bound argument to its dictionary code once
      // per invocation. Any miss proves no row matches — the whole scan
      // (and any index work) is skipped. Per-row filtering then compares
      // u32 codes on contiguous column segments; values are only decoded
      // for the slots the step binds.
      auto& filters = frame.col_filters;
      filters.clear();
      for (size_t i = 0; i < step.args.size(); ++i) {
        const ArgPat& p = step.args[i];
        if (p.kind != ArgPat::Kind::kConst &&
            p.kind != ArgPat::Kind::kBound) {
          continue;
        }
        const Value& want =
            p.kind == ArgPat::Kind::kConst ? *p.constant : *env[p.slot];
        auto code = rel->CodeOf(i, want);
        if (!code) return Status::OK();  // dictionary miss: zero matches
        filters.emplace_back(static_cast<int>(i), *code);
      }
      // Exclude sets are value tuples; encode each to dictionary codes
      // once per invocation. A tuple with any dictionary miss cannot be
      // stored in the relation and is dropped from the encoded set. The
      // encoded chunks are sorted (by index) so membership per surviving
      // slot is a binary search over u32 codes — no per-candidate row
      // materialization.
      const size_t arity = step.args.size();
      frame.exclude_flat.clear();
      frame.exclude_order.clear();
      if (exclude != nullptr && !exclude->empty()) {
        for (const Tuple& t : *exclude) {
          if (rel->EncodeTuple(t, &frame.exclude_flat)) {
            frame.exclude_order.push_back(
                static_cast<uint32_t>(frame.exclude_order.size()));
          }
        }
        const uint32_t* flat = frame.exclude_flat.data();
        std::sort(frame.exclude_order.begin(), frame.exclude_order.end(),
                  [&](uint32_t a, uint32_t b) {
                    return std::lexicographical_compare(
                        flat + a * arity, flat + (a + 1) * arity,
                        flat + b * arity, flat + (b + 1) * arity);
                  });
      }
      auto excluded = [&](size_t sh, uint32_t slot) -> bool {
        frame.row_codes.clear();
        for (size_t c = 0; c < arity; ++c) {
          frame.row_codes.push_back(rel->shard_codes(sh, c)[slot]);
        }
        const uint32_t* flat = frame.exclude_flat.data();
        const uint32_t* want = frame.row_codes.data();
        auto it = std::lower_bound(
            frame.exclude_order.begin(), frame.exclude_order.end(), want,
            [&](uint32_t a, const uint32_t* w) {
              return std::lexicographical_compare(
                  flat + a * arity, flat + (a + 1) * arity, w, w + arity);
            });
        return it != frame.exclude_order.end() &&
               std::equal(flat + *it * arity, flat + (*it + 1) * arity,
                          want);
      };
      const bool have_exclude = !frame.exclude_order.empty();
      auto emit_slot = [&](size_t sh, uint32_t slot) -> Status {
        if (have_exclude && excluded(sh, slot)) return Status::OK();
        // Repeated-variable columns: codes live in per-column
        // dictionaries and are not comparable across columns, so the
        // equality is checked on decoded values.
        for (size_t i = 0; i < step.args.size(); ++i) {
          const ArgPat& p = step.args[i];
          if (p.kind == ArgPat::Kind::kSame &&
              !(rel->At(sh, slot, i) ==
                rel->At(sh, slot, static_cast<size_t>(p.same_col)))) {
            return Status::OK();
          }
        }
        frame.bound_here.clear();
        for (size_t i = 0; i < step.args.size(); ++i) {
          if (step.args[i].kind == ArgPat::Kind::kBind) {
            env[step.args[i].slot] = rel->At(sh, slot, i);
            frame.bound_here.push_back(step.args[i].slot);
          }
        }
        Status st = RunFrom(steps, idx + 1, env, views, on_match);
        for (int s : frame.bound_here) env[s].reset();
        return st;
      };
      // Per-shard kernel descriptors: the filters' column base pointers
      // for this shard plus the resolved codes.
      auto shard_filters = [&](size_t sh) -> const CodeFilter* {
        frame.kernel_filters.clear();
        for (const auto& [col, code] : filters) {
          frame.kernel_filters.push_back(
              CodeFilter{rel->shard_codes(sh, col).data(), code});
        }
        return frame.kernel_filters.data();
      };
      if (mask != 0 && step.probe != Step::Probe::kScanAll) {
        Tuple& key = frame.key;
        ProbeKey(step, env, &key);
        // NOTE: callbacks must not mutate relations (fixpoint drivers buffer
        // head insertions), so the probe result stays valid — see the
        // reference-stability contract in relation.h. A probe that covers
        // the shard key touches exactly one shard; otherwise it fans out
        // over the shards in order.
        const int only = step.probe == Step::Probe::kFanout
                             ? -1
                             : rel->ProbeShardOf(mask, key);
        const size_t begin = only >= 0 ? static_cast<size_t>(only) : 0;
        const size_t end =
            only >= 0 ? static_cast<size_t>(only) + 1 : rel->shard_count();
        for (size_t sh = begin; sh < end; ++sh) {
          const std::vector<size_t>& rows = rel->ProbeShard(sh, mask, key);
          if (rows.empty()) continue;
          // The probe bucket already matched the masked columns, but the
          // filters can cover more than the mask (arity > 32); refine
          // the slot list through the same fused kernels as full scans.
          frame.sel.clear();
          FilterFusedSelect(DetectSimdMode(), shard_filters(sh),
                            filters.size(), rows.data(), rows.size(),
                            &frame.sel);
          for (uint32_t slot : frame.sel) {
            SB_RETURN_IF_ERROR(emit_slot(sh, slot));
          }
        }
      } else {
        for (size_t sh = 0; sh < rel->shard_count(); ++sh) {
          const size_t rows = rel->shard_size(sh);
          if (rows == 0) continue;
          frame.sel.clear();
          FilterFusedRange(DetectSimdMode(), shard_filters(sh),
                           filters.size(), 0, static_cast<uint32_t>(rows),
                           &frame.sel);
          for (uint32_t slot : frame.sel) {
            SB_RETURN_IF_ERROR(emit_slot(sh, slot));
          }
        }
      }
      return Status::OK();
    }

    case Step::Kind::kLookup: {
      const OccView* view = ViewFor(views, step);
      // Enumerate one candidate row (keys already matched elsewhere or
      // checked via TupleMatches by the caller).
      auto try_row = [&](const Tuple& t) -> Status {
        const ArgPat& vp = step.args.back();
        const Value& v = t.back();
        if (vp.kind == ArgPat::Kind::kConst) {
          if (!(v == *vp.constant)) return Status::OK();
          return RunFrom(steps, idx + 1, env, views, on_match);
        }
        if (vp.kind == ArgPat::Kind::kBound) {
          if (!(v == *env[vp.slot])) return Status::OK();
          return RunFrom(steps, idx + 1, env, views, on_match);
        }
        env[vp.slot] = v;
        Status st = RunFrom(steps, idx + 1, env, views, on_match);
        env[vp.slot].reset();
        return st;
      };
      // Delta variant: iterate the delta like a scan (keys are bound, so
      // this is a cheap filter).
      if (view != nullptr && view->only != nullptr) {
        return ForEachOnly(*view, [&](const Tuple& t) -> Status {
          if (!TupleMatches(step.args, t, env)) return Status::OK();
          return try_row(t);
        });
      }
      // Erased tuples restored for retraction variants: these can coexist
      // with a live row under the same keys (the row replaced them within
      // the transaction), so both are enumerated.
      if (view != nullptr && view->extra != nullptr) {
        for (const Tuple& t : *view->extra) {
          if (!TupleMatches(step.args, t, env)) continue;
          SB_RETURN_IF_ERROR(try_row(t));
        }
      }
      Relation* rel = store_.GetRelation(step.pred);
      if (rel == nullptr) return Status::OK();
      EvalFrame& frame = Frame(idx);
      Tuple& keys = frame.key;
      keys.clear();
      for (size_t i = 0; i + 1 < step.args.size(); ++i) {
        const ArgPat& p = step.args[i];
        keys.push_back(p.kind == ArgPat::Kind::kConst ? *p.constant
                                                      : *env[p.slot]);
      }
      const Tuple* t = rel->LookupByKeys(keys, &frame.row);
      if (t == nullptr) return Status::OK();
      if (view != nullptr && view->exclude != nullptr &&
          view->exclude->count(*t)) {
        return Status::OK();
      }
      return try_row(*t);
    }

    case Step::Kind::kNegCheck: {
      // A flip variant's view probes the relation as it stood before a
      // pending change: `extra` tuples count as present, `exclude` tuples
      // as absent.
      const OccView* view = ViewFor(views, step);
      if (view != nullptr && view->extra != nullptr) {
        for (const Tuple& t : *view->extra) {
          if (TupleMatches(step.args, t, env)) return Status::OK();
        }
      }
      const TupleSet* exclude = view != nullptr ? view->exclude : nullptr;
      Relation* rel = store_.GetRelation(step.pred);
      if (rel == nullptr || rel->empty()) {
        return RunFrom(steps, idx + 1, env, views, on_match);
      }
      const uint32_t mask = step.probe_mask;
      bool exists;
      if (mask == 0) {
        size_t hidden = 0;
        if (exclude != nullptr) {
          for (const Tuple& t : *exclude) hidden += rel->Contains(t) ? 1 : 0;
        }
        exists = rel->size() > hidden;
      } else {
        Tuple& key = Frame(idx).key;
        ProbeKey(step, env, &key);
        const int only = step.probe == Step::Probe::kFanout
                             ? -1
                             : rel->ProbeShardOf(mask, key);
        const size_t begin = only >= 0 ? static_cast<size_t>(only) : 0;
        const size_t end =
            only >= 0 ? static_cast<size_t>(only) + 1 : rel->shard_count();
        exists = false;
        for (size_t sh = begin; sh < end && !exists; ++sh) {
          const std::vector<size_t>& rows = rel->ProbeShard(sh, mask, key);
          if (exclude == nullptr) {
            exists = !rows.empty();
            continue;
          }
          for (size_t slot : rows) {
            if (!exclude->count(rel->MaterializeTuple(sh, slot))) {
              exists = true;
              break;
            }
          }
        }
      }
      if (exists) return Status::OK();  // negation fails
      return RunFrom(steps, idx + 1, env, views, on_match);
    }

    case Step::Kind::kCompare: {
      SB_ASSIGN_OR_RETURN(Value l, Eval(*step.lhs, env));
      SB_ASSIGN_OR_RETURN(Value r, Eval(*step.rhs, env));
      SB_ASSIGN_OR_RETURN(bool pass, Compare(l, step.cmp_op, r));
      if (!pass) return Status::OK();
      return RunFrom(steps, idx + 1, env, views, on_match);
    }

    case Step::Kind::kAssign: {
      SB_ASSIGN_OR_RETURN(Value v, Eval(*step.rhs, env));
      env[step.assign_slot] = std::move(v);
      Status st = RunFrom(steps, idx + 1, env, views, on_match);
      env[step.assign_slot].reset();
      return st;
    }

    case Step::Kind::kBuiltin: {
      const auto& sig = step.builtin->sig;
      EvalFrame& frame = Frame(idx);
      frame.inputs.clear();
      for (int i = 0; i < sig.num_inputs; ++i) {
        const ArgPat& p = step.args[i];
        frame.inputs.push_back(p.kind == ArgPat::Kind::kConst ? *p.constant
                                                              : *env[p.slot]);
      }
      frame.outputs.clear();
      SB_ASSIGN_OR_RETURN(bool produced,
                          step.builtin->fn(ctx_, frame.inputs,
                                           &frame.outputs));
      if (!produced) return Status::OK();
      size_t num_outputs = step.args.size() - sig.num_inputs;
      if (frame.outputs.size() != num_outputs) {
        return Status::Internal("builtin '" + step.builtin->name +
                                "' produced wrong number of outputs");
      }
      frame.bound_here.clear();
      bool ok = true;
      for (size_t i = 0; i < num_outputs; ++i) {
        const ArgPat& p = step.args[sig.num_inputs + i];
        if (p.kind == ArgPat::Kind::kBind) {
          env[p.slot] = frame.outputs[i];
          frame.bound_here.push_back(p.slot);
        } else {
          const Value& want =
              p.kind == ArgPat::Kind::kConst ? *p.constant : *env[p.slot];
          if (!(frame.outputs[i] == want)) {
            ok = false;
            break;
          }
        }
      }
      Status st = Status::OK();
      if (ok) st = RunFrom(steps, idx + 1, env, views, on_match);
      for (int s : frame.bound_here) env[s].reset();
      return st;
    }

    case Step::Kind::kTypeCheck: {
      const ArgPat& p = step.args[0];
      const Value& v =
          p.kind == ArgPat::Kind::kConst ? *p.constant : *env[p.slot];
      if (v.kind() != step.check_kind) return Status::OK();
      return RunFrom(steps, idx + 1, env, views, on_match);
    }
  }
  return Status::Internal("bad step kind");
}

Status Executor::Run(const std::vector<Step>& steps, Env* env,
                     const std::vector<OccView>* views,
                     const std::function<Status(Env&)>& on_match) {
  // Claim a window of per-depth frames above any enclosing Run on this
  // thread (the constraint checker nests an rhs Exists inside its lhs
  // enumeration), so equal depths in nested enumerations never share
  // scratch. Frames persist in the thread-local pool; after warm-up this
  // allocates nothing.
  std::deque<EvalFrame>& frames = t_frames;
  frames_ = &frames;
  const size_t saved_base = frame_base_;
  const size_t saved_top = t_frame_top;
  frame_base_ = t_frame_top;
  t_frame_top += steps.size();
  while (frames.size() < t_frame_top) {
    frames.emplace_back();
    // Pre-size the batch-path buffers so small steady-state scans never
    // allocate; a larger scan grows them once and the capacity persists
    // with the pooled frame.
    frames.back().sel.reserve(kSelReserve);
    frames.back().row_codes.reserve(8);
    frames.back().kernel_filters.reserve(8);
    g_frame_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  Status st = RunFrom(steps, 0, *env, views, on_match);
  t_frame_top = saved_top;
  frame_base_ = saved_base;
  return st;
}

Result<bool> Executor::Exists(const std::vector<Step>& steps, Env* env) {
  bool found = false;
  // A sentinel "error" short-circuits enumeration after the first match.
  Status st = Run(steps, env, nullptr, [&](Env&) -> Status {
    found = true;
    return Status(StatusCode::kInternal, "__found__");
  });
  if (!st.ok() && st.message() != "__found__") return st;
  return found;
}

}  // namespace secureblox::engine
