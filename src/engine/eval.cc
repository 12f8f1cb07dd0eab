#include "engine/eval.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <deque>
#include <limits>
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

/// One body literal as a step that binds nothing yet: OrderBody places it
/// and decides its argument kinds and whether an `=` filters or assigns.
/// Variables take slots in written order. A positive atom over a functional
/// predicate is a lookup (a scan where OrderBody finds its keys unbound),
/// and an anonymous variable in a negation matches anything.
Result<Step> TranslateLiteral(const Literal& lit, const Catalog& catalog,
                              const BuiltinRegistry& builtins,
                              SlotMap* slots) {
  Step step;
  if (lit.kind == Literal::Kind::kCompare) {
    step.kind = Step::Kind::kCompare;
    step.cmp_op = lit.cmp.op;
    step.lhs = CompileExpr(lit.cmp.lhs, slots);
    step.rhs = CompileExpr(lit.cmp.rhs, slots);
    return step;
  }
  const Atom& a = lit.atom;
  step.builtin = builtins.Find(a.pred.name);
  if (step.builtin != nullptr) {
    step.kind = Step::Kind::kBuiltin;
  } else {
    SB_ASSIGN_OR_RETURN(step.pred, catalog.Lookup(a.pred.name));
    const PredicateDecl& decl = catalog.decl(step.pred);
    step.check_kind = decl.primitive_kind;
    step.kind = decl.is_primitive ? Step::Kind::kTypeCheck
                : a.negated       ? Step::Kind::kNegCheck
                : decl.functional ? Step::Kind::kLookup
                                  : Step::Kind::kScan;
  }
  for (const TermPtr& arg : a.args) {
    ArgPat pat;
    if (arg->kind == TermKind::kConst) {
      pat.constant = std::make_shared<const Value>(arg->constant);
    } else if (arg->kind == TermKind::kVar) {
      pat.slot = slots->SlotOf(arg->name);
      pat.kind = step.kind == Step::Kind::kNegCheck && IsAnonymous(arg->name)
                     ? ArgPat::Kind::kWild
                     : ArgPat::Kind::kBind;
    } else {
      return Status::Internal("non-variable term in compiled atom: " +
                              arg->ToString());
    }
    step.args.push_back(std::move(pat));
  }
  return step;
}

/// Compiles `body` in its compiled order: translated literal by literal,
/// then placed by OrderBody from `bound` with scans ranked by their count
/// of bound arguments, most first. Scans and lookups take occurrence
/// numbers from `*scan_occurrences` on, in that order.
Result<std::vector<Step>> CompileBody(const std::vector<Literal>& body,
                                      const Catalog& catalog,
                                      const BuiltinRegistry& builtins,
                                      SlotMap* slots, std::vector<bool>* bound,
                                      int* scan_occurrences,
                                      std::vector<PredId>* scan_preds) {
  std::vector<Step> written;
  for (const Literal& lit : body) {
    SB_ASSIGN_OR_RETURN(Step step,
                        TranslateLiteral(lit, catalog, builtins, slots));
    written.push_back(std::move(step));
  }
  bound->resize(slots->size(), false);
  auto most_bound = [&written](size_t i, const std::vector<bool>& b) {
    double n = 0;
    for (const ArgPat& p : written[i].args) {
      if (p.kind == ArgPat::Kind::kConst || b[p.slot]) ++n;
    }
    return -n;
  };
  std::vector<Step> steps;
  std::vector<BodyPlacement> placed;
  if (!OrderBody(written, -1, most_bound, bound, &steps, &placed)) {
    return Status::Internal(
        "cannot order body literals (unsafe rule slipped past the type "
        "checker)");
  }
  for (Step& s : steps) {
    if (s.kind == Step::Kind::kScan || s.kind == Step::Kind::kLookup) {
      s.occurrence = (*scan_occurrences)++;
      scan_preds->push_back(s.pred);
    }
  }
  ComputeProbeInfo(catalog, &steps);
  return steps;
}

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

/// Is every slot `e` reads bound?
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

/// Are `step`'s first `n` arguments constants, wildcards or bound?
bool ArgsReady(const Step& step, size_t n, const std::vector<bool>& bound) {
  for (size_t i = 0; i < n; ++i) {
    const ArgPat& p = step.args[i];
    if (p.kind != ArgPat::Kind::kConst && p.kind != ArgPat::Kind::kWild &&
        !bound[p.slot]) {
      return false;
    }
  }
  return true;
}

/// A compare or assignment where exactly `bound` is bound: 0 a filter
/// (both sides bound), 1 an assignment (an `=` with one side bound and a
/// bare variable on the other), -1 not ready.
int CompareClass(const Step& step, const std::vector<bool>& bound) {
  const bool lb = ExprBound(*step.lhs, bound);
  const bool rb = ExprBound(*step.rhs, bound);
  if (lb && rb) return 0;
  const bool assigns = step.cmp_op == CmpOp::kEq &&
                       ((lb && step.rhs->kind == CExpr::Kind::kSlot) ||
                        (rb && step.lhs->kind == CExpr::Kind::kSlot));
  return assigns ? 1 : -1;
}

/// The class OrderBody places `step` at where exactly `bound` is bound, or
/// -1 when it cannot run there. Scans always can: they bind their free
/// arguments.
int StepClass(const Step& step, const std::vector<bool>& bound) {
  switch (step.kind) {
    case Step::Kind::kCompare:
    case Step::Kind::kAssign:
      return CompareClass(step, bound);
    case Step::Kind::kTypeCheck:
      return ArgsReady(step, 1, bound) ? 2 : -1;
    case Step::Kind::kLookup:
      return ArgsReady(step, step.args.size() - 1, bound) ? 3 : kScanClass;
    case Step::Kind::kNegCheck:
      return ArgsReady(step, step.args.size(), bound) ? 4 : -1;
    case Step::Kind::kBuiltin:
      return ArgsReady(step, step.builtin->sig.num_inputs, bound) ? 5 : -1;
    case Step::Kind::kScan:
      return kScanClass;
  }
  return -1;
}

/// Recompute one argument pattern for its step's position. `may_bind` says
/// the step can bind the slot there from a tuple or output. `cols`, passed
/// for scans, holds the (slot, column) pairs the atom has bound so far: a
/// variable repeated within one atom comes out kSame (row-vs-row equality),
/// never kBound — the slot is only bound once the row is accepted, so a
/// kBound read of env[slot] at match time would dereference an unengaged
/// optional.
bool RebindArg(ArgPat* p, std::vector<bool>* bound, bool may_bind,
               int col = -1, std::vector<std::pair<int, int>>* cols = nullptr) {
  if (p->kind == ArgPat::Kind::kConst || p->kind == ArgPat::Kind::kWild) {
    return true;
  }
  p->same_col = -1;
  if (cols != nullptr) {
    for (const auto& [s, c] : *cols) {
      if (s == p->slot) {
        p->kind = ArgPat::Kind::kSame;
        p->same_col = c;
        return true;
      }
    }
  }
  if ((*bound)[p->slot]) {
    p->kind = ArgPat::Kind::kBound;
    return true;
  }
  if (!may_bind) return false;
  p->kind = ArgPat::Kind::kBind;
  (*bound)[p->slot] = true;
  if (cols != nullptr) cols->emplace_back(p->slot, col);
  return true;
}

/// Copy `base` rebound for a position where exactly `bound` is bound,
/// updating `bound` with the slots the step binds. `force_scan` turns a
/// kLookup into a kScan over the same atom (its keys are not bound where
/// it is placed) — sound because a functional relation scanned by pattern
/// enumerates the same rows the lookup would. Occurrence numbers are kept
/// so semi-naïve views keep applying. False when the step cannot run here.
bool RebindStep(const Step& base, std::vector<bool>* bound, bool force_scan,
                Step* out) {
  *out = base;
  if (force_scan) out->kind = Step::Kind::kScan;
  std::vector<ArgPat>& args = out->args;
  switch (out->kind) {
    case Step::Kind::kScan: {
      std::vector<std::pair<int, int>> cols;
      for (size_t i = 0; i < args.size(); ++i) {
        if (!RebindArg(&args[i], bound, true, static_cast<int>(i), &cols)) {
          return false;
        }
      }
      return true;
    }
    case Step::Kind::kLookup:
    case Step::Kind::kBuiltin:
    case Step::Kind::kNegCheck:
    case Step::Kind::kTypeCheck: {
      // A lookup binds its value column, a builtin its outputs.
      const size_t inputs = out->kind == Step::Kind::kLookup
                                ? args.size() - 1
                            : out->kind == Step::Kind::kBuiltin
                                ? static_cast<size_t>(out->builtin->sig.num_inputs)
                                : args.size();
      for (size_t i = 0; i < args.size(); ++i) {
        if (!RebindArg(&args[i], bound, i >= inputs)) return false;
      }
      return true;
    }
    case Step::Kind::kCompare:
    case Step::Kind::kAssign: {
      const int cls = CompareClass(*out, *bound);
      if (cls < 0) return false;
      out->kind = cls == 0 ? Step::Kind::kCompare : Step::Kind::kAssign;
      out->assign_slot = -1;
      if (cls == 0) return true;
      // An assignment keeps its free side in lhs.
      if (ExprBound(*out->lhs, *bound)) std::swap(out->lhs, out->rhs);
      out->assign_slot = out->lhs->slot;
      (*bound)[out->assign_slot] = true;
      return true;
    }
  }
  return false;
}

}  // namespace

bool OrderBody(
    const std::vector<Step>& base, int first_occ,
    const std::function<double(size_t, const std::vector<bool>&)>& scan_cost,
    std::vector<bool>* bound, std::vector<Step>* out,
    std::vector<BodyPlacement>* placed) {
  const size_t n = base.size();
  std::vector<bool> used(n, false);
  out->reserve(n);
  while (out->size() < n) {
    size_t pick = n;
    int pick_class = std::numeric_limits<int>::max();
    double pick_cost = 0.0;
    if (out->empty() && first_occ >= 0) {
      // Delta atom first: the semi-naïve premise — the round's delta is
      // the small side of every join in this variant.
      for (size_t i = 0; i < n && pick == n; ++i) {
        if (base[i].occurrence == first_occ) pick = i;
      }
      pick_class = -1;
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (used[i]) continue;
        const int cls = StepClass(base[i], *bound);
        if (cls < 0) continue;
        if (cls < kScanClass) {
          if (cls < pick_class) {
            pick = i;
            pick_class = cls;
          }
          continue;
        }
        const double cost = scan_cost(i, *bound);
        if (pick_class > kScanClass ||
            (pick_class == kScanClass && cost < pick_cost)) {
          pick = i;
          pick_class = kScanClass;
          pick_cost = cost;
        }
      }
    }
    if (pick == n) return false;
    // A lookup whose keys are bound here (constants, or a zero-key
    // singleton) stays one, also as the delta: kLookup iterates a view.
    const bool force_scan = base[pick].kind == Step::Kind::kLookup &&
                            StepClass(base[pick], *bound) == kScanClass;
    Step s;
    if (!RebindStep(base[pick], bound, force_scan, &s)) return false;
    out->push_back(std::move(s));
    used[pick] = true;
    placed->push_back({pick, pick_class});
  }
  return true;
}

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
  SB_ASSIGN_OR_RETURN(out.steps,
                      CompileBody(rule.body, catalog_, builtins_, &slots,
                                  &bound, &out.num_scan_occurrences,
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
  SB_ASSIGN_OR_RETURN(out.lhs_steps,
                      CompileBody(c.lhs, catalog_, builtins_, &slots, &bound,
                                  &out.num_scan_occurrences, &out.scan_preds));
  // rhs: existence check with lhs bindings in scope. Extra rhs scans are
  // not delta candidates (occurrence counter is separate and unused).
  int rhs_occurrences = 0;
  std::vector<PredId> rhs_scan_preds;
  SB_ASSIGN_OR_RETURN(out.rhs_steps,
                      CompileBody(c.rhs, catalog_, builtins_, &slots, &bound,
                                  &rhs_occurrences, &rhs_scan_preds));
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
  // Any error stops the enumeration: the first match stops it with one
  // that carries no message (and allocates nothing), and `found` tells it
  // from a real error.
  Status st = Run(steps, env, nullptr, [&](Env&) -> Status {
    found = true;
    return Status(StatusCode::kInternal, "");
  });
  if (found) return true;
  if (!st.ok()) return st;
  return false;
}

}  // namespace secureblox::engine
