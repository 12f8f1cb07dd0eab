// Rule/constraint compilation and body execution.
//
// A rule body compiles to an ordered list of steps: each literal becomes
// one step, in written order, and OrderBody places and binds them (cheap
// filters first, then assignments, type checks, functional lookups,
// negation probes, builtins, and scans by descending boundness). The
// planner reorders compiled steps per variant through the same OrderBody.
// Execution enumerates bindings over an environment of value slots.
// Semi-naïve evaluation re-runs each rule once per scan occurrence with
// that occurrence reading the round's delta.
//
// Head existentials (unbound head variables in entity-typed positions)
// create fresh entities, memoized per (rule, binding of head-relevant
// variables) so re-evaluation is idempotent.
#ifndef SECUREBLOX_ENGINE_EVAL_H_
#define SECUREBLOX_ENGINE_EVAL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "datalog/catalog.h"
#include "engine/builtins.h"
#include "engine/relation.h"

namespace secureblox::engine {

/// Source of relations during execution (implemented by Workspace).
class RelationStore {
 public:
  virtual ~RelationStore() = default;
  virtual Relation* GetRelation(datalog::PredId pred) = 0;
};

/// Environment: one optional value slot per rule variable.
using Env = std::vector<std::optional<datalog::Value>>;

/// Compiled term: variable slots resolved.
struct CExpr {
  enum class Kind { kSlot, kConst, kArith };
  Kind kind = Kind::kConst;
  int slot = -1;
  datalog::Value constant;
  char op = 0;
  std::shared_ptr<CExpr> lhs, rhs;
};

/// Compiled atom argument pattern.
struct ArgPat {
  enum class Kind {
    kBound,  // slot already holds a value: match/compare
    kBind,   // slot unbound: bind from the tuple / builtin output
    kConst,  // literal constant: match
    kWild,   // anonymous variable in a negation probe: matches anything
    kSame,   // repeated variable within one scan atom: equal to this
             // atom's earlier column `same_col` (the kBind occurrence).
             // The slot is only bound when the row is accepted, so the
             // comparison must read the candidate row, never the
             // environment — env[slot] is still unengaged here.
  };
  Kind kind = Kind::kConst;
  int slot = -1;
  int same_col = -1;  // kSame: earlier column of the same atom to equal
  /// kConst: the literal, shared by every copy of the pattern (plans copy
  /// their steps), so an argument takes 32 bytes instead of 64.
  std::shared_ptr<const datalog::Value> constant;
};

struct Step {
  enum class Kind {
    kScan,      // enumerate relation (or the round's delta) by pattern
    kLookup,    // functional atom with all keys bound: one probe
    kNegCheck,  // negated atom: probe by bound columns, fail if any match
    kCompare,   // comparison over bound expressions
    kAssign,    // bind a slot from an expression
    kBuiltin,   // builtin function call
    kTypeCheck, // primitive type predicate over a bound slot
  };
  /// How a kScan/kNegCheck step reads its relation, fixed statically by
  /// ComputeProbeInfo from the mask and the shard key; the planner may
  /// also turn a wide-matching probe into kScanAll.
  enum class Probe : uint8_t {
    kScanAll,     // walk every shard's tuple array (no bound column, or a
                  // probe expected to keep much of the relation)
    kShardProbe,  // mask covers the shard key: probe exactly one shard
    kFanout,      // indexed probe fanned out over all shards
  };
  Kind kind;
  datalog::PredId pred = datalog::kInvalidPred;
  std::vector<ArgPat> args;
  int occurrence = -1;  // kScan: index among this body's scan occurrences
  datalog::CmpOp cmp_op = datalog::CmpOp::kEq;
  /// kCompare: both sides. kAssign: `lhs` is the assigned slot, `rhs` the
  /// value; an `=` keeps both so a new position may bind either side.
  std::shared_ptr<CExpr> lhs, rhs;
  int assign_slot = -1;
  const BuiltinImpl* builtin = nullptr;
  datalog::ValueKind check_kind = datalog::ValueKind::kInt;  // kTypeCheck
  /// Static probe shape (kScan/kNegCheck), precomputed by ComputeProbeInfo:
  /// the bound/const column mask (bit i = column i, first 32 columns). Its
  /// set bits, ascending, are the probe key's columns.
  uint32_t probe_mask = 0;
  Probe probe = Probe::kScanAll;
};

/// Recompute each step's static probe info from its arg patterns: the
/// probe mask, and the strategy it fixes against the predicate's shard key
/// (kScanAll with no bound column, kShardProbe when the mask covers the
/// key, kFanout otherwise). Run by the compiler on every compiled body and
/// by the planner after reordering and rebinding.
void ComputeProbeInfo(const datalog::Catalog& catalog,
                      std::vector<Step>* steps);

/// The class OrderBody ranks by cost: scans, and lookups whose keys are not
/// bound where they are placed (these run as scans).
inline constexpr int kScanClass = 6;

/// One position of an OrderBody result: the index of the step placed there
/// and the class it was placed at (-1: the forced occurrence).
struct BodyPlacement {
  size_t source = 0;
  int cls = 0;
};

/// The greedy body order, shared by the RuleCompiler (the compiled order)
/// and the ExecPlanner (per-variant plans). With `first_occ` >= 0 the step
/// of that occurrence goes first; then, repeatedly, the lowest-class ready
/// step: 0 a filter, 1 an assignment, 2 a type check, 3 a lookup with
/// bound keys, 4 a negation, 5 a builtin, and kScanClass the one of lowest
/// `scan_cost(index, bound)`, ties keeping the earlier step. Each placed
/// step is rebound for its position into `out`: every argument pattern
/// (kConst and kWild kept; a variable repeated within one scanned atom
/// kSame; kBound if bound; else kBind), an `=` compare with both sides
/// bound a filter or else an assignment of its free bare-variable side,
/// and a lookup without bound keys a scan. `bound` (one flag per slot)
/// gains the slots the steps bind. False when a step cannot be placed.
bool OrderBody(
    const std::vector<Step>& base, int first_occ,
    const std::function<double(size_t, const std::vector<bool>&)>& scan_cost,
    std::vector<bool>* bound, std::vector<Step>* out,
    std::vector<BodyPlacement>* placed);

/// One planned body execution: the compiled steps reordered and rebound
/// for a semi-naïve occurrence variant, a negation flip, or the full body
/// (aggregate recomputes). Built by ExecPlanner (engine/planner.h) from
/// online relation statistics; executing it enumerates exactly the
/// bindings of the compiled order. Holds only what execution reads.
struct VariantPlan {
  /// The planned steps; empty when they equal the compiled steps (same
  /// order, argument kinds and probe strategies), which then run as is.
  std::vector<Step> steps;
  /// Body relation sizes at plan time — the replan drift reference.
  std::vector<std::pair<datalog::PredId, size_t>> stat_rows;
  uint64_t builds = 0;  // times this slot was (re)planned
};

/// Per-rule plan cache, attached to CompiledRule: slot 0 holds the
/// full-body plan, slot occ+1 the occurrence-`occ` variant, slot
/// num_scan_occurrences+1+k the negation-flip variant k, and the slots
/// after the flips the head-bound variant of each head. Sized once
/// (plans hand out interior pointers) and mutated only by the planner from
/// the fixpoint's single-threaded merge phase.
struct RulePlanCache {
  std::vector<std::optional<VariantPlan>> variants;
  /// HeadBoundSteps of every head, built the first time one is planned:
  /// only a rule deriving a suspect's predicate carries them.
  std::vector<std::vector<Step>> head_steps;
};

struct CompiledHead {
  datalog::PredId pred = datalog::kInvalidPred;
  std::vector<ArgPat> args;  // kBind entries are existential slots
};

struct CompiledAgg {
  datalog::AggFunc func;
  int input_slot = -1;  // -1 for count
  // Head (single, functional): key arg patterns; value is the agg result.
  datalog::PredId head_pred = datalog::kInvalidPred;
  std::vector<ArgPat> key_args;
  bool lattice = false;  // recursive min/max: monotone improvement semantics
};

struct CompiledRule {
  datalog::Rule source;
  int id = 0;
  int stratum = 0;
  size_t num_slots = 0;
  std::vector<std::string> slot_names;
  std::vector<Step> steps;
  std::vector<CompiledHead> heads;            // empty for aggregate rules
  std::optional<CompiledAgg> agg;
  int num_scan_occurrences = 0;
  std::vector<datalog::PredId> scan_preds;    // indexed by occurrence
  /// Negated predicate per kNegCheck step, in `steps` order (the step's
  /// *negation ordinal*).
  std::vector<datalog::PredId> neg_preds;
  /// Negation-flip variants, one per negation ordinal k: `steps` with
  /// negated step k also read as a positive scan, in place, over the
  /// flipped tuples (occurrence flip_occurrence()), followed by the kept
  /// negation probe; every negated step j carries occurrence
  /// num_scan_occurrences + j so the driver can give its probe a view.
  /// Executing one enumerates exactly the instantiations a change to the
  /// negated predicate blocks or unblocks (see FixpointDriver).
  std::vector<std::vector<Step>> flip_steps;
  int flip_occurrence() const {
    return num_scan_occurrences + static_cast<int>(neg_preds.size());
  }
  /// Occurrence of the head scan in a head-bound variant (HeadBoundSteps).
  int head_occurrence() const { return flip_occurrence() + 1; }
  // Head existentials.
  std::vector<int> existential_slots;
  std::vector<datalog::PredId> existential_types;
  std::vector<int> memo_key_slots;  // bound slots used anywhere in heads
  /// Body enumeration is free of side effects (no head existentials, no
  /// thread-unsafe builtins), so the parallel fixpoint may run it on
  /// worker threads; other rules enumerate inline on the coordinating
  /// thread, after the pool drains, against the round's snapshot.
  bool parallel_safe = true;
  /// Cost-based plans per semi-naïve variant (see RulePlanCache). Shared
  /// across copies of the compiled rule; null only for value-initialized
  /// placeholders.
  std::shared_ptr<RulePlanCache> plan_cache = std::make_shared<RulePlanCache>();
};

/// The head-bound variant of `rule`'s head `head`: the compiled body
/// followed by the head atom read as a positive scan (occurrence
/// CompiledRule::head_occurrence()) over the tuples whose derivations the
/// delete path's proof search enumerates. There the body has bound the
/// head's variables and not a head existential; planned with the scan
/// first (ExecPlanner::PlanForHead), the head binds its variables before
/// the body runs. An execution enumerates exactly the live instantiations
/// deriving each scanned tuple (a head existential still has to match the
/// memoized entity).
std::vector<Step> HeadBoundSteps(const datalog::Catalog& catalog,
                                 const CompiledRule& rule, size_t head);

struct CompiledConstraint {
  datalog::ConstraintDecl source;
  int id = 0;
  size_t num_slots = 0;
  std::vector<std::string> slot_names;
  std::vector<Step> lhs_steps;
  std::vector<Step> rhs_steps;
  int num_scan_occurrences = 0;               // lhs only
  std::vector<datalog::PredId> scan_preds;    // lhs scans by occurrence
};

/// Compiles analyzed rules/constraints against a catalog + builtin registry.
class RuleCompiler {
 public:
  RuleCompiler(const datalog::Catalog& catalog,
               const BuiltinRegistry& builtins)
      : catalog_(catalog), builtins_(builtins) {}

  Result<CompiledRule> CompileRule(const datalog::Rule& rule, int id) const;
  Result<CompiledConstraint> CompileConstraint(
      const datalog::ConstraintDecl& c, int id) const;

 private:
  const datalog::Catalog& catalog_;
  const BuiltinRegistry& builtins_;
};

using TupleSet = std::unordered_set<Tuple, TupleHash>;

/// Per-occurrence relation view for exact (counting) delta enumeration.
/// Executor::Run takes one per scan occurrence, indexed by
/// Step::occurrence:
///  - `only`: the occurrence reads exactly these tuples (a delta), or the
///    [only_begin, only_end) slice of them — the parallel fixpoint chunks
///    a large delta across workers without copying it;
///  - `exclude`: tuples skipped when reading the relation (deltas that a
///    variant with a later occurrence will cover, or queued inserts whose
///    derivations have not been counted yet);
///  - `extra`: tuples appended to the relation's contents (tuples already
///    erased, restored so retraction variants see the pre-delete state).
/// Negation probes of a flip variant read `exclude` and `extra` the same
/// way: they test the relation as it was before a pending change.
struct OccView {
  const std::vector<Tuple>* only = nullptr;
  size_t only_begin = 0;
  size_t only_end = SIZE_MAX;  // clamped to only->size()
  /// When set, the view reads `only` through this indirection: row k of the
  /// slice is (*only)[(*only_index)[k]] and [only_begin, only_end) ranges
  /// over only_index. The parallel fixpoint stages shard-aligned delta
  /// chunks as index lists into the round's one delta vector — segment
  /// slices — instead of materializing per-shard tuple copies.
  const std::vector<uint32_t>* only_index = nullptr;
  const TupleSet* exclude = nullptr;
  const std::vector<Tuple>* extra = nullptr;
  bool active() const { return only || exclude || extra; }
};

struct EvalFrame;

/// Executes compiled step lists.
class Executor {
 public:
  Executor(EvalContext* ctx, RelationStore* store)
      : ctx_(*ctx), store_(*store) {}

  /// Enumerate all bindings of `steps`; invoke `on_match` for each.
  /// `on_match` returning an error aborts enumeration. `views`, when set,
  /// gives scan occurrence k the view (*views)[k] (semi-naïve variants,
  /// flips, head-bound variants, constraint delta checks); an occurrence
  /// past its end, or with an inactive view, reads the plain relation.
  Status Run(const std::vector<Step>& steps, Env* env,
             const std::vector<OccView>* views,
             const std::function<Status(Env&)>& on_match);

  /// Existence check: do `steps` admit at least one binding, starting from
  /// the (partially bound) environment? Used for constraint rhs.
  Result<bool> Exists(const std::vector<Step>& steps, Env* env);

  /// Compare two values under `op`, coercing entity-vs-string comparisons
  /// through entity labels.
  Result<bool> Compare(const datalog::Value& a, datalog::CmpOp op,
                       const datalog::Value& b);

  Result<datalog::Value> Eval(const CExpr& e, const Env& env);

 private:
  Status RunFrom(const std::vector<Step>& steps, size_t idx, Env& env,
                 const std::vector<OccView>* views,
                 const std::function<Status(Env&)>& on_match);
  /// This Run's frame for depth `idx`.
  EvalFrame& Frame(size_t idx);

  EvalContext& ctx_;
  RelationStore& store_;
  /// The running thread's frame stack (see EvalFrame in eval.cc), fetched
  /// once per Run so steps skip the thread-local access wrapper.
  std::deque<EvalFrame>* frames_ = nullptr;
  /// Base of this Run's window into the thread-local frame stack (see
  /// EvalFrame in eval.cc): depth `idx` uses frame `frame_base_ + idx`.
  /// Nested Run/Exists calls on the same thread — the constraint checker
  /// probes its rhs from inside the lhs enumeration — stack their windows
  /// above the caller's, so scratch at equal depths never aliases.
  size_t frame_base_ = 0;
};

/// Process-wide count of evaluation frames ever allocated across all
/// thread-local frame pools. Flat once the pools reach the workload's
/// maximum body depth — EngineStats snapshots it so tests and benches can
/// pin the no-allocation-in-steady-state property of the probe paths.
uint64_t EvalFrameAllocs();

// (Stratification and the rule dependency graph live in engine/rule_graph.)

}  // namespace secureblox::engine

#endif  // SECUREBLOX_ENGINE_EVAL_H_
