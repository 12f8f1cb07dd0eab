// Cost-based execution planning for compiled rule bodies.
//
// The planner sits between the RuleCompiler and the Executor: every rule
// body the fixpoint runs goes through it. Per compiled rule it builds one
// VariantPlan per semi-naïve occurrence variant, per negation-flip variant,
// per head-bound variant (the delete path's proof search) and for the
// full body (aggregate recomputes), reordering the compiled steps with
// OrderBody (engine/eval.h) — the one greedy pass that also gives the
// compiled order, here ranking scans by estimated bound-cardinality
// instead of bound-argument count. Plans are cached on the rule's
// RulePlanCache and rebuilt when body-relation sizes drift past a
// threshold, so long fixpoints replan as relations grow.
//
// Cost model. Statistics come from Relation's online counters: total rows
// plus distinct-key estimates per probe mask (Relation::EstimateMatches),
// maintained incrementally across inserts *and* erases. A candidate step's
// cost is the estimated number of rows matching its currently-bound
// columns; the delta occurrence is forced first (its cardinality is the
// round's delta, the semi-naïve premise), filters/lookups/negations/
// builtins run as early as their bindings allow, and remaining scans go
// ascending by estimate. Reordering is a pure enumeration-order change —
// OrderBody rebinds each step for its new position by the rule the
// compiler binds with — so a plan enumerates exactly the bindings of the
// compiled order. Each probe keeps the strategy its mask fixes
// (ComputeProbeInfo), except that a probe expected to match a quarter or
// more of its relation becomes a full scan.
//
// What a plan stores. Only what execution reads: the planned steps, the
// relation sizes the drift check compares against, and a build count. A
// plan whose steps equal the compiled ones stores no copy, and a build
// that cannot rebind a step (a guard that no compiled body reaches) keeps
// the compiled steps too, so the planner never declines: PlanFor and
// PlanForFlip always hand back steps to run. Estimates are not kept;
// Explain recomputes them.
//
// Determinism. Plans are built and cached only from the fixpoint's
// single-threaded merge phase, and every input to a planning decision —
// relation sizes, content-hashed distinct counts, the shard-key mask — is
// independent of SB_THREADS and SB_SHARDS. Identical transaction streams
// therefore produce identical plans (and identical replan points) at every
// thread × shard combination, preserving the engine's byte-identical
// fixpoint contract.
#ifndef SECUREBLOX_ENGINE_PLANNER_H_
#define SECUREBLOX_ENGINE_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/eval.h"
#include "engine/fixpoint.h"

namespace secureblox::engine {

class ExecPlanner {
 public:
  /// Variant index for the full-body plan (aggregate recomputes).
  static constexpr int kFullBody = -1;

  /// All pointers are borrowed and must outlive the planner.
  ExecPlanner(const datalog::Catalog* catalog, RelationStore* store,
              const FixpointOptions* options)
      : catalog_(*catalog), store_(*store), options_(*options) {}

  /// The steps to run for `rule`'s occurrence-`occ` variant (kFullBody for
  /// the whole body): the cached plan's, or the compiled rule.steps when
  /// the plan equals them. Builds or rebuilds the plan when absent or
  /// stale. The returned reference stays valid for the relation-frozen
  /// window the caller executes in: plans mutate only through this method,
  /// only on the merge phase, and the cache vector is sized once. Must be
  /// called single-threaded (it reads and seeds relation statistics).
  const std::vector<Step>& PlanFor(const CompiledRule& rule, int occ);

  /// The steps to run for `rule`'s negation-flip variant `neg` (see
  /// CompiledRule::flip_steps): the flipped atom's scan first, the rest by
  /// cost, so each flipped tuple becomes index probes on its bound
  /// columns. Same contract as PlanFor.
  const std::vector<Step>& PlanForFlip(const CompiledRule& rule, size_t neg);

  /// The steps to run for `rule`'s head-bound variant of head `head` (see
  /// HeadBoundSteps, built here on first use and kept on the rule's plan
  /// cache): the head atom's scan first, the body by cost after it, so
  /// each scanned tuple becomes index probes on the body columns its head
  /// binds. Same contract as PlanFor.
  const std::vector<Step>& PlanForHead(const CompiledRule& rule, size_t head);

  /// Plans built or rebuilt through this planner (EngineStats feed).
  uint64_t plans_built() const { return plans_built_; }

  /// Human-readable dump (the SB_EXPLAIN format; see docs/engine.md) of
  /// `rule`'s occurrence-`occ` variant (kFullBody for the whole body). A
  /// plan keeps no estimates, so the variant is planned once more against
  /// the current statistics to recover them; while those have not moved
  /// since the cached plan was built, that is the cached plan.
  std::string Explain(const CompiledRule& rule, int occ);

 private:
  /// Explain-only facts about one plan position (defined in the .cc).
  struct ExplainRow;

  /// Cache lookup / (re)build of plan-cache slot `slot`, planned from
  /// `base` with occurrence `occ` forced first.
  const std::vector<Step>& PlanSlot(const CompiledRule& rule, size_t slot,
                                    const std::vector<Step>& base, int occ);

  /// OrderBody over `base` (a rule's compiled, flip or head-bound steps)
  /// for one variant, occurrence `occ` first (kFullBody: no forced step),
  /// scans by EstimateBound. The plan's steps are left empty when they
  /// equal `base`, or when a step cannot be placed (defensive: that plan
  /// records no relation sizes, so it is never rebuilt). `explain`, when
  /// set, receives one row per position.
  VariantPlan Build(const std::vector<Step>& base, size_t num_slots, int occ,
                    std::vector<ExplainRow>* explain) const;

  /// The SB_EXPLAIN text for `steps` planned as `rule`'s variant `occ`.
  std::string Describe(const CompiledRule& rule, int occ, uint64_t builds,
                       const std::vector<Step>& steps,
                       const std::vector<ExplainRow>& rows) const;

  /// Has any body relation grown or shrunk past the replan threshold since
  /// `plan` was built?
  bool Stale(const VariantPlan& plan) const;

  /// Estimated rows one enumeration of `step` yields given the bound slot
  /// set (uses and seeds the per-mask distinct-key statistics). `src` and
  /// `distinct` report which statistic answered — exact dictionary live
  /// count, hashed mask stat, or the bare relation size — and the distinct
  /// count consulted (-1 when none was).
  double EstimateBound(const Step& step, const std::vector<bool>& bound,
                       EstimateSource* src, int64_t* distinct) const;

  const datalog::Catalog& catalog_;
  RelationStore& store_;
  const FixpointOptions& options_;
  uint64_t plans_built_ = 0;
};

}  // namespace secureblox::engine

#endif  // SECUREBLOX_ENGINE_PLANNER_H_
