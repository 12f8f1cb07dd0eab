// Rule dependency graph: the static structure the fixpoint driver runs on.
//
// Built once per (re)compile from the compiled rules. Holds
//   - per-rule stratum assignment (stratification, relocated from eval.cc),
//   - lattice flags for recursive min/max aggregation,
//   - a predicate -> consuming-rules index (which rules re-fire when a
//     delta arrives for a predicate),
//   - SCC condensation of the per-stratum rule dependency graph into rule
//     groups, in topological order, so the driver can run one group to its
//     local fixpoint before moving downstream (VLog's reliance groups).
#ifndef SECUREBLOX_ENGINE_RULE_GRAPH_H_
#define SECUREBLOX_ENGINE_RULE_GRAPH_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "datalog/catalog.h"
#include "datalog/typecheck.h"
#include "engine/eval.h"

namespace secureblox::engine {

/// Dependency stratification. Returns per-rule stratum assignment and
/// verifies that negation and non-lattice aggregation are stratified.
/// `lattice_flags` receives rule ids whose aggregation is recursive
/// (lattice min/max mode).
///
/// `allow_unstratified_negation` enables the declarative-networking
/// semantics used by distributed protocols (NDlog, and the paper's
/// path-vector loop check `!pathlink[P,N]=_`): negation through a recursive
/// predicate is evaluated against the state at derivation time, without
/// retraction. Off by default (classic stratified Datalog).
Result<std::vector<int>> Stratify(const std::vector<CompiledRule*>& rules,
                                  const datalog::Catalog& catalog,
                                  std::vector<bool>* lattice_flags,
                                  bool allow_unstratified_negation = false);

/// Head predicates of a compiled rule (aggregate head included).
std::vector<datalog::PredId> HeadPreds(const CompiledRule& rule);

/// One strongly connected component of the rule dependency graph, confined
/// to a single stratum. Rules in a group are mutually recursive (or a
/// singleton); groups within a stratum form a DAG.
struct RuleGroup {
  int id = 0;
  int stratum = 0;
  /// Rule indices in install order.
  std::vector<size_t> rules;
  /// Same-stratum groups consuming this group's head predicates.
  std::vector<int> successors;
  /// True when the group contains a rule whose body reads a head predicate
  /// of the same group (needs iteration to a local fixpoint).
  bool recursive = false;
};

class RuleGraph {
 public:
  RuleGraph() = default;

  /// Analyze `rules` (borrowed for the duration of the call only).
  static Result<RuleGraph> Build(const std::vector<CompiledRule*>& rules,
                                 const datalog::Catalog& catalog,
                                 bool allow_unstratified_negation);

  size_t num_rules() const { return strata_.size(); }
  int max_stratum() const { return max_stratum_; }
  int stratum_of(size_t rule) const { return strata_[rule]; }
  bool lattice(size_t rule) const { return lattice_flags_[rule]; }

  const std::vector<RuleGroup>& groups() const { return groups_; }
  const RuleGroup& group(int id) const { return groups_[id]; }
  int group_of_rule(size_t rule) const { return group_of_rule_[rule]; }
  /// Group ids of one stratum, in topological (producers-first) order.
  const std::vector<int>& groups_in_stratum(int s) const {
    return groups_by_stratum_[s];
  }

  /// Rules with a scan/lookup occurrence of `pred` — exactly the rules the
  /// driver must consider re-firing when `pred` gains a delta tuple.
  const std::vector<size_t>& consumers_of(datalog::PredId pred) const;

  /// Group ids (sorted, unique) containing at least one consumer of `pred`
  /// — the delta-routing targets for inserts and deletes of `pred`.
  const std::vector<int>& consumer_groups_of(datalog::PredId pred) const;

  /// Group ids containing a rule that negates `pred`. Content changes to
  /// `pred` (either direction) can flip those rules' negation probes: the
  /// driver probes the changed tuples against the groups' live
  /// instantiations (FixpointDriver::ProcessFlips).
  const std::vector<int>& negator_groups_of(datalog::PredId pred) const;

  /// Rules with `pred` among their head predicates. A counting retraction
  /// that leaves a tuple alive with support makes it a suspect of the
  /// recursive producer among them, and the proof search enumerates the
  /// derivations of a suspect through every one of them, whichever group
  /// it lives in; a cluster recompute over-deletes a predicate and
  /// re-fires them all.
  const std::vector<size_t>& producers_of(datalog::PredId pred) const;

  /// Predicates appearing under negation in some rule body. Base insertions
  /// into these can retract derived tuples (the workspace then checks
  /// constraints in full rather than over the insert delta).
  const std::unordered_set<datalog::PredId>& negated_preds() const {
    return negated_preds_;
  }

 private:
  std::vector<int> strata_;             // by rule
  std::vector<bool> lattice_flags_;     // by rule
  int max_stratum_ = 0;
  std::vector<RuleGroup> groups_;
  std::vector<int> group_of_rule_;      // by rule
  std::vector<std::vector<int>> groups_by_stratum_;
  std::unordered_map<datalog::PredId, std::vector<size_t>> consumers_;
  std::unordered_map<datalog::PredId, std::vector<int>> consumer_groups_;
  std::unordered_map<datalog::PredId, std::vector<int>> negator_groups_;
  std::unordered_map<datalog::PredId, std::vector<size_t>> producers_;
  std::unordered_set<datalog::PredId> negated_preds_;
};

// -- query front end: adornment / slice analysis (engine/query) ------------
//
// The magic-sets rewriter works on the AST-level rules a query-serving
// workspace records (Workspace::deferred_rules) — the static half of the
// query module lives here next to the other rule-dependency structure.

/// Bound/free pattern over a predicate's argument positions: bit i set =
/// position i bound. 0 = every position free.
using Adornment = uint32_t;

/// Classic "bf" rendering (b = bound, f = free), used in generated magic
/// predicate names and diagnostics.
std::string AdornmentString(Adornment a, size_t arity);

/// Static index over a query-serving workspace's deferred rules: which
/// rules produce each predicate, which predicates are IDB, and which
/// resist magic restriction. Borrowed pointers must outlive the index;
/// rebuild after every Install that appends deferred rules.
class DeferredRuleIndex {
 public:
  static Result<DeferredRuleIndex> Build(
      const std::vector<datalog::Rule>& rules,
      const datalog::Catalog& catalog,
      const datalog::BuiltinSignatureMap& builtins);

  /// Rules with `pred` among their head predicates (indexes into the
  /// deferred-rule vector the index was built over).
  const std::vector<size_t>& ProducersOf(datalog::PredId pred) const;
  bool IsIdb(datalog::PredId pred) const {
    return !ProducersOf(pred).empty();
  }

  /// Predicates whose rules cannot carry a magic guard — aggregate heads,
  /// multi-head rules, and entity-creating head existentials — closed
  /// downward: a fully materialized predicate needs fully materialized
  /// body predicates.
  bool RequiresFull(datalog::PredId pred) const {
    return full_.count(pred) > 0;
  }

  /// True when `pred`'s dependency closure reads an IDB predicate under
  /// negation. Magic guards re-route derivation order, which negation
  /// semantics (stratified or derivation-time) observe, so such slices
  /// are installed unguarded instead.
  bool SliceHasNegatedIdb(datalog::PredId pred) const;

  /// Every predicate reachable from `pred` through producing rules —
  /// `pred` itself, IDB intermediates, and EDB leaves (negated and
  /// positive reads alike). Sorted.
  std::vector<datalog::PredId> SliceClosure(datalog::PredId pred) const;

  /// Deferred-rule indexes reachable from `pred` (producers of every IDB
  /// predicate in its closure). Sorted.
  std::vector<size_t> SliceRules(datalog::PredId pred) const;

  bool IsBuiltinAtom(const std::string& name) const {
    return builtin_names_.count(name) > 0;
  }
  size_t num_source_rules() const { return num_rules_; }

 private:
  std::unordered_map<datalog::PredId, std::vector<size_t>> producers_;
  /// Head pred -> body preds of its producing rules (deduplicated).
  std::unordered_map<datalog::PredId, std::vector<datalog::PredId>> deps_;
  std::unordered_set<datalog::PredId> full_;
  std::unordered_set<datalog::PredId> negated_idb_;
  std::unordered_set<std::string> builtin_names_;
  size_t num_rules_ = 0;
};

}  // namespace secureblox::engine

#endif  // SECUREBLOX_ENGINE_RULE_GRAPH_H_
