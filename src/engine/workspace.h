// Workspace: the LogicBlox-style database instance.
//
// A workspace holds a catalog (predicate definitions), relations, installed
// rules, and integrity constraints. Data is modified through ACID
// transactions that encapsulate a fixpoint computation (paper §2, §5.2):
// the batch of updates is applied, installed rules run to fixpoint,
// runtime constraints are checked against the transaction's delta, and on
// any violation the whole transaction — including the input tuples — rolls
// back.
//
// The fixpoint itself lives in engine/fixpoint (FixpointDriver) and runs
// over the rule-dependency structure in engine/rule_graph; the workspace
// owns storage, undo logging, entity interning, and constraint checking,
// and exposes them to the driver through the FixpointHost interface.
//
// Deletions propagate incrementally by counting: each derived tuple
// carries a derivation-support count maintained by the fixpoint driver, a
// base-fact delete seeds a delete delta, and only tuples whose support
// reaches zero cascade, through recursive rule groups too. A change to a
// negated predicate retracts or derives just the instantiations it blocks
// or unblocks. A survivor that may rest on a cycle is proved or disproved
// by a proof search over its derivations, and the disproved tuples are
// counted out like any delete. A group recomputes its head-sharing
// cluster, never the whole database, only where neither can settle a
// change: a recursive group hit by a flip that blocks something, and any
// group holding a lattice aggregate or negating its own head when a
// delete reaches it (see engine/fixpoint.h).
// A commit reports as inserted only tuples the transaction added, not
// ones it erased and rederived.
//
// The transaction keeps no Value copy of a stored tuple: the undo log and
// the list of added tuples name rows by their dictionary codes, kept back
// to back in one per-transaction buffer (codes are never reclaimed, so a
// code key stays valid). Base-ness is a bit on the row, and entity
// membership is checked once per interned entity.
#ifndef SECUREBLOX_ENGINE_WORKSPACE_H_
#define SECUREBLOX_ENGINE_WORKSPACE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "datalog/catalog.h"
#include "engine/builtins.h"
#include "engine/eval.h"
#include "engine/fixpoint.h"
#include "engine/placement.h"
#include "engine/relation.h"
#include "engine/rule_graph.h"

namespace secureblox::engine {

/// One fact insertion/deletion request. Values in entity-typed positions may
/// be strings; they are interned as entity labels (refmode).
struct FactUpdate {
  std::string pred;
  std::vector<datalog::Value> values;
};

/// Committed transaction summary. The inserted tuples are kept as
/// dictionary codes and decoded on request, so read a TxCommit while the
/// Workspace that committed it lives.
class TxCommit {
 public:
  /// New tuples of `pred` (base + derived) that survived the commit:
  /// absent before the transaction, present after it, in the order the
  /// transaction inserted them. Decoded on each call.
  std::vector<Tuple> inserted(datalog::PredId pred) const {
    return Decode(added_, codes_, pred);
  }

  /// Mutations staged for remote shard owners (placement mode; see
  /// engine/placement.h). The distribution layer ships these per owner
  /// and shard; empty without a placement map.
  std::vector<RemoteDelta> remote;
  int64_t duration_us = 0;
  size_t num_derived = 0;
  /// Fixpoint counters for this transaction (rounds, firings, skips).
  FixpointStats fixpoint;

 private:
  friend class Workspace;
  /// A tuple the transaction inserted: `live` goes false if the
  /// transaction erases it again.
  struct Added {
    const Relation* rel;
    uint32_t key;  // offset of the tuple's codes in `codes`
    bool live;
  };
  /// The live entries of `pred` in `added`, decoded.
  static std::vector<Tuple> Decode(const std::vector<Added>& added,
                                   const std::vector<uint32_t>& codes,
                                   datalog::PredId pred);
  /// The transaction's code buffer (TxState::codes) and added tuples.
  std::vector<uint32_t> codes_;
  std::vector<Added> added_;
};

/// Cumulative engine counters (per-transaction values in TxCommit).
struct EngineStats {
  uint64_t transactions = 0;
  uint64_t aborts = 0;
  uint64_t derived_tuples = 0;
  uint64_t constraint_checks = 0;
  uint64_t fixpoint_rounds = 0;
  uint64_t rule_firings = 0;
  uint64_t firings_skipped = 0;
  uint64_t agg_recomputes = 0;
  uint64_t agg_skipped = 0;
  // Parallel fixpoint (see FixpointStats).
  uint64_t parallel_tasks = 0;
  // Deletion path (see FixpointStats).
  uint64_t retractions = 0;
  uint64_t deleted_tuples = 0;
  uint64_t rescued_tuples = 0;
  uint64_t group_rederives = 0;
  uint64_t rederive_seeded = 0;
  uint64_t flip_probes = 0;
  uint64_t flip_matches = 0;
  uint64_t suspects_proved = 0;
  uint64_t suspects_disproved = 0;
  /// Secondary-index bucket (re)constructions across all relations. With
  /// in-place erase maintenance this stays at one initial build per
  /// (relation, probe mask); benches watch it to catch regressions to
  /// rebuild-on-erase behaviour.
  uint64_t index_rebuilds = 0;
  /// Execution plans built or rebuilt by the cost-based planner.
  uint64_t plan_builds = 0;
  /// Whole-tuple value-to-code encodes in the relations' mutation entry
  /// points (Relation::mutation_encodes, summed over relations at each
  /// commit): one per Relation insert and one per located delete.
  uint64_t mutation_encodes = 0;
  /// Process-wide evaluation frames ever allocated (EvalFrameAllocs):
  /// flat in steady state — benches and tests pin the no-allocation
  /// property of the Executor's probe paths on this staying constant
  /// across repeated identical transactions.
  uint64_t eval_frame_allocs = 0;
  /// Storage-footprint gauges (not counters): approximate heap bytes
  /// across all relations by component — dictionaries, code columns and
  /// indexes — recomputed at each commit from Relation::Memory().
  uint64_t relation_dict_bytes = 0;
  uint64_t relation_column_bytes = 0;
  uint64_t relation_index_bytes = 0;
};

class Workspace : public RelationStore, private FixpointHost {
 public:
  Workspace();
  ~Workspace() override = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  datalog::Catalog& catalog() { return *catalog_; }
  const datalog::Catalog& catalog() const { return *catalog_; }
  BuiltinRegistry& builtins() { return builtins_; }
  /// Opaque pointer handed to builtin functions (e.g. the node's KeyStore).
  void set_user_context(void* user) { ctx_.user = user; }

  /// Declarative-networking mode: permit negation through recursive
  /// predicates with derivation-time semantics (see Stratify). Must be set
  /// before Install.
  void set_allow_unstratified_negation(bool allow) {
    allow_unstratified_negation_ = allow;
  }

  /// Fixpoint knobs (derivation budget). May be adjusted at any time.
  FixpointOptions& fixpoint_options() { return fixpoint_options_; }

  /// Query-serving mode (engine/query): Install records rules for the
  /// query front end instead of compiling them for bottom-up evaluation,
  /// and drops runtime constraints — a serving replica trusts upstream
  /// validation and materializes only query slices. Declarations and
  /// ground facts behave as usual. Set before the first Install.
  void set_defer_rules(bool defer) { defer_rules_ = defer; }
  bool defer_rules() const { return defer_rules_; }

  /// Rules recorded by Install while defer_rules is set (analyzed,
  /// typechecked, uncompiled) — the query front end's rewrite source.
  const std::vector<datalog::Rule>& deferred_rules() const {
    return deferred_rules_;
  }

  /// Analyze (schema + typecheck), compile, and install a program. Ground
  /// facts in the program are applied through a transaction. May be called
  /// multiple times; rules accumulate.
  Status Install(const datalog::Program& program);

  /// Install a rewritten rule slice from the query front end: compiles and
  /// activates the rules regardless of defer_rules. The program must
  /// contain rules only (no facts, no unrecognized constraints); newly
  /// referenced predicates must already be declared.
  Status InstallSlice(const datalog::Program& program);

  /// Run one ACID transaction: apply updates, fixpoint, constraint check.
  /// On violation returns ConstraintViolation and the workspace is
  /// unchanged. `remote_ops` are placement mutations decoded from peer
  /// deliveries (engine/placement.h); they apply before the local updates
  /// in kind order (handoff, base insert, support add, base delete,
  /// support drop) so a single delivery transaction can carry a shard
  /// snapshot plus live traffic.
  Result<TxCommit> Apply(const std::vector<FactUpdate>& inserts,
                         const std::vector<FactUpdate>& deletes = {},
                         const std::vector<RemoteOp>& remote_ops = {});

  /// Extract and remove one shard of a placed relation for handoff to a
  /// new owner: every stored row (base or derived) with its support count.
  /// Raw storage surgery — runs outside any transaction, fires no rules,
  /// and must only be called between transactions on shards this node owns
  /// under the outgoing map. Co-shardability makes the result closed: the
  /// new owner installs rows + supports verbatim and the global fixpoint
  /// is unchanged.
  Result<std::vector<RemoteDelta>> DetachShard(datalog::PredId pred,
                                               size_t shard);

  /// Placement deliveries whose delete/drop arrived before the matching
  /// insert/add (network reordering): parked and retried each transaction.
  size_t deferred_remote_count() const { return deferred_remote_.size(); }

  /// Convenience single-fact insert.
  Status Insert(const std::string& pred, std::vector<datalog::Value> values);

  // -- queries ---------------------------------------------------------------

  Result<std::vector<Tuple>> Query(const std::string& pred) const;
  Result<bool> ContainsFact(const std::string& pred,
                            const std::vector<datalog::Value>& values) const;
  /// Value of a singleton predicate `p[] = v`.
  Result<datalog::Value> SingletonValue(const std::string& pred) const;
  /// Normalize raw values against a predicate's declared types (interning
  /// entity labels). Public for the distribution layer.
  Result<Tuple> NormalizeTuple(datalog::PredId pred,
                               const std::vector<datalog::Value>& values);

  Relation* GetRelation(datalog::PredId pred) override;
  const Relation* GetRelationIfExists(datalog::PredId pred) const;

  /// Dependency structure of the installed rules (rebuilt per Install).
  const RuleGraph& rule_graph() const { return rule_graph_; }

  /// Installed compiled rules and runtime constraints (planner tests
  /// inspect compiled step order and plan caches).
  const std::vector<CompiledRule>& compiled_rules() const {
    return compiled_rules_;
  }
  const std::vector<CompiledConstraint>& compiled_constraints() const {
    return compiled_constraints_;
  }

  /// Installed source rules, index-aligned with rule_graph() (placement
  /// validation walks them).
  const std::vector<datalog::Rule>& installed_rules() const {
    return installed_rules_;
  }

  // -- stats -----------------------------------------------------------------

  const EngineStats& stats() const { return stats_; }
  const std::vector<int64_t>& tx_durations_us() const {
    return tx_durations_us_;
  }

 private:
  struct UndoOp {
    enum class Kind : uint8_t {
      kInserted,        // undo: erase the row
      kErased,          // undo: restore the row with `state`
      kBaseAdded,       // undo: clear the base bit
      kBaseRemoved,     // undo: set the base bit
      kSupportAdded,    // undo: drop one derivation support
      kSupportDropped,  // undo: add one derivation support
      kSupportCleared,  // undo: restore support `state` (over-delete)
    };
    Kind kind;
    datalog::PredId pred;
    uint32_t shard;
    uint32_t key;  // offset of the row's codes in TxState::codes
    /// kErased: the row's support and base bit (Relation::row_state);
    /// kSupportCleared: the support to restore.
    uint32_t state = 0;
  };

  using Added = TxCommit::Added;

  /// A (predicate, code key) named in TxState::codes, hashed and compared
  /// by the codes it points at.
  struct TxKey {
    datalog::PredId pred;
    uint32_t key;
    uint32_t width;
    /// The key of a tuple of `rel` whose codes start at `key`.
    static TxKey Of(const Relation* rel, uint32_t key) {
      return {rel->decl().id, key, static_cast<uint32_t>(rel->decl().arity())};
    }
  };
  struct TxKeyHash {
    const std::vector<uint32_t>* codes;
    size_t operator()(const TxKey& k) const;
  };
  struct TxKeyEq {
    const std::vector<uint32_t>* codes;
    bool operator()(const TxKey& a, const TxKey& b) const;
  };
  /// TxState::erasures value of a tuple that existed before the
  /// transaction and was erased in it.
  static constexpr uint32_t kPreexisting = 0xFFFFFFFFu;

  struct TxState {
    TxState() = default;
    // The erasures map's hasher points at `codes`.
    TxState(const TxState&) = delete;
    TxState& operator=(const TxState&) = delete;

    /// Code keys of the rows the undo log and `added` name, back to back.
    std::vector<uint32_t> codes;
    std::vector<UndoOp> undo;
    /// Tuples the transaction inserted, in insertion order.
    std::vector<Added> added;
    /// Empty until the transaction's first erase, which indexes every live
    /// `added` entry here by its tuple; later inserts are indexed as they
    /// come. An erased tuple born in the transaction leaves the map (its
    /// entry dies); one that existed before maps to kPreexisting, so if it
    /// comes back (a recursive group's rederivation) it is not new and
    /// stays out of `added`.
    std::unordered_map<TxKey, uint32_t, TxKeyHash, TxKeyEq> erasures{
        0, TxKeyHash{&codes}, TxKeyEq{&codes}};
    bool erasures_indexed = false;
    /// Entities whose membership the transaction recorded in
    /// Workspace::members_known_ (forgotten again on rollback).
    std::vector<datalog::Value> members_noted;
    /// Mutations staged for remote shard owners (placement mode).
    std::vector<RemoteDelta> remote;
    size_t num_derived = 0;
    /// Tuples physically erased (any cause: base delete, retraction,
    /// over-delete, stale aggregate) — erasures invalidate the
    /// insert-delta constraint-check shortcut.
    size_t num_erased = 0;
    bool full_constraint_check = false;
  };

  Status Recompile();

  // Insert a normalized tuple; logs undo, routes deltas to the fixpoint
  // driver, auto-inserts entity type membership. `counted` adds one
  // derivation support (rule heads). Returns true if newly inserted.
  Result<bool> InsertTuple(datalog::PredId pred, const Tuple& tuple,
                           bool is_base, bool counted, TxState* tx);
  // Append the codes of `row` to tx->codes; returns their offset.
  static uint32_t LogKey(const Relation& rel, RowRef row, TxState* tx);
  // Erase the row at `row` with undo logging and a delete delta.
  Status EraseRowTx(datalog::PredId pred, Relation* rel, RowRef row,
                    TxState* tx);
  // Drop the base assertion of a stored base fact; erases the row when no
  // derivation supports it, else notes it as a suspect.
  Status UnassertRow(datalog::PredId pred, Relation* rel, RowRef row,
                     const Tuple& tuple, TxState* tx);
  // Drop one derivation support of a row that has one; erases the row
  // when that was its last support and it is not asserted. Returns true
  // when erased.
  Result<bool> RetractRow(datalog::PredId pred, Relation* rel, RowRef row,
                          TxState* tx);
  // Record a newly stored tuple (codes at `key`) in tx->added unless it
  // only came back.
  static void NoteInserted(const Relation* rel, uint32_t key, TxState* tx);
  // Bookkeeping for an erased tuple (codes at `key`).
  static void NoteErased(const Relation* rel, uint32_t key, TxState* tx);
  // Make sure entity `v` is a member of its type and every supertype.
  // `seed_deltas` routes new membership rows to the fixpoint; a handoff
  // installs them raw (the snapshot's supports already include every
  // shard-local derivation).
  Status EnsureEntityMembership(const datalog::Value& v, bool seed_deltas,
                                TxState* tx);
  // Forget that entity `v` has all its membership rows.
  void ForgetMembership(const datalog::Value& v);

  // FixpointHost (the driver's mutation interface; current_tx_ is the
  // transaction being applied).
  Result<bool> InsertHeadTuple(datalog::PredId pred,
                               const Tuple& tuple) override;
  Result<bool> InsertDerivedTuple(datalog::PredId pred,
                                  const Tuple& tuple) override;
  Status EraseTuple(datalog::PredId pred, const Tuple& tuple) override;
  Result<bool> RetractSupport(datalog::PredId pred,
                              const Tuple& tuple) override;
  bool IsBaseFact(datalog::PredId pred, const Tuple& tuple) const override;
  Result<uint64_t> OverDeleteDerived(datalog::PredId pred) override;
  Status BindExistentials(const CompiledRule& rule, Env* env,
                          std::vector<int>* bound_here) override;

  Status CheckConstraints(TxState* tx);
  void Rollback(TxState* tx);

  // Placement helpers. RemoteShardOf: shard index of a normalized tuple
  // when the active placement assigns it to another node, nullopt when it
  // applies locally (no placement, unplaced pred, or locally owned shard).
  std::optional<size_t> RemoteShardOf(datalog::PredId pred,
                                      const Tuple& tuple);
  // Apply decoded peer mutations inside the open transaction. `deferred`
  // accumulates delete/drop ops whose target is not (yet) present — the
  // commit path swaps it into deferred_remote_; rollback discards it.
  Status ApplyRemoteOps(const std::vector<RemoteOp>& ops,
                        std::vector<RemoteOp>* deferred, TxState* tx);
  Status ApplyOneRemoteOp(const RemoteOp& op, std::vector<RemoteOp>* deferred,
                          TxState* tx);

  std::unique_ptr<datalog::Catalog> catalog_;
  BuiltinRegistry builtins_;
  EvalContext ctx_;

  std::vector<std::unique_ptr<Relation>> relations_;  // by PredId
  // members_known_[type][id]: the entity (type, id) has its membership
  // row in `type` and in every supertype. Forgotten on rollback, when a
  // membership row is erased, and on Install (which can add supertypes).
  std::vector<std::vector<bool>> members_known_;

  // Installed program (sources kept for recompilation on later installs).
  std::vector<datalog::Rule> installed_rules_;
  std::vector<datalog::ConstraintDecl> installed_constraints_;

  // Query-serving mode: rules withheld from bottom-up compilation (see
  // set_defer_rules); engine/query installs rewritten slices on demand.
  bool defer_rules_ = false;
  std::vector<datalog::Rule> deferred_rules_;

  std::vector<CompiledRule> compiled_rules_;
  std::vector<CompiledConstraint> compiled_constraints_;
  RuleGraph rule_graph_;
  FixpointOptions fixpoint_options_;
  std::unique_ptr<FixpointDriver> driver_;
  bool allow_unstratified_negation_ = false;

  // Transaction currently being applied (the driver mutates through it).
  TxState* current_tx_ = nullptr;

  // Head-existential memoization: (rule id, key binding) -> entity values.
  std::map<std::pair<int, Tuple>, std::vector<datalog::Value>> existential_memo_;

  // Out-of-order placement deliveries parked for retry (see
  // deferred_remote_count). Mutated only at commit; transactions operate
  // on a copy so rollback leaves it untouched.
  std::vector<RemoteOp> deferred_remote_;

  EngineStats stats_;
  std::vector<int64_t> tx_durations_us_;
};

}  // namespace secureblox::engine

#endif  // SECUREBLOX_ENGINE_WORKSPACE_H_
