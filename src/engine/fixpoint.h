// Semi-naïve fixpoint driver with counting-based incremental deletion and
// a parallel, bulk-synchronous evaluation core.
//
// Owns the per-transaction delta bookkeeping and runs the installed rules
// to a fixpoint over the RuleGraph's SCC-condensed rule groups. Each
// stratum's groups are swept in topological order, and one pending group
// at a time drains to its local fixpoint; parallelism lives inside each
// round of that group.
//
// Each round splits into two phases:
//   - an *enumeration* phase that fires every rule's semi-naïve variants as
//     staged tasks, with each delta first cut on the target relation's
//     shard boundaries (equal-shard-key tuples stay together — shard-local
//     probes are cache-local) and large shard partitions further split
//     into fixed-size windows so one rule's firing spreads across workers;
//     relations are frozen (no writer exists), so enumeration is a pure
//     read against the pre-round snapshot and tasks stage derived tuples
//     into private buffers. Tasks of rules with side effects (head
//     existentials, thread-unsafe builtins) enumerate inline on the
//     coordinating thread, after the pool drains, against the same
//     snapshot;
//   - a *merge* phase on the coordinating thread that applies the staged
//     buffers in a fixed order (rule, occurrence, shard, window), re-runs
//     lattice aggregates, and routes new deltas into the (multi-producer)
//     per-group queues.
//
// The work decomposition — group order, rounds, chunks, merge order —
// depends only on the program, the data, and the shard count, never on
// the thread count, so any `threads` setting produces the byte-identical
// fixpoint (same tuples, same support counts, same entity labels) as
// threads=1. Across *shard* counts the decomposition differs (chunks
// follow shard boundaries), but per-round delta sets, derivation
// multisets, and content-addressed entity labels are all
// order-insensitive, so the final fixpoint — tuples, support counts,
// labels — is byte-identical at any SB_SHARDS x SB_THREADS combination;
// only task counts change.
//
// Lattice aggregates re-run after each round of their group (over the
// round's delta once they have had a full pass); stratified aggregates
// recompute on stratum entry — their classical recompute points.
//
// Deletions propagate incrementally. Every derived tuple carries a
// derivation-support count (Relation::SupportCount) that insert rounds
// keep exact via mixed semi-naïve variants. A delete delta is processed
// per group by counting: the group enumerates exactly the destroyed rule
// instantiations (the delta at one occurrence, erased tuples restored at
// later occurrences) and drops one support per instantiation; a tuple
// whose support reaches zero — and that is not a base fact — is erased
// and cascades downstream (into a recursive group's own next round, too);
// the destroyed-instantiation enumeration is chunked onto the pool like
// the insert path. Counting is unsound only through a cycle: a live,
// non-base tuple of a recursively derived predicate whose support dropped
// but did not reach zero, or that lost its base assertion while support
// kept it (a *suspect*), may rest on cyclic supports alone. When a
// recursive group's cascade ends with suspects still live, a
// Backward/Forward proof search settles them (SettleSuspects): it chains
// backward from each suspect over the head-bound variants
// (HeadBoundSteps) of every rule deriving its predicate, checks
// the group's own tuples it meets and takes base facts and other
// predicates' tuples as founded, then saturates proofs forward inside the
// checked set. A proved suspect stays. A checked tuple still unproved once
// the search is complete is unfounded and is erased; those erasures are
// the group's next delete delta, counted out like any other. The search
// runs on the coordinating thread, and its outcome does not depend on the
// order it meets instantiations in.
//
// A cluster recompute (RederiveCluster) over-deletes the closure of groups
// sharing head predicates, reseeds just those groups from their body
// predicates, and re-runs them to a local fixpoint. It remains for a
// delete or suspect reaching a group that holds a lattice aggregate (whose
// outputs carry no support count) or that negates its own head, recursive
// or not (its supports counted each negation as read when the
// instantiation fired, which retract variants probing the current state
// cannot replay); for a flip blocking a live instantiation in a recursive
// group (below); and for the suspects of a group whose head predicate a
// multi-head rule of a later group derives too (ProducersRunFirst).
// Rescued tuples annihilate against their own delete deltas in downstream
// queues, so downstream work is proportional to the net change.
// A change to a negated predicate (a *flip*) is precise: each negating
// rule runs a flip variant (CompiledRule::flip_steps) that reads the
// negated atom as a positive occurrence over the flipped tuples, against
// the state the group's supports were counted on. Each match is a live
// instantiation an insert blocks (one support dropped) or a blocked one a
// delete frees (one support added); no match means no work. Only a
// recursive group in which a flip blocks a live instantiation rederives.
// Under derivation-time negation a group ignores the flips its own
// evaluation causes (see active_).
//
// The driver mutates the database exclusively through the FixpointHost
// interface — only ever from the coordinating thread — so the workspace
// keeps single-threaded ownership of undo logging, entity interning, and
// base-fact bookkeeping.
#ifndef SECUREBLOX_ENGINE_FIXPOINT_H_
#define SECUREBLOX_ENGINE_FIXPOINT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "engine/eval.h"
#include "engine/rule_graph.h"
#include "engine/worker_pool.h"

namespace secureblox::engine {

struct ShardPlacement;

/// Per-transaction fixpoint counters (also accumulated in EngineStats).
struct FixpointStats {
  /// Delta rounds executed across all rule groups.
  uint64_t rounds = 0;
  /// Rule evaluations actually executed (a body predicate had a delta).
  uint64_t rule_firings = 0;
  /// Rule evaluations skipped because no body predicate changed — the
  /// saving the dependency index buys over naive per-stratum re-firing.
  uint64_t firings_skipped = 0;
  /// Aggregate recomputations executed / skipped (inputs untouched).
  uint64_t agg_recomputes = 0;
  uint64_t agg_skipped = 0;
  /// Tuples newly derived by rules and aggregates.
  uint64_t derivations = 0;
  // -- parallel scheduling ---------------------------------------------------
  /// Enumeration tasks staged, including those of rules with side effects,
  /// which run inline on the coordinating thread after the pool drains.
  /// Independent of the thread count: every task runs inline when
  /// threads=1.
  uint64_t parallel_tasks = 0;
  // -- deletion path ---------------------------------------------------------
  /// Retraction rule evaluations (delete-delta analogue of rule_firings).
  uint64_t retract_firings = 0;
  /// Derivation supports dropped by the counting path.
  uint64_t retractions = 0;
  /// Tuples erased by delete propagation (support exhausted, no base fact).
  uint64_t deleted = 0;
  /// Tuples a dropped support left alive (an alternative derivation or a
  /// base fact), plus erased tuples that came back before a consumer
  /// looked (insert/delete annihilation, e.g. after a cluster recompute).
  uint64_t rescued = 0;
  /// Cluster recomputes (RederiveCluster): a delete or suspect reaching a
  /// group that holds a lattice aggregate or negates its own head, a flip
  /// that blocks a live instantiation in a recursive group, and the
  /// suspects of a group whose head predicate a later group derives too.
  /// 0 when counting and the proof search settled every delete.
  uint64_t group_rederives = 0;
  /// Tuples reseeded into recomputed clusters — the recompute footprint,
  /// bounded by the affected groups instead of the whole database (0 when
  /// no cluster recomputed).
  uint64_t rederive_seeded = 0;
  /// Flipped negated-predicate tuples probed against negating rules (per
  /// flip variant, after merging tuples that agree on the atom's
  /// non-wildcard columns).
  uint64_t flip_probes = 0;
  /// Instantiations a flip retracted (insert blocked them) or derived
  /// (delete unblocked them).
  uint64_t flip_matches = 0;
  /// Live suspects the proof search settled: proved founded (kept), or
  /// disproved (erased with the other unfounded tuples it checked).
  uint64_t suspects_proved = 0;
  uint64_t suspects_disproved = 0;
  // -- cost-based planning ---------------------------------------------------
  /// Execution plans built or rebuilt (stats drift) this transaction.
  /// Deterministic: planning inputs are thread- and shard-independent.
  uint64_t plans_built = 0;
};

struct FixpointOptions {
  /// Abort the transaction once a fixpoint derives more than this many
  /// tuples *beyond* the seeded deltas (guards non-terminating programs
  /// without capping a cluster recompute). The error names the
  /// stratum, rule group, and the rules still producing deltas.
  uint64_t max_derivations = 1000000;
  /// Worker threads for the enumeration phases (including the calling
  /// thread). 1 = run tasks inline; 0 = one per hardware thread. The
  /// fixpoint result is identical for every value (see file comment).
  /// Seeded from the SB_THREADS environment variable by Workspace.
  int threads = 1;
  /// Hash-partition shards per relation (see relation.h); 1 = the
  /// unsharded layout. Latched into each Relation when it is first
  /// created, so set it before data arrives. Delta chunks are cut on
  /// shard boundaries, and the fixpoint result is identical for every
  /// value. Seeded from the SB_SHARDS environment variable by Workspace.
  size_t shards = 1;
  /// Dump each built plan to stderr (SB_EXPLAIN=1; format in
  /// docs/engine.md).
  bool explain = false;
  /// Partitioned shard placement (engine/placement.h): non-null when this
  /// workspace owns a subset of each placed relation's shards. Mutations
  /// targeting remote shards are staged on the commit (TxCommit::remote)
  /// instead of applied locally. Borrowed; must outlive the workspace's
  /// transactions. nullptr = the replicated baseline.
  const ShardPlacement* placement = nullptr;
};

/// Database mutation callbacks the driver needs from the workspace.
class FixpointHost {
 public:
  virtual ~FixpointHost() = default;
  /// Normalize (intern entity labels) and insert a rule-head tuple as
  /// derived, adding one derivation support. Returns true when newly
  /// inserted.
  virtual Result<bool> InsertHeadTuple(datalog::PredId pred,
                                       const Tuple& tuple) = 0;
  /// Insert an already-normalized derived tuple (aggregate results; no
  /// support counting — aggregates are recompute-managed).
  virtual Result<bool> InsertDerivedTuple(datalog::PredId pred,
                                          const Tuple& tuple) = 0;
  /// Erase a tuple (stale aggregate results), with undo logging.
  virtual Status EraseTuple(datalog::PredId pred, const Tuple& tuple) = 0;
  /// Drop one derivation support (counting deletion). Erases the tuple and
  /// cascades a delete delta when support is exhausted and the tuple is
  /// not a base fact. Returns true when the tuple was erased.
  virtual Result<bool> RetractSupport(datalog::PredId pred,
                                      const Tuple& tuple) = 0;
  /// True when `tuple` is asserted as a base fact of `pred` (founded
  /// whatever its derivation support).
  virtual bool IsBaseFact(datalog::PredId pred, const Tuple& tuple) const = 0;
  /// Cluster-recompute over-delete: erase every non-base tuple of `pred`
  /// (cascading delete deltas) and zero the support of surviving base
  /// facts, so rederivation recounts from scratch. Returns the number of
  /// tuples erased — rederiving them is not runaway work and extends the
  /// derivation budget.
  virtual Result<uint64_t> OverDeleteDerived(datalog::PredId pred) = 0;
  /// Bind a rule's head-existential slots in `env` (memoized entity
  /// creation); appends the slots bound to `bound_here`.
  virtual Status BindExistentials(const CompiledRule& rule, Env* env,
                                  std::vector<int>* bound_here) = 0;
};

class ExecPlanner;

class FixpointDriver {
 public:
  /// All pointers are borrowed and must outlive the driver.
  FixpointDriver(const RuleGraph* graph,
                 const std::vector<CompiledRule>* rules, EvalContext* ctx,
                 RelationStore* store, FixpointHost* host,
                 const FixpointOptions* options);
  ~FixpointDriver();

  // -- per-transaction delta bookkeeping ------------------------------------

  /// Reset delta queues and counters for a new transaction.
  void Begin();
  /// Route a newly inserted tuple to the consuming rule groups; annihilates
  /// a matching unconsumed delete delta (the tuple was rescued).
  void NotifyInsert(datalog::PredId pred, const Tuple& tuple);
  /// Route an erased tuple as a delete delta; cancels a matching unconsumed
  /// insert delta instead (the tuple never fired downstream).
  void NotifyDelete(datalog::PredId pred, const Tuple& tuple);
  /// A live tuple whose foundation may be gone while derivation support
  /// keeps it: a retraction survivor, or a base fact that lost its
  /// assertion. When a recursive group derives its predicate, that support
  /// may be cyclic, so the tuple becomes a suspect of the group.
  void NoteSuspect(datalog::PredId pred, const Tuple& tuple);

  /// Run installed rules to fixpoint over the queued deltas.
  Status Run();

  /// Counters for the transaction since Begin().
  const FixpointStats& stats() const { return stats_; }

 private:
  using DeltaMap = std::map<datalog::PredId, std::vector<Tuple>>;

  /// Paired insert/delete queues with annihilation: an add cancels a
  /// pending del of the same tuple and vice versa, so a tuple that is
  /// erased and rederived within one transaction causes no downstream
  /// work. Queues are multi-producer (every upstream group's merge phase
  /// routes into them) and single-consumer (the owning group's rounds);
  /// the pool barrier orders producers and consumer, so no per-queue lock
  /// is needed.
  struct ChangeQueue {
    DeltaMap adds;
    DeltaMap dels;
    bool empty() const { return adds.empty() && dels.empty(); }
    void clear() {
      adds.clear();
      dels.clear();
    }
  };

  /// One staged enumeration: a semi-naïve variant of one rule restricted
  /// to a chunk of the delta at one occurrence, with a private result
  /// buffer. Defined in the .cc.
  struct EnumTask;

  static bool EraseFromDeltaMap(DeltaMap* m, datalog::PredId pred,
                                const Tuple& tuple);
  static void PushToDeltaMap(DeltaMap* m, datalog::PredId pred,
                             const Tuple& tuple);

  bool HasPendingWork() const;
  bool HasRetractWork(int gid) const;
  bool HasDeltaFor(const CompiledRule& rule, const DeltaMap& delta) const;
  bool TouchedAny(const CompiledRule& rule) const;

  Status RunStratum(int stratum);
  /// Drain one group to its local fixpoint: rounds of a parallel
  /// enumeration phase followed by a deterministic sequential merge.
  Status RunGroup(int gid);
  /// One group's pending negation flips, delete deltas and suspects:
  /// precise flips first (pending deletes restored), then rounds of
  /// counting retraction against the post-flip state until the group's own
  /// erasures stop, then the proof search over the live suspects, whose
  /// erasures feed the next counting rounds. Recomputes the cluster for
  /// deletes reaching a group that holds a lattice aggregate or negates
  /// its own head, for recursive flips that block something, and for
  /// suspects when !ProducersRunFirst.
  Status ProcessRetractions(int gid);
  /// Backward/Forward proof search over `gid`'s live suspects. Chains
  /// backward from each over the head-bound variants of every rule
  /// deriving its predicate; base facts and tuples of other predicates are
  /// founded, tuples of the group's head predicates are checked. Proofs
  /// then saturate forward inside the checked set. Erases the checked
  /// tuples still unproved when the search is complete (they are
  /// unfounded) and sets `*erased` when any went; `proved` keeps the tuples
  /// proved founded across the searches of one ProcessRetractions.
  Status SettleSuspects(int gid, const DeltaMap& suspects,
                        std::map<datalog::PredId, TupleSet>* proved,
                        bool* erased);
  /// Does every rule deriving one of `gid`'s head predicates run in the
  /// group or before it? Then the live state is the one the supports were
  /// counted on, and no later group retracts an instantiation deriving a
  /// tuple the search erased. Only a multi-head rule can derive a group's
  /// head predicate from a group that runs later; such a group's suspects
  /// go to the cluster recompute, which takes in that group too.
  bool ProducersRunFirst(int gid) const;
  /// Precise flips for one group: enumerate, per negating rule and
  /// flipped predicate, the live instantiations the inserts block and the
  /// blocked ones the deletes unblock, then retract / derive them. Sets
  /// `*rederive` instead of applying anything when a block needs DRed (a
  /// recursive group, or a lattice aggregate).
  Status ProcessFlips(int gid, bool* rederive);
  /// Stage the chunked flip-variant tasks of `rule`'s negated step `k`
  /// over `changed` (inserts when `retract`, deletes otherwise) of its
  /// predicate. `neg` is the group's whole pending flip set; `added`
  /// caches its inserts as sets, for probing predicates not yet folded in.
  void StageFlipTasks(
      const CompiledRule& rule, size_t rule_idx, int gid, size_t k,
      bool retract, const std::vector<Tuple>& changed, const ChangeQueue& neg,
      std::map<datalog::PredId, std::shared_ptr<TupleSet>>* added,
      std::vector<std::unique_ptr<EnumTask>>* tasks);
  /// Drop flipped `rows` of negated `atom` that cannot block a live
  /// instantiation of `rule`: when the atom's variables fix the key of a
  /// locally stored head, a row whose head tuple is absent has none.
  void DropHeadlessRows(const CompiledRule& rule, const Step& atom,
                        std::vector<Tuple>* rows);
  /// Drop one support of a destroyed instantiation's head tuple. A tuple
  /// of a recursively derived predicate that survives with support left
  /// becomes a suspect of its recursive producer group (its remaining
  /// supports may be cyclic), checked when that group's cascade ends. A
  /// tuple the proof search erased has nothing left to drop.
  Status RetractOne(datalog::PredId pred, const Tuple& tuple);
  /// Cluster recompute: over-delete the head-sharing closure around
  /// `gid`, reseed those groups from their body predicates, re-run to a
  /// local fixpoint; clears the members' pending deltas, flips and
  /// suspects. Reached for a blocking flip in a recursive group, for a
  /// delete or suspect reaching a lattice aggregate or a negated own head,
  /// and for suspects the proof search cannot settle (see
  /// ProcessRetractions).
  Status RederiveCluster(int gid);
  Status InstantiateHeads(const CompiledRule& rule, Env& env,
                          std::vector<std::pair<datalog::PredId, Tuple>>*
                              pending);
  /// Re-run an aggregate and apply its new values. A lattice aggregate
  /// given its group's round `delta` evaluates only the bindings that
  /// touch it, once it has had one full pass (lattice_seen_).
  Status RecomputeAggregate(const CompiledRule& rule, bool lattice,
                            const DeltaMap* delta = nullptr);
  Status CheckBudget(const RuleGroup& group);

  // -- parallel enumeration machinery ---------------------------------------

  /// Create relations for every predicate the rule bodies read, so worker
  /// threads never take the lazy-creation path. Once per transaction.
  void EnsureRelations();
  /// Fill the per-occurrence views for `rule`'s variant firing at `occ`
  /// (views[occ].only is set by the caller). The single source of the
  /// mixed semi-naïve exclusion logic: insert mode hides the delta from
  /// earlier occurrences; retract mode restores erased tuples at later
  /// occurrences; both hide `unconsumed` insert deltas whose
  /// instantiations were never counted.
  static void BuildVariantViews(const CompiledRule& rule,
                                const DeltaMap& delta,
                                const DeltaMap& unconsumed, int occ,
                                bool retract, std::vector<OccView>* views,
                                std::vector<TupleSet>* excl);
  /// Stage chunked variant tasks for one rule over `delta` (insert mode)
  /// or `dels` (retract mode) into `tasks`.
  void StageVariantTasks(const CompiledRule& rule, size_t rule_idx, int gid,
                         const DeltaMap& delta, bool retract,
                         std::vector<std::unique_ptr<EnumTask>>* tasks);
  /// Copy `proto` into one task per chunk of `rows` (the variant's delta
  /// occurrence input), cut on `rel`'s shard boundaries and windowed.
  static void StageChunks(const EnumTask& proto,
                          const std::vector<Tuple>& rows, Relation* rel,
                          std::vector<std::unique_ptr<EnumTask>>* tasks);
  /// Run staged tasks on the pool (inline when threads=1; tasks of rules
  /// with side effects inline after the pool drains); fails with the
  /// first task error in staging order.
  Status RunStagedTasks(std::vector<std::unique_ptr<EnumTask>>* tasks);
  /// Before worker threads read them: build the secondary index every
  /// indexed probe in `steps` hits.
  void WarmProbes(const std::vector<Step>& steps);
  /// Apply the staged buffers in staging order: InsertHeadTuple for
  /// insert tasks, RetractSupport for retract tasks.
  Status ApplyStagedTasks(std::vector<std::unique_ptr<EnumTask>>& tasks);
  WorkerPool* pool();

  const RuleGraph& graph_;
  const std::vector<CompiledRule>& rules_;
  EvalContext& ctx_;
  RelationStore& store_;
  FixpointHost& host_;
  const FixpointOptions& options_;

  /// Unconsumed insert/delete deltas, one queue pair per rule group.
  std::vector<ChangeQueue> delta_;
  /// Net content changes to predicates a group negates, not yet applied
  /// to its supports (the flips ProcessFlips probes). Annihilation keeps
  /// transient over-delete/rederive churn out.
  std::vector<ChangeQueue> neg_;
  /// Suspects per recursive group: live tuples of its head predicates
  /// whose support a retraction dropped without exhausting it, or that
  /// lost a base assertion while support kept them, so they may rest on
  /// cyclic supports only (NoteSuspect). Settled by the proof search (and
  /// cleared) when the group's counting cascade ends; a cluster recompute
  /// clears its members'.
  std::vector<DeltaMap> suspects_;
  /// Tuples the running ProcessRetractions' proof search erased. Every
  /// instantiation deriving one reads an erased tuple, so the counting
  /// round after the search enumerates them all, and RetractOne skips
  /// their heads instead of dropping supports of a tuple already gone.
  std::map<datalog::PredId, TupleSet> disproved_;
  /// Groups currently being (re)computed: their own erasure churn (lattice
  /// improvement, over-delete) must not re-queue them, survivors are not
  /// handed to them as suspects, and changes they make to predicates they
  /// negate are not flips for them — a negation reads the state at
  /// derivation time.
  std::unordered_set<int> active_;
  /// Lattice aggregate rules (by id) that had a full pass in this
  /// driver; later rounds evaluate them over their delta only.
  std::unordered_set<int> lattice_seen_;
  /// Predicates touched (insert or erase) anywhere in the transaction —
  /// gates stratified-aggregate recomputation.
  std::unordered_set<datalog::PredId> touched_;
  FixpointStats stats_;
  /// max_derivations plus this run's seeded/rederived volume.
  uint64_t budget_limit_ = 0;
  bool relations_ensured_ = false;
  std::unique_ptr<WorkerPool> pool_;
  /// The cost-based planner every rule body runs through (only called
  /// from single-threaded phases).
  std::unique_ptr<ExecPlanner> planner_;
  /// planner_->plans_built() at Begin(): Run() reports the delta.
  uint64_t plans_built_at_begin_ = 0;
};

}  // namespace secureblox::engine

#endif  // SECUREBLOX_ENGINE_FIXPOINT_H_
