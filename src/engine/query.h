// Query-driven evaluation: a magic-sets front end over the semi-naive
// engine (paper §2's point policy checks — "may P access R?" — without a
// whole-database fixpoint).
//
// Design choice (vs QSQR): QSQR interprets subgoals top-down with its own
// answer tables, which would bypass the Executor, the cost-based planner,
// the columnar probes, and the SIMD kernels — and would need its own
// invalidation protocol under deletion. Instead the goal's rule slice is
// *rewritten* (classic magic sets with a left-to-right sideways
// information passing strategy) and installed into the workspace as
// ordinary rules:
//
//   - per (predicate, adornment) a `magic$p$<ad>` predicate holds the
//     bound-argument patterns demanded so far (the memoized subgoal
//     table, keyed on adornment exactly as QSQR keys its subgoals);
//   - every producing rule gets the magic guard prepended, so the
//     semi-naive driver derives only tuples some demanded pattern can
//     reach (the memoized answer table is the predicate's own relation);
//   - a query seeds its bound pattern as a base fact in the magic
//     predicate; the resulting delta runs the installed slice to a local
//     fixpoint through the standard driver — plan cache, columnar
//     probes, and SIMD kernels included.
//
// Memo invalidation is therefore *inherited*: magic and answer relations
// are ordinary counted relations, so the existing delete-delta machinery
// (counting, and a proof search for survivors on a cycle) maintains them
// incrementally under churn.
// No cache protocol exists to get wrong — only the per-query answer
// snapshot carries an epoch (the sum of the slice relations' version
// stamps) so a warm repeat query is a pure read.
//
// Rules that cannot carry a magic guard — aggregate heads, multi-head
// rules, head existentials — and slices that read an IDB predicate under
// negation (guards re-route derivation order, which negation observes)
// are installed *unguarded*, but still only the goal's dependency slice:
// such installs are driven by a one-tuple `magic$seed$<n>` guard whose
// insertion fires them over pre-existing data through the same delta
// machinery.
#ifndef SECUREBLOX_ENGINE_QUERY_H_
#define SECUREBLOX_ENGINE_QUERY_H_

#include <atomic>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "engine/rule_graph.h"
#include "engine/workspace.h"

namespace secureblox::engine {

/// One point query: a predicate plus a bound/free argument pattern.
/// Bound positions carry a value (entity positions accept string labels);
/// free positions are nullopt. All-free asks for the full extension.
struct QueryGoal {
  std::string pred;
  std::vector<std::optional<datalog::Value>> args;
};

class QueryEngine {
 public:
  struct Stats {
    uint64_t queries = 0;
    /// Answered from the epoch-validated snapshot (pure read).
    uint64_t warm_hits = 0;
    /// Memoized subgoal was installed and seeded; only the answer
    /// relation was re-read (epoch moved or first read of this pattern).
    uint64_t reprobes = 0;
    /// InstallSlice batches compiled (new predicate/adornment demand).
    uint64_t slices_installed = 0;
    /// Magic predicates generated across all slices.
    uint64_t magic_preds = 0;
    /// Magic seed facts inserted (distinct bound patterns demanded).
    uint64_t seeds = 0;
    /// Goals answered through an unguarded (non-magic) slice install:
    /// aggregate/multi-head/existential closures or negated-IDB slices.
    uint64_t full_slices = 0;
    /// Answer snapshots dropped by the SB_QUERY_ANSWER_CAP LRU bound.
    /// Eviction only discards the memoized snapshot — the slice and its
    /// magic seeds stay installed, so a repeat query re-probes (cold/warm
    /// accounting shifts) but answers never change.
    uint64_t answer_evictions = 0;
  };

  /// The workspace is borrowed and must outlive the engine. On a
  /// materialized workspace (defer_rules off) queries degrade to direct
  /// relation probes — everything is already derived. The answer-snapshot
  /// cap is seeded from the SB_QUERY_ANSWER_CAP environment variable
  /// (unset/0 = unbounded).
  explicit QueryEngine(Workspace* ws);
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Answer a goal: install/seed the slice as needed, then read the
  /// answer relation filtered by the bound pattern. Answers are sorted
  /// (kind-then-payload value order, per position). NOT thread-safe
  /// against itself or any workspace mutation — callers serialize (see
  /// NodeRuntime::Query).
  Result<std::vector<Tuple>> Query(const QueryGoal& goal);

  /// Pure-read warm path: returns the memoized answers only when the goal
  /// was queried before and no relation in its dependency slice has
  /// changed since (version-stamp epoch). Safe to call concurrently with
  /// other TryWarm callers, but not with Query or workspace mutations.
  std::optional<std::vector<Tuple>> TryWarm(const QueryGoal& goal) const;

  Stats stats() const;

  /// Bound on memoized answer snapshots (0 = unbounded). Shrinking below
  /// the current population evicts least-recently-stored snapshots
  /// immediately. Not thread-safe against Query/TryWarm.
  void set_answer_cap(size_t cap);
  size_t answer_cap() const { return answer_cap_; }

 private:
  struct SubgoalKey {
    datalog::PredId pred = datalog::kInvalidPred;
    Adornment adornment = 0;
    Tuple bound;  // values at bound positions, in position order
    bool operator==(const SubgoalKey& o) const {
      return pred == o.pred && adornment == o.adornment && bound == o.bound;
    }
  };
  struct SubgoalKeyHash {
    size_t operator()(const SubgoalKey& k) const {
      return std::hash<int64_t>()((int64_t(k.pred) << 20) ^ k.adornment) ^
             (TupleHash()(k.bound) * 1099511628211ull);
    }
  };
  struct AnswerSnapshot {
    std::vector<Tuple> tuples;
    uint64_t epoch = 0;
    /// Position in lru_ (recency is maintained on the exclusive Query
    /// path only; the concurrent TryWarm read path never reorders).
    std::list<SubgoalKey>::iterator lru_it;
  };
  /// Normalized goal: resolved predicate plus bound pattern. `missing` is
  /// set when a bound entity label was never interned here — the answer
  /// is empty without touching any slice.
  struct ResolvedGoal {
    datalog::PredId pred = datalog::kInvalidPred;
    Adornment adornment = 0;
    Tuple bound;
    bool missing_entity = false;
  };

  Result<ResolvedGoal> Resolve(const QueryGoal& goal) const;
  Status RefreshIndex();
  /// Install (if new) and seed the slice serving (pred, adornment).
  Status EnsureSliceReady(const ResolvedGoal& goal);
  /// Worklist magic rewrite rooted at (pred, adornment); appends generated
  /// rules to `batch`.
  Status CollectAdorned(datalog::PredId pred, Adornment adornment,
                        datalog::Program* batch,
                        std::vector<FactUpdate>* seeds);
  /// Append `pred`'s not-yet-installed closure rules unguarded (plus the
  /// batch seed guard that fires them over pre-existing data).
  Status CollectFullSlice(datalog::PredId pred, datalog::Program* batch,
                          std::vector<FactUpdate>* seeds);
  /// Declare (idempotently) and name the magic predicate of (pred, ad).
  Result<std::string> EnsureMagicPred(datalog::PredId pred, Adornment a);
  /// The one-tuple guard predicate of the current install batch.
  Result<datalog::Atom> BatchSeedGuard(std::vector<FactUpdate>* seeds);
  /// Read the answer relation filtered by the bound pattern, sorted,
  /// decoding only the matching rows. A pure read that builds no index:
  /// TryWarm runs it under NodeRuntime's shared lock.
  std::vector<Tuple> Probe(const ResolvedGoal& goal) const;
  /// Sum of version stamps over the goal predicate's dependency closure,
  /// or nullopt when the closure was never memoized (pure read — the memo
  /// is populated only under the exclusive Query path).
  std::optional<uint64_t> EpochIfKnown(datalog::PredId pred) const;

  Workspace* ws_;
  std::optional<DeferredRuleIndex> index_;
  size_t indexed_rules_ = 0;

  /// (pred, adornment) pairs whose rewritten rules are installed, mapped
  /// to the deferred-rule count covered at install time — an Install that
  /// appends rules after queries ran is reconciled by re-rewriting only
  /// the producers at or past this high-water mark.
  std::map<std::pair<datalog::PredId, Adornment>, size_t> installed_adorned_;
  /// Deferred-rule indexes installed unguarded.
  std::set<size_t> installed_full_;
  /// Predicates whose full closure is installed (complete relations).
  std::set<datalog::PredId> full_ready_;
  /// Demanded bound patterns already seeded into magic predicates.
  std::unordered_map<SubgoalKey, bool, SubgoalKeyHash> seeded_;
  /// Evict answer snapshots past answer_cap_ (least recently stored
  /// first), counting each drop.
  void TrimAnswers();

  /// Per-subgoal answer snapshots with their slice epoch, LRU-bounded by
  /// answer_cap_ over lru_ (front = most recently stored).
  std::unordered_map<SubgoalKey, AnswerSnapshot, SubgoalKeyHash> answers_;
  std::list<SubgoalKey> lru_;
  size_t answer_cap_ = 0;
  uint64_t answer_evictions_ = 0;
  /// Memoized SliceClosure per goal predicate (reset on index refresh).
  mutable std::unordered_map<datalog::PredId, std::vector<datalog::PredId>>
      closure_memo_;
  /// Batch-seed guard state for the install currently being collected.
  std::string batch_seed_pred_;
  uint64_t batch_counter_ = 0;
  uint64_t guard_var_counter_ = 0;

  mutable std::atomic<uint64_t> queries_{0}, warm_hits_{0}, reprobes_{0};
  uint64_t slices_installed_ = 0, magic_preds_ = 0, seeds_ = 0,
           full_slices_ = 0;
};

}  // namespace secureblox::engine

#endif  // SECUREBLOX_ENGINE_QUERY_H_
