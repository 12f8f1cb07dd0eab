#include "engine/fixpoint.h"

#include <algorithm>
#include <set>
#include <thread>
#include <tuple>

#include "engine/placement.h"
#include "engine/planner.h"

namespace secureblox::engine {

using datalog::PredId;
using datalog::Value;
using datalog::ValueKind;

namespace {

/// Marks groups as actively (re)computing for a scope; removes only the
/// ids it added so nested scopes compose.
class ActiveSetGuard {
 public:
  explicit ActiveSetGuard(std::unordered_set<int>* set) : set_(set) {}
  ActiveSetGuard(const ActiveSetGuard&) = delete;
  ActiveSetGuard& operator=(const ActiveSetGuard&) = delete;
  ~ActiveSetGuard() {
    for (int id : added_) set_->erase(id);
  }
  void Add(int id) {
    if (set_->insert(id).second) added_.push_back(id);
  }

 private:
  std::unordered_set<int>* set_;
  std::vector<int> added_;
};

/// Delta rows per enumeration window. Small enough that a single rule
/// firing over a large round spreads across every worker; large enough
/// that task dispatch overhead stays negligible against the join work per
/// row. With sharded storage a delta is first partitioned on the target
/// relation's shard boundaries and each shard partition is then windowed.
constexpr size_t kChunkTuples = 64;
/// Cap on windows per (rule, occurrence, shard) partition. Both constants
/// are fixed — never derived from the thread count — so the work
/// decomposition, and with it the merge order, is identical at every
/// `threads` setting.
constexpr size_t kMaxChunksPerVariant = 32;

size_t ChunkCountFor(size_t rows) {
  size_t chunks = (rows + kChunkTuples - 1) / kChunkTuples;
  return std::max<size_t>(1, std::min(chunks, kMaxChunksPerVariant));
}

}  // namespace

/// One staged enumeration: a semi-naïve variant of one rule restricted to
/// a chunk of the delta at one occurrence, with a private result buffer.
/// Workers only ever touch `chunk`, the shared read-only views, and their
/// own `pending`/`status`; the pool barrier publishes the results to the
/// merge phase.
struct FixpointDriver::EnumTask {
  const CompiledRule* rule = nullptr;
  /// Step list to enumerate, from ExecPlanner::PlanFor / PlanForFlip: an
  /// interior pointer into the rule's RulePlanCache or its compiled steps,
  /// stable for the task's lifetime.
  const std::vector<Step>* steps = nullptr;
  size_t rule_idx = 0;
  bool retract = false;
  /// The rule has side effects (head existentials, thread-unsafe
  /// builtins): run on the coordinating thread, after the pool drains.
  bool inline_only = false;
  int occ = 0;
  /// Shared across the chunks of one variant (read-only while running).
  std::shared_ptr<std::vector<OccView>> base_views;
  std::shared_ptr<std::vector<TupleSet>> excl;
  /// Flip variants: the deduplicated flipped tuples `only` points into.
  std::shared_ptr<const std::vector<Tuple>> rows;
  /// Per-shard partition of the variant's delta as index lists into the
  /// round snapshot's delta vector — segment slices, no tuple copies
  /// (shared by the variant's tasks; null when the target relation has one
  /// shard and the snapshot's vector is windowed directly).
  std::shared_ptr<std::vector<std::vector<uint32_t>>> shard_parts;
  /// The chunk's delta source: the occurrence's whole delta vector (owned
  /// by the round snapshot, which outlives the task), read through
  /// `only_index` when the chunk covers one shard's slice of it, and this
  /// chunk's [lo, hi) window (over only_index when set, over `only`
  /// otherwise).
  const std::vector<Tuple>* only = nullptr;
  const std::vector<uint32_t>* only_index = nullptr;
  size_t lo = 0;
  size_t hi = SIZE_MAX;
  /// Instantiated head tuples (insert) / destroyed instantiations
  /// (retract), in enumeration order.
  std::vector<std::pair<PredId, Tuple>> pending;
  /// Body instantiations enumerated (one per match, whatever the number
  /// of heads; aggregate rules stage no head tuples).
  uint64_t matches = 0;
  Status status = Status::OK();
};

FixpointDriver::FixpointDriver(const RuleGraph* graph,
                               const std::vector<CompiledRule>* rules,
                               EvalContext* ctx, RelationStore* store,
                               FixpointHost* host,
                               const FixpointOptions* options)
    : graph_(*graph), rules_(*rules), ctx_(*ctx), store_(*store),
      host_(*host), options_(*options),
      planner_(std::make_unique<ExecPlanner>(ctx->catalog, store, options)) {}

FixpointDriver::~FixpointDriver() = default;

void FixpointDriver::Begin() {
  delta_.assign(graph_.groups().size(), {});
  neg_.assign(graph_.groups().size(), {});
  suspects_.assign(graph_.groups().size(), {});
  disproved_.clear();
  active_.clear();
  touched_.clear();
  stats_ = {};
  plans_built_at_begin_ = planner_->plans_built();
}

bool FixpointDriver::EraseFromDeltaMap(DeltaMap* m, PredId pred,
                                       const Tuple& tuple) {
  auto it = m->find(pred);
  if (it == m->end()) return false;
  auto& vec = it->second;
  auto mid = std::remove(vec.begin(), vec.end(), tuple);
  if (mid == vec.end()) return false;
  vec.erase(mid, vec.end());
  if (vec.empty()) m->erase(it);
  return true;
}

void FixpointDriver::PushToDeltaMap(DeltaMap* m, PredId pred,
                                    const Tuple& tuple) {
  auto& vec = (*m)[pred];
  // Within a transaction a tuple is notified once per direction (set
  // semantics), so a vector ending in `tuple` means this call already
  // pushed it for another notification of the same group.
  if (!vec.empty() && vec.back() == tuple) return;
  vec.push_back(tuple);
}

void FixpointDriver::NotifyInsert(PredId pred, const Tuple& tuple) {
  touched_.insert(pred);
  for (int g : graph_.consumer_groups_of(pred)) {
    ChangeQueue& q = delta_[g];
    // Annihilation: the tuple left and came back before the group looked —
    // no net change, no downstream work (DRed's "rescued" case).
    if (EraseFromDeltaMap(&q.dels, pred, tuple)) {
      ++stats_.rescued;
      continue;
    }
    PushToDeltaMap(&q.adds, pred, tuple);
  }
  for (int g : graph_.negator_groups_of(pred)) {
    if (active_.count(g)) continue;  // being recomputed against this state
    ChangeQueue& q = neg_[g];
    if (!EraseFromDeltaMap(&q.dels, pred, tuple)) {
      PushToDeltaMap(&q.adds, pred, tuple);
    }
  }
}

void FixpointDriver::NotifyDelete(PredId pred, const Tuple& tuple) {
  touched_.insert(pred);
  for (int g : graph_.consumer_groups_of(pred)) {
    // A group's own erasure churn (lattice improvement replacing a value,
    // over-delete during its rederivation) must not re-queue it.
    if (active_.count(g)) continue;
    ChangeQueue& q = delta_[g];
    // The insert was never consumed: cancel it instead of cascading.
    if (EraseFromDeltaMap(&q.adds, pred, tuple)) continue;
    PushToDeltaMap(&q.dels, pred, tuple);
  }
  for (int g : graph_.negator_groups_of(pred)) {
    if (active_.count(g)) continue;
    ChangeQueue& q = neg_[g];
    if (!EraseFromDeltaMap(&q.adds, pred, tuple)) {
      PushToDeltaMap(&q.dels, pred, tuple);
    }
  }
}

bool FixpointDriver::HasPendingWork() const {
  for (size_t g = 0; g < delta_.size(); ++g) {
    if (!delta_[g].empty() || !neg_[g].empty() || !suspects_[g].empty()) {
      return true;
    }
  }
  return false;
}

bool FixpointDriver::HasRetractWork(int gid) const {
  return !delta_[gid].dels.empty() || !neg_[gid].empty() ||
         !suspects_[gid].empty();
}

bool FixpointDriver::HasDeltaFor(const CompiledRule& rule,
                                 const DeltaMap& delta) const {
  for (PredId p : rule.scan_preds) {
    auto it = delta.find(p);
    if (it != delta.end() && !it->second.empty()) return true;
  }
  return false;
}

bool FixpointDriver::TouchedAny(const CompiledRule& rule) const {
  for (PredId p : rule.scan_preds) {
    if (touched_.count(p)) return true;
  }
  return false;
}

Status FixpointDriver::Run() {
  // The budget bounds *new* work: tuples seeded before the run (base
  // updates) and tuples reseeded by a cluster recompute extend the
  // limit so routine maintenance of a large database never trips it.
  budget_limit_ = options_.max_derivations;
  for (const ChangeQueue& q : delta_) {
    for (const auto& [pred, tuples] : q.adds) budget_limit_ += tuples.size();
    for (const auto& [pred, tuples] : q.dels) budget_limit_ += tuples.size();
  }
  // Strata in order; repeat while cross-stratum feedback (multi-head rules
  // whose heads live in an earlier stratum) left unconsumed deltas. The
  // first pass always runs so stratified aggregates see erasures that left
  // no queued delta.
  bool first = true;
  while (first || HasPendingWork()) {
    first = false;
    for (int s = 0; s <= graph_.max_stratum(); ++s) {
      SB_RETURN_IF_ERROR(RunStratum(s));
    }
  }
  stats_.plans_built = planner_->plans_built() - plans_built_at_begin_;
  return Status::OK();
}

Status FixpointDriver::RunStratum(int stratum) {
  // Stratified aggregates recompute on stratum entry (their inputs are
  // complete); skipped entirely when nothing they read changed.
  for (int gid : graph_.groups_in_stratum(stratum)) {
    for (size_t idx : graph_.group(gid).rules) {
      const CompiledRule& rule = rules_[idx];
      if (!rule.agg.has_value() || graph_.lattice(idx)) continue;
      if (TouchedAny(rule)) {
        ++stats_.agg_recomputes;
        SB_RETURN_IF_ERROR(RecomputeAggregate(rule, /*lattice=*/false));
        SB_RETURN_IF_ERROR(CheckBudget(graph_.group(gid)));
      } else {
        ++stats_.agg_skipped;
      }
    }
  }

  // Sweep the stratum's groups in topological order, retractions ahead of
  // the insert rounds. Each pending group drains to its local fixpoint; a
  // later group deriving into an earlier one re-arms the scan.
  const std::vector<int>& order = graph_.groups_in_stratum(stratum);
  bool any = true;
  while (any) {
    any = false;
    for (int gid : order) {
      if (HasRetractWork(gid)) {
        any = true;
        SB_RETURN_IF_ERROR(ProcessRetractions(gid));
      }
      if (!delta_[gid].adds.empty()) {
        any = true;
        SB_RETURN_IF_ERROR(RunGroup(gid));
      }
    }
  }
  return Status::OK();
}

void FixpointDriver::EnsureRelations() {
  if (relations_ensured_) return;
  relations_ensured_ = true;
  // The rule set is fixed for this driver's lifetime (Recompile builds a
  // fresh driver), so one pass covers every predicate a worker can read.
  for (const CompiledRule& rule : rules_) {
    for (const Step& s : rule.steps) {
      if (s.kind == Step::Kind::kScan || s.kind == Step::Kind::kLookup ||
          s.kind == Step::Kind::kNegCheck) {
        store_.GetRelation(s.pred);
      }
    }
  }
}

void FixpointDriver::BuildVariantViews(const CompiledRule& rule,
                                       const DeltaMap& delta,
                                       const DeltaMap& unconsumed, int occ,
                                       bool retract,
                                       std::vector<OccView>* views,
                                       std::vector<TupleSet>* excl) {
  const int n = rule.num_scan_occurrences;
  for (int j = 0; j < n; ++j) {
    if (j == occ) continue;
    PredId q = rule.scan_preds[j];
    TupleSet& e = (*excl)[j];
    if (!retract) {
      // Mixed semi-naïve insert variant: occurrence `occ` reads the
      // delta, earlier occurrences pretend it has not arrived, and every
      // occurrence hides unconsumed tuples born this round — each new
      // instantiation is enumerated (and its head support counted)
      // exactly once.
      if (j < occ) {
        auto dj = delta.find(q);
        if (dj != delta.end()) e.insert(dj->second.begin(), dj->second.end());
      }
    } else {
      // Destroyed-instantiation variant: occurrence `occ` reads the
      // erased tuples; later occurrences see them restored (the
      // pre-delete state), earlier ones read the post-delete relation —
      // each destroyed instantiation is enumerated exactly once.
      if (j > occ) {
        auto dj = delta.find(q);
        if (dj != delta.end()) (*views)[j].extra = &dj->second;
      }
    }
    auto uj = unconsumed.find(q);
    if (uj != unconsumed.end() && !uj->second.empty()) {
      e.insert(uj->second.begin(), uj->second.end());
    }
    if (!e.empty()) (*views)[j].exclude = &e;
  }
}

void FixpointDriver::StageVariantTasks(
    const CompiledRule& rule, size_t rule_idx, int gid, const DeltaMap& delta,
    bool retract, std::vector<std::unique_ptr<EnumTask>>* tasks) {
  // Insert deltas this group has not consumed yet (meaningful on the
  // retract path; always empty during an insert round, whose snapshot just
  // drained the queue). Copied into the exclude sets so workers never read
  // the live queue.
  const DeltaMap& unconsumed = delta_[gid].adds;
  const int n = rule.num_scan_occurrences;

  for (int occ = 0; occ < n; ++occ) {
    auto it = delta.find(rule.scan_preds[occ]);
    if (it == delta.end() || it->second.empty()) continue;
    // Plan (or fetch the cached plan for) this variant, and warm exactly
    // the indexes its probes hit — still on the coordinating thread, so
    // plan building and stats seeding stay deterministic. One plan serves
    // both the insert and the retract direction of a variant: the step
    // order is cardinality-driven, the delta routing is per occurrence.
    const std::vector<Step>& steps = planner_->PlanFor(rule, occ);
    WarmProbes(steps);
    auto excl = std::make_shared<std::vector<TupleSet>>(n);
    auto views = std::make_shared<std::vector<OccView>>(n);
    BuildVariantViews(rule, delta, unconsumed, occ, retract, views.get(),
                      excl.get());
    EnumTask proto;
    proto.rule = &rule;
    proto.steps = &steps;
    proto.rule_idx = rule_idx;
    proto.retract = retract;
    proto.inline_only = !rule.parallel_safe;
    proto.occ = occ;
    proto.base_views = std::move(views);
    proto.excl = std::move(excl);
    StageChunks(proto, it->second, store_.GetRelation(rule.scan_preds[occ]),
                tasks);
  }
}

void FixpointDriver::StageChunks(
    const EnumTask& proto, const std::vector<Tuple>& rows, Relation* rel,
    std::vector<std::unique_ptr<EnumTask>>* tasks) {
  // Chunks are cut on the delta relation's shard boundaries: one partition
  // per shard (relative delta order preserved within each), windowed so a
  // huge shard still spreads across workers. Staging order — and with it
  // the merge order — is (shard, window). With one shard the vector is
  // windowed directly, exactly the pre-shard decomposition.
  auto stage_windows =
      [&](const std::vector<uint32_t>* index,
          const std::shared_ptr<std::vector<std::vector<uint32_t>>>& parts) {
        const size_t n = index != nullptr ? index->size() : rows.size();
        const size_t chunks = ChunkCountFor(n);
        for (size_t c = 0; c < chunks; ++c) {
          auto task = std::make_unique<EnumTask>(proto);
          task->shard_parts = parts;
          task->only = &rows;
          task->only_index = index;
          task->lo = c * n / chunks;
          task->hi = (c + 1) * n / chunks;
          tasks->push_back(std::move(task));
        }
      };
  const size_t nshards = rel != nullptr ? rel->shard_count() : 1;
  if (nshards <= 1) {
    stage_windows(nullptr, nullptr);
    return;
  }
  // Segment slices: partition the rows into per-shard index lists over the
  // one vector instead of materializing per-shard tuple copies. The
  // partition sizes — and with them the window decomposition and merge
  // order — are exactly those of the copying layout.
  auto parts = std::make_shared<std::vector<std::vector<uint32_t>>>(nshards);
  for (size_t k = 0; k < rows.size(); ++k) {
    (*parts)[rel->ShardOf(rows[k])].push_back(static_cast<uint32_t>(k));
  }
  for (size_t sh = 0; sh < nshards; ++sh) {
    if ((*parts)[sh].empty()) continue;
    stage_windows(&(*parts)[sh], parts);
  }
}

void FixpointDriver::WarmProbes(const std::vector<Step>& steps) {
  for (const Step& s : steps) {
    if ((s.kind != Step::Kind::kScan && s.kind != Step::Kind::kNegCheck) ||
        s.probe_mask == 0) {
      continue;
    }
    Relation* rel = store_.GetRelation(s.pred);
    if (rel != nullptr && s.probe != Step::Probe::kScanAll) {
      rel->EnsureIndex(s.probe_mask);
    }
  }
}

WorkerPool* FixpointDriver::pool() {
  int want = options_.threads;
  if (want == 0) {
    want = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  if (want <= 1) return nullptr;
  if (pool_ == nullptr || pool_->total_threads() != want) {
    pool_ = std::make_unique<WorkerPool>(want);
  }
  return pool_.get();
}

Status FixpointDriver::RunStagedTasks(
    std::vector<std::unique_ptr<EnumTask>>* tasks) {
  if (tasks->empty()) return Status::OK();
  stats_.parallel_tasks += tasks->size();
  auto run_one = [this](EnumTask& t) {
    // Views are assembled per execution: the base is shared read-only, the
    // occurrence slot points at this task's chunk of the delta.
    std::vector<OccView> views = *t.base_views;
    views[t.occ].only = t.only;
    views[t.occ].only_index = t.only_index;
    views[t.occ].only_begin = t.lo;
    views[t.occ].only_end = t.hi;
    Executor executor(&ctx_, &store_);
    Env env(t.rule->num_slots);
    t.status = executor.Run(
        *t.steps, &env, &views, [&](Env& e) -> Status {
          ++t.matches;
          return InstantiateHeads(*t.rule, e, &t.pending);
        });
  };
  WorkerPool* p = pool();
  if (p == nullptr || tasks->size() == 1) {
    for (auto& t : *tasks) run_one(*t);
  } else {
    std::vector<std::function<void()>> fns;
    fns.reserve(tasks->size());
    for (auto& t : *tasks) {
      if (t->inline_only) continue;
      fns.push_back([&run_one, task = t.get()] { run_one(*task); });
    }
    if (!fns.empty()) p->Run(fns);
    // Side-effecting rules (entity creation) enumerate here, in staging
    // order, once no worker reads the catalog.
    for (auto& t : *tasks) {
      if (t->inline_only) run_one(*t);
    }
  }
  for (const auto& t : *tasks) {
    SB_RETURN_IF_ERROR(t->status);
  }
  return Status::OK();
}

Status FixpointDriver::ApplyStagedTasks(
    std::vector<std::unique_ptr<EnumTask>>& tasks) {
  for (auto& task : tasks) {
    EnumTask& t = *task;
    if (!t.retract) {
      for (auto& [pred, tuple] : t.pending) {
        SB_ASSIGN_OR_RETURN(bool inserted, host_.InsertHeadTuple(pred, tuple));
        if (inserted) ++stats_.derivations;
      }
    } else {
      for (auto& [pred, tuple] : t.pending) {
        SB_RETURN_IF_ERROR(RetractOne(pred, tuple));
      }
    }
  }
  return Status::OK();
}

Status FixpointDriver::RetractOne(PredId pred, const Tuple& tuple) {
  auto gone = disproved_.find(pred);
  if (gone != disproved_.end() && gone->second.count(tuple) != 0) {
    return Status::OK();
  }
  ++stats_.retractions;
  SB_ASSIGN_OR_RETURN(bool erased, host_.RetractSupport(pred, tuple));
  if (erased) {
    ++stats_.deleted;
    return Status::OK();
  }
  ++stats_.rescued;
  NoteSuspect(pred, tuple);
  return Status::OK();
}

void FixpointDriver::NoteSuspect(PredId pred, const Tuple& tuple) {
  // A survivor of a recursively derived predicate may be held up only by
  // derivations through itself (a cycle in a recursive group), which
  // counting cannot tell. It becomes a suspect of the recursive producer,
  // checked when that group's counting cascade ends.
  for (size_t r : graph_.producers_of(pred)) {
    const int g = graph_.group_of_rule(r);
    if (!graph_.group(g).recursive || active_.count(g)) continue;
    Relation* rel = store_.GetRelation(pred);
    if (rel->SupportCount(tuple) > 0) {
      PushToDeltaMap(&suspects_[g], pred, tuple);
    }
    break;
  }
}

Status FixpointDriver::RunGroup(int gid) {
  ActiveSetGuard guard(&active_);
  guard.Add(gid);
  EnsureRelations();
  const RuleGroup& group = graph_.group(gid);

  while (!delta_[gid].adds.empty()) {
    // Snapshot the group's queued insert delta: one round.
    const DeltaMap delta = std::move(delta_[gid].adds);
    delta_[gid].adds.clear();
    ++stats_.rounds;

    // Enumeration phase: chunked semi-naïve variants of every rule with a
    // delta, run against the frozen pre-round state. Nothing mutates the
    // database until the merge phase, so the tasks are pure reads staging
    // into private buffers.
    std::vector<std::unique_ptr<EnumTask>> tasks;
    for (size_t idx : group.rules) {
      const CompiledRule& rule = rules_[idx];
      if (rule.agg.has_value()) continue;
      if (!HasDeltaFor(rule, delta)) {
        ++stats_.firings_skipped;
        continue;
      }
      ++stats_.rule_firings;
      StageVariantTasks(rule, idx, gid, delta, /*retract=*/false, &tasks);
    }
    SB_RETURN_IF_ERROR(RunStagedTasks(&tasks));

    // Merge phase: strictly sequential and in a fixed order — install-order
    // rules, staged chunk order — so insertion order, entity interning, and
    // FD-conflict detection are reproducible at every thread count.
    SB_RETURN_IF_ERROR(ApplyStagedTasks(tasks));
    // Lattice aggregates re-run after every round of their group.
    for (size_t idx : group.rules) {
      const CompiledRule& rule = rules_[idx];
      if (!rule.agg.has_value() || !graph_.lattice(idx)) continue;
      if (HasDeltaFor(rule, delta)) {
        ++stats_.agg_recomputes;
        SB_RETURN_IF_ERROR(RecomputeAggregate(rule, /*lattice=*/true, &delta));
      } else {
        ++stats_.agg_skipped;
      }
    }
    SB_RETURN_IF_ERROR(CheckBudget(group));
  }
  return Status::OK();
}

Status FixpointDriver::ProcessRetractions(int gid) {
  const RuleGroup& group = graph_.group(gid);

  // Pure stratified-aggregate group: the full recompute (already armed via
  // touched_) subsumes retraction; run it now so a delete delta arriving
  // mid-stratum cannot leave a stale aggregate behind.
  bool all_agg = true;
  for (size_t idx : group.rules) {
    if (!rules_[idx].agg.has_value() || graph_.lattice(idx)) {
      all_agg = false;
      break;
    }
  }
  if (all_agg) {
    // A flipped negation probe never shows up in scan_preds (TouchedAny
    // cannot see it), so it forces the recompute on its own.
    bool flipped = !neg_[gid].empty();
    delta_[gid].dels.clear();
    neg_[gid].clear();
    for (size_t idx : group.rules) {
      const CompiledRule& rule = rules_[idx];
      if (!flipped && !TouchedAny(rule)) continue;
      ++stats_.agg_recomputes;
      SB_RETURN_IF_ERROR(RecomputeAggregate(rule, /*lattice=*/false));
      SB_RETURN_IF_ERROR(CheckBudget(group));
    }
    return Status::OK();
  }

  // A delete delta or a suspect reaching a group recomputes the cluster
  // (superseding its flips) where counting cannot see the supports:
  // lattice aggregate outputs carry none, and a group that negates its own
  // head — recursive or not — counted each instantiation with the
  // negation read when it fired, ignoring the flips its own derivations
  // caused, while retract variants probe the negation against the current
  // state.
  if ((!delta_[gid].dels.empty() || !suspects_[gid].empty()) &&
      std::any_of(group.rules.begin(), group.rules.end(), [&](size_t idx) {
        const CompiledRule& rule = rules_[idx];
        if (rule.agg.has_value() && graph_.lattice(idx)) return true;
        for (PredId h : HeadPreds(rule)) {
          const std::vector<int>& negators = graph_.negator_groups_of(h);
          if (std::binary_search(negators.begin(), negators.end(), gid)) {
            return true;
          }
        }
        return false;
      })) {
    return RederiveCluster(gid);
  }
  if (!neg_[gid].empty()) {
    bool rederive = false;
    SB_RETURN_IF_ERROR(ProcessFlips(gid, &rederive));
    if (rederive) return RederiveCluster(gid);
  }

  // Counting path: enumerate destroyed instantiations on the pool (same
  // phase split as an insert round — the supports drop in the merge phase),
  // against the post-flip negation state. A recursive group's erasures of
  // its own head tuples come back as the next round's delete delta (the
  // group is not active); they flip nothing it negates (see above).
  EnsureRelations();
  std::map<PredId, TupleSet> proved;
  while (true) {
    while (!delta_[gid].dels.empty()) {
      DeltaMap dels = std::move(delta_[gid].dels);
      delta_[gid].dels.clear();
      ++stats_.rounds;
      std::vector<std::unique_ptr<EnumTask>> tasks;
      for (size_t idx : group.rules) {
        const CompiledRule& rule = rules_[idx];
        if (HasDeltaFor(rule, dels)) {
          ++stats_.retract_firings;
          StageVariantTasks(rule, idx, gid, dels, /*retract=*/true, &tasks);
        } else {
          ++stats_.firings_skipped;
        }
      }
      SB_RETURN_IF_ERROR(RunStagedTasks(&tasks));
      SB_RETURN_IF_ERROR(ApplyStagedTasks(tasks));
    }

    // The supports are exact now. A survivor that lost every well-founded
    // derivation sits above a suspect that is still live (docs/engine.md,
    // "Deletion semantics"): prove the suspects or erase what the search
    // disproves, and count its erasures out like any delete delta.
    DeltaMap suspects = std::move(suspects_[gid]);
    suspects_[gid].clear();
    if (suspects.empty()) break;
    if (!ProducersRunFirst(gid)) {
      disproved_.clear();
      return RederiveCluster(gid);
    }
    bool erased = false;
    SB_RETURN_IF_ERROR(SettleSuspects(gid, suspects, &proved, &erased));
    if (!erased) break;
  }
  disproved_.clear();
  return Status::OK();
}

bool FixpointDriver::ProducersRunFirst(int gid) const {
  const RuleGroup& group = graph_.group(gid);
  const std::vector<int>& order = graph_.groups_in_stratum(group.stratum);
  const auto rank = [&](int g) {
    return std::make_pair(
        graph_.group(g).stratum,
        std::find(order.begin(), order.end(), g) - order.begin());
  };
  for (size_t idx : group.rules) {
    for (PredId h : HeadPreds(rules_[idx])) {
      for (size_t r : graph_.producers_of(h)) {
        const int g = graph_.group_of_rule(r);
        if (g != gid && rank(gid) < rank(g)) return false;
      }
    }
  }
  return true;
}

Status FixpointDriver::SettleSuspects(int gid, const DeltaMap& suspects,
                                      std::map<PredId, TupleSet>* proved,
                                      bool* erased) {
  // Tuples of these predicates are checked; any other body tuple is
  // founded: its group ran earlier, or it is an input.
  std::set<PredId> own;
  for (size_t idx : graph_.group(gid).rules) {
    for (PredId h : HeadPreds(rules_[idx])) own.insert(h);
  }
  // The search graph: a node per checked tuple, and per instantiation
  // deriving a node the count of its body nodes not yet proved.
  struct Node {
    PredId pred = datalog::kInvalidPred;
    const Tuple* tuple = nullptr;  // the key in `ids`
    bool proved = false;
    bool expanded = false;
    bool root = false;
    std::vector<uint32_t> insts;     // instantiations deriving it
    std::vector<uint32_t> watchers;  // instantiations reading it, per read
  };
  struct Inst {
    uint32_t head;
    uint32_t pending;
    std::vector<uint32_t> body;
  };
  std::vector<Node> nodes;
  std::vector<Inst> insts;
  std::map<PredId, std::unordered_map<Tuple, uint32_t, TupleHash>> ids;
  size_t open_roots = 0;
  auto node_of = [&](PredId pred, const Tuple& t) -> uint32_t {
    auto [it, fresh] =
        ids[pred].try_emplace(t, static_cast<uint32_t>(nodes.size()));
    if (fresh) {
      nodes.emplace_back();
      nodes.back().pred = pred;
      nodes.back().tuple = &it->first;
    }
    return it->second;
  };
  // Forward saturation, run as proofs are found: a node proved completes
  // the instantiations waiting on it, which prove their heads in turn.
  auto prove = [&](uint32_t id) {
    std::vector<uint32_t> queue{id};
    nodes[id].proved = true;
    while (!queue.empty()) {
      const Node& n = nodes[queue.back()];
      queue.pop_back();
      if (n.root) --open_roots;
      for (uint32_t i : n.watchers) {
        const uint32_t head = insts[i].head;
        if (--insts[i].pending == 0 && !nodes[head].proved) {
          nodes[head].proved = true;
          queue.push_back(head);
        }
      }
    }
  };

  DeltaMap frontier;
  for (const auto& [pred, tuples] : suspects) {
    const Relation* rel = store_.GetRelation(pred);
    const auto memo = proved->find(pred);
    for (const Tuple& t : tuples) {
      if (!rel->Contains(t) || host_.IsBaseFact(pred, t)) continue;
      if (memo != proved->end() && memo->second.count(t) != 0) {
        ++stats_.suspects_proved;
        continue;
      }
      Node& n = nodes[node_of(pred, t)];
      if (n.root) continue;
      n.root = n.expanded = true;
      ++open_roots;
      frontier[pred].push_back(t);
    }
  }

  // Backward chaining, one level of checked tuples at a time: enumerate
  // every live instantiation deriving each, against the state the retract
  // variants read (the producing group's unconsumed inserts hidden).
  // Which nodes a level proves, and so which it hands to the next, does
  // not depend on the order its instantiations are met in.
  const DeltaMap no_delta;
  std::vector<uint32_t> body;
  std::vector<uint32_t> level;
  while (!frontier.empty() && open_roots > 0) {
    const DeltaMap rows = std::move(frontier);
    frontier.clear();
    level.clear();
    for (const auto& [pred, tuples] : rows) {
      for (const Tuple& t : tuples) level.push_back(ids[pred].at(t));
      for (size_t r : graph_.producers_of(pred)) {
        const CompiledRule& rule = rules_[r];
        for (size_t j = 0; j < rule.heads.size(); ++j) {
          const CompiledHead& head = rule.heads[j];
          if (head.pred != pred) continue;
          const int n = rule.num_scan_occurrences;
          const int occ = rule.head_occurrence();
          std::vector<OccView> views(static_cast<size_t>(occ) + 1);
          std::vector<TupleSet> excl(n);
          BuildVariantViews(rule, no_delta,
                            delta_[graph_.group_of_rule(r)].adds, occ,
                            /*retract=*/true, &views, &excl);
          views[occ].only = &tuples;
          const std::vector<Step>& steps = planner_->PlanForHead(rule, j);
          WarmProbes(steps);
          Executor executor(&ctx_, &store_);
          Env env(rule.num_slots);
          Tuple key;
          SB_RETURN_IF_ERROR(executor.Run(
              steps, &env, &views, [&](Env& e) -> Status {
                // The head scan bound an existential from the tuple; the
                // instantiation derives it only if the memo agrees.
                if (!rule.existential_slots.empty()) {
                  Env memo = e;
                  for (int s : rule.existential_slots) memo[s].reset();
                  std::vector<int> bound_here;
                  SB_RETURN_IF_ERROR(
                      host_.BindExistentials(rule, &memo, &bound_here));
                  for (int s : rule.existential_slots) {
                    if (!(*memo[s] == *e[s])) return Status::OK();
                  }
                }
                auto instantiate = [&](const std::vector<ArgPat>& args) {
                  key.clear();
                  for (const ArgPat& p : args) {
                    key.push_back(p.kind == ArgPat::Kind::kConst
                                      ? *p.constant
                                      : *e[p.slot]);
                  }
                };
                instantiate(head.args);
                const uint32_t hid = ids[pred].at(key);
                if (nodes[hid].proved) return Status::OK();
                body.clear();
                for (const Step& s : rule.steps) {
                  if ((s.kind != Step::Kind::kScan &&
                       s.kind != Step::Kind::kLookup) ||
                      own.count(s.pred) == 0) {
                    continue;
                  }
                  instantiate(s.args);
                  auto m = proved->find(s.pred);
                  if ((m != proved->end() && m->second.count(key) != 0) ||
                      host_.IsBaseFact(s.pred, key)) {
                    continue;
                  }
                  const uint32_t b = node_of(s.pred, key);
                  if (!nodes[b].proved) body.push_back(b);
                }
                if (body.empty()) {
                  prove(hid);
                  return Status::OK();
                }
                const auto i = static_cast<uint32_t>(insts.size());
                insts.push_back(
                    {hid, static_cast<uint32_t>(body.size()), body});
                nodes[hid].insts.push_back(i);
                for (uint32_t b : body) nodes[b].watchers.push_back(i);
                return Status::OK();
              }));
        }
      }
    }
    // Only a node still unproved needs the body tuples of its
    // instantiations checked.
    for (uint32_t id : level) {
      if (nodes[id].proved) continue;
      for (uint32_t i : nodes[id].insts) {
        for (uint32_t b : insts[i].body) {
          Node& n = nodes[b];
          if (n.expanded) continue;
          n.expanded = true;
          frontier[n.pred].push_back(*n.tuple);
        }
      }
    }
  }

  for (const Node& n : nodes) {
    if (n.proved) (*proved)[n.pred].insert(*n.tuple);
    if (n.root) {
      ++(n.proved ? stats_.suspects_proved : stats_.suspects_disproved);
    }
  }
  // With every suspect proved no live tuple of the group is unfounded.
  // Otherwise the search ran to completion: a checked tuple it could not
  // prove has no derivation outside the unproved set, so it is unfounded.
  if (open_roots == 0) return Status::OK();
  std::map<PredId, std::vector<Tuple>> gone;
  for (const Node& n : nodes) {
    if (n.expanded && !n.proved) gone[n.pred].push_back(*n.tuple);
  }
  for (auto& [pred, tuples] : gone) {
    std::sort(tuples.begin(), tuples.end());
    TupleSet& mark = disproved_[pred];
    for (const Tuple& t : tuples) {
      mark.insert(t);
      SB_RETURN_IF_ERROR(host_.EraseTuple(pred, t));
      ++stats_.deleted;
    }
  }
  *erased = true;
  return Status::OK();
}

Status FixpointDriver::ProcessFlips(int gid, bool* rederive) {
  const RuleGroup& group = graph_.group(gid);
  EnsureRelations();
  const ChangeQueue neg = std::move(neg_[gid]);
  neg_[gid].clear();

  // Flipped predicates fold in PredId order. For each, deletes go first
  // (they can only unblock), then inserts (they can only block); every
  // variant is enumerated against the frozen pre-flip database, its
  // negation probes reading each predicate at its state for that step.
  std::set<PredId> flipped;
  for (const auto& [pred, tuples] : neg.adds) flipped.insert(pred);
  for (const auto& [pred, tuples] : neg.dels) flipped.insert(pred);
  std::map<PredId, std::shared_ptr<TupleSet>> added;
  std::vector<std::unique_ptr<EnumTask>> tasks;
  for (PredId pred : flipped) {
    for (bool retract : {false, true}) {
      const DeltaMap& changes = retract ? neg.adds : neg.dels;
      auto it = changes.find(pred);
      if (it == changes.end()) continue;
      for (size_t idx : group.rules) {
        const CompiledRule& rule = rules_[idx];
        for (size_t k = 0; k < rule.neg_preds.size(); ++k) {
          if (rule.neg_preds[k] != pred) continue;
          StageFlipTasks(rule, idx, gid, k, retract, it->second, neg, &added,
                         &tasks);
        }
      }
    }
  }
  if (tasks.empty()) return Status::OK();
  SB_RETURN_IF_ERROR(RunStagedTasks(&tasks));

  // Counting cannot retract through a cycle, and lattice aggregates are
  // not support-counted: a flip that blocks a live instantiation there
  // leaves it to the local recompute.
  for (const auto& t : tasks) {
    if (t->retract && t->matches > 0 &&
        (group.recursive || t->rule->agg.has_value())) {
      *rederive = true;
      return Status::OK();
    }
  }

  // Merge in staging order. The group's own changes to predicates it
  // negates are ignored, as in its insert rounds (derivation-time
  // negation).
  ActiveSetGuard guard(&active_);
  guard.Add(gid);
  std::set<size_t> agg_rerun;
  for (const auto& t : tasks) {
    stats_.flip_matches += t->matches;
    if (t->rule->agg.has_value() && t->matches > 0) {
      agg_rerun.insert(t->rule_idx);
    }
  }
  SB_RETURN_IF_ERROR(ApplyStagedTasks(tasks));
  // An unblocked aggregate body binding can only improve a lattice value.
  for (size_t idx : agg_rerun) {
    ++stats_.agg_recomputes;
    SB_RETURN_IF_ERROR(RecomputeAggregate(rules_[idx], /*lattice=*/true));
  }
  return CheckBudget(group);
}

void FixpointDriver::DropHeadlessRows(const CompiledRule& rule,
                                      const Step& atom,
                                      std::vector<Tuple>* rows) {
  // Pick a head whose key the atom's variables fix: a functional head's
  // key columns, or every column. Placed heads may live at another node.
  for (const CompiledHead& head : rule.heads) {
    if (options_.placement != nullptr &&
        options_.placement->IsPlaced(head.pred)) {
      continue;
    }
    const datalog::PredicateDecl& decl = ctx_.catalog->decl(head.pred);
    // Per head column: the atom column that fixes it, -2 for a constant,
    // -1 when the atom leaves it open.
    std::vector<int> from(head.args.size(), -1);
    for (size_t c = 0; c < head.args.size(); ++c) {
      const ArgPat& p = head.args[c];
      if (p.kind == ArgPat::Kind::kConst) {
        from[c] = -2;
        continue;
      }
      if (p.kind != ArgPat::Kind::kBound) continue;
      for (size_t j = 0; j < atom.args.size(); ++j) {
        if (atom.args[j].kind == ArgPat::Kind::kBound &&
            atom.args[j].slot == p.slot) {
          from[c] = static_cast<int>(j);
          break;
        }
      }
    }
    auto fixed = [&](size_t cols) {
      return std::all_of(from.begin(), from.begin() + cols,
                         [](int f) { return f != -1; });
    };
    size_t width;
    if (fixed(from.size())) {
      width = from.size();
    } else if (decl.functional && fixed(decl.num_keys())) {
      width = decl.num_keys();
    } else {
      continue;
    }
    const Relation* rel = store_.GetRelation(head.pred);
    Tuple probe;
    Tuple scratch;
    auto headless = [&](const Tuple& row) {
      probe.clear();
      for (size_t c = 0; c < width; ++c) {
        probe.push_back(from[c] == -2 ? *head.args[c].constant : row[from[c]]);
      }
      return width == from.size() ? !rel->Contains(probe)
                                  : rel->LookupByKeys(probe, &scratch) ==
                                        nullptr;
    };
    rows->erase(std::remove_if(rows->begin(), rows->end(), headless),
                rows->end());
    return;
  }
}

void FixpointDriver::StageFlipTasks(
    const CompiledRule& rule, size_t rule_idx, int gid, size_t k,
    bool retract, const std::vector<Tuple>& changed, const ChangeQueue& neg,
    std::map<PredId, std::shared_ptr<TupleSet>>* added,
    std::vector<std::unique_ptr<EnumTask>>* tasks) {
  const PredId pred = rule.neg_preds[k];
  const int n = rule.num_scan_occurrences;
  const size_t m = rule.neg_preds.size();
  const int flip_occ = rule.flip_occurrence();

  // Flipped tuples that agree on the negated atom's non-wildcard columns
  // block or unblock the same instantiations: keep the first of each.
  const std::vector<Step>& base = rule.flip_steps[k];
  const Step& atom =
      *std::find_if(base.begin(), base.end(),
                    [&](const Step& s) { return s.occurrence == flip_occ; });
  std::vector<size_t> key_cols;
  for (size_t c = 0; c < atom.args.size(); ++c) {
    if (atom.args[c].kind != ArgPat::Kind::kWild) key_cols.push_back(c);
  }
  auto rows = std::make_shared<std::vector<Tuple>>();
  if (key_cols.size() == atom.args.size()) {
    *rows = changed;
  } else {
    TupleSet seen;
    for (const Tuple& t : changed) {
      Tuple key;
      key.reserve(key_cols.size());
      for (size_t c : key_cols) key.push_back(t[c]);
      if (seen.insert(std::move(key)).second) rows->push_back(t);
    }
  }
  stats_.flip_probes += rows->size();
  // A live instantiation supports every head it derives, so an insert
  // can only block instantiations whose head tuples exist — unless a
  // deletes pass staged before this one derives them first.
  const bool unblocks_staged = std::any_of(
      tasks->begin(), tasks->end(),
      [](const std::unique_ptr<EnumTask>& t) { return !t->retract; });
  if (retract && !rule.agg.has_value() && !unblocks_staged) {
    DropHeadlessRows(rule, atom, rows.get());
  }
  if (rows->empty()) return;

  // Positive occurrences read the state the supports were counted on:
  // unconsumed insert deltas hidden, unprocessed delete deltas restored.
  const ChangeQueue& pending = delta_[gid];
  auto excl = std::make_shared<std::vector<TupleSet>>(n);
  auto views = std::make_shared<std::vector<OccView>>(n + m + 1);
  for (int j = 0; j < n; ++j) {
    const PredId q = rule.scan_preds[j];
    auto a = pending.adds.find(q);
    if (a != pending.adds.end() && !a->second.empty()) {
      (*excl)[j].insert(a->second.begin(), a->second.end());
      (*views)[j].exclude = &(*excl)[j];
    }
    auto d = pending.dels.find(q);
    if (d != pending.dels.end() && !d->second.empty()) {
      (*views)[j].extra = &d->second;
    }
  }
  // Negation probes. A predicate not yet folded in reads as before its
  // change (inserts hidden, deletes restored), one already folded reads
  // live. The flipped predicate itself: this variant's atom k, and the
  // atoms after it, read it with its deletes applied and its inserts not
  // yet; atoms before k read it as before the deletes (deletes pass) or
  // live (inserts pass) — so an instantiation is enumerated once, at its
  // first atom the change affects.
  auto before = [&](OccView* v, PredId q, bool restore_deletes) {
    auto a = neg.adds.find(q);
    if (a != neg.adds.end()) {
      std::shared_ptr<TupleSet>& set = (*added)[q];
      if (set == nullptr) {
        set = std::make_shared<TupleSet>(a->second.begin(), a->second.end());
      }
      v->exclude = set.get();
    }
    if (!restore_deletes) return;
    auto d = neg.dels.find(q);
    if (d != neg.dels.end() && !d->second.empty()) v->extra = &d->second;
  };
  for (size_t j = 0; j < m; ++j) {
    OccView* v = &(*views)[n + j];
    const PredId q = rule.neg_preds[j];
    if (q == pred) {
      if (j >= k) {
        before(v, q, /*restore_deletes=*/false);
      } else if (!retract) {
        before(v, q, /*restore_deletes=*/true);
      }
    } else if (q > pred &&
               (neg.adds.count(q) != 0 || neg.dels.count(q) != 0)) {
      before(v, q, /*restore_deletes=*/true);
    }
  }

  const std::vector<Step>& steps = planner_->PlanForFlip(rule, k);
  WarmProbes(steps);

  EnumTask proto;
  proto.rule = &rule;
  proto.steps = &steps;
  proto.rule_idx = rule_idx;
  proto.retract = retract;
  proto.inline_only = !rule.parallel_safe;
  proto.occ = flip_occ;
  proto.base_views = std::move(views);
  proto.excl = std::move(excl);
  proto.rows = rows;
  StageChunks(proto, *rows, store_.GetRelation(pred), tasks);
}

Status FixpointDriver::CheckBudget(const RuleGroup& group) {
  if (stats_.derivations <= budget_limit_) return Status::OK();
  std::string culprits;
  for (size_t idx : group.rules) {
    const CompiledRule& rule = rules_[idx];
    if (rule.agg.has_value() ||
        HasDeltaFor(rule, delta_[group.id].adds) || TouchedAny(rule)) {
      if (!culprits.empty()) culprits += "; ";
      culprits += rule.source.ToString();
    }
  }
  return Status::Internal(
      "fixpoint exceeded derivation budget (" +
      std::to_string(options_.max_derivations) + " tuples) in stratum " +
      std::to_string(group.stratum) + ", rule group " +
      std::to_string(group.id) +
      (culprits.empty() ? "" : "; rules still producing deltas: " + culprits));
}

Status FixpointDriver::InstantiateHeads(
    const CompiledRule& rule, Env& env,
    std::vector<std::pair<PredId, Tuple>>* pending) {
  std::vector<int> bound_here;
  if (!rule.existential_slots.empty()) {
    SB_RETURN_IF_ERROR(host_.BindExistentials(rule, &env, &bound_here));
  }
  for (const CompiledHead& head : rule.heads) {
    Tuple t;
    t.reserve(head.args.size());
    for (const ArgPat& p : head.args) {
      if (p.kind == ArgPat::Kind::kConst) {
        t.push_back(*p.constant);
      } else {
        t.push_back(*env[p.slot]);
      }
    }
    pending->emplace_back(head.pred, std::move(t));
  }
  for (int s : bound_here) env[s].reset();
  return Status::OK();
}

Status FixpointDriver::RederiveCluster(int gid) {
  ++stats_.group_rederives;
  // Closure over shared head predicates: every rule deriving an
  // over-deleted predicate must re-fire, whichever group it lives in.
  std::set<int> cluster{gid};
  std::set<PredId> cpreds;
  std::vector<int> work{gid};
  while (!work.empty()) {
    int g = work.back();
    work.pop_back();
    for (size_t idx : graph_.group(g).rules) {
      for (PredId h : HeadPreds(rules_[idx])) {
        if (!cpreds.insert(h).second) continue;
        for (size_t r : graph_.producers_of(h)) {
          int pg = graph_.group_of_rule(r);
          if (cluster.insert(pg).second) work.push_back(pg);
        }
      }
    }
  }

  ActiveSetGuard guard(&active_);
  for (int g : cluster) guard.Add(g);
  // Pending deltas, flips and suspects for cluster members are superseded
  // by the full local recompute.
  for (int g : cluster) {
    delta_[g].clear();
    neg_[g].clear();
    suspects_[g].clear();
  }
  for (PredId p : cpreds) {
    SB_ASSIGN_OR_RETURN(uint64_t over_deleted, host_.OverDeleteDerived(p));
    // Rederiving what was just over-deleted is not runaway work.
    budget_limit_ += over_deleted;
  }

  // Reseed each cluster group from the full extension of its body
  // predicates — the group-local analogue of DRed's rederivation pass.
  for (int g : cluster) {
    std::set<PredId> seen;
    for (size_t idx : graph_.group(g).rules) {
      for (PredId p : rules_[idx].scan_preds) {
        if (!seen.insert(p).second) continue;
        Relation* rel = store_.GetRelation(p);
        if (rel == nullptr || rel->empty()) continue;
        std::vector<Tuple>& vec = delta_[g].adds[p];
        vec = rel->AllTuples();
        stats_.rederive_seeded += vec.size();
        budget_limit_ += vec.size();
      }
    }
  }

  // Local fixpoint over the cluster: strata in order, groups topological
  // within; each group drains in turn, and the bulky reseed rounds fan out
  // across the pool like any other round. A stratified
  // aggregate whose head was over-deleted recomputes when its inputs have
  // a pending delta — the seed always provides one, so the first pass
  // restores the output and quiet passes skip the scan.
  std::vector<int> order(cluster.begin(), cluster.end());
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return std::make_pair(graph_.group(a).stratum, a) <
           std::make_pair(graph_.group(b).stratum, b);
  });
  bool any = true;
  while (any) {
    any = false;
    for (int g : order) {
      const RuleGroup& grp = graph_.group(g);
      for (size_t idx : grp.rules) {
        const CompiledRule& rule = rules_[idx];
        if (rule.agg.has_value() && !graph_.lattice(idx) &&
            HasDeltaFor(rule, delta_[g].adds)) {
          ++stats_.agg_recomputes;
          SB_RETURN_IF_ERROR(RecomputeAggregate(rule, /*lattice=*/false));
        }
      }
      if (!delta_[g].adds.empty()) {
        any = true;
        SB_RETURN_IF_ERROR(RunGroup(g));
      }
    }
  }
  return Status::OK();
}

Status FixpointDriver::RecomputeAggregate(const CompiledRule& rule,
                                          bool lattice,
                                          const DeltaMap* delta) {
  const CompiledAgg& agg = *rule.agg;
  Executor executor(&ctx_, &store_);
  // A lattice value already covers every binding of earlier rounds (each
  // body tuple passes through exactly one round's delta), so after its
  // first full pass only bindings touching this round's delta can improve
  // it. min/max are idempotent: a binding met at two delta occurrences
  // counts once.
  const bool incremental =
      lattice && delta != nullptr && lattice_seen_.count(rule.id) != 0;
  if (lattice) lattice_seen_.insert(rule.id);

  // Group body bindings by the head keys.
  std::map<Tuple, int64_t> groups;
  Env env(rule.num_slots);
  const std::function<Status(Env&)> add_binding = [&](Env& e) -> Status {
        Tuple key;
        for (const ArgPat& p : agg.key_args) {
          key.push_back(p.kind == ArgPat::Kind::kConst ? *p.constant
                                                       : *e[p.slot]);
        }
        int64_t v = 0;
        if (agg.input_slot >= 0) {
          const Value& val = *e[agg.input_slot];
          if (val.kind() != ValueKind::kInt) {
            return Status::TypeError("aggregate input is not an integer");
          }
          v = val.AsInt();
        }
        auto [it, fresh] = groups.try_emplace(std::move(key), 0);
        switch (agg.func) {
          case datalog::AggFunc::kMin:
            it->second = fresh ? v : std::min(it->second, v);
            break;
          case datalog::AggFunc::kMax:
            it->second = fresh ? v : std::max(it->second, v);
            break;
          case datalog::AggFunc::kSum:
            it->second += v;
            break;
          case datalog::AggFunc::kCount:
            it->second += 1;
            break;
        }
        return Status::OK();
      };
  if (!incremental) {
    SB_RETURN_IF_ERROR(executor.Run(
        planner_->PlanFor(rule, ExecPlanner::kFullBody), &env, nullptr,
        add_binding));
  } else {
    const int n = rule.num_scan_occurrences;
    for (int occ = 0; occ < n; ++occ) {
      auto it = delta->find(rule.scan_preds[occ]);
      if (it == delta->end() || it->second.empty()) continue;
      std::vector<OccView> views(n);
      views[occ].only = &it->second;
      SB_RETURN_IF_ERROR(executor.Run(planner_->PlanFor(rule, occ), &env,
                                      &views, add_binding));
    }
  }

  Relation* rel = store_.GetRelation(agg.head_pred);

  if (!lattice) {
    // Full recompute: drop stale groups first.
    std::vector<Tuple> existing = rel->AllTuples();
    for (const Tuple& t : existing) {
      Tuple keys(t.begin(), t.end() - 1);
      if (!groups.count(keys)) {
        SB_RETURN_IF_ERROR(host_.EraseTuple(agg.head_pred, t));
      }
    }
  }

  Tuple lookup_scratch;
  for (const auto& [keys, v] : groups) {
    Tuple desired = keys;
    desired.push_back(Value::Int(v));
    const Tuple* current = rel->LookupByKeys(keys, &lookup_scratch);
    if (current != nullptr) {
      int64_t cur = current->back().AsInt();
      bool improve;
      if (lattice) {
        improve = agg.func == datalog::AggFunc::kMin ? v < cur : v > cur;
      } else {
        improve = v != cur;
      }
      if (!improve) continue;
      SB_RETURN_IF_ERROR(host_.EraseTuple(agg.head_pred, *current));
    }
    SB_ASSIGN_OR_RETURN(bool inserted,
                        host_.InsertDerivedTuple(agg.head_pred, desired));
    if (inserted) ++stats_.derivations;
  }
  return Status::OK();
}

}  // namespace secureblox::engine
