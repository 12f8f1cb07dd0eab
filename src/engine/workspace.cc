#include "engine/workspace.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/strings.h"
#include "crypto/sha256.h"
#include "datalog/typecheck.h"

namespace secureblox::engine {

using datalog::Catalog;
using datalog::PredicateDecl;
using datalog::PredId;
using datalog::Value;
using datalog::ValueKind;

Workspace::Workspace() : catalog_(std::make_unique<Catalog>()) {
  ctx_.catalog = catalog_.get();
  RegisterCoreBuiltins(&builtins_);
  // Fixpoint worker threads: SB_THREADS=N (0 = one per hardware thread,
  // unset = sequential). Any value computes the identical fixpoint.
  // Garbage or negative values keep the sequential default rather than
  // accidentally meaning "all cores".
  if (const char* env = std::getenv("SB_THREADS")) {
    char* end = nullptr;
    long n = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && n >= 0 && n <= 1024) {
      fixpoint_options_.threads = static_cast<int>(n);
    }
  }
  // Relation storage shards: SB_SHARDS=N (unset/1 = unsharded layout).
  // Any value computes the identical fixpoint; garbage keeps the default.
  if (const char* env = std::getenv("SB_SHARDS")) {
    char* end = nullptr;
    long n = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && n >= 1 && n <= 4096) {
      fixpoint_options_.shards = static_cast<size_t>(n);
    }
  }
  // SB_EXPLAIN=1 dumps every built plan to stderr (docs/engine.md).
  if (const char* env = std::getenv("SB_EXPLAIN")) {
    char* end = nullptr;
    long n = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && n == 1) {
      fixpoint_options_.explain = true;
    }
  }
  // Empty rule graph + driver so transactions work before the first Install.
  rule_graph_ = RuleGraph::Build({}, *catalog_, false).value();
  driver_ = std::make_unique<FixpointDriver>(
      &rule_graph_, &compiled_rules_, &ctx_, this,
      static_cast<FixpointHost*>(this), &fixpoint_options_);
}

Relation* Workspace::GetRelation(PredId pred) {
  if (pred < 0) return nullptr;
  if (static_cast<size_t>(pred) >= relations_.size()) {
    relations_.resize(pred + 1);
  }
  if (relations_[pred] == nullptr) {
    // The shard count is latched per relation at creation (first touch),
    // so FixpointOptions::shards must be set before data arrives.
    relations_[pred] = std::make_unique<Relation>(&catalog_->decl(pred),
                                                 fixpoint_options_.shards);
  }
  return relations_[pred].get();
}

const Relation* Workspace::GetRelationIfExists(PredId pred) const {
  if (pred < 0 || static_cast<size_t>(pred) >= relations_.size()) {
    return nullptr;
  }
  return relations_[pred].get();
}

Status Workspace::Install(const datalog::Program& program) {
  SB_ASSIGN_OR_RETURN(
      datalog::AnalyzedProgram analyzed,
      datalog::AnalyzeProgram(program, catalog_.get(), builtins_.Signatures()));
  // The program may have added supertypes, which known entities lack.
  members_known_.clear();
  if (defer_rules_) {
    // Query-serving mode: record the rules for the query front end and
    // drop runtime constraints — nothing is materialized until a query
    // slice asks for it, and a partially materialized database would
    // raise spurious violations on constraints whose right-hand side is a
    // derived predicate. Validation happened upstream, on the node that
    // committed the facts.
    for (auto& r : analyzed.rules) deferred_rules_.push_back(std::move(r));
  } else {
    for (auto& r : analyzed.rules) installed_rules_.push_back(std::move(r));
    for (auto& c : analyzed.runtime_constraints) {
      installed_constraints_.push_back(std::move(c));
    }
    SB_RETURN_IF_ERROR(Recompile());
  }

  // Apply ground facts through a transaction.
  std::vector<FactUpdate> inserts;
  for (const datalog::Rule& fact : analyzed.facts) {
    for (const datalog::Atom& atom : fact.heads) {
      FactUpdate u;
      u.pred = atom.pred.name;
      for (const auto& arg : atom.args) u.values.push_back(arg->constant);
      inserts.push_back(std::move(u));
    }
  }
  if (!inserts.empty()) {
    auto commit = Apply(inserts);
    if (!commit.ok()) return commit.status();
  }
  return Status::OK();
}

Status Workspace::InstallSlice(const datalog::Program& program) {
  SB_ASSIGN_OR_RETURN(
      datalog::AnalyzedProgram analyzed,
      datalog::AnalyzeProgram(program, catalog_.get(), builtins_.Signatures()));
  if (!analyzed.facts.empty() || !analyzed.runtime_constraints.empty()) {
    return Status::InvalidArgument("query slice must contain rules only");
  }
  members_known_.clear();  // as in Install
  for (auto& r : analyzed.rules) installed_rules_.push_back(std::move(r));
  return Recompile();
}

Status Workspace::Recompile() {
  RuleCompiler compiler(*catalog_, builtins_);
  compiled_rules_.clear();
  for (size_t i = 0; i < installed_rules_.size(); ++i) {
    SB_ASSIGN_OR_RETURN(
        CompiledRule cr,
        compiler.CompileRule(installed_rules_[i], static_cast<int>(i)));
    compiled_rules_.push_back(std::move(cr));
  }
  std::vector<CompiledRule*> ptrs;
  for (auto& r : compiled_rules_) ptrs.push_back(&r);
  SB_ASSIGN_OR_RETURN(rule_graph_,
                      RuleGraph::Build(ptrs, *catalog_,
                                       allow_unstratified_negation_));
  for (size_t i = 0; i < compiled_rules_.size(); ++i) {
    compiled_rules_[i].stratum = rule_graph_.stratum_of(i);
  }
  driver_ = std::make_unique<FixpointDriver>(
      &rule_graph_, &compiled_rules_, &ctx_, this,
      static_cast<FixpointHost*>(this), &fixpoint_options_);

  compiled_constraints_.clear();
  for (size_t i = 0; i < installed_constraints_.size(); ++i) {
    SB_ASSIGN_OR_RETURN(CompiledConstraint cc,
                        compiler.CompileConstraint(installed_constraints_[i],
                                                   static_cast<int>(i)));
    compiled_constraints_.push_back(std::move(cc));
  }
  return Status::OK();
}

Result<Tuple> Workspace::NormalizeTuple(PredId pred,
                                        const std::vector<Value>& values) {
  const PredicateDecl& decl = catalog_->decl(pred);
  if (values.size() != decl.arity()) {
    return Status::InvalidArgument(
        "arity mismatch for '" + decl.name + "': got " +
        std::to_string(values.size()) + ", declared " +
        std::to_string(decl.arity()));
  }
  Tuple out;
  out.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    PredId type = decl.arg_types[i];
    const PredicateDecl& t = catalog_->decl(type);
    const Value& v = values[i];
    if (t.is_entity_type) {
      if (v.kind() == ValueKind::kString) {
        SB_ASSIGN_OR_RETURN(Value e, catalog_->InternEntity(type, v.AsString()));
        out.push_back(std::move(e));
        continue;
      }
      if (v.is_entity() && catalog_->IsSubtype(v.entity_type(), type)) {
        out.push_back(v);
        continue;
      }
      return Status::TypeError("value " + catalog_->ValueToString(v) +
                               " does not inhabit entity type '" + t.name +
                               "' (arg " + std::to_string(i) + " of " +
                               decl.name + ")");
    }
    if (t.is_primitive) {
      if (v.kind() != t.primitive_kind) {
        return Status::TypeError("value " + v.ToString() +
                                 " does not have type '" + t.name +
                                 "' (arg " + std::to_string(i) + " of " +
                                 decl.name + ")");
      }
      out.push_back(v);
      continue;
    }
    return Status::TypeError("argument type of '" + decl.name +
                             "' is not a type predicate");
  }
  return out;
}

std::vector<Tuple> TxCommit::Decode(const std::vector<Added>& added,
                                     const std::vector<uint32_t>& codes,
                                     PredId pred) {
  std::vector<Tuple> out;
  for (const Added& a : added) {
    if (a.live && a.rel->decl().id == pred) {
      out.push_back(a.rel->DecodeCodes(codes.data() + a.key));
    }
  }
  return out;
}

size_t Workspace::TxKeyHash::operator()(const TxKey& k) const {
  return (static_cast<size_t>(static_cast<uint32_t>(k.pred)) << 32) ^
         HashCodes(codes->data() + k.key, k.width);
}

bool Workspace::TxKeyEq::operator()(const TxKey& a, const TxKey& b) const {
  return a.pred == b.pred && a.width == b.width &&
         std::equal(codes->data() + a.key, codes->data() + a.key + a.width,
                    codes->data() + b.key);
}

Status Workspace::EnsureEntityMembership(const Value& v, bool seed_deltas,
                                         TxState* tx) {
  if (!v.is_entity()) return Status::OK();
  const PredId type = v.entity_type();
  const auto id = static_cast<size_t>(v.entity_id());
  if (static_cast<size_t>(type) >= members_known_.size()) {
    members_known_.resize(type + 1);
  }
  std::vector<bool>& known = members_known_[type];
  if (id < known.size() && known[id]) return Status::OK();
  std::vector<PredId> types = {type};
  for (PredId up : catalog_->SupertypesOf(type)) types.push_back(up);
  for (PredId t : types) {
    Relation* rel = GetRelation(t);
    const Tuple membership = {v};
    const InsertResult r = rel->Insert(membership);
    if (r.outcome != InsertOutcome::kInserted) continue;
    // Membership facts are base: they persist across delete-and-rederive.
    rel->SetBase(r.row, true);
    const uint32_t key = LogKey(*rel, r.row, tx);
    tx->undo.push_back({UndoOp::Kind::kInserted, t, r.row.shard, key});
    if (seed_deltas) {
      NoteInserted(rel, key, tx);
      driver_->NotifyInsert(t, membership);
    }
  }
  if (id >= known.size()) known.resize(id + 1);
  known[id] = true;
  tx->members_noted.push_back(v);
  return Status::OK();
}

void Workspace::ForgetMembership(const Value& v) {
  if (!v.is_entity()) return;
  const auto type = static_cast<size_t>(v.entity_type());
  const auto id = static_cast<size_t>(v.entity_id());
  if (type < members_known_.size() && id < members_known_[type].size()) {
    members_known_[type][id] = false;
  }
}

uint32_t Workspace::LogKey(const Relation& rel, RowRef row, TxState* tx) {
  const auto key = static_cast<uint32_t>(tx->codes.size());
  rel.AppendRowCodes(row, &tx->codes);
  return key;
}

Result<bool> Workspace::InsertTuple(PredId pred, const Tuple& tuple,
                                    bool is_base, bool counted, TxState* tx) {
  Relation* rel = GetRelation(pred);
  const InsertResult r = rel->Insert(tuple);
  if (r.outcome == InsertOutcome::kFdConflict) {
    return Status::ConstraintViolation(
        "functional dependency violation on '" + catalog_->decl(pred).name +
        "': keys map to " +
        catalog_->ValueToString(
            rel->At(r.row.shard, r.row.slot, tuple.size() - 1)) +
        " but derived " + catalog_->ValueToString(tuple.back()));
  }
  if (r.outcome == InsertOutcome::kDuplicate) {
    const bool asserts = is_base && !rel->is_base(r.row);
    if (!asserts && !counted) return false;
    const uint32_t key = LogKey(*rel, r.row, tx);
    if (asserts) {
      rel->SetBase(r.row, true);
      tx->undo.push_back({UndoOp::Kind::kBaseAdded, pred, r.row.shard, key});
    }
    if (counted) {
      rel->AddSupport(r.row);
      tx->undo.push_back(
          {UndoOp::Kind::kSupportAdded, pred, r.row.shard, key});
    }
    return false;
  }
  // Undoing the insert erases the row, base bit and support with it.
  const uint32_t key = LogKey(*rel, r.row, tx);
  tx->undo.push_back({UndoOp::Kind::kInserted, pred, r.row.shard, key});
  if (is_base) {
    rel->SetBase(r.row, true);
  } else {
    ++tx->num_derived;
    if (counted) rel->AddSupport(r.row);
  }
  NoteInserted(rel, key, tx);
  driver_->NotifyInsert(pred, tuple);
  for (const Value& v : tuple) {
    SB_RETURN_IF_ERROR(EnsureEntityMembership(v, /*seed_deltas=*/true, tx));
  }
  return true;
}

Status Workspace::EraseRowTx(PredId pred, Relation* rel, RowRef row,
                             TxState* tx) {
  // The delete delta carries values; decode them before the row goes.
  const Tuple tuple = rel->MaterializeTuple(row.shard, row.slot);
  const uint32_t key = LogKey(*rel, row, tx);
  tx->undo.push_back(
      {UndoOp::Kind::kErased, pred, row.shard, key, rel->row_state(row)});
  rel->EraseRow(row);
  ++tx->num_erased;
  NoteErased(rel, key, tx);
  if (catalog_->decl(pred).is_entity_type) ForgetMembership(tuple[0]);
  driver_->NotifyDelete(pred, tuple);
  return Status::OK();
}

Status Workspace::UnassertRow(PredId pred, Relation* rel, RowRef row,
                              const Tuple& tuple, TxState* tx) {
  rel->SetBase(row, false);
  tx->undo.push_back(
      {UndoOp::Kind::kBaseRemoved, pred, row.shard, LogKey(*rel, row, tx)});
  if (rel->support(row) == 0) return EraseRowTx(pred, rel, row, tx);
  driver_->NoteSuspect(pred, tuple);
  return Status::OK();
}

Result<bool> Workspace::RetractRow(PredId pred, Relation* rel, RowRef row,
                                   TxState* tx) {
  const uint32_t left = rel->support(row) - 1;
  rel->SetSupport(row, left);
  tx->undo.push_back(
      {UndoOp::Kind::kSupportDropped, pred, row.shard, LogKey(*rel, row, tx)});
  // An alternative derivation remains, or the tuple is still asserted.
  if (left > 0 || rel->is_base(row)) return false;
  SB_RETURN_IF_ERROR(EraseRowTx(pred, rel, row, tx));
  return true;
}

void Workspace::NoteInserted(const Relation* rel, uint32_t key, TxState* tx) {
  const auto index = static_cast<uint32_t>(tx->added.size());
  if (tx->erasures_indexed) {
    auto [it, fresh] = tx->erasures.try_emplace(TxKey::Of(rel, key), index);
    if (!fresh) {
      if (it->second == kPreexisting) return;  // it only came back
      it->second = index;
    }
  }
  tx->added.push_back({rel, key, true});
}

void Workspace::NoteErased(const Relation* rel, uint32_t key, TxState* tx) {
  if (!tx->erasures_indexed) {
    for (uint32_t i = 0; i < tx->added.size(); ++i) {
      const Added& a = tx->added[i];
      if (a.live) tx->erasures.emplace(TxKey::Of(a.rel, a.key), i);
    }
    tx->erasures_indexed = true;
  }
  auto [it, fresh] =
      tx->erasures.try_emplace(TxKey::Of(rel, key), kPreexisting);
  if (!fresh && it->second != kPreexisting) {
    // Born in this transaction: it is no longer an insert to report.
    tx->added[it->second].live = false;
    tx->erasures.erase(it);
  }
}


// -- placement ----------------------------------------------------------------

std::optional<size_t> Workspace::RemoteShardOf(PredId pred,
                                               const Tuple& tuple) {
  const ShardPlacement* p = fixpoint_options_.placement;
  if (p == nullptr || !p->IsPlaced(pred)) return std::nullopt;
  size_t shard = GetRelation(pred)->ShardOf(tuple);
  if (p->owner_of(shard) == p->local_node) return std::nullopt;
  return shard;
}

Status Workspace::ApplyRemoteOps(const std::vector<RemoteOp>& ops,
                                 std::vector<RemoteOp>* deferred,
                                 TxState* tx) {
  // Kind order inside one delivery transaction: a shard snapshot lands
  // before the live traffic that assumes it, inserts before the deletes
  // that may target them.
  auto apply_kind = [&](RemoteDelta::Kind k) -> Status {
    for (const RemoteOp& op : ops) {
      if (op.kind != k) continue;
      SB_RETURN_IF_ERROR(ApplyOneRemoteOp(op, deferred, tx));
    }
    return Status::OK();
  };
  SB_RETURN_IF_ERROR(apply_kind(RemoteDelta::Kind::kHandoff));
  SB_RETURN_IF_ERROR(apply_kind(RemoteDelta::Kind::kBaseInsert));
  SB_RETURN_IF_ERROR(apply_kind(RemoteDelta::Kind::kSupportAdd));
  // Parked out-of-order deletes retry now that this delivery's inserts
  // landed. Failures park again into `deferred`; deferred_remote_ itself
  // is only replaced at commit, so a rollback forgets the retries.
  for (const RemoteOp& op : deferred_remote_) {
    SB_RETURN_IF_ERROR(ApplyOneRemoteOp(op, deferred, tx));
  }
  SB_RETURN_IF_ERROR(apply_kind(RemoteDelta::Kind::kBaseDelete));
  return apply_kind(RemoteDelta::Kind::kSupportDrop);
}

Status Workspace::ApplyOneRemoteOp(const RemoteOp& op,
                                   std::vector<RemoteOp>* deferred,
                                   TxState* tx) {
  SB_ASSIGN_OR_RETURN(PredId pred, catalog_->Lookup(op.pred));
  SB_ASSIGN_OR_RETURN(Tuple t, NormalizeTuple(pred, op.values));
  // Ownership may have moved since the sender staged this op (stale map
  // epoch, or a parked op surviving a membership change): re-stage for the
  // current owner instead of applying at the wrong node.
  if (auto shard = RemoteShardOf(pred, t)) {
    tx->remote.push_back(
        {op.kind, pred, std::move(t), *shard, op.support, op.is_base});
    return Status::OK();
  }
  Relation* rel = GetRelation(pred);
  switch (op.kind) {
    case RemoteDelta::Kind::kHandoff: {
      // Shard snapshot row: raw install of storage + base mark + support
      // count. No delta is seeded and no rule fires — the support count
      // already includes every shard-local instantiation at the old
      // owner; firing here would double-count. A replayed handoff finds
      // the row present and is ignored.
      const InsertResult r = rel->Insert(t);
      if (r.outcome != InsertOutcome::kInserted) return Status::OK();
      tx->undo.push_back({UndoOp::Kind::kInserted, pred, r.row.shard,
                          LogKey(*rel, r.row, tx)});
      rel->SetBase(r.row, op.is_base);
      rel->SetSupport(r.row, op.support);
      for (const Value& v : t) {
        SB_RETURN_IF_ERROR(
            EnsureEntityMembership(v, /*seed_deltas=*/false, tx));
      }
      return Status::OK();
    }
    case RemoteDelta::Kind::kBaseInsert: {
      auto r = InsertTuple(pred, t, /*is_base=*/true, /*counted=*/false, tx);
      return r.ok() ? Status::OK() : r.status();
    }
    case RemoteDelta::Kind::kSupportAdd: {
      auto r = InsertTuple(pred, t, /*is_base=*/false, /*counted=*/true, tx);
      return r.ok() ? Status::OK() : r.status();
    }
    case RemoteDelta::Kind::kBaseDelete: {
      const std::optional<RowRef> row = rel->Locate(t);
      if (!row || !rel->is_base(*row)) {
        // The matching insert is still in flight (deliveries are not
        // FIFO): park and retry on the next transaction.
        deferred->push_back(op);
        return Status::OK();
      }
      return UnassertRow(pred, rel, *row, t, tx);
    }
    case RemoteDelta::Kind::kSupportDrop: {
      const std::optional<RowRef> row = rel->Locate(t);
      if (!row || rel->support(*row) == 0) {
        deferred->push_back(op);
        return Status::OK();
      }
      SB_ASSIGN_OR_RETURN(bool erased, RetractRow(pred, rel, *row, tx));
      if (!erased) driver_->NoteSuspect(pred, t);
      return Status::OK();
    }
  }
  return Status::Internal("unknown remote op kind");
}

Result<std::vector<RemoteDelta>> Workspace::DetachShard(PredId pred,
                                                        size_t shard) {
  if (current_tx_ != nullptr) {
    return Status::Internal("DetachShard called inside a transaction");
  }
  Relation* rel = GetRelation(pred);
  if (shard >= rel->shard_count()) {
    return Status::InvalidArgument("DetachShard: shard " +
                                   std::to_string(shard) + " out of range");
  }
  std::vector<RemoteDelta> out;
  out.reserve(rel->shard_size(shard));
  for (size_t i = 0; i < rel->shard_size(shard); ++i) {
    const RowRef row{static_cast<uint32_t>(shard), static_cast<uint32_t>(i)};
    RemoteDelta d;
    d.kind = RemoteDelta::Kind::kHandoff;
    d.pred = pred;
    d.shard = shard;
    d.support = rel->support(row);
    d.is_base = rel->is_base(row);
    d.tuple = rel->MaterializeTuple(shard, i);
    out.push_back(std::move(d));
  }
  // Erase after snapshotting: co-shardability guarantees no rule at this
  // node can rederive into the departing shard between transactions, so a
  // plain storage erase (no delete deltas, no cascades) is sound. Erasing
  // from the back moves no row.
  for (size_t i = rel->shard_size(shard); i-- > 0;) {
    rel->EraseRow({static_cast<uint32_t>(shard), static_cast<uint32_t>(i)});
  }
  if (catalog_->decl(pred).is_entity_type) {
    for (const RemoteDelta& d : out) ForgetMembership(d.tuple[0]);
  }
  return out;
}

// -- FixpointHost -------------------------------------------------------------

Result<bool> Workspace::InsertHeadTuple(PredId pred, const Tuple& tuple) {
  SB_ASSIGN_OR_RETURN(Tuple normalized, NormalizeTuple(pred, tuple));
  // Placement: a non-recursive rule may re-key its head off the body
  // anchor; when the derived tuple's shard is owned elsewhere, ship one
  // support-add to the owner instead of storing locally. Returning false
  // keeps the firing out of the local delta (the owner's fixpoint
  // continues from it).
  if (auto shard = RemoteShardOf(pred, normalized)) {
    current_tx_->remote.push_back({RemoteDelta::Kind::kSupportAdd, pred,
                                   std::move(normalized), *shard, 0, false});
    return false;
  }
  return InsertTuple(pred, normalized, /*is_base=*/false, /*counted=*/true,
                     current_tx_);
}

Result<bool> Workspace::InsertDerivedTuple(PredId pred, const Tuple& tuple) {
  // Aggregate outputs: liveness is recompute-managed, not counted.
  return InsertTuple(pred, tuple, /*is_base=*/false, /*counted=*/false,
                     current_tx_);
}

Status Workspace::EraseTuple(PredId pred, const Tuple& tuple) {
  Relation* rel = GetRelation(pred);
  const std::optional<RowRef> row = rel->Locate(tuple);
  if (!row) return Status::OK();
  return EraseRowTx(pred, rel, *row, current_tx_);
}

Result<bool> Workspace::RetractSupport(PredId pred, const Tuple& tuple) {
  // Placement: mirror of the InsertHeadTuple re-key path — the destroyed
  // instantiation supported a tuple stored at a remote owner.
  if (auto shard = RemoteShardOf(pred, tuple)) {
    current_tx_->remote.push_back({RemoteDelta::Kind::kSupportDrop, pred,
                                   tuple, *shard, 0, false});
    return false;
  }
  Relation* rel = GetRelation(pred);
  const std::optional<RowRef> row = rel->Locate(tuple);
  if (!row || rel->support(*row) == 0) {
    return Status::Internal(
        "support underflow on '" + catalog_->decl(pred).name +
        "': retraction of an uncounted derivation of " +
        TupleToString(tuple, *catalog_));
  }
  return RetractRow(pred, rel, *row, current_tx_);
}

bool Workspace::IsBaseFact(PredId pred, const Tuple& tuple) const {
  const Relation* rel = GetRelationIfExists(pred);
  if (rel == nullptr) return false;
  const std::optional<RowRef> row = rel->Find(tuple);
  return row && rel->is_base(*row);
}

Result<uint64_t> Workspace::OverDeleteDerived(PredId pred) {
  Relation* rel = GetRelation(pred);
  // Snapshot first: erasures move rows.
  const std::vector<Tuple> copy = rel->AllTuples();
  uint64_t erased = 0;
  for (const Tuple& t : copy) {
    const std::optional<RowRef> row = rel->Locate(t);
    if (!row) continue;
    if (rel->is_base(*row)) {
      // Base facts survive over-delete; rederivation recounts them.
      const uint32_t support = rel->support(*row);
      if (support > 0) {
        current_tx_->undo.push_back({UndoOp::Kind::kSupportCleared, pred,
                                     row->shard,
                                     LogKey(*rel, *row, current_tx_),
                                     support});
        rel->SetSupport(*row, 0);
      }
    } else {
      SB_RETURN_IF_ERROR(EraseRowTx(pred, rel, *row, current_tx_));
      ++erased;
    }
  }
  return erased;
}

Status Workspace::BindExistentials(const CompiledRule& rule, Env* envp,
                                   std::vector<int>* bound_here) {
  Env& env = *envp;
  Tuple memo_key;
  for (int slot : rule.memo_key_slots) memo_key.push_back(*env[slot]);
  auto key = std::make_pair(rule.id, std::move(memo_key));
  auto it = existential_memo_.find(key);
  if (it == existential_memo_.end()) {
    // Content-addressed label: derived from the creating rule and the
    // binding of its head-relevant variables, not from a creation-order
    // counter. The same instantiation therefore yields the same label in
    // every run regardless of enumeration order — the property the
    // sharded/parallel fixpoint's byte-identical guarantee rests on. The
    // node tag keeps labels from colliding across nodes, the rule id and
    // ordinal keep them from colliding within a node. Each component is
    // length-prefixed so no choice of value contents (entity labels are
    // internable verbatim off the wire) can make two distinct bindings
    // serialize identically, and the full 128-bit digest prefix keeps
    // birthday collisions out of reach.
    std::string seed = std::to_string(rule.id);
    for (const Value& v : key.second) {
      std::string part = catalog_->ValueToString(v);
      seed += '|' + std::to_string(part.size()) + ':' + part;
    }
    Bytes digest =
        crypto::Sha256Digest(Bytes(seed.begin(), seed.end()));
    std::string suffix = ToHex(digest.data(), 16);
    std::vector<Value> entities;
    for (size_t k = 0; k < rule.existential_slots.size(); ++k) {
      PredId type = rule.existential_types[k];
      std::string label = catalog_->decl(type).name + "@" +
                          catalog_->node_tag() + "#" + suffix;
      if (rule.existential_slots.size() > 1) {
        label += StrCat({".", std::to_string(k)});
      }
      SB_ASSIGN_OR_RETURN(Value e, catalog_->InternEntity(type, label));
      entities.push_back(std::move(e));
    }
    it = existential_memo_.emplace(std::move(key), std::move(entities)).first;
  }
  for (size_t k = 0; k < rule.existential_slots.size(); ++k) {
    env[rule.existential_slots[k]] = it->second[k];
    bound_here->push_back(rule.existential_slots[k]);
  }
  return Status::OK();
}

// -----------------------------------------------------------------------------

Status Workspace::CheckConstraints(TxState* tx) {
  Executor executor(&ctx_, this);
  for (const CompiledConstraint& c : compiled_constraints_) {
    auto check_binding = [&](Env& env) -> Status {
      ++stats_.constraint_checks;
      Env probe = env;  // rhs may bind additional slots
      SB_ASSIGN_OR_RETURN(bool ok, executor.Exists(c.rhs_steps, &probe));
      if (ok) return Status::OK();
      std::string binding;
      for (size_t s = 0; s < env.size(); ++s) {
        if (!env[s].has_value()) continue;
        if (!binding.empty()) binding += ", ";
        binding += c.slot_names[s] + "=" + catalog_->ValueToString(*env[s]);
      }
      return Status::ConstraintViolation("integrity constraint violated: " +
                                         c.source.ToString() + " [" + binding +
                                         "]");
    };

    if (tx->full_constraint_check) {
      Env env(c.num_slots);
      SB_RETURN_IF_ERROR(executor.Run(c.lhs_steps, &env, nullptr,
                                      check_binding));
      continue;
    }
    for (int occ = 0; occ < c.num_scan_occurrences; ++occ) {
      std::vector<Tuple> live =
          TxCommit::Decode(tx->added, tx->codes, c.scan_preds[occ]);
      if (live.empty()) continue;
      std::vector<OccView> views(static_cast<size_t>(occ) + 1);
      views[occ].only = &live;
      Env env(c.num_slots);
      SB_RETURN_IF_ERROR(executor.Run(c.lhs_steps, &env, &views,
                                      check_binding));
    }
  }
  return Status::OK();
}

void Workspace::Rollback(TxState* tx) {
  // Reverse replay: an erased functional slot is re-inserted only after
  // the tuple that reoccupied it (logged later) has been undone.
  for (auto it = tx->undo.rbegin(); it != tx->undo.rend(); ++it) {
    Relation* rel = GetRelation(it->pred);
    const uint32_t* codes = tx->codes.data() + it->key;
    if (it->kind == UndoOp::Kind::kErased) {
      InsertResult r = rel->InsertCodes(it->shard, codes);
      if (r.outcome == InsertOutcome::kFdConflict) {
        // The key slot is still occupied — the undo log cannot express
        // this interleaving, which indicates a missing undo entry.
        // Restore deterministically: the erased tuple wins.
        SB_LOG_STREAM(Error) << "rollback: functional slot of '"
                      << catalog_->decl(it->pred).name
                      << "' still occupied while restoring "
                      << TupleToString(rel->DecodeCodes(codes), *catalog_)
                      << "; displacing the occupant";
        rel->EraseRow(r.row);
        r = rel->InsertCodes(it->shard, codes);
      }
      if (r.outcome == InsertOutcome::kInserted) {
        rel->set_row_state(r.row, it->state);
      } else {
        SB_LOG_STREAM(Error) << "rollback: could not restore erased tuple "
                      << TupleToString(rel->DecodeCodes(codes), *catalog_)
                      << " into '" << catalog_->decl(it->pred).name << "'";
      }
      continue;
    }
    const std::optional<RowRef> row = rel->FindCodes(it->shard, codes);
    if (!row) {
      SB_LOG_STREAM(Error) << "rollback: row "
                    << TupleToString(rel->DecodeCodes(codes), *catalog_)
                    << " of '" << catalog_->decl(it->pred).name
                    << "' is missing";
      continue;
    }
    switch (it->kind) {
      case UndoOp::Kind::kInserted:
        rel->EraseRow(*row);
        break;
      case UndoOp::Kind::kErased:
        break;  // handled above
      case UndoOp::Kind::kBaseAdded:
        rel->SetBase(*row, false);
        break;
      case UndoOp::Kind::kBaseRemoved:
        rel->SetBase(*row, true);
        break;
      case UndoOp::Kind::kSupportAdded: {
        const uint32_t support = rel->support(*row);
        if (support > 0) {
          rel->SetSupport(*row, support - 1);
        } else {
          SB_LOG_STREAM(Error) << "rollback: support underflow undoing an insert "
                        << "into '" << catalog_->decl(it->pred).name << "'";
        }
        break;
      }
      case UndoOp::Kind::kSupportDropped:
        rel->AddSupport(*row);
        break;
      case UndoOp::Kind::kSupportCleared:
        rel->SetSupport(*row, it->state);
        break;
    }
  }
  // Membership the transaction recorded may rest on rows just removed.
  for (const Value& v : tx->members_noted) ForgetMembership(v);
  ++stats_.aborts;
}

Result<TxCommit> Workspace::Apply(const std::vector<FactUpdate>& inserts,
                                  const std::vector<FactUpdate>& deletes,
                                  const std::vector<RemoteOp>& remote_ops) {
  auto start = std::chrono::steady_clock::now();
  TxState tx;
  current_tx_ = &tx;
  driver_->Begin();

  auto finish_timing = [&] {
    current_tx_ = nullptr;
    tx_durations_us_.push_back(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  };
  auto fail = [&](Status st) -> Result<TxCommit> {
    Rollback(&tx);
    // Aborted transactions still consumed processing time (Figure 7 counts
    // them).
    finish_timing();
    return st;
  };

  // Deletions and negated-predicate inserts can retract derived tuples,
  // which invalidates the insert-delta shortcut the constraint checker
  // normally uses.
  bool may_retract = !deletes.empty();
  for (const RemoteOp& op : remote_ops) {
    may_retract |= op.kind == RemoteDelta::Kind::kBaseDelete ||
                   op.kind == RemoteDelta::Kind::kSupportDrop;
  }
  may_retract |= !deferred_remote_.empty();
  if (!may_retract) {
    for (const FactUpdate& ins : inserts) {
      auto pred = catalog_->Lookup(ins.pred);
      if (pred.ok() && rule_graph_.negated_preds().count(pred.value())) {
        may_retract = true;
        break;
      }
    }
  }
  tx.full_constraint_check = may_retract;

  // Peer placement deliveries apply first: their insert-kind ops may be
  // the targets of this transaction's local deletes, and parked
  // out-of-order deletes retry against them. Failures roll the whole
  // delivery back (the distribution layer bisects).
  std::vector<RemoteOp> still_deferred;
  const bool ran_remote = !remote_ops.empty() || !deferred_remote_.empty();
  if (ran_remote) {
    Status st = ApplyRemoteOps(remote_ops, &still_deferred, &tx);
    if (!st.ok()) return fail(st);
  }

  // Base-fact deletions seed delete deltas; a tuple with remaining
  // derivation support loses its base assertion and stays, a suspect when
  // that support may be cyclic.
  for (const FactUpdate& d : deletes) {
    auto pred = catalog_->Lookup(d.pred);
    if (!pred.ok()) return fail(pred.status());
    auto normalized = NormalizeTuple(pred.value(), d.values);
    if (!normalized.ok()) return fail(normalized.status());
    // Placement: the shard owner executes the delete (it alone knows the
    // tuple's base/derived status).
    if (auto shard = RemoteShardOf(pred.value(), *normalized)) {
      tx.remote.push_back({RemoteDelta::Kind::kBaseDelete, pred.value(),
                           std::move(*normalized), *shard, 0, false});
      continue;
    }
    Relation* rel = GetRelation(pred.value());
    const std::optional<RowRef> row = rel->Locate(*normalized);
    if (!row) continue;
    if (!rel->is_base(*row)) {
      return fail(Status::InvalidArgument(
          "cannot delete derived fact from '" + d.pred + "'"));
    }
    Status st = UnassertRow(pred.value(), rel, *row, *normalized, &tx);
    if (!st.ok()) return fail(st);
  }

  for (const FactUpdate& ins : inserts) {
    auto pred = catalog_->Lookup(ins.pred);
    if (!pred.ok()) return fail(pred.status());
    auto normalized = NormalizeTuple(pred.value(), ins.values);
    if (!normalized.ok()) return fail(normalized.status());
    // Placement: route the base fact to its shard owner.
    if (auto shard = RemoteShardOf(pred.value(), *normalized)) {
      tx.remote.push_back({RemoteDelta::Kind::kBaseInsert, pred.value(),
                           std::move(*normalized), *shard, 0, false});
      continue;
    }
    auto inserted = InsertTuple(pred.value(), *normalized, /*is_base=*/true,
                                /*counted=*/false, &tx);
    if (!inserted.ok()) return fail(inserted.status());
  }

  Status fixpoint = driver_->Run();
  if (!fixpoint.ok()) return fail(fixpoint);

  // Cascaded erasures (retractions, cluster-recompute over-deletes that
  // did not fully rederive, stale aggregate outputs) also invalidate the
  // insert-delta shortcut.
  if (tx.num_erased > 0) tx.full_constraint_check = true;

  Status constraints = CheckConstraints(&tx);
  if (!constraints.ok()) return fail(constraints);

  // Commit.
  TxCommit commit;
  commit.codes_ = std::move(tx.codes);
  commit.added_ = std::move(tx.added);
  commit.remote = std::move(tx.remote);
  if (ran_remote) deferred_remote_ = std::move(still_deferred);
  commit.num_derived = tx.num_derived;
  commit.fixpoint = driver_->stats();
  ++stats_.transactions;
  stats_.derived_tuples += tx.num_derived;
  stats_.fixpoint_rounds += commit.fixpoint.rounds;
  stats_.rule_firings += commit.fixpoint.rule_firings;
  stats_.firings_skipped += commit.fixpoint.firings_skipped;
  stats_.agg_recomputes += commit.fixpoint.agg_recomputes;
  stats_.agg_skipped += commit.fixpoint.agg_skipped;
  stats_.parallel_tasks += commit.fixpoint.parallel_tasks;
  stats_.retractions += commit.fixpoint.retractions;
  stats_.deleted_tuples += commit.fixpoint.deleted;
  stats_.rescued_tuples += commit.fixpoint.rescued;
  stats_.group_rederives += commit.fixpoint.group_rederives;
  stats_.rederive_seeded += commit.fixpoint.rederive_seeded;
  stats_.flip_probes += commit.fixpoint.flip_probes;
  stats_.flip_matches += commit.fixpoint.flip_matches;
  stats_.suspects_proved += commit.fixpoint.suspects_proved;
  stats_.suspects_disproved += commit.fixpoint.suspects_disproved;
  stats_.plan_builds += commit.fixpoint.plans_built;
  stats_.eval_frame_allocs = EvalFrameAllocs();
  uint64_t index_builds = 0;
  uint64_t encodes = 0;
  Relation::MemoryFootprint mem;
  for (const auto& rel : relations_) {
    if (rel == nullptr) continue;
    index_builds += rel->index_builds();
    encodes += rel->mutation_encodes();
    const Relation::MemoryFootprint m = rel->Memory();
    mem.dict_bytes += m.dict_bytes;
    mem.column_bytes += m.column_bytes;
    mem.index_bytes += m.index_bytes;
  }
  stats_.index_rebuilds = index_builds;
  stats_.mutation_encodes = encodes;
  stats_.relation_dict_bytes = mem.dict_bytes;
  stats_.relation_column_bytes = mem.column_bytes;
  stats_.relation_index_bytes = mem.index_bytes;
  finish_timing();
  commit.duration_us = tx_durations_us_.back();
  return commit;
}

Status Workspace::Insert(const std::string& pred,
                         std::vector<Value> values) {
  auto commit = Apply({FactUpdate{pred, std::move(values)}});
  return commit.ok() ? Status::OK() : commit.status();
}

Result<std::vector<Tuple>> Workspace::Query(const std::string& pred) const {
  SB_ASSIGN_OR_RETURN(PredId id, catalog_->Lookup(pred));
  const Relation* rel = GetRelationIfExists(id);
  if (rel == nullptr) return std::vector<Tuple>{};
  return rel->AllTuples();
}

Result<bool> Workspace::ContainsFact(
    const std::string& pred, const std::vector<Value>& values) const {
  SB_ASSIGN_OR_RETURN(PredId id, catalog_->Lookup(pred));
  const Relation* rel = GetRelationIfExists(id);
  if (rel == nullptr) return false;
  // Normalization requires mutability (interning); look up by finding
  // existing entities instead.
  const PredicateDecl& decl = catalog_->decl(id);
  Tuple t;
  for (size_t i = 0; i < values.size() && i < decl.arity(); ++i) {
    const Value& v = values[i];
    PredId type = decl.arg_types[i];
    if (catalog_->decl(type).is_entity_type &&
        v.kind() == ValueKind::kString) {
      auto e = catalog_->FindEntity(type, v.AsString());
      if (!e.ok()) return false;
      t.push_back(e.value());
    } else {
      t.push_back(v);
    }
  }
  if (t.size() != decl.arity()) return false;
  return rel->Contains(t);
}

Result<Value> Workspace::SingletonValue(const std::string& pred) const {
  SB_ASSIGN_OR_RETURN(PredId id, catalog_->Lookup(pred));
  const Relation* rel = GetRelationIfExists(id);
  if (rel == nullptr || rel->empty()) {
    return Status::NotFound("singleton '" + pred + "' has no value");
  }
  for (size_t sh = 0; sh < rel->shard_count(); ++sh) {
    if (rel->shard_size(sh) > 0) {
      return rel->At(sh, 0, rel->decl().arity() - 1);
    }
  }
  return Status::NotFound("singleton '" + pred + "' has no value");
}

}  // namespace secureblox::engine
