#include "dist/runtime.h"

#include <map>

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"

namespace secureblox::dist {

using datalog::PredId;
using datalog::Value;
using engine::FactUpdate;
using engine::Tuple;
using net::NodeIndex;

std::string BatchSecurity::Name() const {
  std::string name = policy::AuthSchemeName(auth);
  if (enc == policy::EncScheme::kAes) name += "-AES";
  return name;
}

std::string NodeLabel(NodeIndex index) {
  return "n" + std::to_string(index);
}

Result<size_t> ParseNodeLabel(const std::string& label) {
  if (label.size() < 2 || label[0] != 'n') {
    return Status::InvalidArgument("bad node label '" + label + "'");
  }
  size_t value = 0;
  for (size_t i = 1; i < label.size(); ++i) {
    if (label[i] < '0' || label[i] > '9') {
      return Status::InvalidArgument("bad node label '" + label + "'");
    }
    value = value * 10 + static_cast<size_t>(label[i] - '0');
  }
  return value;
}

Result<std::unique_ptr<NodeRuntime>> NodeRuntime::Create(
    Config config, const std::vector<std::string>& sources) {
  if (config.index >= config.principals.size()) {
    return Status::InvalidArgument("node index outside the principal list");
  }
  std::unique_ptr<NodeRuntime> rt(new NodeRuntime());
  rt->config_ = std::move(config);
  rt->ws_ = std::make_unique<engine::Workspace>();
  // Declarative-networking semantics: distributed protocols negate through
  // recursive predicates with derivation-time meaning (paper §7.1).
  rt->ws_->set_allow_unstratified_negation(true);
  // Anonymous entities (e.g. path extensions) travel by label; the node tag
  // keeps labels globally unique so distinct paths never merge on import.
  // Placement mode instead shares one tag cluster-wide: shards (and the
  // rule firings that mint labels into them) migrate between nodes, so a
  // label must not record which node happened to fire the rule.
  rt->ws_->catalog().SetNodeTag(rt->config_.placement
                                    ? rt->config_.placement_tag
                                    : NodeLabel(rt->config_.index));
  rt->security_.creds = rt->config_.creds;
  rt->ws_->set_user_context(&rt->security_);
  if (rt->config_.fixpoint_threads >= 0) {
    rt->ws_->fixpoint_options().threads = rt->config_.fixpoint_threads;
  }
  if (rt->config_.storage_shards >= 1) {
    // Before Install: relations latch the shard count at first touch.
    rt->ws_->fixpoint_options().shards =
        static_cast<size_t>(rt->config_.storage_shards);
  }

  // Query-serving mode must be set before Install: the program's rules are
  // recorded for the magic-sets front end instead of compiled bottom-up.
  if (rt->config_.query_mode) rt->ws_->set_defer_rules(true);

  SB_ASSIGN_OR_RETURN(generics::ExpansionResult expanded,
                      policy::CompileWithPolicies(rt->ws_.get(), sources));
  SB_RETURN_IF_ERROR(rt->ws_->Install(expanded.program));
  rt->query_ = std::make_unique<engine::QueryEngine>(rt->ws_.get());

  if (rt->config_.placement) {
    if (rt->config_.placed_preds.empty()) {
      return Status::InvalidArgument(
          "placement mode without placed predicates");
    }
    for (const std::string& name : rt->config_.placed_preds) {
      SB_ASSIGN_OR_RETURN(PredId p, rt->ws_->catalog().Lookup(name));
      rt->placement_.placed.insert(p);
    }
    SB_RETURN_IF_ERROR(
        engine::ValidatePlacement(*rt->ws_, rt->placement_.placed));
    rt->shard_map_ = ShardMap::Initial(
        static_cast<uint32_t>(rt->config_.principals.size()));
    rt->placement_.local_node = rt->config_.index;
    rt->placement_.epoch = rt->shard_map_.epoch();
    NodeRuntime* self_ptr = rt.get();
    rt->placement_.owner_of = [self_ptr](size_t shard) {
      return self_ptr->shard_map_.OwnerOf(shard);
    };
    rt->ws_->fixpoint_options().placement = &rt->placement_;
  }

  // Infrastructure facts: who am I, where does everyone live, and the key
  // material the policy builtins read (paper §5.1).
  const std::string& self = rt->config_.creds.principal;
  std::vector<FactUpdate> seed;
  seed.push_back({"self", {Value::Str(self)}});
  seed.push_back({"local_node", {Value::Str(NodeLabel(rt->config_.index))}});
  for (size_t i = 0; i < rt->config_.principals.size(); ++i) {
    seed.push_back({"principal_node",
                    {Value::Str(rt->config_.principals[i]),
                     Value::Str(NodeLabel(static_cast<NodeIndex>(i)))}});
  }
  for (const auto& [peer, pub] : rt->config_.creds.peer_public_keys) {
    seed.push_back({"public_key", {Value::Str(peer), Value::MakeBlob(pub)}});
  }
  for (const auto& [peer, secret] : rt->config_.creds.shared_secrets) {
    seed.push_back({"secret", {Value::Str(peer), Value::MakeBlob(secret)}});
  }
  seed.push_back(
      {"private_key", {Value::MakeBlob(policy::PrivateKeyHandle(self))}});
  auto commit = rt->ws_->Apply(seed);
  if (!commit.ok()) return commit.status();
  return rt;
}

Result<const std::string*> NodeRuntime::PrincipalOf(NodeIndex peer) const {
  if (peer >= config_.principals.size()) {
    return Status::InvalidArgument("unknown peer node " +
                                   std::to_string(peer));
  }
  return &config_.principals[peer];
}

Result<Bytes> NodeRuntime::SealForPeer(const Bytes& raw, NodeIndex peer) const {
  SB_ASSIGN_OR_RETURN(const std::string* peer_principal, PrincipalOf(peer));
  Bytes payload = raw;
  if (config_.batch_security.enc == policy::EncScheme::kAes) {
    auto secret = config_.creds.shared_secrets.find(*peer_principal);
    if (secret == config_.creds.shared_secrets.end()) {
      return Status::CryptoError("no shared secret with " + *peer_principal);
    }
    // Deterministic SIV-style nonce (HMAC of key and plaintext) keeps
    // sealing reproducible across retransmissions.
    Bytes nonce = crypto::HmacSha1(secret->second, payload);
    nonce.resize(crypto::Aes128::kBlockSize);
    SB_ASSIGN_OR_RETURN(payload,
                        crypto::AesCtrEncrypt(secret->second, nonce, payload));
  }
  switch (config_.batch_security.auth) {
    case policy::AuthScheme::kNone:
      break;
    case policy::AuthScheme::kHmac: {
      auto secret = config_.creds.shared_secrets.find(*peer_principal);
      if (secret == config_.creds.shared_secrets.end()) {
        return Status::CryptoError("no shared secret with " + *peer_principal);
      }
      Bytes mac = crypto::HmacSha1(secret->second, payload);
      payload.insert(payload.end(), mac.begin(), mac.end());
      break;
    }
    case policy::AuthScheme::kRsa: {
      SB_ASSIGN_OR_RETURN(Bytes sig,
                          crypto::RsaSign(config_.creds.keypair, payload));
      payload.insert(payload.end(), sig.begin(), sig.end());
      break;
    }
  }
  return payload;
}

Result<Bytes> NodeRuntime::OpenFromPeer(const Bytes& sealed,
                                        NodeIndex peer) const {
  SB_ASSIGN_OR_RETURN(const std::string* peer_principal, PrincipalOf(peer));
  Bytes payload = sealed;
  switch (config_.batch_security.auth) {
    case policy::AuthScheme::kNone:
      break;
    case policy::AuthScheme::kHmac: {
      constexpr size_t kMacLen = 20;
      auto secret = config_.creds.shared_secrets.find(*peer_principal);
      if (secret == config_.creds.shared_secrets.end()) {
        return Status::CryptoError("no shared secret with " + *peer_principal);
      }
      if (payload.size() < kMacLen) {
        return Status::CryptoError("batch shorter than its MAC");
      }
      Bytes mac(payload.end() - kMacLen, payload.end());
      payload.resize(payload.size() - kMacLen);
      if (!crypto::HmacSha1Verify(secret->second, payload, mac)) {
        return Status::CryptoError("batch MAC verification failed (from " +
                                   *peer_principal + ")");
      }
      break;
    }
    case policy::AuthScheme::kRsa: {
      auto pub_it = config_.creds.peer_public_keys.find(*peer_principal);
      if (pub_it == config_.creds.peer_public_keys.end()) {
        return Status::CryptoError("no public key for " + *peer_principal);
      }
      SB_ASSIGN_OR_RETURN(crypto::RsaPublicKey pub,
                          crypto::RsaPublicKey::Deserialize(pub_it->second));
      size_t sig_len = pub.ModulusBytes();
      if (payload.size() < sig_len) {
        return Status::CryptoError("batch shorter than its signature");
      }
      Bytes sig(payload.end() - sig_len, payload.end());
      payload.resize(payload.size() - sig_len);
      if (!crypto::RsaVerify(pub, payload, sig)) {
        return Status::CryptoError(
            "batch signature verification failed (from " + *peer_principal +
            ")");
      }
      break;
    }
  }
  if (config_.batch_security.enc == policy::EncScheme::kAes) {
    auto secret = config_.creds.shared_secrets.find(*peer_principal);
    if (secret == config_.creds.shared_secrets.end()) {
      return Status::CryptoError("no shared secret with " + *peer_principal);
    }
    auto plain = crypto::AesCtrDecrypt(secret->second, payload);
    if (!plain.ok()) return plain.status();
    payload = std::move(plain).value();
  }
  return payload;
}

namespace {

net::WireEntryKind WireKindOf(engine::RemoteDelta::Kind kind) {
  switch (kind) {
    case engine::RemoteDelta::Kind::kBaseInsert:
      return net::WireEntryKind::kBaseInsert;
    case engine::RemoteDelta::Kind::kBaseDelete:
      return net::WireEntryKind::kBaseDelete;
    case engine::RemoteDelta::Kind::kSupportAdd:
      return net::WireEntryKind::kSupportAdd;
    case engine::RemoteDelta::Kind::kSupportDrop:
      return net::WireEntryKind::kSupportDrop;
    case engine::RemoteDelta::Kind::kHandoff:
      return net::WireEntryKind::kHandoff;
  }
  return net::WireEntryKind::kFacts;
}

engine::RemoteDelta::Kind DeltaKindOf(net::WireEntryKind kind) {
  switch (kind) {
    case net::WireEntryKind::kBaseDelete:
      return engine::RemoteDelta::Kind::kBaseDelete;
    case net::WireEntryKind::kSupportAdd:
      return engine::RemoteDelta::Kind::kSupportAdd;
    case net::WireEntryKind::kSupportDrop:
      return engine::RemoteDelta::Kind::kSupportDrop;
    case net::WireEntryKind::kHandoff:
      return engine::RemoteDelta::Kind::kHandoff;
    case net::WireEntryKind::kFacts:
    case net::WireEntryKind::kBaseInsert:
      break;
  }
  return engine::RemoteDelta::Kind::kBaseInsert;
}

}  // namespace

Result<std::vector<NodeRuntime::Outgoing>> NodeRuntime::CollectOutgoing(
    const engine::TxCommit& commit) {
  // Predicates whose first column names the destination node (§5.1 export
  // plus the onion-relay variants).
  static const char* kExportPreds[] = {"export", "anon_export",
                                       "anon_export_back"};
  const datalog::Catalog& catalog = ws_->catalog();
  std::map<NodeIndex, net::WireBatch> batches;
  for (const char* pred_name : kExportPreds) {
    auto pred = catalog.Lookup(pred_name);
    if (!pred.ok()) continue;  // policy without distribution
    auto it = commit.inserted.find(pred.value());
    if (it == commit.inserted.end()) continue;
    for (const Tuple& t : it->second) {
      auto label = catalog.EntityLabel(t[0]);
      if (!label.ok()) continue;
      auto parsed = ParseNodeLabel(label.value());
      // Unaddressable destinations (imported junk labels) are unroutable.
      if (!parsed.ok() || *parsed >= config_.principals.size()) continue;
      size_t dst = *parsed;
      if (dst == config_.index) continue;  // local derivation, not shipped
      net::WireBatch& batch = batches[static_cast<NodeIndex>(dst)];
      batch.src = config_.index;
      batch.dst = static_cast<NodeIndex>(dst);
      net::WireBatch::Entry* entry = nullptr;
      for (auto& e : batch.entries) {
        if (e.pred == pred_name) entry = &e;
      }
      if (entry == nullptr) {
        entry = &batch.entries.emplace_back();
        entry->pred = pred_name;
      }
      entry->tuples.push_back(t);
    }
  }

  std::vector<Outgoing> out;
  for (auto& [dst, batch] : batches) {
    SB_ASSIGN_OR_RETURN(Bytes encoded, net::EncodeBatch(batch, catalog));
    SB_ASSIGN_OR_RETURN(Bytes sealed, SealForPeer(encoded, dst));
    out.push_back({dst, std::move(sealed), batch.TotalTuples()});
  }

  // Placement deltas: one batch per (owner, shard), so a batch either
  // applies wholly at its owner or forwards wholly to the new one.
  if (!commit.remote.empty()) {
    std::map<std::pair<NodeIndex, uint32_t>, net::WireBatch> routed;
    for (const engine::RemoteDelta& d : commit.remote) {
      NodeIndex owner = shard_map_.OwnerOf(d.shard);
      if (owner == config_.index) {
        // Ownership moved back to us between staging and collection —
        // impossible while the map only changes between transactions.
        return Status::Internal("placement delta staged for a local shard");
      }
      net::WireBatch& batch =
          routed[{owner, static_cast<uint32_t>(d.shard)}];
      batch.src = config_.index;
      batch.dst = owner;
      batch.origin = config_.index;
      batch.route_shard = static_cast<uint32_t>(d.shard);
      batch.map_epoch = shard_map_.epoch();
      const std::string& pred_name = catalog.decl(d.pred).name;
      net::WireEntryKind kind = WireKindOf(d.kind);
      net::WireBatch::Entry* entry = nullptr;
      for (auto& e : batch.entries) {
        if (e.pred == pred_name && e.kind == kind) entry = &e;
      }
      if (entry == nullptr) {
        batch.entries.emplace_back();
        entry = &batch.entries.back();
        entry->pred = pred_name;
        entry->kind = kind;
      }
      entry->tuples.push_back(d.tuple);
      if (kind == net::WireEntryKind::kHandoff) {
        entry->supports.push_back(d.support);
        entry->base_flags.push_back(d.is_base ? 1 : 0);
      }
    }
    for (auto& [key, batch] : routed) {
      SB_ASSIGN_OR_RETURN(Bytes encoded, net::EncodeBatch(batch, catalog));
      SB_ASSIGN_OR_RETURN(Bytes sealed, SealForPeer(encoded, key.first));
      out.push_back({key.first, std::move(sealed), batch.TotalTuples(),
                     key.second, shard_map_.epoch()});
    }
  }
  return out;
}

Result<NodeRuntime::ApplyOutcome> NodeRuntime::ApplyAndCollect(
    const std::vector<FactUpdate>& facts,
    const std::vector<FactUpdate>& deletes, bool from_network) {
  // Exclude queries for the duration of the transaction (warm reads walk
  // relation storage the fixpoint mutates). Memo invalidation is free: the
  // commit bumps relation version stamps, which stales the affected answer
  // snapshots.
  std::unique_lock<std::shared_mutex> lock(query_mu_);
  ApplyOutcome outcome;
  auto commit = ws_->Apply(facts, deletes);
  if (!commit.ok()) {
    // Local transactions surface hard errors; anything an untrusted
    // payload provokes (type errors, arity mismatches, violations) is a
    // rejection, the transaction having rolled back.
    if (!from_network &&
        commit.status().code() != StatusCode::kConstraintViolation) {
      return commit.status();
    }
    outcome.accepted = false;
    outcome.reject_reason = commit.status().ToString();
    return outcome;
  }
  outcome.num_derived = commit->num_derived;
  SB_ASSIGN_OR_RETURN(outcome.outgoing, CollectOutgoing(*commit));
  return outcome;
}

Result<NodeRuntime::ApplyOutcome> NodeRuntime::InsertLocal(
    const std::vector<FactUpdate>& facts) {
  return ApplyAndCollect(facts, {}, /*from_network=*/false);
}

Result<NodeRuntime::ApplyOutcome> NodeRuntime::ApplyLocal(
    const std::vector<FactUpdate>& inserts,
    const std::vector<FactUpdate>& deletes) {
  return ApplyAndCollect(inserts, deletes, /*from_network=*/false);
}

Result<std::vector<engine::Tuple>> NodeRuntime::Query(
    const engine::QueryGoal& goal) {
  {
    // Warm path: epoch-validated memo hit under the reader lock — many
    // point queries proceed concurrently between transactions.
    std::shared_lock<std::shared_mutex> lock(query_mu_);
    auto warm = query_->TryWarm(goal);
    if (warm.has_value()) return std::move(*warm);
  }
  // Cold (or staled) goal: installing and seeding the slice runs a
  // transaction, so take the writer lock and re-run from scratch.
  std::unique_lock<std::shared_mutex> lock(query_mu_);
  return query_->Query(goal);
}

Result<NodeRuntime::ApplyOutcome> NodeRuntime::DeliverMessage(
    const Bytes& payload, NodeIndex src) {
  SB_ASSIGN_OR_RETURN(BatchOutcome batch, DeliverBatch({{src, payload}}));
  ApplyOutcome outcome;
  outcome.accepted = batch.results[0].accepted;
  outcome.reject_reason = batch.results[0].reject_reason;
  outcome.outgoing = std::move(batch.outgoing);
  outcome.num_derived = batch.num_derived;
  return outcome;
}

Result<NodeRuntime::BatchOutcome> NodeRuntime::DeliverBatch(
    const std::vector<SealedDelivery>& batch) {
  // Seal verification is per payload against its own source: one hostile
  // source cannot poison the seals of its peers.
  std::vector<OpenedDelivery> opened(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    opened[i].src = batch[i].src;
    auto plain = OpenFromPeer(batch[i].payload, batch[i].src);
    if (!plain.ok()) {
      opened[i].auth_ok = false;
      opened[i].error = plain.status().ToString();
    } else {
      opened[i].opened = std::move(plain).value();
    }
  }
  return DeliverOpened(opened);
}

Result<NodeRuntime::BatchOutcome> NodeRuntime::DeliverOpened(
    const std::vector<OpenedDelivery>& batch) {
  // Exclusive against queries: decoding interns entity labels into the
  // catalog and ApplyDecodedRange commits transactions.
  std::unique_lock<std::shared_mutex> lock(query_mu_);
  BatchOutcome out;
  out.results.resize(batch.size());
  std::vector<DecodedPayload> decoded;
  for (size_t i = 0; i < batch.size(); ++i) {
    const OpenedDelivery& d = batch[i];
    if (!d.auth_ok) {
      ++stats_.batches_rejected_auth;
      out.results[i] = {false, d.error};
      continue;
    }
    auto wire = net::DecodeBatch(d.opened, &ws_->catalog());
    if (!wire.ok()) {
      ++stats_.batches_rejected_parse;
      out.results[i] = {false, wire.status().ToString()};
      continue;
    }
    if (wire->dst != config_.index) {
      ++stats_.batches_rejected_parse;
      out.results[i] = {false, "misrouted batch (dst " +
                                   std::to_string(wire->dst) + " at node " +
                                   std::to_string(config_.index) + ")"};
      continue;
    }
    if (wire->route_shard != net::kNoShard) {
      if (!config_.placement) {
        ++stats_.batches_rejected_routing;
        out.results[i] = {false,
                          "shard-routed batch at a non-placement node"};
        continue;
      }
      NodeIndex owner = shard_map_.OwnerOf(wire->route_shard);
      if (owner != config_.index) {
        // The sender held a stale map (or lied): re-seal hop-by-hop and
        // forward to the current owner, preserving the origin. The batch
        // is not dropped — the owner's deferred-retry machinery absorbs
        // any ordering skew the extra hop introduces.
        net::WireBatch forward = std::move(*wire);
        forward.src = config_.index;
        forward.dst = owner;
        forward.map_epoch = shard_map_.epoch();
        auto encoded = net::EncodeBatch(forward, ws_->catalog());
        if (!encoded.ok()) {
          out.results[i] = {false, encoded.status().ToString()};
          continue;
        }
        auto sealed = SealForPeer(encoded.value(), owner);
        if (!sealed.ok()) {
          out.results[i] = {false, sealed.status().ToString()};
          continue;
        }
        ++stats_.batches_rerouted;
        out.results[i] = {true, ""};
        // Forwarded payloads count as accepted (not committed here, but
        // not rejected): callers gate outgoing sends on acceptance.
        ++out.accepted_payloads;
        out.outgoing.push_back({owner, std::move(sealed).value(),
                                forward.TotalTuples(), forward.route_shard,
                                shard_map_.epoch()});
        continue;
      }
    }
    DecodedPayload dec;
    dec.index = i;
    bool bad_entry = false;
    for (const auto& entry : wire->entries) {
      if (entry.kind == net::WireEntryKind::kFacts) {
        for (const Tuple& t : entry.tuples) {
          dec.facts.push_back({entry.pred, t});
        }
        continue;
      }
      // Placement delta entries are only meaningful on a shard-routed
      // batch in placement mode; anywhere else they are a forgery.
      if (!config_.placement || wire->route_shard == net::kNoShard) {
        ++stats_.batches_rejected_routing;
        out.results[i] = {false, "placement delta entry on an unrouted or "
                                 "non-placement delivery"};
        bad_entry = true;
        break;
      }
      const bool handoff = entry.kind == net::WireEntryKind::kHandoff;
      for (size_t j = 0; j < entry.tuples.size(); ++j) {
        engine::RemoteOp op;
        op.kind = DeltaKindOf(entry.kind);
        op.pred = entry.pred;
        op.values.assign(entry.tuples[j].begin(), entry.tuples[j].end());
        if (handoff) {
          op.support = entry.supports[j];
          op.is_base = entry.base_flags[j] != 0;
          ++stats_.handoff_rows_in;
        }
        dec.remote.push_back(std::move(op));
      }
    }
    if (bad_entry) continue;
    decoded.push_back(std::move(dec));
  }
  if (!decoded.empty()) {
    SB_RETURN_IF_ERROR(ApplyDecodedRange(decoded, 0, decoded.size(), &out));
  }
  return out;
}

Status NodeRuntime::ApplyDecodedRange(
    const std::vector<DecodedPayload>& decoded, size_t lo, size_t hi,
    BatchOutcome* out) {
  std::vector<FactUpdate> facts;
  std::vector<engine::RemoteOp> remote;
  for (size_t i = lo; i < hi; ++i) {
    facts.insert(facts.end(), decoded[i].facts.begin(),
                 decoded[i].facts.end());
    remote.insert(remote.end(), decoded[i].remote.begin(),
                  decoded[i].remote.end());
  }
  auto commit = ws_->Apply(facts, {}, remote);
  if (commit.ok()) {
    ++stats_.delivery_txns;
    if (hi - lo > 1) stats_.coalesced_payloads += hi - lo;
    for (size_t i = lo; i < hi; ++i) {
      out->results[decoded[i].index] = {true, ""};
      ++stats_.batches_accepted;
      ++out->accepted_payloads;
    }
    ++out->transactions;
    out->num_derived += commit->num_derived;
    SB_ASSIGN_OR_RETURN(std::vector<Outgoing> outgoing,
                        CollectOutgoing(*commit));
    for (auto& o : outgoing) out->outgoing.push_back(std::move(o));
    return Status::OK();
  }
  // Untrusted input: every failure the payloads provoke (constraint
  // violation, type error, arity mismatch) is a rejection of those
  // payloads, the transaction having rolled back.
  if (hi - lo == 1) {
    ++stats_.batches_rejected_constraint;
    out->results[decoded[lo].index] = {false, commit.status().ToString()};
    return Status::OK();
  }
  // Bisect: isolate the poisoned source(s) instead of aborting peers.
  ++stats_.bisect_splits;
  size_t mid = lo + (hi - lo) / 2;
  SB_RETURN_IF_ERROR(ApplyDecodedRange(decoded, lo, mid, out));
  return ApplyDecodedRange(decoded, mid, hi, out);
}

// -- placement ----------------------------------------------------------------

void NodeRuntime::SetShardMap(const ShardMap& map) {
  std::unique_lock<std::shared_mutex> lock(query_mu_);
  shard_map_ = map;
  placement_.epoch = map.epoch();
}

Result<std::vector<NodeRuntime::Outgoing>> NodeRuntime::ExtractHandoff(
    const ShardMap& new_map) {
  if (!config_.placement) {
    return Status::InvalidArgument("ExtractHandoff without placement mode");
  }
  std::unique_lock<std::shared_mutex> lock(query_mu_);
  const size_t num_shards = ws_->fixpoint_options().shards;
  const datalog::Catalog& catalog = ws_->catalog();
  // One handoff batch per (new owner, shard), mirroring CollectOutgoing's
  // routing granularity.
  std::map<std::pair<NodeIndex, uint32_t>, net::WireBatch> batches;
  for (size_t shard = 0; shard < num_shards; ++shard) {
    if (shard_map_.OwnerOf(shard) != config_.index) continue;
    NodeIndex new_owner = new_map.OwnerOf(shard);
    if (new_owner == config_.index) continue;
    for (PredId pred : placement_.placed) {
      SB_ASSIGN_OR_RETURN(std::vector<engine::RemoteDelta> rows,
                          ws_->DetachShard(pred, shard));
      if (rows.empty()) continue;
      net::WireBatch& batch =
          batches[{new_owner, static_cast<uint32_t>(shard)}];
      batch.src = config_.index;
      batch.dst = new_owner;
      batch.origin = config_.index;
      batch.route_shard = static_cast<uint32_t>(shard);
      batch.map_epoch = new_map.epoch();
      net::WireBatch::Entry entry;
      entry.pred = catalog.decl(pred).name;
      entry.kind = net::WireEntryKind::kHandoff;
      for (engine::RemoteDelta& d : rows) {
        entry.tuples.push_back(std::move(d.tuple));
        entry.supports.push_back(d.support);
        entry.base_flags.push_back(d.is_base ? 1 : 0);
      }
      batch.entries.push_back(std::move(entry));
    }
  }
  std::vector<Outgoing> out;
  for (auto& [key, batch] : batches) {
    SB_ASSIGN_OR_RETURN(Bytes encoded, net::EncodeBatch(batch, catalog));
    SB_ASSIGN_OR_RETURN(Bytes sealed, SealForPeer(encoded, key.first));
    out.push_back({key.first, std::move(sealed), batch.TotalTuples(),
                   key.second, new_map.epoch()});
  }
  return out;
}

}  // namespace secureblox::dist
