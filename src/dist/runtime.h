// Per-node runtime: one SecureBlox workspace with the says policy
// installed, credential/infrastructure facts seeded, and the distribution
// loop's two halves — collecting outgoing `export` tuples after each local
// transaction, and applying received batches as transactions (paper §5.1).
//
// Batch security (footnote 2: "we have found it useful to sign aggregates
// of serialized facts") seals whole messages with one MAC/signature and an
// optional AES pass, independently of any per-fact protection the Datalog
// policy applies inside the dataflow.
#ifndef SECUREBLOX_DIST_RUNTIME_H_
#define SECUREBLOX_DIST_RUNTIME_H_

#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "dist/placement.h"
#include "engine/query.h"
#include "engine/workspace.h"
#include "net/wire.h"
#include "policy/builtins.h"
#include "policy/keystore.h"
#include "policy/says_policy.h"

namespace secureblox::dist {

/// Whole-message protection applied by the runtime (independent of the
/// per-fact says policy inside the dataflow).
struct BatchSecurity {
  policy::AuthScheme auth = policy::AuthScheme::kNone;
  policy::EncScheme enc = policy::EncScheme::kNone;

  /// "NoAuth", "HMAC", "RSA-AES", ...
  std::string Name() const;
};

/// Node entity labels: node i is "n<i>" in every workspace's catalog.
std::string NodeLabel(net::NodeIndex index);
Result<size_t> ParseNodeLabel(const std::string& label);

class NodeRuntime {
 public:
  struct Config {
    net::NodeIndex index = 0;
    /// Principal of node i at position i (node <-> principal directory).
    std::vector<std::string> principals;
    policy::Credentials creds;
    BatchSecurity batch_security;
    /// Fixpoint worker threads for this node's workspace. -1 keeps the
    /// workspace default (the SB_THREADS environment variable); 0 = one
    /// per hardware thread; N >= 1 = exactly N (1 = sequential). The
    /// fixpoint result is identical for every setting.
    int fixpoint_threads = -1;
    /// Relation storage shards for this node's workspace. -1 keeps the
    /// workspace default (the SB_SHARDS environment variable); N >= 1
    /// hash-partitions every relation into N shards (1 = unsharded). The
    /// fixpoint result is identical for every setting.
    int storage_shards = -1;
    /// Query-serving mode (engine/query): installed rules feed the
    /// magic-sets front end instead of bottom-up materialization, and
    /// Query() answers goals on demand. Runtime constraints are dropped
    /// (a serving replica trusts upstream validation), so the node should
    /// not originate data of its own.
    bool query_mode = false;
    /// Partitioned shard placement: this node owns only its hash-assigned
    /// subset of every placed relation's shards (ShardMap); mutations
    /// targeting foreign shards route to their owners as sealed deltas.
    /// Requires `placed_preds` to pass engine::ValidatePlacement.
    bool placement = false;
    /// Predicate names under placement (must exist after Install).
    std::vector<std::string> placed_preds;
  };

  /// One sealed batch addressed to a peer node.
  struct Outgoing {
    net::NodeIndex dst = 0;
    Bytes payload;
    size_t num_tuples = 0;
    /// Routing hints mirrored from the (sealed) batch header for
    /// transports that surface them outside the seal: target shard
    /// (net::kNoShard for exports) and the sender's map epoch.
    uint32_t shard = net::kNoShard;
    uint64_t map_epoch = 0;
  };

  /// Result of one local transaction (insert or delivery).
  struct ApplyOutcome {
    /// False when the transaction rolled back (constraint violation,
    /// failed batch authentication, or unparseable payload).
    bool accepted = true;
    std::string reject_reason;
    std::vector<Outgoing> outgoing;
    size_t num_derived = 0;
  };

  /// One sealed payload awaiting delivery, tagged with the claimed sender
  /// (coalesced deliveries mix payloads from many sources).
  struct SealedDelivery {
    net::NodeIndex src = 0;
    Bytes payload;
  };

  /// A payload whose whole-message seal has already been verified and
  /// stripped (the UDP receive thread runs the crypto off the apply loop;
  /// stats stay with the apply thread).
  struct OpenedDelivery {
    net::NodeIndex src = 0;
    bool auth_ok = true;
    Bytes opened;       // plaintext wire batch when auth_ok
    std::string error;  // reject reason when !auth_ok
  };

  /// Per-payload verdict of a coalesced delivery.
  struct DeliveryResult {
    bool accepted = true;
    std::string reject_reason;
  };

  /// Result of one coalesced delivery: per-payload verdicts (parallel to
  /// the input) plus the union of the committed transactions' exports.
  struct BatchOutcome {
    std::vector<DeliveryResult> results;
    size_t accepted_payloads = 0;
    /// Commits performed: 1 on the happy path, more after a bisect.
    size_t transactions = 0;
    std::vector<Outgoing> outgoing;
    size_t num_derived = 0;
  };

  struct Stats {
    uint64_t batches_accepted = 0;
    uint64_t batches_rejected_auth = 0;
    uint64_t batches_rejected_parse = 0;
    uint64_t batches_rejected_constraint = 0;
    /// Committed coalesced apply transactions (delivery path only).
    uint64_t delivery_txns = 0;
    /// Payloads that shared a committed transaction with at least one other.
    uint64_t coalesced_payloads = 0;
    /// Constraint-violation bisections (batch splits isolating a poisoned
    /// source from its peers).
    uint64_t bisect_splits = 0;
    /// Placement batches that arrived at a non-owner (stale map epoch or
    /// lying envelope) and were re-sealed and forwarded to the owner.
    uint64_t batches_rerouted = 0;
    /// Placement batches whose header claimed a shard this deployment
    /// cannot route (placement off, or shard index out of range).
    uint64_t batches_rejected_routing = 0;
    /// Handoff snapshot rows installed by deliveries.
    uint64_t handoff_rows_in = 0;
  };

  /// Build the workspace: expand `sources` through BloxGenerics (policies
  /// included), install, and seed self/node directory/key facts.
  static Result<std::unique_ptr<NodeRuntime>> Create(
      Config config, const std::vector<std::string>& sources);

  /// Apply a batch of local base-fact insertions as one ACID transaction
  /// and collect the resulting advertisements.
  Result<ApplyOutcome> InsertLocal(const std::vector<engine::FactUpdate>&
                                       facts);

  /// Mixed local transaction: insertions plus base-fact deletions.
  Result<ApplyOutcome> ApplyLocal(const std::vector<engine::FactUpdate>& inserts,
                                  const std::vector<engine::FactUpdate>&
                                      deletes);

  /// Verify/decrypt and apply a received batch from node `src`. Rejection
  /// (bad seal, unparseable, constraint violation) rolls back and reports
  /// accepted=false; transport-level errors surface as non-OK status.
  Result<ApplyOutcome> DeliverMessage(const Bytes& payload,
                                      net::NodeIndex src);

  /// Coalesced delivery (paper §5.2): verify every payload's seal against
  /// its own source, then apply all surviving payloads' facts as ONE
  /// commit. A failed seal or unparseable payload rejects only that
  /// payload; a constraint violation bisects the batch so the poisoned
  /// source is isolated while its peers' facts commit.
  Result<BatchOutcome> DeliverBatch(const std::vector<SealedDelivery>& batch);

  /// Same, for payloads whose seals were already verified/stripped (the
  /// pipelined UDP receive path).
  Result<BatchOutcome> DeliverOpened(const std::vector<OpenedDelivery>& batch);

  /// Batch sealing: optional AES-CTR pass under the pairwise secret, then
  /// MAC/signature over the (possibly encrypted) payload. Both are const
  /// and touch only immutable credentials, so a receive thread may run
  /// OpenFromPeer concurrently with the apply loop.
  Result<Bytes> SealForPeer(const Bytes& raw, net::NodeIndex peer) const;
  Result<Bytes> OpenFromPeer(const Bytes& sealed, net::NodeIndex peer) const;

  /// Answer one point query (engine::QueryGoal: bound positions carry
  /// values, free positions are nullopt). Thread-safe: concurrent Query
  /// calls share a reader lock when the goal's memo is warm; a cold goal
  /// (or one whose slice changed) takes the writer lock to install/seed
  /// its rule slice. Apply/Deliver paths exclude all queries. Works in
  /// both modes — on a materialized workspace it is a filtered scan.
  Result<std::vector<engine::Tuple>> Query(const engine::QueryGoal& goal);

  /// Query-engine counters (warm hits vs slice installs; see
  /// engine::QueryEngine::Stats).
  engine::QueryEngine::Stats query_stats() const { return query_->stats(); }

  // -- placement -------------------------------------------------------------

  bool placement_enabled() const { return config_.placement; }
  const ShardMap& shard_map() const { return shard_map_; }

  /// Adopt a new shard-ownership map (membership change). Takes the
  /// exclusive lock: transactions see one epoch end-to-end. Any state the
  /// *old* map owned here but the new map assigns elsewhere must have been
  /// extracted with ExtractHandoff first.
  void SetShardMap(const ShardMap& map);

  /// Detach every locally-owned shard that `new_map` assigns to another
  /// node and return the sealed handoff batches addressed to the new
  /// owners. Call between transactions, before SetShardMap(new_map).
  Result<std::vector<Outgoing>> ExtractHandoff(const ShardMap& new_map);

  engine::Workspace& workspace() { return *ws_; }
  const engine::Workspace& workspace() const { return *ws_; }
  policy::NodeSecurityState& security_state() { return security_; }
  const std::string& principal() const { return config_.creds.principal; }
  net::NodeIndex index() const { return config_.index; }
  const Stats& stats() const { return stats_; }

 private:
  NodeRuntime() = default;

  /// One decoded payload: its index in the caller's batch plus its facts
  /// and placement deltas.
  struct DecodedPayload {
    size_t index = 0;
    std::vector<engine::FactUpdate> facts;
    std::vector<engine::RemoteOp> remote;
  };

  Result<ApplyOutcome> ApplyAndCollect(
      const std::vector<engine::FactUpdate>& facts,
      const std::vector<engine::FactUpdate>& deletes, bool from_network);
  /// Apply payloads [lo, hi) as one transaction; on violation, bisect.
  Status ApplyDecodedRange(const std::vector<DecodedPayload>& decoded,
                           size_t lo, size_t hi, BatchOutcome* out);
  Result<std::vector<Outgoing>> CollectOutgoing(
      const engine::TxCommit& commit);
  Result<const std::string*> PrincipalOf(net::NodeIndex peer) const;

  Config config_;
  /// Cluster shard-ownership map (placement mode; epoch 0 = unset).
  ShardMap shard_map_;
  /// Engine-side placement view handed to FixpointOptions; owner_of reads
  /// shard_map_ live, so SetShardMap needs no engine round trip.
  engine::ShardPlacement placement_;
  std::unique_ptr<engine::Workspace> ws_;
  std::unique_ptr<engine::QueryEngine> query_;
  /// Serializes workspace mutation (exclusive) against warm query reads
  /// (shared). Cold queries upgrade to exclusive because they install and
  /// seed rule slices through a transaction.
  mutable std::shared_mutex query_mu_;
  policy::NodeSecurityState security_;
  Stats stats_;
};

/// The nodes of one cluster: node i runs as principal "p<i>" with
/// credentials that one authority over all `num_nodes` principals issues.
/// Every other setting comes from `node` (its index, principals and creds
/// are overwritten per node).
Result<std::vector<std::unique_ptr<NodeRuntime>>> CreateClusterNodes(
    size_t num_nodes, const policy::CredentialAuthority::Options& credentials,
    NodeRuntime::Config node, const std::vector<std::string>& sources);

}  // namespace secureblox::dist

#endif  // SECUREBLOX_DIST_RUNTIME_H_
