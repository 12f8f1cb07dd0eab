// Live UDP cluster: the secure transitive closure converges over real
// sockets, with authenticated batches.
#include <gtest/gtest.h>

#include <string>

#include "dist/udp_cluster.h"
#include "policy/says_policy.h"

namespace secureblox::dist {
namespace {

using datalog::Value;

const char* kApp = R"(
link(X, Y) -> principal(X), principal(Y).
reachable(X, Y) -> principal(X), principal(Y).
reachable(X, Y) <- link(X, Y).
reachable(X, Y) <- reachable(X, Z), reachable(Z, Y).
says[`reachable](S, U, X, Y) <- reachable(X, Y), link(S, U), self[] = S.
exportable(`reachable).
)";

TEST(UdpClusterTest, ThreeNodeClosureOverRealSockets) {
  policy::SaysPolicyOptions popts;
  popts.accept = policy::AcceptMode::kBenign;

  UdpCluster::Config cfg;
  cfg.num_nodes = 3;
  cfg.sources = {policy::PreludeSource(), kApp,
                 policy::SaysPolicySource(popts)};
  cfg.batch_security.auth = policy::AuthScheme::kHmac;
  cfg.credentials.rsa_bits = 512;
  cfg.credentials.seed = "udp-cluster-test";

  auto cluster = UdpCluster::Create(std::move(cfg));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  ASSERT_TRUE((*cluster)
                  ->Insert(0, {{"link", {Value::Str("p0"), Value::Str("p1")}}})
                  .ok());
  ASSERT_TRUE((*cluster)
                  ->Insert(1, {{"link", {Value::Str("p1"), Value::Str("p2")}}})
                  .ok());

  auto stats = (*cluster)->Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->messages_delivered, 0u);
  EXPECT_EQ(stats->rejected, 0u);

  // The last node in the chain learns the full prefix closure.
  auto rows = (*cluster)->node(2).workspace().Query("reachable").value();
  EXPECT_EQ(rows.size(), 3u);  // p0->p1, p1->p2, p0->p2
}

TEST(UdpClusterTest, HostileDatagramsAreRejectedNotFatal) {
  policy::SaysPolicyOptions popts;
  popts.accept = policy::AcceptMode::kBenign;

  UdpCluster::Config cfg;
  cfg.num_nodes = 2;
  cfg.sources = {policy::PreludeSource(), kApp,
                 policy::SaysPolicySource(popts)};
  cfg.batch_security.auth = policy::AuthScheme::kHmac;
  cfg.credentials.rsa_bits = 512;
  cfg.credentials.seed = "udp-hostile";

  auto cluster = UdpCluster::Create(std::move(cfg));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  // An attacker socket aimed at node 0's port.
  std::vector<net::UdpEndpoint> eps = {
      {"127.0.0.1", 0}, {"127.0.0.1", (*cluster)->port_of(0)}};
  auto attacker = net::UdpTransport::Bind(0, eps);
  ASSERT_TRUE(attacker.ok()) << attacker.status().ToString();

  // Truncated datagram (no sender header), a bogus sender index, and a
  // well-formed header with garbage payload.
  ASSERT_TRUE(attacker->Send(1, Bytes{0x01}).ok());
  ASSERT_TRUE(attacker->Send(1, Bytes{0xff, 0xff, 0xff, 0xff, 0x00}).ok());
  {
    ByteWriter w;
    w.PutU32(1);  // claims to be node 1
    for (int i = 0; i < 64; ++i) w.PutU8(static_cast<uint8_t>(i * 37));
    ASSERT_TRUE(attacker->Send(1, w.Take()).ok());
  }

  // Legitimate traffic queued alongside the garbage.
  ASSERT_TRUE((*cluster)
                  ->Insert(1, {{"link", {Value::Str("p1"), Value::Str("p0")}}})
                  .ok());

  auto stats = (*cluster)->Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->rejected, 3u);

  // The node survived and keeps serving: another round of real traffic.
  ASSERT_TRUE((*cluster)
                  ->Insert(0, {{"link", {Value::Str("p0"), Value::Str("p1")}}})
                  .ok());
  auto stats2 = (*cluster)->Run();
  ASSERT_TRUE(stats2.ok()) << stats2.status().ToString();
  EXPECT_GT((*cluster)->node(1).workspace().Query("link").value().size(), 0u);
}

TEST(UdpClusterTest, LyingTupleCountHintsAreClampedAndCounted) {
  // The envelope's tuple-count hint rides outside the seal, so an on-path
  // attacker can forge it around an otherwise authentic payload. The
  // receiver must clamp batching accounting to the decoded payload's
  // actual tuple count — an oversized hint must not burst the batch cap's
  // accounting and a zero hint must not starve it — and count the lie.
  policy::SaysPolicyOptions popts;
  popts.accept = policy::AcceptMode::kBenign;

  UdpCluster::Config cfg;
  cfg.num_nodes = 2;
  cfg.sources = {policy::PreludeSource(), kApp,
                 policy::SaysPolicySource(popts)};
  cfg.batch_security.auth = policy::AuthScheme::kHmac;
  cfg.credentials.rsa_bits = 512;
  cfg.credentials.seed = "udp-hints";
  cfg.max_batch_tuples = 1;  // every lying weight would distort this cap

  auto cluster = UdpCluster::Create(std::move(cfg));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  // A genuine sealed export from node 1, captured instead of sent.
  auto outcome = (*cluster)->node(1).InsertLocal(
      {{"link", {Value::Str("p1"), Value::Str("p0")}}});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->accepted);
  ASSERT_FALSE(outcome->outgoing.empty());
  const NodeRuntime::Outgoing& out = outcome->outgoing[0];
  ASSERT_EQ(out.dst, 0u);
  ASSERT_GT(out.num_tuples, 0u);

  // Replay it three times from an attacker socket aimed at node 0: an
  // oversized hint, a zero hint, and the honest count.
  std::vector<net::UdpEndpoint> eps = {
      {"127.0.0.1", 0}, {"127.0.0.1", (*cluster)->port_of(0)}};
  auto attacker = net::UdpTransport::Bind(0, eps);
  ASSERT_TRUE(attacker.ok()) << attacker.status().ToString();
  for (uint32_t hint : {0xFFFFFFu, 0u,
                        static_cast<uint32_t>(out.num_tuples)}) {
    ByteWriter w;
    w.PutU32(1);  // truthful source: the seal verifies
    w.PutU32(hint);
    w.PutU32(out.shard);
    w.PutU32(static_cast<uint32_t>(out.map_epoch));
    w.PutRaw(out.payload);
    ASSERT_TRUE(attacker->Send(1, w.Take()).ok());
  }

  auto stats = (*cluster)->Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // All three payloads authenticate and apply (duplicates are set-
  // semantics no-ops); with actual-count accounting and cap 1 each gets
  // its own transaction — a lying weight can neither merge nor split
  // them.
  EXPECT_EQ(stats->messages_delivered, 3u);
  EXPECT_EQ(stats->apply_transactions, 3u);
  EXPECT_EQ(stats->hint_mismatches, 2u);
  EXPECT_EQ(stats->rejected, 2u);  // the two lies, nothing else

  // The content still landed exactly once.
  auto rows = (*cluster)->node(0).workspace().Query("reachable").value();
  EXPECT_EQ(rows.size(), 1u);
}

TEST(UdpClusterTest, ShutdownDrainsSocketBufferedDatagrams) {
  // Regression: datagrams still sitting in a receiver's socket buffer at
  // shutdown must be delivered, not dropped with the sockets. A tight
  // idle budget (one zero-timeout sweep) lets the apply loop decide
  // "quiet network" before the receive thread has handed anything over;
  // the shutdown path must then (a) have the receive thread run one final
  // full sweep after observing stop, (b) absorb the queue residue into
  // the held batches, and (c) flush every destination unconditionally.
  // Pre-fix, the messages sent below were racily lost; post-fix their
  // delivery is deterministic (loopback sendto buffers synchronously).
  // The apply loop's cv wait uses a predicate, so spurious wakeups only
  // cost an empty sweep — they cannot fake traffic or skip the drain.
  //
  // The drain must also honor the tuple cap: at max_batch_tuples = 1 each
  // datagram is its own transaction. That run sets idle_sweeps = 0, so the
  // apply loop runs no sweep at all and both datagrams reach it through
  // the drain every time (one zero-timeout sweep only usually loses the
  // race to the receive thread).
  struct Case {
    size_t max_batch_tuples;
    int idle_sweeps;
  };
  for (const Case& c : {Case{0, 1}, Case{1, 0}}) {
    SCOPED_TRACE("max_batch_tuples=" + std::to_string(c.max_batch_tuples));
    policy::SaysPolicyOptions popts;
    popts.accept = policy::AcceptMode::kBenign;

    UdpCluster::Config cfg;
    cfg.num_nodes = 2;
    cfg.sources = {policy::PreludeSource(), kApp,
                   policy::SaysPolicySource(popts)};
    cfg.batch_security.auth = policy::AuthScheme::kHmac;
    cfg.credentials.rsa_bits = 512;
    cfg.credentials.seed = "udp-shutdown-drain";
    cfg.poll_timeout_ms = 0;
    cfg.idle_sweeps = c.idle_sweeps;
    cfg.max_batch_tuples = c.max_batch_tuples;

    auto cluster = UdpCluster::Create(std::move(cfg));
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

    // Sealed exports buffered on node 1's socket before the loops start.
    ASSERT_TRUE(
        (*cluster)
            ->Insert(0, {{"link", {Value::Str("p0"), Value::Str("p1")}}})
            .ok());
    ASSERT_TRUE(
        (*cluster)
            ->Insert(0, {{"link", {Value::Str("p1"), Value::Str("p0")}}})
            .ok());

    auto stats = (*cluster)->Run();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->messages_delivered, 2u);
    EXPECT_EQ(stats->rejected, 0u);
    if (c.max_batch_tuples == 1) {
      EXPECT_EQ(stats->apply_transactions, 2u);
      EXPECT_EQ(stats->coalesced_messages, 0u);
    }

    // The exported closure committed on the receiver despite the
    // immediate shutdown: reachable(p0,p1) from the first insert, then
    // the three new closure tuples (p1,p0), (p0,p0), (p1,p1) from the
    // second.
    auto rows = (*cluster)->node(1).workspace().Query("reachable").value();
    EXPECT_EQ(rows.size(), 4u);
  }
}

// Co-shardable app for the placement fuzz tests (tests/placement_test.cc
// exercises the full invariance matrix on the simulator; here we attack
// the transport envelope around placement batches).
const char* kPlacedApp = R"(
seed(X, Y) -> string(X), string(Y).
grow(X, Y) -> string(X), string(Y).
inv(X, Y) -> string(X), string(Y).
grow(X, Y) <- seed(X, Y).
inv(Y, X) <- seed(X, Y).
)";

UdpCluster::Config PlacedConfig(const char* seed_str) {
  policy::SaysPolicyOptions popts;
  popts.accept = policy::AcceptMode::kBenign;
  UdpCluster::Config cfg;
  cfg.num_nodes = 2;
  cfg.sources = {policy::PreludeSource(), kPlacedApp,
                 policy::SaysPolicySource(popts)};
  cfg.batch_security.auth = policy::AuthScheme::kHmac;
  cfg.credentials.rsa_bits = 512;
  cfg.credentials.seed = seed_str;
  cfg.placement = true;
  cfg.placed_preds = {"seed", "grow", "inv"};
  cfg.storage_shards = 7;
  return cfg;
}

// Capture a placement batch staged at `node` by inserting seeds until one
// routes to the peer. The commit stays local; only the sealed outgoing is
// returned for the attacker to replay.
NodeRuntime::Outgoing CapturePlacementBatch(UdpCluster& cluster,
                                            net::NodeIndex node) {
  for (int i = 0; i < 64; ++i) {
    auto outcome = cluster.node(node).InsertLocal(
        {{"seed",
          {Value::Str("cap" + std::to_string(i)), Value::Str("v")}}});
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (!outcome->outgoing.empty()) return outcome->outgoing[0];
  }
  ADD_FAILURE() << "no seed key routed to the peer in 64 tries";
  return {};
}

TEST(UdpClusterTest, LyingShardAndEpochEnvelopesAreCountedNotTrusted) {
  // The envelope's shard/epoch words ride outside the seal. Routing always
  // comes from the sealed batch header, so a forged envelope cannot
  // misroute a payload — but every lie is counted for operators.
  auto cluster = UdpCluster::Create(PlacedConfig("udp-routing-fuzz"));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  NodeRuntime::Outgoing out = CapturePlacementBatch(**cluster, 0);
  ASSERT_EQ(out.dst, 1u);
  ASSERT_NE(out.shard, net::kNoShard);

  std::vector<net::UdpEndpoint> eps = {
      {"127.0.0.1", 0}, {"127.0.0.1", (*cluster)->port_of(1)}};
  auto attacker = net::UdpTransport::Bind(0, eps);
  ASSERT_TRUE(attacker.ok()) << attacker.status().ToString();

  struct Forgery {
    uint32_t shard;
    uint32_t epoch;
  };
  const Forgery sends[] = {
      {out.shard ^ 0x55AAu, static_cast<uint32_t>(out.map_epoch)},  // lie
      {out.shard, static_cast<uint32_t>(out.map_epoch) + 7},        // lie
      {out.shard, static_cast<uint32_t>(out.map_epoch)},            // honest
  };
  for (const Forgery& f : sends) {
    ByteWriter w;
    w.PutU32(0);  // truthful source: the seal verifies
    w.PutU32(static_cast<uint32_t>(out.num_tuples));
    w.PutU32(f.shard);
    w.PutU32(f.epoch);
    w.PutRaw(out.payload);
    ASSERT_TRUE(attacker->Send(1, w.Take()).ok());
  }

  auto stats = (*cluster)->Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // The three attacker datagrams, plus any legitimate re-keyed `inv`
  // deltas node 1's fixpoint routes back.
  EXPECT_GE(stats->messages_delivered, 3u);
  EXPECT_EQ(stats->routing_mismatches, 2u);
  EXPECT_EQ(stats->hint_mismatches, 0u);

  // All three copies applied (set semantics): the routed seed landed at
  // its owner exactly once, with its shard-local derivation.
  auto rows = (*cluster)->node(1).workspace().Query("seed").value();
  EXPECT_EQ(rows.size(), 1u);
  EXPECT_EQ((*cluster)->node(1).stats().batches_rejected_routing, 0u);
}

TEST(UdpClusterTest, HandoffReplayIsIdempotent) {
  // A node leaves; its sealed handoff snapshots are delivered twice (an
  // attacker replay, or a retransmit). The second application must be a
  // no-op: same tuples, same exact support counts.
  auto cluster = UdpCluster::Create(PlacedConfig("udp-handoff-replay"));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*cluster)
                    ->Insert(0, {{"seed",
                                  {Value::Str("h" + std::to_string(i)),
                                   Value::Str("w" + std::to_string(i))}}})
                    .ok());
  }
  auto stats1 = (*cluster)->Run();
  ASSERT_TRUE(stats1.ok()) << stats1.status().ToString();

  // Node 1 departs: static membership on this transport, so the test
  // drives the runtimes directly — extract at the old owner, then both
  // nodes adopt the new map.
  ShardMap new_map = (*cluster)->node(1).shard_map();
  new_map.Leave(1);
  auto handoff = (*cluster)->node(1).ExtractHandoff(new_map);
  ASSERT_TRUE(handoff.ok()) << handoff.status().ToString();
  ASSERT_FALSE(handoff->empty());
  (*cluster)->node(0).SetShardMap(new_map);
  (*cluster)->node(1).SetShardMap(new_map);

  std::vector<net::UdpEndpoint> eps = {
      {"127.0.0.1", 0}, {"127.0.0.1", (*cluster)->port_of(0)}};
  auto attacker = net::UdpTransport::Bind(0, eps);
  ASSERT_TRUE(attacker.ok()) << attacker.status().ToString();
  size_t handoff_rows = 0;
  for (int replay = 0; replay < 2; ++replay) {
    for (const NodeRuntime::Outgoing& out : *handoff) {
      ASSERT_EQ(out.dst, 0u);
      ByteWriter w;
      w.PutU32(1);
      w.PutU32(static_cast<uint32_t>(out.num_tuples));
      w.PutU32(out.shard);
      w.PutU32(static_cast<uint32_t>(out.map_epoch));
      w.PutRaw(out.payload);
      ASSERT_TRUE(attacker->Send(1, w.Take()).ok());
      if (replay == 0) handoff_rows += out.num_tuples;
    }
  }

  auto stats2 = (*cluster)->Run();
  ASSERT_TRUE(stats2.ok()) << stats2.status().ToString();
  EXPECT_EQ(stats2->routing_mismatches, 0u);

  // Node 0 now owns everything, exactly once, with exact supports: every
  // seed has its grow twin (support 1 each, one derivation per seed).
  auto& ws = (*cluster)->node(0).workspace();
  auto seeds = ws.Query("seed").value();
  auto grows = ws.Query("grow").value();
  EXPECT_EQ(seeds.size(), 8u);
  EXPECT_EQ(grows.size(), 8u);
  const engine::Relation* grow_rel =
      ws.GetRelationIfExists(ws.catalog().Lookup("grow").value());
  ASSERT_NE(grow_rel, nullptr);
  for (const auto& t : grow_rel->AllTuples()) {
    EXPECT_EQ(grow_rel->SupportCount(t), 1u) << "replay inflated support";
  }
  // Both copies arrived and were counted as handoff traffic.
  EXPECT_EQ((*cluster)->node(0).stats().handoff_rows_in, 2 * handoff_rows);
}

TEST(UdpClusterTest, PortsAreDistinct) {
  UdpCluster::Config cfg;
  cfg.num_nodes = 2;
  policy::SaysPolicyOptions popts;
  cfg.sources = {policy::PreludeSource(), kApp,
                 policy::SaysPolicySource(popts)};
  cfg.credentials.rsa_bits = 512;
  cfg.credentials.seed = "udp-ports";
  auto cluster = UdpCluster::Create(std::move(cfg));
  ASSERT_TRUE(cluster.ok());
  EXPECT_NE((*cluster)->port_of(0), (*cluster)->port_of(1));
  EXPECT_GT((*cluster)->port_of(0), 0u);
}

}  // namespace
}  // namespace secureblox::dist
