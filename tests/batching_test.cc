// Batched, pipelined distribution (paper §5.2): coalesced deliveries must
// preserve semantics exactly.
//
// Equivalence suite: for the hashjoin / pathvector / anonjoin programs the
// drained cluster fixpoint — every relation plus derivation-support counts
// on every node — is identical at batch granularity 1, 4, 64 and ∞, with
// and without HMAC / RSA-AES batch security. Anonymous entity labels embed
// a creation-order counter, so dumps are compared after canonicalizing
// anon labels by structural signature (WL-style color refinement); the
// canonical dumps are compared byte for byte.
//
// Fault injection: one source's corrupted seal inside a coalesced batch
// rejects only that source's facts; a constraint-violating fact isolates
// its source via the bisect path; Stats counters are pinned. Every
// SimCluster TxRecord — rejected deliveries included — carries a real
// simulated duration.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "apps/anonjoin.h"
#include "apps/hashjoin.h"
#include "apps/pathvector.h"
#include "dist/cluster.h"
#include "dist/runtime.h"
#include "dist/udp_cluster.h"
#include "policy/says_policy.h"

namespace secureblox::dist {
namespace {

using datalog::Value;
using engine::FactUpdate;
using policy::AuthScheme;
using policy::EncScheme;

// ---------------------------------------------------------------------------
// Canonical workspace dumps (anon labels renamed by structural signature).
// ---------------------------------------------------------------------------

// Anonymous entities are labeled `<type>@<node_tag>#<digest>`, the digest
// content-addressed from the creating rule and binding.
bool IsAnonLabel(const std::string& label) {
  size_t at = label.find('@');
  return at != std::string::npos && label.find('#', at) != std::string::npos;
}

struct RawAtom {
  std::string pred;
  /// Rendered values; anonymous entity positions hold only the type prefix
  /// ("pathvar:") with the raw label kept in anon_label.
  std::vector<std::string> vals;
  std::vector<std::string> anon_label;  // "" when vals[i] is literal
  uint32_t support = 0;
};

std::string RenderAtom(const RawAtom& a,
                       const std::map<std::string, std::string>& names,
                       const std::string& self_label) {
  std::string out = a.pred + "(";
  for (size_t i = 0; i < a.vals.size(); ++i) {
    if (i) out += ",";
    out += a.vals[i];
    const std::string& label = a.anon_label[i];
    if (!label.empty()) {
      if (label == self_label) {
        out += "\xC2\xA7";  // self marker
      } else {
        auto it = names.find(label);
        out += it != names.end() ? it->second : std::string("?");
      }
    }
  }
  out += ")x" + std::to_string(a.support);
  return out;
}

std::string CanonicalDump(const engine::Workspace& ws) {
  const datalog::Catalog& catalog = ws.catalog();
  std::vector<RawAtom> atoms;
  std::map<std::string, std::vector<size_t>> occurrences;  // label -> atoms
  for (size_t p = 0; p < catalog.num_predicates(); ++p) {
    datalog::PredId id = static_cast<datalog::PredId>(p);
    const engine::Relation* rel = ws.GetRelationIfExists(id);
    if (rel == nullptr || rel->empty()) continue;
    const std::string& pred_name = catalog.decl(id).name;
    for (const auto& t : rel->AllTuples()) {
      RawAtom a;
      a.pred = pred_name;
      a.support = rel->SupportCount(t);
      for (const auto& v : t) {
        if (v.is_entity()) {
          std::string label = catalog.EntityLabel(v).value();
          std::string prefix = catalog.decl(v.entity_type()).name + ":";
          if (IsAnonLabel(label)) {
            a.vals.push_back(prefix);
            a.anon_label.push_back(label);
          } else {
            a.vals.push_back(prefix + label);
            a.anon_label.push_back("");
          }
        } else {
          a.vals.push_back(catalog.ValueToString(v));
          a.anon_label.push_back("");
        }
      }
      size_t idx = atoms.size();
      atoms.push_back(std::move(a));
      for (const std::string& label : atoms[idx].anon_label) {
        if (!label.empty()) occurrences[label].push_back(idx);
      }
    }
  }

  // Color refinement: an anon entity's color is the sorted multiset of its
  // atoms rendered with itself marked and other anon entities shown by
  // their previous-round colors. Converges in O(longest anon-to-anon
  // reference chain) rounds.
  std::map<std::string, std::string> color;
  for (int round = 0; round < 32; ++round) {
    std::map<std::string, std::string> sig;
    for (const auto& [label, atom_ids] : occurrences) {
      std::vector<std::string> parts;
      for (size_t id : atom_ids) parts.push_back(RenderAtom(atoms[id], color, label));
      std::sort(parts.begin(), parts.end());
      std::string joined;
      for (const auto& part : parts) joined += part + ";";
      sig[label] = joined;
    }
    std::set<std::string> uniq;
    for (const auto& [label, s] : sig) uniq.insert(s);
    std::map<std::string, std::string> next;
    for (const auto& [label, s] : sig) {
      size_t rank = static_cast<size_t>(
          std::distance(uniq.begin(), uniq.find(s)));
      next[label] = "a" + std::to_string(rank);
    }
    if (next == color) break;
    color = std::move(next);
  }

  std::vector<std::string> lines;
  for (const RawAtom& a : atoms) lines.push_back(RenderAtom(a, color, ""));
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& line : lines) out += line + "\n";
  return out;
}

std::string ClusterDump(SimCluster& cluster) {
  std::string out;
  for (size_t i = 0; i < cluster.num_nodes(); ++i) {
    out += "== node " + std::to_string(i) + " ==\n";
    out += CanonicalDump(
        cluster.node(static_cast<net::NodeIndex>(i)).workspace());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Equivalence: pathvector (line topology: unique paths, so the distributed
// fixpoint is granularity-invariant including all path entities).
// ---------------------------------------------------------------------------

Result<std::string> RunPathVectorLineDump(size_t batch_tuples,
                                          AuthScheme auth, EncScheme enc,
                                          double batch_delay_s = 0) {
  policy::SaysPolicyOptions popts;
  popts.accept = policy::AcceptMode::kBenign;
  SimCluster::Config cfg;
  cfg.num_nodes = 4;
  cfg.sources = {policy::PreludeSource(), apps::PathVectorSource(),
                 policy::SaysPolicySource(popts)};
  cfg.batch_security = {auth, enc};
  cfg.credentials.rsa_bits = 512;
  cfg.credentials.seed = "batching-pv";
  cfg.max_batch_tuples = batch_tuples;
  cfg.max_batch_delay_s = batch_delay_s;
  SB_ASSIGN_OR_RETURN(std::unique_ptr<SimCluster> cluster,
                      SimCluster::Create(std::move(cfg)));
  auto principal = [](size_t i) { return "p" + std::to_string(i); };
  for (size_t i = 0; i + 1 < 4; ++i) {
    cluster->ScheduleInsert(
        static_cast<net::NodeIndex>(i),
        {{"link", {Value::Str(principal(i)), Value::Str(principal(i + 1))}}});
    cluster->ScheduleInsert(
        static_cast<net::NodeIndex>(i + 1),
        {{"link", {Value::Str(principal(i + 1)), Value::Str(principal(i))}}});
  }
  SB_ASSIGN_OR_RETURN(SimCluster::Metrics metrics, cluster->Run());
  if (metrics.rejected_batches != 0) {
    return Status::Internal("unexpected rejected deliveries");
  }
  return ClusterDump(*cluster);
}

TEST(BatchingEquivalence, PathVectorAllGranularitiesAllSchemes) {
  const std::vector<std::pair<AuthScheme, EncScheme>> schemes = {
      {AuthScheme::kNone, EncScheme::kNone},
      {AuthScheme::kHmac, EncScheme::kNone},
      {AuthScheme::kRsa, EncScheme::kAes},
  };
  std::vector<std::string> per_scheme;
  for (const auto& [auth, enc] : schemes) {
    auto baseline = RunPathVectorLineDump(1, auth, enc);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    EXPECT_NE(baseline->find("bestcost("), std::string::npos);
    for (size_t g : {size_t{4}, size_t{64}, size_t{0}}) {
      auto dump = RunPathVectorLineDump(g, auth, enc);
      ASSERT_TRUE(dump.ok()) << dump.status().ToString();
      EXPECT_EQ(*dump, *baseline)
          << "granularity " << g << " scheme "
          << BatchSecurity{auth, enc}.Name();
    }
    per_scheme.push_back(std::move(baseline).value());
  }
  // The seal never leaks into the dataflow: dumps match across schemes too.
  EXPECT_EQ(per_scheme[0], per_scheme[1]);
  EXPECT_EQ(per_scheme[0], per_scheme[2]);

  // Holding batches open (max_batch_delay) changes scheduling only.
  auto delayed = RunPathVectorLineDump(0, AuthScheme::kNone,
                                       EncScheme::kNone, /*delay=*/0.005);
  ASSERT_TRUE(delayed.ok()) << delayed.status().ToString();
  EXPECT_EQ(*delayed, per_scheme[0]);
}

// ---------------------------------------------------------------------------
// Equivalence: hashjoin (monotone rehash-join-reply pipeline).
// ---------------------------------------------------------------------------

Result<std::string> RunHashJoinDump(size_t batch_tuples, AuthScheme auth,
                                    EncScheme enc) {
  policy::SaysPolicyOptions popts;
  popts.accept = policy::AcceptMode::kBenign;
  SimCluster::Config cfg;
  cfg.num_nodes = 3;
  cfg.sources = {policy::PreludeSource(), apps::HashJoinSource(),
                 policy::SaysPolicySource(popts)};
  cfg.batch_security = {auth, enc};
  cfg.credentials.rsa_bits = 512;
  cfg.credentials.seed = "batching-hj";
  cfg.max_batch_tuples = batch_tuples;
  SB_ASSIGN_OR_RETURN(std::unique_ptr<SimCluster> cluster,
                      SimCluster::Create(std::move(cfg)));

  // Deterministic small workload over 6 join values.
  const int64_t kHashSpace = 1000000;
  std::vector<std::vector<FactUpdate>> initial(3);
  for (int64_t i = 0; i < 24; ++i) {
    initial[static_cast<size_t>(i) % 3].push_back(
        {"tbl_r", {Value::Int(i), Value::Int(100 + (i * 7) % 6)}});
  }
  for (int64_t i = 0; i < 18; ++i) {
    initial[static_cast<size_t>(i) % 3].push_back(
        {"tbl_s", {Value::Int(1000 + i), Value::Int(100 + (i * 5) % 6)}});
  }
  for (size_t n = 0; n < 3; ++n) {
    initial[n].push_back({"initiator", {Value::Str("p0")}});
    for (size_t u = 0; u < 3; ++u) {
      std::string principal = "p" + std::to_string(u);
      int64_t lo = static_cast<int64_t>(u) * kHashSpace / 3;
      int64_t hi = static_cast<int64_t>(u + 1) * kHashSpace / 3;
      initial[n].push_back(
          {"prin_minhash", {Value::Str(principal), Value::Int(lo)}});
      initial[n].push_back(
          {"prin_maxhash", {Value::Str(principal), Value::Int(hi)}});
    }
    cluster->ScheduleInsert(static_cast<net::NodeIndex>(n),
                            std::move(initial[n]));
  }
  SB_ASSIGN_OR_RETURN(SimCluster::Metrics metrics, cluster->Run());
  if (metrics.rejected_batches != 0) {
    return Status::Internal("unexpected rejected deliveries");
  }
  return ClusterDump(*cluster);
}

TEST(BatchingEquivalence, HashJoinAllGranularitiesWithAndWithoutSecurity) {
  for (const auto& [auth, enc] :
       std::vector<std::pair<AuthScheme, EncScheme>>{
           {AuthScheme::kNone, EncScheme::kNone},
           {AuthScheme::kHmac, EncScheme::kNone},
           {AuthScheme::kRsa, EncScheme::kAes}}) {
    auto baseline = RunHashJoinDump(1, auth, enc);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    EXPECT_NE(baseline->find("joinresult("), std::string::npos);
    for (size_t g : {size_t{4}, size_t{64}, size_t{0}}) {
      auto dump = RunHashJoinDump(g, auth, enc);
      ASSERT_TRUE(dump.ok()) << dump.status().ToString();
      EXPECT_EQ(*dump, *baseline)
          << "granularity " << g << " scheme "
          << BatchSecurity{auth, enc}.Name();
    }
  }
}

// ---------------------------------------------------------------------------
// Equivalence: anonjoin (onion circuit; requests and replies relayed).
// ---------------------------------------------------------------------------

Result<std::string> RunAnonJoinDump(size_t batch_tuples) {
  SimCluster::Config cfg;
  cfg.num_nodes = 4;
  cfg.sources = {policy::PreludeSource(), policy::AnonPreludeSource(),
                 apps::AnonJoinSource(), policy::AnonSaysPolicySource()};
  cfg.credentials.rsa_bits = 512;
  cfg.credentials.seed = "batching-aj";
  cfg.max_batch_tuples = batch_tuples;
  SB_ASSIGN_OR_RETURN(std::unique_ptr<SimCluster> cluster,
                      SimCluster::Create(std::move(cfg)));
  SB_RETURN_IF_ERROR(apps::BuildCircuit(cluster.get(), {0, 1, 2, 3}, "p3", 7));

  std::vector<FactUpdate> init0 = {{"table_owner", {Value::Str("p3")}}};
  for (int64_t k : {1, 2, 3}) init0.push_back({"interests", {Value::Int(k)}});
  std::vector<FactUpdate> init_owner;
  for (int64_t i = 0; i < 12; ++i) {
    init_owner.push_back(
        {"publicdata", {Value::Int(i % 6), Value::Int(i)}});
  }
  cluster->ScheduleInsert(0, std::move(init0));
  cluster->ScheduleInsert(3, std::move(init_owner));
  SB_ASSIGN_OR_RETURN(SimCluster::Metrics metrics, cluster->Run());
  if (metrics.rejected_batches != 0) {
    return Status::Internal("unexpected rejected deliveries");
  }
  return ClusterDump(*cluster);
}

TEST(BatchingEquivalence, AnonJoinAllGranularities) {
  auto baseline = RunAnonJoinDump(1);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_NE(baseline->find("result("), std::string::npos);
  for (size_t g : {size_t{4}, size_t{64}, size_t{0}}) {
    auto dump = RunAnonJoinDump(g);
    ASSERT_TRUE(dump.ok()) << dump.status().ToString();
    EXPECT_EQ(*dump, *baseline) << "granularity " << g;
  }
}

// ---------------------------------------------------------------------------
// Equivalence over real sockets: the pipelined UdpCluster converges to the
// same closure at every granularity.
// ---------------------------------------------------------------------------

const char* kReachableApp = R"(
link(X, Y) -> principal(X), principal(Y).
reachable(X, Y) -> principal(X), principal(Y).
reachable(X, Y) <- link(X, Y).
reachable(X, Y) <- reachable(X, Z), reachable(Z, Y).
says[`reachable](S, U, X, Y) <- reachable(X, Y), link(S, U), self[] = S.
exportable(`reachable).
)";

Result<std::string> RunUdpClosureDump(size_t batch_tuples) {
  policy::SaysPolicyOptions popts;
  popts.accept = policy::AcceptMode::kBenign;
  UdpCluster::Config cfg;
  cfg.num_nodes = 3;
  cfg.sources = {policy::PreludeSource(), kReachableApp,
                 policy::SaysPolicySource(popts)};
  cfg.batch_security.auth = AuthScheme::kHmac;
  cfg.credentials.rsa_bits = 512;
  cfg.credentials.seed = "batching-udp";
  cfg.max_batch_tuples = batch_tuples;
  SB_ASSIGN_OR_RETURN(std::unique_ptr<UdpCluster> cluster,
                      UdpCluster::Create(std::move(cfg)));
  SB_RETURN_IF_ERROR(cluster->Insert(
      0, {{"link", {Value::Str("p0"), Value::Str("p1")}}}));
  SB_RETURN_IF_ERROR(cluster->Insert(
      1, {{"link", {Value::Str("p1"), Value::Str("p2")}}}));
  SB_ASSIGN_OR_RETURN(UdpCluster::Stats stats, cluster->Run());
  if (stats.rejected != 0) return Status::Internal("unexpected rejections");
  std::string out;
  for (net::NodeIndex i = 0; i < 3; ++i) {
    out += "== node " + std::to_string(i) + " ==\n";
    out += CanonicalDump(cluster->node(i).workspace());
  }
  return out;
}

TEST(BatchingEquivalence, UdpClusterGranularityInvariant) {
  auto fine = RunUdpClosureDump(1);
  ASSERT_TRUE(fine.ok()) << fine.status().ToString();
  auto coarse = RunUdpClosureDump(0);
  ASSERT_TRUE(coarse.ok()) << coarse.status().ToString();
  EXPECT_EQ(*fine, *coarse);
  EXPECT_NE(fine->find("reachable("), std::string::npos);
}

// max_batch_delay_s over real sockets: the apply loop must hold a
// non-full batch open for the configured window (it used to close
// immediately, so the knob only worked in SimCluster), coalescing the
// second source's datagram into the first's transaction — and the held
// batch changes scheduling only, never the fixpoint.
TEST(BatchingEquivalence, UdpClusterHonorsBatchDelay) {
  auto run = [](double delay_s)
      -> Result<std::pair<UdpCluster::Stats, std::string>> {
    policy::SaysPolicyOptions popts;
    popts.accept = policy::AcceptMode::kBenign;
    UdpCluster::Config cfg;
    cfg.num_nodes = 3;
    cfg.sources = {policy::PreludeSource(), kReachableApp,
                   policy::SaysPolicySource(popts)};
    cfg.batch_security.auth = AuthScheme::kHmac;
    cfg.credentials.rsa_bits = 512;
    cfg.credentials.seed = "batching-udp-delay";
    cfg.max_batch_tuples = 0;
    cfg.max_batch_delay_s = delay_s;
    SB_ASSIGN_OR_RETURN(std::unique_ptr<UdpCluster> cluster,
                        UdpCluster::Create(std::move(cfg)));
    // Two sources, one destination: both exports address node 2.
    SB_RETURN_IF_ERROR(cluster->Insert(
        0, {{"link", {Value::Str("p0"), Value::Str("p2")}}}));
    SB_RETURN_IF_ERROR(cluster->Insert(
        1, {{"link", {Value::Str("p1"), Value::Str("p2")}}}));
    SB_ASSIGN_OR_RETURN(UdpCluster::Stats stats, cluster->Run());
    std::string out;
    for (net::NodeIndex i = 0; i < 3; ++i) {
      out += CanonicalDump(cluster->node(i).workspace());
    }
    return std::make_pair(stats, std::move(out));
  };

  auto immediate = run(0);
  ASSERT_TRUE(immediate.ok()) << immediate.status().ToString();

  const double kDelay = 0.25;
  auto t0 = std::chrono::steady_clock::now();
  auto delayed = run(kDelay);
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_TRUE(delayed.ok()) << delayed.status().ToString();

  // The batch was genuinely held open...
  EXPECT_GE(elapsed, kDelay);
  // ...both deliveries shared its transaction...
  EXPECT_EQ(delayed->first.messages_delivered, 2u);
  EXPECT_EQ(delayed->first.apply_transactions, 1u);
  EXPECT_EQ(delayed->first.coalesced_messages, 2u);
  EXPECT_EQ(delayed->first.rejected, 0u);
  // ...and the distributed fixpoint is unchanged.
  EXPECT_EQ(delayed->second, immediate->second);
}

// The same knob in simulated time, pinned on a star workload: three
// sources advertise to one hub at t=0, so without a delay the hub fires
// on the first arrival, while a held batch must absorb all three into a
// single delivery transaction whose start reflects the hold. (A line
// topology cannot pin this: its traffic is strictly causal, one in-flight
// message per node, so there is never anything to coalesce — and the
// path-vector app's split horizon never advertises a hub route back to
// the hub, so the reachable closure is the right star workload.)
TEST(BatchingEquivalence, SimClusterBatchDelayCoalesces) {
  auto run = [](double delay_s) -> Result<SimCluster::Metrics> {
    policy::SaysPolicyOptions popts;
    popts.accept = policy::AcceptMode::kBenign;
    SimCluster::Config cfg;
    cfg.num_nodes = 4;
    cfg.sources = {policy::PreludeSource(), kReachableApp,
                   policy::SaysPolicySource(popts)};
    cfg.batch_security = {AuthScheme::kNone, EncScheme::kNone};
    cfg.credentials.rsa_bits = 512;
    cfg.credentials.seed = "batching-pv-delay";
    cfg.max_batch_tuples = 0;
    cfg.max_batch_delay_s = delay_s;
    SB_ASSIGN_OR_RETURN(std::unique_ptr<SimCluster> cluster,
                        SimCluster::Create(std::move(cfg)));
    for (size_t i = 1; i < 4; ++i) {
      cluster->ScheduleInsert(
          static_cast<net::NodeIndex>(i),
          {{"link",
            {Value::Str("p" + std::to_string(i)), Value::Str("p0")}}});
    }
    return cluster->Run();
  };
  const double kDelay = 0.5;
  auto immediate = run(0);
  ASSERT_TRUE(immediate.ok()) << immediate.status().ToString();
  auto delayed = run(kDelay);
  ASSERT_TRUE(delayed.ok()) << delayed.status().ToString();
  EXPECT_EQ(delayed->rejected_batches, 0u);
  // Held open: all three advertisements share one delivery transaction...
  size_t hub_deliveries = 0;
  for (const SimCluster::TxRecord& tx : delayed->transactions) {
    if (tx.node != 0 || !tx.is_delivery) continue;
    ++hub_deliveries;
    EXPECT_EQ(tx.num_payloads, 3u);
    // ...which could not start before the hold expired.
    EXPECT_GE(tx.start_s, kDelay);
  }
  EXPECT_EQ(hub_deliveries, 1u);
  EXPECT_EQ(delayed->coalesced_messages, 3u);
  // Without the delay the hub fires on first arrival — well before any
  // hold — and needs at least as many delivery transactions.
  EXPECT_LT(immediate->fixpoint_latency_s, kDelay);
  EXPECT_GE(immediate->delivery_transactions,
            delayed->delivery_transactions);
}

// ---------------------------------------------------------------------------
// Fault injection: per-source seal verification and bisect isolation.
// ---------------------------------------------------------------------------

std::vector<std::string> FourPrincipals() {
  return {"p0", "p1", "p2", "p3"};
}

Result<std::vector<std::unique_ptr<NodeRuntime>>> MakeRuntimes(
    const std::vector<std::string>& sources, AuthScheme auth,
    const std::string& cred_seed) {
  std::vector<std::string> principals = FourPrincipals();
  policy::CredentialAuthority::Options copts;
  copts.rsa_bits = 512;
  copts.seed = cred_seed;
  policy::CredentialAuthority authority(principals, copts);
  std::vector<std::unique_ptr<NodeRuntime>> nodes;
  for (size_t i = 0; i < principals.size(); ++i) {
    NodeRuntime::Config cfg;
    cfg.index = static_cast<net::NodeIndex>(i);
    cfg.principals = principals;
    SB_ASSIGN_OR_RETURN(cfg.creds, authority.IssueFor(principals[i]));
    cfg.batch_security = {auth, EncScheme::kNone};
    SB_ASSIGN_OR_RETURN(std::unique_ptr<NodeRuntime> node,
                        NodeRuntime::Create(std::move(cfg), sources));
    nodes.push_back(std::move(node));
  }
  return nodes;
}

std::vector<std::string> ReachableSources() {
  policy::SaysPolicyOptions popts;
  popts.accept = policy::AcceptMode::kBenign;
  return {policy::PreludeSource(), kReachableApp,
          policy::SaysPolicySource(popts)};
}

std::set<std::string> ReachableSrcs(engine::Workspace& ws) {
  std::set<std::string> out;
  auto rows = ws.Query("reachable").value();
  for (const auto& t : rows) {
    out.insert(ws.catalog().ValueToString(t[0]));
  }
  return out;
}

TEST(BatchingFaults, CorruptedSealRejectsOnlyItsSource) {
  auto nodes =
      MakeRuntimes(ReachableSources(), AuthScheme::kHmac, "fault-seal");
  ASSERT_TRUE(nodes.ok()) << nodes.status().ToString();

  // Sources p0..p2 each advertise a link to p3.
  std::vector<NodeRuntime::SealedDelivery> batch;
  for (size_t i = 0; i < 3; ++i) {
    auto result = (*nodes)[i]->InsertLocal(
        {{"link",
          {Value::Str("p" + std::to_string(i)), Value::Str("p3")}}});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->outgoing.size(), 1u);
    ASSERT_EQ(result->outgoing[0].dst, 3u);
    batch.push_back({static_cast<net::NodeIndex>(i),
                     std::move(result->outgoing[0].payload)});
  }
  // Corrupt p1's seal.
  batch[1].payload[batch[1].payload.size() / 2] ^= 0x01;

  NodeRuntime& dst = *(*nodes)[3];
  auto outcome = dst.DeliverBatch(batch);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->results.size(), 3u);
  EXPECT_TRUE(outcome->results[0].accepted);
  EXPECT_FALSE(outcome->results[1].accepted);
  EXPECT_TRUE(outcome->results[2].accepted);
  EXPECT_EQ(outcome->accepted_payloads, 2u);
  // The surviving payloads share ONE commit.
  EXPECT_EQ(outcome->transactions, 1u);

  const NodeRuntime::Stats& stats = dst.stats();
  EXPECT_EQ(stats.batches_accepted, 2u);
  EXPECT_EQ(stats.batches_rejected_auth, 1u);
  EXPECT_EQ(stats.batches_rejected_parse, 0u);
  EXPECT_EQ(stats.batches_rejected_constraint, 0u);
  EXPECT_EQ(stats.delivery_txns, 1u);
  EXPECT_EQ(stats.coalesced_payloads, 2u);
  EXPECT_EQ(stats.bisect_splits, 0u);

  auto srcs = ReachableSrcs(dst.workspace());
  EXPECT_TRUE(srcs.count("principal:p0"));
  EXPECT_FALSE(srcs.count("principal:p1"));
  EXPECT_TRUE(srcs.count("principal:p2"));
}

const char* kGuardedApp = R"(
link(X, Y) -> principal(X), principal(Y).
reachable(X, Y) -> principal(X), principal(Y).
reachable(X, Y) <- link(X, Y).
reachable(X, Y) <- reachable(X, Z), reachable(Z, Y).
ok_src(X) -> principal(X).
reachable(X, Y) -> ok_src(X).
says[`reachable](S, U, X, Y) <- reachable(X, Y), link(S, U), self[] = S.
exportable(`reachable).
)";

TEST(BatchingFaults, ConstraintViolationIsolatedByBisect) {
  policy::SaysPolicyOptions popts;
  popts.accept = policy::AcceptMode::kBenign;
  std::vector<std::string> sources = {policy::PreludeSource(), kGuardedApp,
                                      policy::SaysPolicySource(popts)};
  auto nodes = MakeRuntimes(sources, AuthScheme::kHmac, "fault-bisect");
  ASSERT_TRUE(nodes.ok()) << nodes.status().ToString();

  // Each source whitelists itself locally; the destination trusts p0 and
  // p2 but NOT p1, so p1's (correctly sealed!) facts violate a constraint.
  std::vector<NodeRuntime::SealedDelivery> batch;
  for (size_t i = 0; i < 3; ++i) {
    std::string self = "p" + std::to_string(i);
    ASSERT_TRUE((*nodes)[i]
                    ->InsertLocal({{"ok_src", {Value::Str(self)}}})
                    .ok());
    auto result = (*nodes)[i]->InsertLocal(
        {{"link", {Value::Str(self), Value::Str("p3")}}});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->outgoing.size(), 1u);
    batch.push_back({static_cast<net::NodeIndex>(i),
                     std::move(result->outgoing[0].payload)});
  }
  NodeRuntime& dst = *(*nodes)[3];
  ASSERT_TRUE(dst.InsertLocal({{"ok_src", {Value::Str("p0")}},
                               {"ok_src", {Value::Str("p2")}}})
                  .ok());

  auto outcome = dst.DeliverBatch(batch);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->results[0].accepted);
  EXPECT_FALSE(outcome->results[1].accepted);
  EXPECT_TRUE(outcome->results[2].accepted);
  EXPECT_EQ(outcome->accepted_payloads, 2u);
  // Bisect path: [p0,p1,p2] fails -> [p0] commits, [p1,p2] fails ->
  // [p1] rejected, [p2] commits.
  EXPECT_EQ(outcome->transactions, 2u);

  const NodeRuntime::Stats& stats = dst.stats();
  EXPECT_EQ(stats.batches_accepted, 2u);
  EXPECT_EQ(stats.batches_rejected_auth, 0u);
  EXPECT_EQ(stats.batches_rejected_constraint, 1u);
  EXPECT_EQ(stats.delivery_txns, 2u);
  EXPECT_EQ(stats.bisect_splits, 2u);
  EXPECT_EQ(stats.coalesced_payloads, 0u);

  auto srcs = ReachableSrcs(dst.workspace());
  EXPECT_TRUE(srcs.count("principal:p0"));
  EXPECT_FALSE(srcs.count("principal:p1"));
  EXPECT_TRUE(srcs.count("principal:p2"));
}

// ---------------------------------------------------------------------------
// Every TxRecord carries a real simulated duration — rejected deliveries
// included (verification work costs cycles and advances the node's clock).
// ---------------------------------------------------------------------------

TEST(BatchingFaults, RejectedDeliveriesCarryRealSimulatedDuration) {
  policy::SaysPolicyOptions popts;
  popts.accept = policy::AcceptMode::kBenign;
  SimCluster::Config cfg;
  cfg.num_nodes = 2;
  cfg.sources = {policy::PreludeSource(), kGuardedApp,
                 policy::SaysPolicySource(popts)};
  cfg.batch_security.auth = AuthScheme::kHmac;
  cfg.credentials.rsa_bits = 512;
  cfg.credentials.seed = "txrecord-duration";
  auto cluster = SimCluster::Create(std::move(cfg));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  // Node 0 may derive reachable(p0, p1); node 1 trusts nobody, so the
  // delivery is rejected there.
  (*cluster)->ScheduleInsert(
      0, {{"ok_src", {Value::Str("p0")}},
          {"link", {Value::Str("p0"), Value::Str("p1")}}});
  auto metrics = (*cluster)->Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->rejected_batches, 1u);

  bool saw_rejected_delivery = false;
  for (const SimCluster::TxRecord& tx : metrics->transactions) {
    EXPECT_GT(tx.end_s, tx.start_s);
    if (tx.is_delivery && !tx.accepted) {
      saw_rejected_delivery = true;
      EXPECT_EQ(tx.node, 1u);
      EXPECT_GE(tx.num_payloads, 1u);
    }
  }
  EXPECT_TRUE(saw_rejected_delivery);
}

}  // namespace
}  // namespace secureblox::dist
