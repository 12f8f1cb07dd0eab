// Distributed integration: multi-node secure transitive closure on the
// simulated cluster under every security scheme, message tamper rejection,
// and runtime plumbing (node labels, sealing).
#include <gtest/gtest.h>

#include <set>

#include "crypto/sha1.h"
#include "dist/cluster.h"
#include "dist/runtime.h"
#include "policy/says_policy.h"

namespace secureblox::dist {
namespace {

using datalog::Value;
using engine::FactUpdate;
using policy::AuthScheme;
using policy::EncScheme;

// Flood-style distributed transitive closure: every node advertises its
// reachable facts to its neighbours via says (paper §3.1 example).
const char* kReachableApp = R"(
link(X, Y) -> principal(X), principal(Y).
reachable(X, Y) -> principal(X), principal(Y).
reachable(X, Y) <- link(X, Y).
reachable(X, Y) <- reachable(X, Z), reachable(Z, Y).
says[`reachable](S, U, X, Y) <- reachable(X, Y), link(S, U), self[] = S.
exportable(`reachable).
)";

std::vector<std::string> Sources(AuthScheme auth, EncScheme enc) {
  policy::SaysPolicyOptions opts;
  opts.auth = auth;
  opts.enc = enc;
  opts.accept = policy::AcceptMode::kBenign;
  return {policy::PreludeSource(), kReachableApp,
          policy::SaysPolicySource(opts)};
}

SimCluster::Config LineClusterConfig(size_t n, AuthScheme auth,
                                     EncScheme enc) {
  SimCluster::Config cfg;
  cfg.num_nodes = n;
  cfg.sources = Sources(auth, enc);
  cfg.batch_security.auth = auth;
  cfg.batch_security.enc = enc;
  cfg.credentials.rsa_bits = 512;  // fast for tests; benches use 1024
  cfg.credentials.seed = "dist-test";
  return cfg;
}

// Insert a directed line graph p0 -> p1 -> ... -> p(n-1).
void ScheduleLineLinks(SimCluster* cluster, size_t n) {
  for (size_t i = 0; i + 1 < n; ++i) {
    cluster->ScheduleInsert(
        static_cast<net::NodeIndex>(i),
        {{"link",
          {Value::Str("p" + std::to_string(i)),
           Value::Str("p" + std::to_string(i + 1))}}});
  }
}

std::set<std::string> ReachableAt(SimCluster& cluster, net::NodeIndex n) {
  std::set<std::string> out;
  auto rows = cluster.node(n).workspace().Query("reachable").value();
  const auto& catalog = cluster.node(n).workspace().catalog();
  for (const auto& t : rows) {
    out.insert(catalog.ValueToString(t[0]) + "->" +
               catalog.ValueToString(t[1]));
  }
  return out;
}

class DistSchemeTest
    : public ::testing::TestWithParam<std::pair<AuthScheme, EncScheme>> {};

TEST_P(DistSchemeTest, LineGraphClosureConverges) {
  auto [auth, enc] = GetParam();
  constexpr size_t kN = 4;
  auto cluster = SimCluster::Create(LineClusterConfig(kN, auth, enc));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ScheduleLineLinks(cluster->get(), kN);
  auto metrics = (*cluster)->Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->rejected_batches, 0u);
  EXPECT_GT(metrics->fixpoint_latency_s, 0.0);

  // Advertisements flow along directed links, so node i accumulates the
  // closure over the prefix p0..p(i+1): sizes 1, 3, 6 and the last node
  // mirrors its predecessor (it has no outgoing links of its own).
  auto at_last = ReachableAt(**cluster, kN - 1);
  EXPECT_TRUE(at_last.count("principal:p0->principal:p3"))
      << "missing p0->p3";
  EXPECT_EQ(ReachableAt(**cluster, 0).size(), 1u);
  EXPECT_EQ(ReachableAt(**cluster, 1).size(), 3u);
  EXPECT_EQ(ReachableAt(**cluster, 2).size(), kN * (kN - 1) / 2);
  EXPECT_EQ(at_last.size(), kN * (kN - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, DistSchemeTest,
    ::testing::Values(
        std::make_pair(AuthScheme::kNone, EncScheme::kNone),
        std::make_pair(AuthScheme::kHmac, EncScheme::kNone),
        std::make_pair(AuthScheme::kRsa, EncScheme::kNone),
        std::make_pair(AuthScheme::kNone, EncScheme::kAes),
        std::make_pair(AuthScheme::kHmac, EncScheme::kAes),
        std::make_pair(AuthScheme::kRsa, EncScheme::kAes)),
    [](const auto& info) {
      BatchSecurity s;
      s.auth = info.param.first;
      s.enc = info.param.second;
      std::string name = s.Name();
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(DistTest, SecuritySchemesChangeMessageSizes) {
  // NoAuth < HMAC (+20B MAC) < RSA (+64B sig at 512 bits) per message.
  std::map<std::string, double> kb;
  for (auto auth :
       {AuthScheme::kNone, AuthScheme::kHmac, AuthScheme::kRsa}) {
    auto cluster =
        SimCluster::Create(LineClusterConfig(3, auth, EncScheme::kNone));
    ASSERT_TRUE(cluster.ok());
    ScheduleLineLinks(cluster->get(), 3);
    auto metrics = (*cluster)->Run();
    ASSERT_TRUE(metrics.ok());
    kb[policy::AuthSchemeName(auth)] = metrics->MeanPerNodeKb();
  }
  EXPECT_LT(kb["NoAuth"], kb["HMAC"]);
  EXPECT_LT(kb["HMAC"], kb["RSA"]);
}

TEST(DistTest, TamperedMessageIsRejected) {
  // Two hand-driven runtimes with HMAC batch security.
  std::vector<std::string> principals = {"alice", "bob"};
  policy::CredentialAuthority::Options copts;
  copts.rsa_bits = 512;
  copts.seed = "tamper-test";
  policy::CredentialAuthority authority(principals, copts);

  auto sources = Sources(AuthScheme::kHmac, EncScheme::kNone);
  std::vector<std::unique_ptr<NodeRuntime>> nodes;
  for (size_t i = 0; i < 2; ++i) {
    NodeRuntime::Config cfg;
    cfg.index = static_cast<net::NodeIndex>(i);
    cfg.principals = principals;
    cfg.creds = authority.IssueFor(principals[i]).value();
    cfg.batch_security = {AuthScheme::kHmac, EncScheme::kNone};
    auto node = NodeRuntime::Create(std::move(cfg), sources);
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    nodes.push_back(std::move(node).value());
  }

  // alice inserts a link to bob; the advertisement goes out.
  auto result = nodes[0]->InsertLocal(
      {{"link", {Value::Str("alice"), Value::Str("bob")}}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->accepted);
  ASSERT_FALSE(result->outgoing.empty());
  Bytes payload = result->outgoing[0].payload;

  // Pristine copy is accepted by bob.
  auto ok = nodes[1]->DeliverMessage(payload, 0);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->accepted);
  EXPECT_EQ(nodes[1]->workspace().Query("reachable").value().size(), 1u);

  // Every single-byte corruption of a fresh message must be rejected.
  auto result2 = nodes[0]->InsertLocal(
      {{"link", {Value::Str("alice"), Value::Str("alice")}}});
  ASSERT_TRUE(result2.ok());
  // self-link says to itself may not produce outgoing; reuse first payload
  // with flipped bytes instead.
  size_t rejected = 0;
  for (size_t i = 1; i < payload.size(); i += 13) {
    Bytes bad = payload;
    bad[i] ^= 0x01;
    auto r = nodes[1]->DeliverMessage(bad, 0);
    ASSERT_TRUE(r.ok());
    if (!r->accepted) ++rejected;
  }
  EXPECT_EQ(rejected, (payload.size() - 1 + 12) / 13);
  EXPECT_GT(nodes[1]->stats().batches_rejected_auth, 0u);
  // Workspace state unchanged by the tampered deliveries.
  EXPECT_EQ(nodes[1]->workspace().Query("reachable").value().size(), 1u);
}

TEST(DistTest, MessageFromImpersonatorRejected) {
  // A message sealed by node 0 claiming to be from node 1 fails RSA auth.
  std::vector<std::string> principals = {"alice", "bob", "carol"};
  policy::CredentialAuthority::Options copts;
  copts.rsa_bits = 512;
  copts.seed = "impersonation-test";
  copts.distinct_keypairs = 3;  // everyone distinct
  policy::CredentialAuthority authority(principals, copts);

  auto sources = Sources(AuthScheme::kRsa, EncScheme::kNone);
  std::vector<std::unique_ptr<NodeRuntime>> nodes;
  for (size_t i = 0; i < 3; ++i) {
    NodeRuntime::Config cfg;
    cfg.index = static_cast<net::NodeIndex>(i);
    cfg.principals = principals;
    cfg.creds = authority.IssueFor(principals[i]).value();
    cfg.batch_security = {AuthScheme::kRsa, EncScheme::kNone};
    nodes.push_back(NodeRuntime::Create(std::move(cfg), sources).value());
  }

  auto result = nodes[0]->InsertLocal(
      {{"link", {Value::Str("alice"), Value::Str("carol")}}});
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->outgoing.empty());
  // carol verifies against bob's key if src is mislabeled -> rejected.
  auto r = nodes[2]->DeliverMessage(result->outgoing[0].payload, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->accepted);
  // Correct source accepted.
  auto r2 = nodes[2]->DeliverMessage(result->outgoing[0].payload, 0);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->accepted);
}

TEST(DistTest, NodeLabels) {
  EXPECT_EQ(NodeLabel(0), "n0");
  EXPECT_EQ(NodeLabel(17), "n17");
  EXPECT_EQ(ParseNodeLabel("n17").value(), 17u);
  EXPECT_FALSE(ParseNodeLabel("x2").ok());
  EXPECT_FALSE(ParseNodeLabel("n").ok());
  EXPECT_FALSE(ParseNodeLabel("n1x").ok());
}

// Principals "a" (node 0) and "b" (node 1) under the "seal-test" authority
// with 512-bit RSA keys.
const std::vector<std::string> kSealPrincipals = {"a", "b"};

const policy::CredentialAuthority& SealTestAuthority() {
  static const policy::CredentialAuthority* authority = [] {
    policy::CredentialAuthority::Options copts;
    copts.rsa_bits = 512;
    copts.seed = "seal-test";
    return new policy::CredentialAuthority(kSealPrincipals, copts);
  }();
  return *authority;
}

std::unique_ptr<NodeRuntime> SealTestNode(net::NodeIndex index,
                                          AuthScheme auth, EncScheme enc) {
  NodeRuntime::Config cfg;
  cfg.index = index;
  cfg.principals = kSealPrincipals;
  cfg.creds = SealTestAuthority().IssueFor(kSealPrincipals[index]).value();
  cfg.batch_security = {auth, enc};
  return NodeRuntime::Create(std::move(cfg), Sources(auth, enc)).value();
}

TEST(DistTest, SealOpenRoundTripAllSchemes) {
  for (auto auth : {AuthScheme::kNone, AuthScheme::kHmac, AuthScheme::kRsa}) {
    for (auto enc : {EncScheme::kNone, EncScheme::kAes}) {
      auto node_a = SealTestNode(0, auth, enc);
      auto node_b = SealTestNode(1, auth, enc);

      Bytes raw = BytesFromString("payload-for-roundtrip");
      Bytes sealed = node_a->SealForPeer(raw, 1).value();
      Bytes opened = node_b->OpenFromPeer(sealed, 0).value();
      EXPECT_EQ(opened, raw) << BatchSecurity{auth, enc}.Name();
      if (enc == EncScheme::kAes) {
        // Ciphertext must not contain the plaintext.
        std::string sealed_str(sealed.begin(), sealed.end());
        EXPECT_EQ(sealed_str.find("payload-for-roundtrip"),
                  std::string::npos);
      }
    }
  }
}

// Byte-identity pins for sealed batches: the MAC, the signature (PKCS#1
// v1.5) and the AES nonce (HMAC of key and plaintext) are deterministic, so
// a sealed batch is a pure function of the credentials and the payload.
// The generated payloads of 1,000 and 7,800 bytes (hashjoin's mean batch)
// reach multi-block SHA-1 updates and four-block AES-CTR strides.
struct SealPin {
  EncScheme enc;
  size_t raw_size;
  size_t sealed_size;
  const char* sealed_sha1;
};

Bytes PinPayload(size_t size) {
  Bytes out(size);
  uint64_t x = 0x5eed;
  for (uint8_t& b : out) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    b = static_cast<uint8_t>(x >> 56);
  }
  return out;
}

void ExpectSealPin(AuthScheme auth, const Bytes& raw, const SealPin& pin) {
  const std::string name = BatchSecurity{auth, pin.enc}.Name() +
                           " raw=" + std::to_string(raw.size());
  Bytes sealed = SealTestNode(0, auth, pin.enc)->SealForPeer(raw, 1).value();
  EXPECT_EQ(sealed.size(), pin.sealed_size) << name;
  EXPECT_EQ(ToHex(crypto::Sha1Digest(sealed)), pin.sealed_sha1) << name;
  EXPECT_EQ(SealTestNode(1, auth, pin.enc)->OpenFromPeer(sealed, 0).value(),
            raw)
      << name;
}

TEST(DistTest, HmacSealedBatchesKnownAnswers) {
  // 20-byte MAC, plus the 16-byte nonce with AES.
  for (const SealPin& pin : {
           SealPin{EncScheme::kNone, 21, 41,
                   "57d96a8afad3383667198526ed0b48674b02ec28"},
           SealPin{EncScheme::kNone, 1000, 1020,
                   "250dcca0f7c73aa79f8b495d00dc0b95244d6c86"},
           SealPin{EncScheme::kNone, 7800, 7820,
                   "54fc49dd69936671cb2f924417640514064b0d73"},
           SealPin{EncScheme::kAes, 21, 57,
                   "db2856094ee4106383297e01d67a21cd9e615f1f"},
           SealPin{EncScheme::kAes, 1000, 1036,
                   "d70d3225823ecfb7fd09427bee16e01c270a58dd"},
           SealPin{EncScheme::kAes, 7800, 7836,
                   "cc4bb61dab5505e74e33aa76c12be3692fd9dddf"},
       }) {
    ExpectSealPin(AuthScheme::kHmac, PinPayload(pin.raw_size), pin);
  }
}

TEST(DistTest, RsaSealedBatchesKnownAnswers) {
  // 64-byte signature, plus the 16-byte nonce with AES.
  const Bytes raw = BytesFromString("payload-for-roundtrip");
  for (const SealPin& pin : {
           SealPin{EncScheme::kNone, 21, 85,
                   "2dc155eb63f9e4d5d8c9ad3e0852d621ae9ff37c"},
           SealPin{EncScheme::kAes, 21, 101,
                   "f2d74d24699243ff6df4d2c6bf55b6b22227f602"},
       }) {
    ExpectSealPin(AuthScheme::kRsa, raw, pin);
  }
  for (const SealPin& pin : {
           SealPin{EncScheme::kNone, 21, 85,
                   "044ce259eee4d0ff983e4d4e7097d6e9e13a165a"},
           SealPin{EncScheme::kNone, 1000, 1064,
                   "5bd0db8aa3d12080d3c01ed6e107dec55b76a623"},
           SealPin{EncScheme::kNone, 7800, 7864,
                   "fc2cb5ec0da44ed3d3a361b7910f7e5f4b558fcc"},
           SealPin{EncScheme::kAes, 21, 101,
                   "6265cd0942f24b9f159ee5f0bf7b534acd0306cd"},
           SealPin{EncScheme::kAes, 1000, 1080,
                   "94fa273cee0227bff2ae1f574d0046c401b1c483"},
           SealPin{EncScheme::kAes, 7800, 7880,
                   "50af837ceef5b3423165152bfe7133b3a3add7a0"},
       }) {
    ExpectSealPin(AuthScheme::kRsa, PinPayload(pin.raw_size), pin);
  }
}

// Mixed insert+delete churn interleaving with batched deliveries: node 2
// churns local facts (marks driving a derived join over imported reachable
// facts, plus a purely-local link feeding the recursive closure) while
// deliveries stream in. The drained state must equal a churn-free run fed
// only the net facts — counting deletion and the cluster recompute must not
// disturb derivations rooted in imported facts, at any batch granularity.
const char* kChurnApp = R"(
link(X, Y) -> principal(X), principal(Y).
reachable(X, Y) -> principal(X), principal(Y).
reachable(X, Y) <- link(X, Y).
reachable(X, Y) <- reachable(X, Z), reachable(Z, Y).
mark(X) -> principal(X).
flagged(X, Y) -> principal(X), principal(Y).
flagged(X, Y) <- reachable(X, Y), mark(X).
says[`reachable](S, U, X, Y) <- reachable(X, Y), link(S, U), self[] = S.
exportable(`reachable).
)";

std::string SortedDump(const engine::Workspace& ws) {
  const datalog::Catalog& catalog = ws.catalog();
  std::vector<std::string> lines;
  for (size_t p = 0; p < catalog.num_predicates(); ++p) {
    datalog::PredId id = static_cast<datalog::PredId>(p);
    const engine::Relation* rel = ws.GetRelationIfExists(id);
    if (rel == nullptr || rel->empty()) continue;
    for (const auto& t : rel->AllTuples()) {
      std::string line = catalog.decl(id).name + "(";
      for (size_t i = 0; i < t.size(); ++i) {
        if (i) line += ",";
        line += catalog.ValueToString(t[i]);
      }
      line += ")x" + std::to_string(rel->SupportCount(t));
      lines.push_back(std::move(line));
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& line : lines) out += line + "\n";
  return out;
}

TEST(DistTest, BatchedDeliveriesInterleaveWithIncrementalDeletion) {
  policy::SaysPolicyOptions popts;
  popts.accept = policy::AcceptMode::kBenign;
  auto run = [&](bool churn, size_t granularity) -> std::string {
    SimCluster::Config cfg;
    cfg.num_nodes = 3;
    cfg.sources = {policy::PreludeSource(), kChurnApp,
                   policy::SaysPolicySource(popts)};
    cfg.credentials.rsa_bits = 512;
    cfg.credentials.seed = "churn-test";
    cfg.max_batch_tuples = granularity;
    auto cluster = SimCluster::Create(std::move(cfg));
    EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
    (*cluster)->ScheduleInsert(
        0, {{"link", {Value::Str("p0"), Value::Str("p1")}}});
    (*cluster)->ScheduleInsert(
        1, {{"link", {Value::Str("p1"), Value::Str("p2")}}});
    auto mark = [](const char* p) -> FactUpdate {
      return {"mark", {Value::Str(p)}};
    };
    FactUpdate back_link = {"link",
                            {Value::Str("p1"), Value::Str("p0")}};
    if (churn) {
      // Node 2 exports nothing (no outgoing links of its own), so this
      // churn stays local while deliveries land in between.
      (*cluster)->ScheduleUpdate(2, {mark("p0")}, {}, 0.0);
      (*cluster)->ScheduleUpdate(2, {back_link}, {}, 0.0002);
      (*cluster)->ScheduleUpdate(2, {mark("p1")}, {mark("p0")}, 0.0004);
      (*cluster)->ScheduleUpdate(2, {}, {back_link}, 0.0008);
      (*cluster)->ScheduleUpdate(2, {mark("p0")}, {}, 0.0012);
    } else {
      (*cluster)->ScheduleUpdate(2, {mark("p0"), mark("p1")}, {}, 0.0);
    }
    auto metrics = (*cluster)->Run();
    EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
    EXPECT_EQ(metrics->rejected_batches, 0u);
    return SortedDump((*cluster)->node(2).workspace());
  };

  for (size_t granularity : {size_t{1}, size_t{0}}) {
    std::string churned = run(true, granularity);
    std::string reference = run(false, granularity);
    EXPECT_EQ(churned, reference) << "granularity " << granularity;
    // The churn genuinely ran: the final state still holds the net marks
    // and the full prefix closure with exact support counts.
    EXPECT_NE(churned.find("flagged(principal:p0,principal:p2)"),
              std::string::npos);
    EXPECT_EQ(churned.find("reachable(principal:p1,principal:p0)"),
              std::string::npos);
  }
}

TEST(DistTest, ConvergenceTimesAreMonotoneWithDistance) {
  // On a line, nodes closer to the origin converge no later than the far
  // end: the CDF "step" behaviour in Figures 8/9.
  auto cluster = SimCluster::Create(
      LineClusterConfig(5, AuthScheme::kNone, EncScheme::kNone));
  ASSERT_TRUE(cluster.ok());
  ScheduleLineLinks(cluster->get(), 5);
  auto metrics = (*cluster)->Run();
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics->node_convergence_s.size(), 5u);
  for (double t : metrics->node_convergence_s) EXPECT_GT(t, 0.0);
}

}  // namespace
}  // namespace secureblox::dist
