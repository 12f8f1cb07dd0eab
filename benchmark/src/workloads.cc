#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>

#include "apps/hashjoin.h"
#include "apps/pathvector.h"
#include "common/random.h"
#include "datalog/parser.h"
#include "dist/cluster.h"
#include "dist/runtime.h"
#include "engine/query.h"
#include "engine/workspace.h"
#include "net/wire.h"
#include "policy/keystore.h"
#include "policy/says_policy.h"

namespace sbbench {
namespace {

using namespace secureblox;
using datalog::Value;
using dist::NodeRuntime;
using dist::SimCluster;
using engine::FactUpdate;

// ---------------------------------------------------------------------------
// Measurement helpers shared by the workloads.
// ---------------------------------------------------------------------------

double NowUs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}

/// Spans of one trial; ids are unique within the trial.
class SpanLog {
 public:
  SpanLog(bool on, uint64_t trial) : on_(on), trial_(trial) {}
  uint64_t Add(const std::string& name, uint64_t parent, double start_us,
               double dur_us) {
    if (!on_) return 0;
    spans_.push_back({name, ++next_id_, parent, trial_, start_us, dur_us});
    return next_id_;
  }
  /// Close a span opened with zero duration.
  void End(uint64_t id, double end_us) {
    if (id == 0) return;
    spans_[id - 1].dur_us = end_us - spans_[id - 1].start_us;
  }
  std::vector<Span> Take() { return std::move(spans_); }

 private:
  bool on_;
  uint64_t trial_;
  uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// Mean microseconds per call of `fn`, repeated for at least 20 ms and
/// three calls. Used for the crypto and wire replays, which run after the
/// timed section.
template <typename F>
double MicrosPerCall(F&& fn) {
  size_t calls = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0;
  do {
    fn();
    ++calls;
    elapsed = SecondsSince(t0);
  } while (calls < 3 || elapsed < 0.02);
  return elapsed / static_cast<double>(calls) * 1e6;
}

/// A permutation of 0..n-1 drawn from `rng`.
std::vector<size_t> Permutation(size_t n, Xoshiro256* rng) {
  std::vector<size_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng->Uniform(i)]);
  return p;
}

/// Engine counters summed over the workspaces of one measured phase.
void AddEngineDiff(const engine::EngineStats& after,
                   const engine::EngineStats& before, Values* out) {
  (*out)["engine.rounds"] += after.fixpoint_rounds - before.fixpoint_rounds;
  (*out)["engine.firings"] += after.rule_firings - before.rule_firings;
  (*out)["engine.firings_skipped"] +=
      after.firings_skipped - before.firings_skipped;
  (*out)["engine.derived"] += after.derived_tuples - before.derived_tuples;
  (*out)["engine.retractions"] += after.retractions - before.retractions;
  (*out)["engine.deleted"] += after.deleted_tuples - before.deleted_tuples;
  (*out)["engine.rederives"] +=
      after.group_rederives - before.group_rederives;
  (*out)["engine.plan_builds"] += after.plan_builds - before.plan_builds;
  (*out)["engine.index_rebuilds"] +=
      after.index_rebuilds - before.index_rebuilds;
}

double RelationMb(const engine::EngineStats& s) {
  return static_cast<double>(s.relation_dict_bytes + s.relation_column_bytes +
                             s.relation_index_bytes) /
         (1024.0 * 1024.0);
}

/// Engine transaction durations a workspace recorded since `from`.
void AppendApplyUs(const engine::Workspace& ws, size_t from,
                   std::vector<double>* out, double* sum_s) {
  const std::vector<int64_t>& durs = ws.tx_durations_us();
  for (size_t i = from; i < durs.size(); ++i) {
    out->push_back(static_cast<double>(durs[i]));
    *sum_s += static_cast<double>(durs[i]) * 1e-6;
  }
}

/// Set-up replayed layer by layer (traced trials only): credential issue
/// for every principal, then one node's policy compile and install,
/// scaled to the cluster — every node installs the same program.
void ReplaySetup(const std::vector<std::string>& principals,
                 const policy::CredentialAuthority::Options& creds,
                 const std::vector<std::string>& sources, int storage_shards,
                 bool query_mode, Values* layers) {
  Clock::time_point t0 = Clock::now();
  policy::CredentialAuthority authority(principals, creds);
  for (const std::string& p : principals) {
    auto issued = authority.IssueFor(p);
    if (!issued.ok()) return;
  }
  (*layers)["setup.credentials_s"] = SecondsSince(t0);

  engine::Workspace ws;
  ws.set_allow_unstratified_negation(true);
  if (storage_shards >= 1) {
    ws.fixpoint_options().shards = static_cast<size_t>(storage_shards);
  }
  ws.set_defer_rules(query_mode);
  t0 = Clock::now();
  auto expanded = policy::CompileWithPolicies(&ws, sources);
  const double compile_s = SecondsSince(t0);
  if (!expanded.ok()) return;
  t0 = Clock::now();
  Status installed = ws.Install(expanded->program);
  const double install_s = SecondsSince(t0);
  if (!installed.ok()) return;
  const double n = static_cast<double>(principals.size());
  (*layers)["setup.compile_s"] = compile_s * n;
  (*layers)["setup.install_s"] = install_s * n;
}

// ---------------------------------------------------------------------------
// Cluster workloads: one SimCluster per trial, run to its fixpoint.
// ---------------------------------------------------------------------------

struct ClusterPlan {
  SimCluster::Config config;
  /// Queues the seeded inputs on a freshly created cluster.
  std::function<void(SimCluster*)> schedule;
  /// Counts wrong answers after Run, describing the first in *error.
  std::function<uint64_t(SimCluster&, std::string*)> check;
  /// Stored predicate whose tuples make up the wire-replay batch, and the
  /// entry kind they travel as.
  std::string wire_pred;
  net::WireEntryKind wire_kind = net::WireEntryKind::kFacts;
};

std::vector<std::string> Principals(size_t n) {
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) out.push_back("p" + std::to_string(i));
  return out;
}

/// Crypto replay: SealForPeer/OpenFromPeer on a payload of the run's mean
/// message size, charged once per message sent.
void ReplayCrypto(SimCluster& cluster, const SimCluster::Metrics& m,
                  uint64_t seed, Values* layers) {
  double seal_us = 0, open_us = 0;
  if (m.total_messages > 0 && cluster.num_nodes() >= 2) {
    Bytes raw(m.total_bytes / m.total_messages);
    Xoshiro256 rng(seed);
    for (uint8_t& b : raw) b = static_cast<uint8_t>(rng.Next());
    NodeRuntime& a = cluster.node(0);
    NodeRuntime& b = cluster.node(1);
    Bytes sealed;
    seal_us = MicrosPerCall([&] {
      auto r = a.SealForPeer(raw, 1);
      if (r.ok()) sealed = std::move(r).value();
    });
    open_us = MicrosPerCall([&] { (void)b.OpenFromPeer(sealed, 0); });
  }
  const double msgs = static_cast<double>(m.total_messages);
  (*layers)["crypto.seal_us"] = seal_us;
  (*layers)["crypto.open_us"] = open_us;
  (*layers)["crypto.est_s"] = (seal_us + open_us) * msgs * 1e-6;
}

/// Wire replay: EncodeBatch/DecodeBatch on a batch of the mean delivered
/// tuple count, built from the stored `wire_pred` tuples of the node that
/// holds the most, charged once per message sent.
void ReplayWire(SimCluster& cluster, const SimCluster::Metrics& m,
                const ClusterPlan& plan, Values* layers) {
  size_t payloads = 0, tuples = 0;
  for (const SimCluster::TxRecord& tx : m.transactions) {
    if (!tx.is_delivery) continue;
    payloads += tx.num_payloads;
    tuples += tx.num_tuples;
  }
  double encode_us = 0, decode_us = 0;
  size_t best = 0;
  std::vector<engine::Tuple> rows;
  for (size_t n = 0; n < cluster.num_nodes(); ++n) {
    auto stored = cluster.node(static_cast<net::NodeIndex>(n))
                      .workspace()
                      .Query(plan.wire_pred);
    if (stored.ok() && stored->size() > rows.size()) {
      best = n;
      rows = std::move(stored).value();
    }
  }
  if (payloads > 0 && !rows.empty()) {
    engine::Workspace& ws =
        cluster.node(static_cast<net::NodeIndex>(best)).workspace();
    const size_t want = std::max<size_t>(1, (tuples + payloads / 2) / payloads);
    net::WireBatch batch;
    batch.src = static_cast<net::NodeIndex>(best);
    batch.dst = static_cast<net::NodeIndex>((best + 1) % cluster.num_nodes());
    batch.origin = batch.src;
    net::WireBatch::Entry entry;
    entry.pred = plan.wire_pred;
    entry.kind = plan.wire_kind;
    for (size_t i = 0; i < want; ++i) {
      entry.tuples.push_back(rows[i % rows.size()]);
    }
    batch.entries.push_back(std::move(entry));
    Bytes encoded;
    encode_us = MicrosPerCall([&] {
      auto r = net::EncodeBatch(batch, ws.catalog());
      if (r.ok()) encoded = std::move(r).value();
    });
    // Every label in the batch is already interned here, so decoding
    // leaves the catalog unchanged.
    decode_us = MicrosPerCall(
        [&] { (void)net::DecodeBatch(encoded, &ws.catalog()); });
  }
  (*layers)["wire.encode_us"] = encode_us;
  (*layers)["wire.decode_us"] = decode_us;
  (*layers)["wire.est_s"] = (encode_us + decode_us) *
                            static_cast<double>(m.total_messages) * 1e-6;
}

Trial RunCluster(const ClusterPlan& plan, const TrialOptions& opts) {
  Trial t;
  SpanLog spans(opts.traced, opts.index);
  const uint64_t root = spans.Add("trial", 0, NowUs(), 0);
  double t_us = NowUs();
  Clock::time_point t0 = Clock::now();
  auto created = SimCluster::Create(plan.config);
  t.setup_s = SecondsSince(t0);
  spans.Add("setup", root, t_us, t.setup_s * 1e6);
  if (!created.ok()) {
    t.attempted = t.failed = 1;
    t.error = "setup: " + created.status().ToString();
    return t;
  }
  SimCluster& cluster = **created;
  plan.schedule(&cluster);

  const size_t n = cluster.num_nodes();
  std::vector<engine::EngineStats> engine_before(n);
  std::vector<size_t> tx_before(n);
  for (size_t i = 0; i < n; ++i) {
    const engine::Workspace& ws =
        cluster.node(static_cast<net::NodeIndex>(i)).workspace();
    engine_before[i] = ws.stats();
    tx_before[i] = ws.tx_durations_us().size();
  }

  t_us = NowUs();
  t0 = Clock::now();
  auto run = cluster.Run();
  t.run_s = SecondsSince(t0);
  t.rss_mb = PeakRssMb();
  const uint64_t run_span = spans.Add("run", root, t_us, t.run_s * 1e6);
  if (!run.ok()) {
    t.attempted = t.failed = 1;
    t.error = "run: " + run.status().ToString();
    return t;
  }
  const SimCluster::Metrics& m = *run;

  // Per-transaction wall time, recovered from the pinned simulated clock.
  // Spans are laid back to back in execution order; the gap left at the
  // end of the run span is scheduler time.
  double runtime_s = 0, handoff_s = 0;
  uint64_t local_rejects = 0, payloads = 0;
  std::vector<double>& op_ms = t.samples["op_ms"];
  double cursor_us = t_us;
  for (const SimCluster::TxRecord& tx : m.transactions) {
    const double wall_s = (tx.end_s - tx.start_s) / kComputeScale;
    runtime_s += wall_s;
    op_ms.push_back(wall_s * 1e3);
    if (tx.is_handoff) handoff_s += wall_s;
    if (tx.is_delivery) payloads += tx.num_payloads;
    if (!tx.accepted && !tx.is_delivery) ++local_rejects;
    spans.Add(tx.is_handoff    ? "tx.handoff"
              : tx.is_delivery ? "tx.delivery"
                               : "tx.local",
              run_span, cursor_us, wall_s * 1e6);
    cursor_us += wall_s * 1e6;
  }
  t.attempted = m.transactions.size();

  t_us = NowUs();
  std::string wrong_what;
  const uint64_t wrong = plan.check(cluster, &wrong_what);
  spans.Add("check", root, t_us, NowUs() - t_us);
  t.failed = m.rejected_batches + local_rejects + wrong;
  if (wrong > 0) {
    t.error = wrong_what;
  } else if (t.failed > 0) {
    t.error = std::to_string(m.rejected_batches) + " rejected payloads, " +
              std::to_string(local_rejects) + " rejected local transactions";
  }

  Values engine;
  double apply_s = 0;
  double relation_mb = 0;
  std::vector<double>& apply_us = t.samples["engine.apply_us"];
  for (size_t i = 0; i < n; ++i) {
    const engine::Workspace& ws =
        cluster.node(static_cast<net::NodeIndex>(i)).workspace();
    AddEngineDiff(ws.stats(), engine_before[i], &engine);
    AppendApplyUs(ws, tx_before[i], &apply_us, &apply_s);
    relation_mb = std::max(relation_mb, RelationMb(ws.stats()));
  }
  t.exact["net.msgs"] = static_cast<double>(m.total_messages);
  t.exact["net.bytes"] = static_cast<double>(m.total_bytes);
  t.exact["engine.derived"] = engine["engine.derived"];
  t.exact["engine.firings"] = engine["engine.firings"];
  if (!opts.traced) {
    t.samples.erase("engine.apply_us");
    return t;
  }

  Values& L = t.layers;
  L = engine;
  L["engine.derived_per_firing"] =
      engine["engine.derived"] / std::max(1.0, engine["engine.firings"]);
  L["engine.apply_s"] = apply_s;
  L["engine.relation_mb"] = relation_mb;

  L["dist.handoff_s"] = handoff_s;
  L["dist.runtime_s"] = runtime_s;
  L["dist.sched_s"] = t.run_s - runtime_s;
  L["dist.overhead_s"] = runtime_s - apply_s;
  L["dist.delivery_txns"] = static_cast<double>(m.delivery_transactions);
  L["dist.payloads_per_txn"] =
      static_cast<double>(payloads) /
      static_cast<double>(std::max<uint64_t>(1, m.delivery_transactions));
  L["dist.rejected"] = static_cast<double>(m.rejected_batches);
  L["dist.rerouted"] = static_cast<double>(m.rerouted_batches);
  L["dist.handoff_rows"] = static_cast<double>(m.handoff_rows);
  L["net.msgs"] = static_cast<double>(m.total_messages);
  L["net.bytes"] = static_cast<double>(m.total_bytes);
  L["net.bytes_per_msg"] =
      static_cast<double>(m.total_bytes) /
      static_cast<double>(std::max<uint64_t>(1, m.total_messages));
  L["net.kb_per_node"] = m.MeanPerNodeKb();

  // Replays run after the timed section and the checks.
  t_us = NowUs();
  ReplayCrypto(cluster, m, opts.seed, &L);
  spans.Add("replay.crypto", root, t_us, NowUs() - t_us);
  t_us = NowUs();
  ReplayWire(cluster, m, plan, &L);
  spans.Add("replay.wire", root, t_us, NowUs() - t_us);
  t_us = NowUs();
  ReplaySetup(Principals(n), plan.config.credentials, plan.config.sources,
              plan.config.storage_shards, /*query_mode=*/false, &L);
  spans.Add("replay.setup", root, t_us, NowUs() - t_us);

  L["dist.residual_s"] =
      L["dist.overhead_s"] - L["crypto.est_s"] - L["wire.est_s"];
  L["dist.accounted_frac"] =
      (apply_s + L["crypto.est_s"] + L["wire.est_s"] + L["dist.sched_s"]) /
      t.run_s;
  L["crypto.share"] = L["crypto.est_s"] / t.run_s;
  L["wire.share"] = L["wire.est_s"] / t.run_s;
  spans.End(root, NowUs());
  t.spans = spans.Take();
  return t;
}

SimCluster::Config BaseConfig(size_t nodes, const std::string& app,
                              policy::AuthScheme auth,
                              policy::EncScheme enc) {
  policy::SaysPolicyOptions popts;
  popts.accept = policy::AcceptMode::kBenign;
  SimCluster::Config cfg;
  cfg.num_nodes = nodes;
  cfg.sources = {policy::PreludeSource(), app,
                 policy::SaysPolicySource(popts)};
  cfg.batch_security.auth = auth;
  cfg.batch_security.enc = enc;
  cfg.compute_scale = kComputeScale;
  return cfg;
}

// -- path-vector routing (paper §7.1) ----------------------------------------

ClusterPlan PathVectorPlan(uint64_t seed, size_t nodes,
                           policy::AuthScheme auth, policy::EncScheme enc,
                           size_t max_batch_tuples, double batch_delay_s) {
  ClusterPlan plan;
  plan.config = BaseConfig(nodes, apps::PathVectorSource(), auth, enc);
  plan.config.credentials.seed = "pathvector";
  plan.config.net.seed = seed;
  plan.config.max_batch_tuples = max_batch_tuples;
  plan.config.max_batch_delay_s = batch_delay_s;
  // One topology from the paper's generator (average degree 3) for every
  // run: random graphs of one size differ twofold in path-vector work,
  // which would swamp a regression. The seed relabels the nodes and seeds
  // the network jitter, so labels, bytes and event order change, and with
  // the order the work: over ten seeds, messages ranged 723-753 and
  // derivations 115,886-120,960.
  constexpr uint64_t kTopologySeed = 5;
  auto edges = std::make_shared<std::vector<apps::Edge>>(
      apps::RandomConnectedGraph(nodes, 3.0, kTopologySeed));
  Xoshiro256 rng(seed);
  const std::vector<size_t> label = Permutation(nodes, &rng);
  for (apps::Edge& e : *edges) {
    e.a = label[e.a];
    e.b = label[e.b];
  }

  plan.schedule = [edges, nodes](SimCluster* cluster) {
    // Paper: initial links go to all nodes simultaneously.
    std::vector<std::vector<FactUpdate>> initial(nodes);
    for (const apps::Edge& e : *edges) {
      const std::string a = "p" + std::to_string(e.a);
      const std::string b = "p" + std::to_string(e.b);
      initial[e.a].push_back({"link", {Value::Str(a), Value::Str(b)}});
      initial[e.b].push_back({"link", {Value::Str(b), Value::Str(a)}});
    }
    for (size_t i = 0; i < nodes; ++i) {
      if (initial[i].empty()) continue;
      cluster->ScheduleInsert(static_cast<net::NodeIndex>(i),
                              std::move(initial[i]));
    }
  };

  // Every node's bestcost row to every other node equals the BFS hop count.
  plan.check = [edges, nodes](SimCluster& cluster,
                              std::string* what) -> uint64_t {
    const auto reference = apps::ReferenceHopCounts(nodes, *edges);
    uint64_t wrong = 0;
    for (size_t i = 0; i < nodes; ++i) {
      engine::Workspace& ws =
          cluster.node(static_cast<net::NodeIndex>(i)).workspace();
      std::vector<int64_t> got(nodes, -1);
      auto rows = ws.Query("bestcost");
      if (!rows.ok()) {
        *what = "bestcost at p" + std::to_string(i) + ": " +
                rows.status().ToString();
        return nodes * nodes;
      }
      const std::string self = "p" + std::to_string(i);
      for (const engine::Tuple& row : *rows) {
        auto src = ws.catalog().EntityLabel(row[0]);
        auto dst = ws.catalog().EntityLabel(row[1]);
        if (!src.ok() || !dst.ok() || *src != self) continue;
        const size_t d = std::stoul(dst->substr(1));
        if (d < nodes) got[d] = row[2].AsInt();
      }
      for (size_t d = 0; d < nodes; ++d) {
        const int64_t want = d == i ? -1 : reference[i][d];
        if (got[d] == want) continue;
        if (wrong++ == 0) {
          *what = "bestcost[p" + std::to_string(i) + ", p" +
                  std::to_string(d) + "] = " + std::to_string(got[d]) +
                  ", reference hop count " + std::to_string(want);
        }
      }
    }
    return wrong;
  };
  plan.wire_pred = "export";
  return plan;
}

Trial PathVector(const TrialOptions& opts) {
  // The paper's configuration: HMAC batch seals, one message per
  // transaction. Trials are kept near half a second (a 24-node trial took
  // 15 s): a run holds about twenty of them.
  const size_t nodes = opts.smoke ? 8 : 12;
  return RunCluster(
      PathVectorPlan(opts.seed, nodes, policy::AuthScheme::kHmac,
                     policy::EncScheme::kNone, /*max_batch_tuples=*/1,
                     /*batch_delay_s=*/0),
      opts);
}

Trial PathVectorRsa(const TrialOptions& opts) {
  // RSA-1024 signatures plus AES, with §5.2 coalescing: unbounded batches
  // held open 2 ms of simulated time.
  const size_t nodes = opts.smoke ? 8 : 16;
  return RunCluster(
      PathVectorPlan(opts.seed, nodes, policy::AuthScheme::kRsa,
                     policy::EncScheme::kAes, /*max_batch_tuples=*/0,
                     /*batch_delay_s=*/2e-3),
      opts);
}

// -- parallel hash join (paper §7.2) -----------------------------------------

constexpr int64_t kHashSpace = 1000000;

/// Join values drawn from the seed so that each node's hash range owns
/// exactly `per_node` of them, interleaved node by node. sha1_bucket picks
/// a value's owner; an unbalanced draw would move per-node load, and every
/// latency percentile, from seed to seed. Buckets come from the builtin
/// itself, evaluated in a scratch workspace.
std::vector<int64_t> BalancedJoinValues(uint64_t seed, size_t nodes,
                                        size_t per_node) {
  const int64_t nn = static_cast<int64_t>(nodes);
  std::vector<std::vector<int64_t>> owned(nodes);
  std::set<int64_t> drawn;
  Xoshiro256 rng(seed);
  for (size_t full = 0; full < nodes;) {
    engine::Workspace ws;
    auto program = datalog::Parse(
        "cand(J) -> int(J).\n"
        "bucket(J, H) -> int(J), int(H).\n"
        "bucket(J, H) <- cand(J), sha1_bucket(J, " +
        std::to_string(kHashSpace) + ", H).\n");
    if (!program.ok() || !ws.Install(*program).ok()) return {};
    std::vector<int64_t> candidates;
    std::vector<FactUpdate> facts;
    while (candidates.size() < 4 * nodes * per_node) {
      const int64_t v = static_cast<int64_t>(rng.Next() % 1000000007);
      if (!drawn.insert(v).second) continue;
      candidates.push_back(v);
      facts.push_back({"cand", {Value::Int(v)}});
    }
    if (!ws.Apply(facts).ok()) return {};
    auto rows = ws.Query("bucket");
    if (!rows.ok()) return {};
    std::map<int64_t, int64_t> bucket;
    for (const engine::Tuple& t : *rows) bucket[t[0].AsInt()] = t[1].AsInt();
    for (int64_t v : candidates) {
      const int64_t h = bucket[v];
      int64_t u = 0;  // the node whose [u*H/n, (u+1)*H/n) range holds h
      while ((u + 1) * kHashSpace / nn <= h) ++u;
      if (owned[u].size() == per_node) continue;
      owned[u].push_back(v);
      if (owned[u].size() == per_node) ++full;
    }
  }
  std::vector<int64_t> domain;
  for (size_t k = 0; k < per_node; ++k) {
    for (size_t u = 0; u < nodes; ++u) domain.push_back(owned[u][k]);
  }
  return domain;
}

Trial HashJoin(const TrialOptions& opts) {
  // Twice the paper's tables (900 and 800 tuples over 72 join values).
  const size_t scale = opts.smoke ? 1 : 2;
  const size_t nodes = opts.smoke ? 4 : 12;
  const size_t tuples_r = 900 * scale, tuples_s = 800 * scale;
  const size_t join_values = 72 * scale;

  ClusterPlan plan;
  plan.config = BaseConfig(nodes, apps::HashJoinSource(),
                           policy::AuthScheme::kHmac, policy::EncScheme::kNone);
  plan.config.credentials.seed = "hashjoin";
  plan.config.net.seed = opts.seed;
  plan.config.max_batch_tuples = 1;

  // Keys unique per table. Which value slot each row joins on is one fixed
  // pattern (R and S each walk their own fixed permutation of the domain);
  // the seed draws the values in the slots. So rows per value, rows per
  // owner and the result size are the same whatever the seed. The values'
  // encoded sizes and the seeded network order are not: over ten seeds,
  // messages ranged 180-186 and rule firings 1,922-1,993.
  const std::vector<int64_t> domain =
      BalancedJoinValues(opts.seed, nodes, join_values / nodes);
  if (domain.empty()) {
    Trial t;
    t.attempted = t.failed = 1;
    t.error = "input generation: sha1_bucket evaluation failed";
    return t;
  }
  Xoshiro256 pattern(0x5eed);
  const std::vector<size_t> r_slot = Permutation(domain.size(), &pattern);
  const std::vector<size_t> s_slot = Permutation(domain.size(), &pattern);
  auto initial = std::make_shared<std::vector<std::vector<FactUpdate>>>(nodes);
  std::map<int64_t, uint64_t> r_counts;
  for (size_t i = 0; i < tuples_r; ++i) {
    const int64_t j = domain[r_slot[i % domain.size()]];
    ++r_counts[j];
    (*initial)[i % nodes].push_back(
        {"tbl_r", {Value::Int(static_cast<int64_t>(i)), Value::Int(j)}});
  }
  uint64_t expected = 0;
  for (size_t i = 0; i < tuples_s; ++i) {
    const int64_t k = static_cast<int64_t>(1000000 + i);
    const int64_t j = domain[s_slot[i % domain.size()]];
    expected += r_counts[j];  // nested-loop count
    (*initial)[static_cast<size_t>(k) % nodes].push_back(
        {"tbl_s", {Value::Int(k), Value::Int(j)}});
  }
  // Hash-range ownership and the initiator, on every node.
  const int64_t nn = static_cast<int64_t>(nodes);
  for (size_t i = 0; i < nodes; ++i) {
    auto& facts = (*initial)[i];
    facts.push_back({"initiator", {Value::Str("p0")}});
    for (int64_t u = 0; u < nn; ++u) {
      const std::string p = "p" + std::to_string(u);
      facts.push_back(
          {"prin_minhash", {Value::Str(p), Value::Int(u * kHashSpace / nn)}});
      facts.push_back({"prin_maxhash",
                       {Value::Str(p), Value::Int((u + 1) * kHashSpace / nn)}});
    }
  }
  plan.schedule = [initial](SimCluster* cluster) {
    for (size_t i = 0; i < initial->size(); ++i) {
      cluster->ScheduleInsert(static_cast<net::NodeIndex>(i), (*initial)[i]);
    }
  };
  plan.check = [expected](SimCluster& cluster, std::string* what) -> uint64_t {
    auto rows = cluster.node(0).workspace().Query("joinresult");
    const uint64_t got = rows.ok() ? rows->size() : 0;
    if (got == expected) return 0;
    *what = "joinresult rows at the initiator: " + std::to_string(got) +
            ", nested-loop reference " + std::to_string(expected);
    return got > expected ? got - expected : expected - got;
  };
  plan.wire_pred = "export";
  return RunCluster(plan, opts);
}

// -- placement with churn, join and leave -------------------------------------

// The placed closure program: `link` is a replicated chain, `seed` the
// placed base relation, `grow` closes shard-locally, `inv` re-keys across
// shards. Each live key owns hops + 3 placed rows: its seed, hops + 1 grow
// rows and one inv row.
const char* kPlacedClosure = R"(
link(X, Y) -> string(X), string(Y).
seed(X, Y) -> string(X), string(Y).
grow(X, Y) -> string(X), string(Y).
inv(X, Y) -> string(X), string(Y).
grow(X, Y) <- seed(X, Y).
grow(X, Y) <- grow(X, Z), link(Z, Y).
inv(Y, X) <- seed(X, Y).
)";

const char* kPlacedPreds[] = {"seed", "grow", "inv"};
constexpr size_t kPlacementShards = 61;

/// Key strings drawn from the seed so that key i lands in storage shard
/// i % kPlacementShards, by rejection against the relation's own shard
/// function: every shard, and so every owner, holds the same number of
/// keys whatever the seed.
std::vector<std::string> ShardBalancedKeys(uint64_t seed, size_t keys) {
  engine::Workspace ws;
  ws.fixpoint_options().shards = kPlacementShards;
  auto program = datalog::Parse(kPlacedClosure);
  if (!program.ok() || !ws.Install(*program).ok()) return {};
  auto pred = ws.catalog().Lookup("seed");
  if (!pred.ok()) return {};
  const engine::Relation* rel = ws.GetRelation(*pred);
  Xoshiro256 rng(seed);
  std::vector<std::string> out;
  char buf[48];
  for (size_t i = 0; i < keys; ++i) {
    do {
      std::snprintf(buf, sizeof(buf), "key-%05zu-%016llx", i,
                    static_cast<unsigned long long>(rng.Next()));
    } while (rel->ShardOf({Value::Str(buf), Value::Str("c0")}) !=
             i % kPlacementShards);
    out.push_back(buf);
  }
  return out;
}

Trial PlacementChurn(const TrialOptions& opts) {
  const size_t keys = opts.smoke ? 120 : 750;
  const size_t hops = opts.smoke ? 4 : 16;
  constexpr size_t kNodes = 7, kMembers = 6, kWaves = 10;
  constexpr double kWaveGapS = 0.02;  // a wave settles in a few ms

  ClusterPlan plan;
  plan.config = BaseConfig(kNodes, kPlacedClosure, policy::AuthScheme::kHmac,
                           policy::EncScheme::kNone);
  plan.config.credentials.seed = "placement-churn";
  plan.config.net.seed = opts.seed;
  plan.config.placement = true;
  plan.config.placed_preds = {"seed", "grow", "inv"};
  plan.config.storage_shards = kPlacementShards;
  plan.config.initial_members = kMembers;
  plan.config.max_batch_delay_s = 1e-3;

  const std::vector<std::string> key = ShardBalancedKeys(opts.seed, keys);
  if (key.empty()) {
    Trial t;
    t.attempted = t.failed = 1;
    t.error = "input generation: shard function unavailable";
    return t;
  }
  auto seed_fact = [&key](size_t i) -> FactUpdate {
    return {"seed", {Value::Str(key[i]), Value::Str("c0")}};
  };

  struct Update {
    net::NodeIndex node;
    std::vector<FactUpdate> inserts, deletes;
    double at_s;
  };
  auto updates = std::make_shared<std::vector<Update>>();
  std::vector<FactUpdate> links;
  for (size_t h = 0; h < hops; ++h) {
    links.push_back({"link",
                     {Value::Str("c" + std::to_string(h)),
                      Value::Str("c" + std::to_string(h + 1))}});
  }
  for (size_t n = 0; n < kNodes; ++n) {
    updates->push_back({static_cast<net::NodeIndex>(n), links, {}, 0.0});
  }
  std::vector<std::vector<FactUpdate>> initial(kMembers);
  for (size_t i = 0; i < keys; ++i) initial[i % kMembers].push_back(seed_fact(i));
  for (size_t n = 0; n < kMembers; ++n) {
    updates->push_back(
        {static_cast<net::NodeIndex>(n), std::move(initial[n]), {}, 0.0});
  }
  // Each wave deletes 10% of the live seeds and re-inserts the previous
  // wave's deletions, issued from a member that may not own them (routed
  // deletes). Node 6 joins after wave 3; node 0 leaves after wave 6. Which
  // key indices a wave touches is the same for every seed, so with
  // shard-balanced keys the per-owner work is too.
  Xoshiro256 waves(0x5eed);
  std::vector<bool> deleted(keys, false);
  std::vector<size_t> previous;
  for (size_t w = 1; w <= kWaves; ++w) {
    std::vector<size_t> live;
    for (size_t i = 0; i < keys; ++i) {
      if (!deleted[i]) live.push_back(i);
    }
    for (size_t i = 0; i < keys / 10; ++i) {  // partial Fisher-Yates
      std::swap(live[i], live[i + waves.Uniform(live.size() - i)]);
    }
    live.resize(keys / 10);
    Update u;
    u.node = static_cast<net::NodeIndex>(w <= 6 ? w % kMembers : 1 + w % 6);
    u.at_s = static_cast<double>(w) * kWaveGapS;
    for (size_t i : previous) {
      deleted[i] = false;
      u.inserts.push_back(seed_fact(i));
    }
    for (size_t i : live) {
      deleted[i] = true;
      u.deletes.push_back(seed_fact(i));
    }
    previous = live;
    updates->push_back(std::move(u));
  }
  const uint64_t live_keys =
      keys - static_cast<uint64_t>(std::count(deleted.begin(), deleted.end(),
                                              true));
  const uint64_t expected = live_keys * (hops + 3);

  plan.schedule = [updates](SimCluster* cluster) {
    for (const Update& u : *updates) {
      cluster->ScheduleUpdate(u.node, u.inserts, u.deletes, u.at_s);
    }
    cluster->ScheduleJoin(6, 3.5 * kWaveGapS);
    cluster->ScheduleLeave(0, 6.5 * kWaveGapS);
  };
  // Placed rows across the cluster equal live keys x (hops + 3), and the
  // departed node holds none.
  plan.check = [expected](SimCluster& cluster, std::string* what) -> uint64_t {
    uint64_t total = 0, at_leaver = 0;
    for (size_t n = 0; n < cluster.num_nodes(); ++n) {
      const engine::Workspace& ws =
          cluster.node(static_cast<net::NodeIndex>(n)).workspace();
      for (const char* name : kPlacedPreds) {
        auto id = ws.catalog().Lookup(name);
        if (!id.ok()) continue;
        const engine::Relation* rel = ws.GetRelationIfExists(*id);
        if (rel == nullptr) continue;
        total += rel->size();
        if (n == 0) at_leaver += rel->size();
      }
    }
    const uint64_t wrong =
        (total > expected ? total - expected : expected - total) + at_leaver;
    if (wrong > 0) {
      *what = "placed rows " + std::to_string(total) + ", expected " +
              std::to_string(expected) + "; " + std::to_string(at_leaver) +
              " left on the departed node";
    }
    return wrong;
  };
  plan.wire_pred = "inv";
  plan.wire_kind = net::WireEntryKind::kSupportAdd;
  return RunCluster(plan, opts);
}

// ---------------------------------------------------------------------------
// serve-churn: one query-mode NodeRuntime under a closed-loop client.
// ---------------------------------------------------------------------------

// Five independent closure families over one vertex domain: reachability
// over `link` and four tag propagations, each over its own edges.
constexpr size_t kTagFamilies = 4;

std::vector<std::string> ServePreds(const char* edge_or_goal) {
  const bool edge = std::string(edge_or_goal) == "edge";
  std::vector<std::string> out = {edge ? "link" : "reachable"};
  for (size_t f = 0; f < kTagFamilies; ++f) {
    out.push_back((edge ? "attr" : "tag") + std::to_string(f));
  }
  return out;
}

std::string ServeProgram() {
  const auto edges = ServePreds("edge");
  const auto goals = ServePreds("goal");
  std::string src = "vertex(X) -> .\n";
  for (size_t f = 0; f < edges.size(); ++f) {
    const std::string& e = edges[f];
    const std::string& g = goals[f];
    src += e + "(X, Y) -> vertex(X), vertex(Y).\n";
    src += g + "(X, Y) -> vertex(X), vertex(Y).\n";
    src += g + "(X, Y) <- " + e + "(X, Y).\n";
    src += g + "(X, Y) <- " + g + "(X, Z), " + e + "(Z, Y).\n";
  }
  return src;
}

struct ServeInputs {
  std::vector<FactUpdate> base;
  /// The togglable skip edges, and the op stream: a write toggles one of
  /// them (delete when present, re-insert when deleted); a query asks
  /// goal(src, ?).
  std::vector<FactUpdate> skips;
  struct Op {
    bool write = false;
    size_t skip = 0;
    engine::QueryGoal goal;
  };
  std::vector<Op> ops;
  /// Skip edges present after the last op.
  std::vector<bool> present;
  /// Goals checked against the materialized reference.
  std::vector<engine::QueryGoal> sampled;
};

/// The graph and the op stream are one fixed structure: random skip edges
/// change closure sizes, and so the cost of every query, severalfold from
/// draw to draw. The seed relabels the vertices and orders the base load.
ServeInputs MakeServeInputs(uint64_t seed, size_t vertices, size_t num_ops,
                            size_t num_writes, size_t num_sampled) {
  ServeInputs in;
  Xoshiro256 relabel(seed);
  const std::vector<size_t> label = Permutation(vertices, &relabel);
  auto vertex = [&label](size_t i) {
    return Value::Str("v" + std::to_string(label[i]));
  };

  Xoshiro256 rng(0x5e7e);
  const auto edges = ServePreds("edge");
  const auto goals = ServePreds("goal");
  // Chain backbone plus vertices/4 random skip edges per family.
  for (const std::string& e : edges) {
    for (size_t i = 0; i + 1 < vertices; ++i) {
      in.base.push_back({e, {vertex(i), vertex(i + 1)}});
    }
    std::set<std::pair<size_t, size_t>> seen;
    while (seen.size() < vertices / 4) {
      const size_t a = rng.Uniform(vertices), b = rng.Uniform(vertices);
      if (a == b || b == a + 1 || !seen.insert({a, b}).second) continue;
      in.skips.push_back({e, {vertex(a), vertex(b)}});
    }
  }
  in.base.insert(in.base.end(), in.skips.begin(), in.skips.end());
  in.present.assign(in.skips.size(), true);
  const size_t chain = in.base.size() - in.skips.size();
  for (size_t i = chain; i > 1; --i) {
    std::swap(in.base[i - 1], in.base[relabel.Uniform(i)]);
  }

  // Zipf(1) over query sources, ranked by a fixed permutation.
  const std::vector<size_t> rank = Permutation(vertices, &rng);
  std::vector<double> cdf(vertices);
  double total = 0;
  for (size_t k = 0; k < vertices; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf[k] = total;
  }
  std::vector<bool> is_write(num_ops, false);
  for (size_t placed = 0; placed < num_writes;) {
    const size_t pos = rng.Uniform(num_ops);
    if (!is_write[pos]) {
      is_write[pos] = true;
      ++placed;
    }
  }
  for (size_t i = 0; i < num_ops; ++i) {
    ServeInputs::Op op;
    op.write = is_write[i];
    if (op.write) {
      op.skip = rng.Uniform(in.skips.size());
      in.present[op.skip] = !in.present[op.skip];
    } else {
      const double u = rng.UniformDouble() * total;
      const size_t k = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      op.goal = {goals[rng.Uniform(goals.size())],
                 {vertex(rank[std::min(k, vertices - 1)]), std::nullopt}};
    }
    in.ops.push_back(std::move(op));
  }
  for (size_t i = 0; i < num_sampled; ++i) {
    in.sampled.push_back({goals[rng.Uniform(goals.size())],
                          {vertex(rng.Uniform(vertices)), std::nullopt}});
  }
  return in;
}

/// Answers as sorted label rows, comparable across workspaces.
std::vector<std::string> Render(const datalog::Catalog& catalog,
                                const std::vector<engine::Tuple>& rows) {
  std::vector<std::string> out;
  for (const engine::Tuple& t : rows) {
    std::string line;
    for (const Value& v : t) line += catalog.ValueToString(v) + ",";
    out.push_back(line);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Materialized reference holding the final edge set; compares the
/// sampled goals' answers. Returns the number of goals that differ.
uint64_t CheckServe(NodeRuntime& node, const ServeInputs& in,
                    std::string* what) {
  engine::Workspace ref;
  auto program = datalog::Parse(ServeProgram());
  if (!program.ok() || !ref.Install(*program).ok()) {
    *what = "reference install failed";
    return in.sampled.size();
  }
  std::vector<FactUpdate> edges(in.base.begin(),
                                in.base.end() - in.skips.size());
  for (size_t i = 0; i < in.skips.size(); ++i) {
    if (in.present[i]) edges.push_back(in.skips[i]);
  }
  if (!ref.Apply(edges).ok()) {
    *what = "reference apply failed";
    return in.sampled.size();
  }
  engine::QueryEngine ref_query(&ref);
  uint64_t wrong = 0;
  for (const engine::QueryGoal& goal : in.sampled) {
    auto got = node.Query(goal);
    auto want = ref_query.Query(goal);
    const bool same =
        got.ok() && want.ok() &&
        Render(node.workspace().catalog(), *got) == Render(ref.catalog(), *want);
    if (same) continue;
    if (wrong++ == 0) {
      *what = goal.pred + "(" + goal.args[0]->AsString() +
              ", ?) differs from the materialized reference";
    }
  }
  return wrong;
}

Trial ServeChurn(const TrialOptions& opts) {
  // 2% of the ops are writes.
  const size_t vertices = opts.smoke ? 40 : 120;
  const size_t num_ops = opts.smoke ? 300 : 600;
  const size_t num_writes = num_ops / 50;
  const ServeInputs in = MakeServeInputs(opts.seed, vertices, num_ops,
                                         num_writes, opts.smoke ? 10 : 50);
  Trial t;
  SpanLog spans(opts.traced, opts.index);
  const uint64_t root = spans.Add("trial", 0, NowUs(), 0);

  const std::vector<std::string> principals = {"server"};
  policy::CredentialAuthority::Options copts;
  copts.seed = "serve-churn";
  policy::SaysPolicyOptions popts;
  const std::vector<std::string> sources = {
      policy::PreludeSource(), ServeProgram(), policy::SaysPolicySource(popts)};

  double t_us = NowUs();
  Clock::time_point t0 = Clock::now();
  std::unique_ptr<NodeRuntime> node;
  {
    policy::CredentialAuthority authority(principals, copts);
    auto creds = authority.IssueFor("server");
    NodeRuntime::Config cfg;
    cfg.principals = principals;
    cfg.query_mode = true;
    if (creds.ok()) {
      cfg.creds = std::move(creds).value();
      auto created = NodeRuntime::Create(std::move(cfg), sources);
      if (created.ok()) node = std::move(created).value();
    }
  }
  const bool loaded = node != nullptr && node->InsertLocal(in.base).ok();
  t.setup_s = SecondsSince(t0);
  spans.Add("setup", root, t_us, t.setup_s * 1e6);
  if (!loaded) {
    t.attempted = t.failed = 1;
    t.error = "setup failed";
    return t;
  }

  engine::Workspace& ws = node->workspace();
  const engine::EngineStats engine_before = ws.stats();
  const engine::QueryEngine::Stats query_before = node->query_stats();
  const std::vector<int64_t>& durs = ws.tx_durations_us();
  const size_t tx_before = durs.size();

  std::vector<double>& op_ms = t.samples["op_ms"];
  std::vector<double>& query_us = t.samples["query_us"];
  std::vector<double>& update_ms = t.samples["update_ms"];
  double query_wall = 0, query_engine = 0, update_wall = 0, update_engine = 0;
  double answers = 0;
  std::vector<bool> present(in.skips.size(), true);

  t_us = NowUs();
  const uint64_t run_span = spans.Add("run", root, t_us, 0);
  t0 = Clock::now();
  for (const ServeInputs::Op& op : in.ops) {
    const size_t tx_mark = durs.size();
    const double op_start = opts.traced ? NowUs() : 0;
    const Clock::time_point op_t0 = Clock::now();
    bool ok = false;
    if (op.write) {
      const std::vector<FactUpdate> one = {in.skips[op.skip]};
      auto r = present[op.skip] ? node->ApplyLocal({}, one)
                                : node->ApplyLocal(one, {});
      present[op.skip] = !present[op.skip];
      ok = r.ok() && r->accepted;
    } else {
      auto r = node->Query(op.goal);
      ok = r.ok();
      if (ok) answers += static_cast<double>(r->size());
    }
    const double wall = SecondsSince(op_t0);
    double engine_s = 0;
    for (size_t i = tx_mark; i < durs.size(); ++i) {
      engine_s += static_cast<double>(durs[i]) * 1e-6;
    }
    op_ms.push_back(wall * 1e3);
    if (op.write) {
      update_ms.push_back(wall * 1e3);
      update_wall += wall;
      update_engine += engine_s;
    } else {
      query_us.push_back(wall * 1e6);
      query_wall += wall;
      query_engine += engine_s;
    }
    if (!ok) ++t.failed;
    spans.Add(op.write ? "op.update" : "op.query", run_span, op_start,
              wall * 1e6);
  }
  t.run_s = SecondsSince(t0);
  t.rss_mb = PeakRssMb();
  spans.End(run_span, NowUs());
  t.attempted = in.ops.size();
  t.extra["ops_per_s"] = static_cast<double>(in.ops.size()) / t.run_s;

  Values engine;
  AddEngineDiff(ws.stats(), engine_before, &engine);
  const engine::QueryEngine::Stats q = node->query_stats();
  t.exact["net.msgs"] = 0;
  t.exact["net.bytes"] = 0;
  t.exact["engine.derived"] = engine["engine.derived"];
  t.exact["engine.firings"] = engine["engine.firings"];
  t.exact["query.warm_hits"] =
      static_cast<double>(q.warm_hits - query_before.warm_hits);

  // Before the check, whose queries run transactions of their own.
  double apply_s = 0;
  AppendApplyUs(ws, tx_before, &t.samples["engine.apply_us"], &apply_s);

  t_us = NowUs();
  std::string what;
  const uint64_t wrong = CheckServe(*node, in, &what);
  spans.Add("check", root, t_us, NowUs() - t_us);
  if (wrong > 0) {
    t.failed += wrong;
    t.error = what;
  } else if (t.failed > 0) {
    t.error = std::to_string(t.failed) + " failed ops";
  }
  t.attempted += in.sampled.size();
  if (!opts.traced) {
    t.samples.erase("engine.apply_us");
    return t;
  }

  Values& L = t.layers;
  L = engine;
  L["engine.derived_per_firing"] =
      engine["engine.derived"] / std::max(1.0, engine["engine.firings"]);
  L["engine.apply_s"] = apply_s;
  L["engine.relation_mb"] = RelationMb(ws.stats());
  const double runtime_s = query_wall + update_wall;
  L["dist.runtime_s"] = runtime_s;
  L["dist.sched_s"] = t.run_s - runtime_s;
  L["dist.overhead_s"] = runtime_s - apply_s;
  L["dist.residual_s"] = runtime_s - apply_s;
  L["dist.accounted_frac"] = (apply_s + L["dist.sched_s"]) / t.run_s;
  const double queries = static_cast<double>(q.queries - query_before.queries);
  L["query.warm_ratio"] =
      static_cast<double>(q.warm_hits - query_before.warm_hits) /
      std::max(1.0, queries);
  L["query.reprobes"] = static_cast<double>(q.reprobes - query_before.reprobes);
  L["query.seeds"] = static_cast<double>(q.seeds - query_before.seeds);
  L["query.answers_per_query"] = answers / std::max(1.0, queries);
  // Each op's wall time splits into engine transactions (slice installs,
  // seeds, writes) and everything else (answer reads, runtime locking).
  L["query.engine_s"] = query_engine;
  L["query.read_s"] = query_wall - query_engine;
  L["update.engine_s"] = update_engine;
  L["update.other_s"] = update_wall - update_engine;
  for (const char* part :
       {"query.engine", "query.read", "update.engine", "update.other"}) {
    L[std::string(part) + "_share"] = L[std::string(part) + "_s"] / t.run_s;
  }

  t_us = NowUs();
  ReplaySetup(principals, copts, sources, -1, /*query_mode=*/true, &L);
  spans.Add("replay.setup", root, t_us, NowUs() - t_us);
  spans.End(root, NowUs());
  t.spans = spans.Take();
  return t;
}

}  // namespace

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"pathvector", PathVector},
      {"pathvector-rsa", PathVectorRsa},
      {"hashjoin", HashJoin},
      {"placement-churn", PlacementChurn},
      {"serve-churn", ServeChurn},
  };
  return kWorkloads;
}

}  // namespace sbbench
