#include "apps/pathvector.h"

#include <algorithm>
#include <deque>
#include <set>

#include "common/random.h"
#include "common/strings.h"
#include "dist/runtime.h"

namespace secureblox::apps {

using datalog::Value;
using engine::FactUpdate;

std::string PathVectorSource() {
  return R"(
// --- path-vector protocol (paper §7.1) ---
link(X, Y) -> principal(X), principal(Y).
pathvar(P) -> .
path(P, Src, Dst, C) -> pathvar(P), principal(Src), principal(Dst), int(C).
pathlink(P, H1, H2) -> pathvar(P), principal(H1), principal(H2).
bestcost[Src, Dst] = C -> principal(Src), principal(Dst), int(C).
extend[P, U] = P2 -> pathvar(P), principal(U), pathvar(P2).

// Base case: a link is a path of length one.
pathvar(P), path(P, S, U, 1), pathlink(P, S, U) <-
    link(S, U), self[] = S.

// The cost of the best path per destination (min-cost lattice recursion).
bestcost[S, D] = C <- agg<< C = min(Cx) >> path(Q, S, D, Cx).

// Extend a best path to a neighbour that is not the destination and does
// not already appear on the path (loop avoidance), creating a fresh path
// entity for the extension.
extend[P, U] = P2, pathvar(P2) <-
    path(P, S, D, C), bestcost[S, D] = C, link(S, U), self[] = S,
    U != D, !pathlink(P, U, _).

// Advertise the extended path — cost, then its full composition — to the
// neighbour. The says construct handles authentication/encryption per the
// configured policy.
says[`path](S, U, P2, U, D, C + 1) <-
    extend[P, U] = P2, path(P, S, D, C), bestcost[S, D] = C, self[] = S.
says[`pathlink](S, U, P2, H1, H2) <-
    extend[P, U] = P2, pathlink(P, H1, H2), self[] = S.
says[`pathlink](S, U, P2, U, S) <-
    extend[P, U] = P2, self[] = S.

exportable(`path).
exportable(`pathlink).
)";
}

std::vector<Edge> RandomConnectedGraph(size_t n, double avg_degree,
                                       uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  std::set<std::pair<size_t, size_t>> seen;
  auto add = [&](size_t a, size_t b) {
    if (a == b) return false;
    auto key = std::minmax(a, b);
    if (!seen.insert({key.first, key.second}).second) return false;
    edges.push_back({a, b});
    return true;
  };

  // Random spanning tree (connectivity).
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  for (size_t i = 1; i < n; ++i) {
    add(order[i], order[rng.Uniform(i)]);
  }
  // Extra edges to reach the target average degree (2E/n).
  size_t target_edges = static_cast<size_t>(avg_degree * n / 2.0);
  size_t guard = 0;
  while (edges.size() < target_edges && ++guard < 100 * n) {
    add(rng.Uniform(n), rng.Uniform(n));
  }
  return edges;
}

std::vector<std::vector<int64_t>> ReferenceHopCounts(
    size_t n, const std::vector<Edge>& edges) {
  std::vector<std::vector<size_t>> adj(n);
  for (const Edge& e : edges) {
    adj[e.a].push_back(e.b);
    adj[e.b].push_back(e.a);
  }
  std::vector<std::vector<int64_t>> dist(n, std::vector<int64_t>(n, -1));
  for (size_t s = 0; s < n; ++s) {
    std::deque<size_t> queue = {s};
    dist[s][s] = 0;
    while (!queue.empty()) {
      size_t u = queue.front();
      queue.pop_front();
      for (size_t v : adj[u]) {
        if (dist[s][v] < 0) {
          dist[s][v] = dist[s][u] + 1;
          queue.push_back(v);
        }
      }
    }
  }
  return dist;
}

Result<PathVectorResult> RunPathVector(const PathVectorConfig& config) {
  policy::SaysPolicyOptions popts;
  popts.accept = policy::AcceptMode::kBenign;
  dist::SimCluster::Config cfg;
  if (config.per_fact_policy) {
    // Ablation mode: signatures/encryption per individual fact, inside the
    // says policy itself; messages travel in plain envelopes.
    popts.auth = config.auth;
    popts.enc = config.enc;
  } else {
    // Paper configuration (footnote 2): one signature/MAC (and optional
    // AES pass) per message batch, applied by the runtime.
    cfg.batch_security.auth = config.auth;
    cfg.batch_security.enc = config.enc;
  }
  cfg.num_nodes = config.num_nodes;
  cfg.sources = {policy::PreludeSource(), PathVectorSource(),
                 policy::SaysPolicySource(popts)};
  cfg.credentials.rsa_bits = config.rsa_bits;
  cfg.credentials.seed = "pathvector";
  cfg.compute_scale = config.compute_scale;
  cfg.net.seed = config.graph_seed;
  cfg.max_batch_tuples = config.max_batch_tuples;
  cfg.max_batch_delay_s = config.max_batch_delay_s;

  SB_ASSIGN_OR_RETURN(std::unique_ptr<dist::SimCluster> cluster,
                      dist::SimCluster::Create(std::move(cfg)));

  std::vector<Edge> edges = RandomConnectedGraph(
      config.num_nodes, config.avg_degree, config.graph_seed);
  // Paper: "We distribute initial links to all nodes simultaneously."
  std::vector<std::vector<FactUpdate>> initial(config.num_nodes);
  auto principal = [](size_t i) { return StrCat({"p", std::to_string(i)}); };
  for (const Edge& e : edges) {
    initial[e.a].push_back(
        {"link", {Value::Str(principal(e.a)), Value::Str(principal(e.b))}});
    initial[e.b].push_back(
        {"link", {Value::Str(principal(e.b)), Value::Str(principal(e.a))}});
  }
  for (size_t i = 0; i < config.num_nodes; ++i) {
    if (!initial[i].empty()) {
      cluster->ScheduleInsert(static_cast<net::NodeIndex>(i),
                              std::move(initial[i]));
    }
  }

  PathVectorResult result;
  SB_ASSIGN_OR_RETURN(result.metrics, cluster->Run());

  // Extract converged routing tables.
  result.best_costs.resize(config.num_nodes);
  for (size_t i = 0; i < config.num_nodes; ++i) {
    auto& ws = cluster->node(static_cast<net::NodeIndex>(i)).workspace();
    result.engine_stats.push_back(ws.stats());
    SB_ASSIGN_OR_RETURN(auto rows, ws.Query("bestcost"));
    const auto& catalog = ws.catalog();
    for (const auto& row : rows) {
      SB_ASSIGN_OR_RETURN(std::string src, catalog.EntityLabel(row[0]));
      SB_ASSIGN_OR_RETURN(std::string dst, catalog.EntityLabel(row[1]));
      if (src != "p" + std::to_string(i)) continue;  // local routes only
      size_t dst_index = std::stoul(dst.substr(1));
      result.best_costs[i].push_back({dst_index, row[2].AsInt()});
    }
  }
  return result;
}

}  // namespace secureblox::apps
