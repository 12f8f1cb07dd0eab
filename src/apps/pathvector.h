// Path-vector routing protocol (paper §7.1): a distributed all-pairs-
// shortest-path computation that propagates the full composition of each
// path so nodes can apply policy to it.
//
// Following the paper's footnote 4, path identity is handled with an
// explicit extension map: `extend[P,U] = P2` creates (via a head
// existential) one fresh path entity per (path, neighbour) extension, so
// path compositions never collide under the functional dependencies.
#ifndef SECUREBLOX_APPS_PATHVECTOR_H_
#define SECUREBLOX_APPS_PATHVECTOR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "dist/cluster.h"
#include "engine/workspace.h"
#include "policy/says_policy.h"

namespace secureblox::apps {

/// The path-vector program (schema + rules + exportable markers).
std::string PathVectorSource();

/// Undirected edge in the input topology.
struct Edge {
  size_t a = 0;
  size_t b = 0;
};

/// Connected random graph with the paper's average node degree of three:
/// a random spanning tree plus random extra edges up to ~3n/2 total.
std::vector<Edge> RandomConnectedGraph(size_t n, double avg_degree,
                                       uint64_t seed);

struct PathVectorConfig {
  size_t num_nodes = 6;
  policy::AuthScheme auth = policy::AuthScheme::kNone;
  policy::EncScheme enc = policy::EncScheme::kNone;
  uint64_t graph_seed = 1;
  double avg_degree = 3.0;
  size_t rsa_bits = 1024;
  double compute_scale = 1.0;
  /// false (default): one signature/MAC per outgoing message — the paper's
  /// measured configuration ("we have found it useful to sign aggregates
  /// of serialized facts", footnote 2).
  /// true: the says policy signs and verifies every fact individually
  /// (ablation: per-tuple vs per-batch signing).
  bool per_fact_policy = false;
  /// §5.2 delivery granularity (see SimCluster::Config): max tuples per
  /// coalesced transaction (0 = unbounded, 1 = per-message) and extra
  /// simulated batch-open delay.
  size_t max_batch_tuples = 0;
  double max_batch_delay_s = 0;
};

struct PathVectorResult {
  dist::SimCluster::Metrics metrics;
  /// bestcost[self, dst] rows per node: hop counts for verification.
  std::vector<std::vector<std::pair<size_t, int64_t>>> best_costs;
  /// Each node's cumulative engine counters after the run.
  std::vector<engine::EngineStats> engine_stats;
};

/// Build the cluster, run the protocol to a distributed fixpoint on a
/// random graph, and collect metrics plus the converged routing tables.
Result<PathVectorResult> RunPathVector(const PathVectorConfig& config);

/// Reference shortest-path hop counts (BFS) for validation.
std::vector<std::vector<int64_t>> ReferenceHopCounts(
    size_t n, const std::vector<Edge>& edges);

}  // namespace secureblox::apps

#endif  // SECUREBLOX_APPS_PATHVECTOR_H_
