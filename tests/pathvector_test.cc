// Path-vector protocol: converged routes must equal BFS hop counts on
// random graphs, under multiple security schemes (property sweep).
#include <gtest/gtest.h>

#include <map>

#include "apps/pathvector.h"

namespace secureblox::apps {
namespace {

using policy::AuthScheme;
using policy::EncScheme;

void ExpectRoutesMatchBfs(const PathVectorConfig& config,
                          const PathVectorResult& result) {
  EXPECT_EQ(result.metrics.rejected_batches, 0u);

  auto edges = RandomConnectedGraph(config.num_nodes, config.avg_degree,
                                    config.graph_seed);
  auto reference = ReferenceHopCounts(config.num_nodes, edges);

  for (size_t i = 0; i < config.num_nodes; ++i) {
    std::map<size_t, int64_t> got(result.best_costs[i].begin(),
                                  result.best_costs[i].end());
    for (size_t j = 0; j < config.num_nodes; ++j) {
      if (i == j) continue;
      ASSERT_TRUE(got.count(j))
          << "node " << i << " has no route to " << j;
      EXPECT_EQ(got[j], reference[i][j])
          << "route " << i << "->" << j << " cost mismatch";
    }
  }
}

void ExpectRoutesMatchBfs(const PathVectorConfig& config) {
  auto result = RunPathVector(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectRoutesMatchBfs(config, *result);
}

TEST(PathVectorTest, GraphGeneratorProperties) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    auto edges = RandomConnectedGraph(12, 3.0, seed);
    // Average degree ~3 => ~18 edges.
    EXPECT_GE(edges.size(), 11u);  // at least a spanning tree
    EXPECT_LE(edges.size(), 18u);
    auto dist = ReferenceHopCounts(12, edges);
    for (size_t i = 0; i < 12; ++i) {
      for (size_t j = 0; j < 12; ++j) {
        EXPECT_GE(dist[i][j], 0) << "graph not connected";
      }
    }
  }
}

TEST(PathVectorTest, ReferenceBfsSanity) {
  // Triangle plus a tail: 0-1, 1-2, 0-2, 2-3.
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {0, 2}, {2, 3}};
  auto dist = ReferenceHopCounts(4, edges);
  EXPECT_EQ(dist[0][3], 2);
  EXPECT_EQ(dist[3][0], 2);
  EXPECT_EQ(dist[0][1], 1);
  EXPECT_EQ(dist[1][3], 2);
}

TEST(PathVectorTest, SmallGraphNoAuth) {
  PathVectorConfig config;
  config.num_nodes = 6;
  config.graph_seed = 42;
  config.rsa_bits = 512;
  ExpectRoutesMatchBfs(config);
}

TEST(PathVectorTest, SmallGraphHmac) {
  PathVectorConfig config;
  config.num_nodes = 6;
  config.auth = AuthScheme::kHmac;
  config.graph_seed = 7;
  config.rsa_bits = 512;
  ExpectRoutesMatchBfs(config);
}

TEST(PathVectorTest, SmallGraphRsaAes) {
  PathVectorConfig config;
  config.num_nodes = 6;
  config.auth = AuthScheme::kRsa;
  config.enc = EncScheme::kAes;
  config.graph_seed = 9;
  config.rsa_bits = 512;
  ExpectRoutesMatchBfs(config);
}

TEST(PathVectorTest, LoopCheckFlipsAreProbedNotRecomputed) {
  // Every delivery adds pathlink rows, which flips the loop check
  // !pathlink(P, U, _). Each flip is probed against the live extend
  // instantiations; none is blocked, so nothing is retracted and no rule
  // cluster is recomputed.
  PathVectorConfig config;
  config.num_nodes = 6;
  config.auth = AuthScheme::kHmac;
  config.graph_seed = 7;
  config.rsa_bits = 512;
  auto result = RunPathVector(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  uint64_t rederives = 0, probes = 0, matches = 0;
  for (const engine::EngineStats& s : result->engine_stats) {
    rederives += s.group_rederives;
    probes += s.flip_probes;
    matches += s.flip_matches;
  }
  EXPECT_EQ(rederives, 0u);
  EXPECT_EQ(matches, 0u);
  EXPECT_GT(probes, 0u);
  ExpectRoutesMatchBfs(config, *result);
}

class PathVectorSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PathVectorSeedSweep, RoutesEqualBfsOnRandomGraphs) {
  PathVectorConfig config;
  config.num_nodes = 8;
  config.graph_seed = GetParam();
  config.rsa_bits = 512;
  ExpectRoutesMatchBfs(config);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathVectorSeedSweep,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(PathVectorTest, MetricsArePopulated) {
  PathVectorConfig config;
  config.num_nodes = 6;
  config.graph_seed = 4;
  config.rsa_bits = 512;
  auto result = RunPathVector(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& m = result->metrics;
  EXPECT_GT(m.fixpoint_latency_s, 0.0);
  EXPECT_GT(m.total_messages, 0u);
  EXPECT_EQ(m.node_bytes_sent.size(), 6u);
  EXPECT_GT(m.MeanPerNodeKb(), 0.0);
  EXPECT_GT(m.transactions.size(), 6u);
  for (double t : m.node_convergence_s) EXPECT_GT(t, 0.0);
}

}  // namespace
}  // namespace secureblox::apps
