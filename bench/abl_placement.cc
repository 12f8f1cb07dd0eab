// Ablation: partitioned shard placement (the PR 10 tentpole). The same
// co-shardable closure workload runs on 1, 6, and 18 nodes; under
// placement every node owns only its hash-assigned shards of the placed
// relations, so per-node storage must *drop* as the cluster grows — the
// scale-out shape the replicated dist layer (whole relation on every
// node) could not deliver.
//
// Recorded per cluster size: the per-node storage-footprint gauges
// (relation_dict_bytes + relation_column_bytes + relation_index_bytes,
// max and mean over nodes) and the distributed-fixpoint convergence time.
// Acceptance gates (exit nonzero on failure):
//   - the max per-node footprint at 6 nodes is < 60% of the 1-node
//     (fully local, i.e. replicated-equivalent) figure;
//   - the 18-node run converges: drains with zero rejected payloads and
//     the cluster-wide placed row count matches the 1-node fixpoint.
//
// Set SB_BENCH_OUT=<path> to record the curve (merged into
// BENCH_dist.json by scripts/check.sh).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/strings.h"
#include "datalog/value.h"
#include "dist/cluster.h"
#include "engine/workspace.h"
#include "policy/says_policy.h"

using namespace secureblox;
using namespace secureblox::bench;
using datalog::Value;

namespace {

// Co-shardable closure app (see engine/placement.h): `link` is the
// replicated dimension chain, `seed` the placed base relation, `grow`
// closes recursively shard-locally, `inv` re-keys across shards.
const char* kApp = R"(
link(X, Y) -> string(X), string(Y).
seed(X, Y) -> string(X), string(Y).
grow(X, Y) -> string(X), string(Y).
inv(X, Y) -> string(X), string(Y).
grow(X, Y) <- seed(X, Y).
grow(X, Y) <- grow(X, Z), link(Z, Y).
inv(Y, X) <- seed(X, Y).
)";

struct Workload {
  size_t keys;
  size_t hops;
};

Workload TheWorkload() {
  // Every key's grow-closure walks the whole chain: placed rows ≈
  // keys * (hops + 2). Quick mode keeps CI under a few seconds.
  if (QuickMode()) return {160, 12};
  return {360, 16};
}

std::string Chain(size_t i) { return StrCat({"c", std::to_string(i)}); }

std::string Key(size_t i) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "key-%04zu-%016llx", i,
                static_cast<unsigned long long>(i * 0x9e3779b97f4a7c15ull));
  return buf;
}

struct Outcome {
  double fixpoint_s = 0;
  double max_node_bytes = 0;
  double mean_node_bytes = 0;
  double placed_rows = 0;
  double messages = 0;
  double bytes = 0;
  double rejected = 0;
};

Result<Outcome> Run(size_t nodes, int shards) {
  const Workload w = TheWorkload();
  policy::SaysPolicyOptions popts;
  dist::SimCluster::Config cfg;
  cfg.num_nodes = nodes;
  cfg.sources = {policy::PreludeSource(), kApp,
                 policy::SaysPolicySource(popts)};
  cfg.credentials.rsa_bits = 512;
  cfg.credentials.seed = "abl-placement";
  cfg.placement = true;
  cfg.placed_preds = {"seed", "grow", "inv"};
  cfg.storage_shards = shards;
  SB_ASSIGN_OR_RETURN(std::unique_ptr<dist::SimCluster> cluster,
                      dist::SimCluster::Create(std::move(cfg)));

  // Replicated dimension chain at every node; placed seeds spread
  // round-robin over the members, all pointing into the chain head.
  std::vector<engine::FactUpdate> links;
  for (size_t h = 0; h < w.hops; ++h) {
    links.push_back({"link", {Value::Str(Chain(h)), Value::Str(Chain(h + 1))}});
  }
  for (size_t n = 0; n < nodes; ++n) {
    cluster->ScheduleInsert(static_cast<net::NodeIndex>(n), links);
  }
  std::vector<std::vector<engine::FactUpdate>> seeds(nodes);
  for (size_t i = 0; i < w.keys; ++i) {
    seeds[i % nodes].push_back(
        {"seed", {Value::Str(Key(i)), Value::Str(Chain(0))}});
  }
  for (size_t n = 0; n < nodes; ++n) {
    cluster->ScheduleInsert(static_cast<net::NodeIndex>(n),
                            std::move(seeds[n]));
  }

  SB_ASSIGN_OR_RETURN(dist::SimCluster::Metrics m, cluster->Run());

  Outcome out;
  out.fixpoint_s = m.fixpoint_latency_s;
  out.messages = static_cast<double>(m.total_messages);
  out.bytes = static_cast<double>(m.total_bytes);
  out.rejected = static_cast<double>(m.rejected_batches);
  double total_bytes = 0;
  for (size_t n = 0; n < nodes; ++n) {
    const engine::Workspace& ws =
        cluster->node(static_cast<net::NodeIndex>(n)).workspace();
    const auto& s = ws.stats();
    const double node_bytes =
        static_cast<double>(s.relation_dict_bytes + s.relation_column_bytes +
                            s.relation_index_bytes);
    out.max_node_bytes = std::max(out.max_node_bytes, node_bytes);
    total_bytes += node_bytes;
    for (const char* name : {"seed", "grow", "inv"}) {
      auto id = ws.catalog().Lookup(name);
      if (!id.ok()) continue;
      const engine::Relation* rel = ws.GetRelationIfExists(id.value());
      if (rel != nullptr) out.placed_rows += static_cast<double>(rel->size());
    }
  }
  out.mean_node_bytes = total_bytes / static_cast<double>(nodes);
  return out;
}

}  // namespace

int main() {
  const Workload w = TheWorkload();
  PrintTitle("Ablation: shard placement scale-out — per-node storage and "
             "convergence, " + std::to_string(w.keys) + " placed keys x " +
             std::to_string(w.hops) + "-hop closure, NoAuth");
  PrintHeader({"nodes", "shards", "fixpoint_s", "max_node_bytes",
               "mean_node_bytes", "placed_rows", "msgs", "bytes"});

  // Finer than the CI suite's SB_SHARDS=7: with only 7 placement units
  // over 6 nodes one node necessarily owns 2-3 of them (>= 28% of the
  // placed data before hash skew), which drowns the scale-out curve in
  // quantization. 61 keeps the prime convention at ring granularity.
  constexpr int kShards = 61;
  const std::vector<size_t> sizes = {1, 6, 18};

  const char* out_path = std::getenv("SB_BENCH_OUT");
  FILE* json = nullptr;
  if (out_path != nullptr) {
    json = std::fopen(out_path, "w");
    if (json == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path);
      return 1;
    }
    std::fprintf(json,
                 "{\n  \"benchmark\": \"abl_placement\",\n"
                 "  \"workload\": \"placed-closure-%zux%zu\",\n"
                 "  \"rows\": [\n",
                 w.keys, w.hops);
  }

  bool first_row = true;
  bool gate_ok = true;
  double bytes_at_1 = 0, rows_at_1 = 0;
  for (size_t n : sizes) {
    auto out = Run(n, kShards);
    if (!out.ok()) {
      std::fprintf(stderr, "FAILED nodes=%zu: %s\n", n,
                   out.status().ToString().c_str());
      if (json) std::fclose(json);
      return 1;
    }
    PrintRow({static_cast<double>(n), static_cast<double>(kShards),
              out->fixpoint_s, out->max_node_bytes, out->mean_node_bytes,
              out->placed_rows, out->messages, out->bytes});
    if (json) {
      std::fprintf(json,
                   "%s    {\"nodes\": %zu, \"shards\": %d, "
                   "\"fixpoint_s\": %.6f, \"max_node_relation_bytes\": %.0f, "
                   "\"mean_node_relation_bytes\": %.0f, "
                   "\"placed_rows\": %.0f, \"total_messages\": %.0f, "
                   "\"total_bytes\": %.0f}",
                   first_row ? "" : ",\n", n, kShards, out->fixpoint_s,
                   out->max_node_bytes, out->mean_node_bytes,
                   out->placed_rows, out->messages, out->bytes);
      first_row = false;
    }
    if (out->rejected != 0) {
      std::fprintf(stderr, "GATE FAILED nodes=%zu: %.0f rejected payloads\n",
                   n, out->rejected);
      gate_ok = false;
    }
    if (n == 1) {
      bytes_at_1 = out->max_node_bytes;
      rows_at_1 = out->placed_rows;
    } else {
      // Placement is partitioned, not replicated: the cluster-wide
      // placed fixpoint must match the 1-node run row-for-row.
      if (out->placed_rows != rows_at_1) {
        std::fprintf(stderr,
                     "GATE FAILED nodes=%zu: %.0f placed rows != 1-node "
                     "fixpoint (%.0f)\n",
                     n, out->placed_rows, rows_at_1);
        gate_ok = false;
      }
    }
    if (n == 6 && !(out->max_node_bytes < 0.6 * bytes_at_1)) {
      std::fprintf(stderr,
                   "GATE FAILED: max per-node bytes at 6 nodes (%.0f) not "
                   "below 60%% of the 1-node figure (%.0f)\n",
                   out->max_node_bytes, bytes_at_1);
      gate_ok = false;
    }
    if (n == 18 && !(out->fixpoint_s > 0)) {
      std::fprintf(stderr, "GATE FAILED: 18-node run did not converge\n");
      gate_ok = false;
    }
  }
  if (json) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
  }
  return gate_ok ? 0 : 1;
}
