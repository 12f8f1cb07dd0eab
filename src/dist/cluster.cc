#include "dist/cluster.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>

#include "common/logging.h"

namespace secureblox::dist {

using engine::FactUpdate;
using net::NodeIndex;

double SimCluster::Metrics::MeanPerNodeKb() const {
  if (node_bytes_sent.empty()) return 0;
  double total = 0;
  for (uint64_t b : node_bytes_sent) total += static_cast<double>(b);
  return total / 1024.0 / static_cast<double>(node_bytes_sent.size());
}

double SimCluster::Metrics::MeanTxDurationMs() const {
  if (transactions.empty()) return 0;
  double total = 0;
  for (const TxRecord& tx : transactions) total += tx.end_s - tx.start_s;
  return total * 1000.0 / static_cast<double>(transactions.size());
}

Result<std::unique_ptr<SimCluster>> SimCluster::Create(Config config) {
  std::unique_ptr<SimCluster> cluster(new SimCluster());
  NodeRuntime::Config ncfg;
  ncfg.batch_security = config.batch_security;
  ncfg.placement = config.placement;
  ncfg.placed_preds = config.placed_preds;
  ncfg.storage_shards = config.storage_shards;
  SB_ASSIGN_OR_RETURN(cluster->nodes_,
                      CreateClusterNodes(config.num_nodes, config.credentials,
                                         std::move(ncfg), config.sources));
  if (config.placement) {
    size_t members = config.initial_members == 0 ? config.num_nodes
                                                 : config.initial_members;
    if (members > config.num_nodes) {
      return Status::InvalidArgument("initial_members exceeds num_nodes");
    }
    cluster->map_ = ShardMap::Initial(static_cast<uint32_t>(members));
    for (auto& node : cluster->nodes_) node->SetShardMap(cluster->map_);
  }
  cluster->net_ = net::SimNet(config.net);
  cluster->config_ = std::move(config);
  return cluster;
}

void SimCluster::ScheduleInsert(NodeIndex node,
                                std::vector<FactUpdate> facts) {
  scheduled_.push_back({node, std::move(facts), {}, 0.0});
}

void SimCluster::ScheduleUpdate(NodeIndex node,
                                std::vector<FactUpdate> inserts,
                                std::vector<FactUpdate> deletes,
                                double at_s) {
  scheduled_.push_back({node, std::move(inserts), std::move(deletes), at_s});
}

void SimCluster::ScheduleJoin(NodeIndex node, double at_s) {
  scheduled_.push_back(
      {node, {}, {}, at_s, ScheduledTx::Kind::kJoin});
}

void SimCluster::ScheduleLeave(NodeIndex node, double at_s) {
  scheduled_.push_back(
      {node, {}, {}, at_s, ScheduledTx::Kind::kLeave});
}

Result<SimCluster::Metrics> SimCluster::Run() {
  Metrics metrics;
  metrics.node_convergence_s.assign(nodes_.size(), 0.0);
  std::vector<double> available(nodes_.size(), 0.0);
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Deliveries that have arrived but not yet been applied, per destination
  // (arrival order), plus their sender-declared tuple totals.
  std::vector<std::deque<net::SimNet::Delivery>> pending(nodes_.size());
  std::vector<size_t> pending_tuples(nodes_.size(), 0);
  const size_t cap = config_.max_batch_tuples;  // 0 = unbounded

  // When node n's queued batch starts applying. A full batch closes at
  // the arrival of the message that reached the tuple cap; otherwise the
  // node fires once it is free and the first message is in — or, with a
  // batch delay, `max_batch_delay_s` after the first arrival.
  auto fire_time = [&](size_t n) -> double {
    const std::deque<net::SimNet::Delivery>& q = pending[n];
    double first = q.front().time_s;
    if (cap != 0 && pending_tuples[n] >= cap) {
      size_t acc = 0;
      for (const net::SimNet::Delivery& d : q) {
        acc += std::max<size_t>(1, d.tuple_hint);
        if (acc >= cap) return std::max(available[n], d.time_s);
      }
    }
    double t = std::max(available[n], first);
    if (config_.max_batch_delay_s > 0) {
      t = std::max(available[n], first + config_.max_batch_delay_s);
    }
    return t;
  };

  // Account one finished transaction: charge the measured wall-clock
  // compute (sealing and verification included, rejected work too) to the
  // node's simulated time and ship its outgoing messages at commit time.
  auto finish_tx = [&](NodeIndex node, double start, double wall_s,
                       bool accepted, bool is_delivery, size_t num_payloads,
                       size_t num_tuples,
                       std::vector<NodeRuntime::Outgoing> outgoing) {
    double duration = wall_s * config_.compute_scale;
    if (duration <= 0) duration = 1e-9;  // clock granularity floor
    double end = start + duration;
    available[node] = end;
    metrics.transactions.push_back({node, accepted, is_delivery, start, end,
                                    num_payloads, num_tuples});
    if (accepted) {
      metrics.node_convergence_s[node] = end;
      for (auto& out : outgoing) {
        net_.Send(node, out.dst, std::move(out.payload), end,
                  out.num_tuples);
      }
    }
  };

  std::stable_sort(
      scheduled_.begin(), scheduled_.end(),
      [](const ScheduledTx& a, const ScheduledTx& b) { return a.at_s < b.at_s; });
  size_t next_scheduled = 0;
  uint64_t guard = 0;

  while (true) {
    if (++guard > 50000000) {
      return Status::Internal("simulated cluster did not quiesce");
    }
    double t_sched = next_scheduled < scheduled_.size()
                         ? scheduled_[next_scheduled].at_s
                         : kInf;
    double t_fire = kInf;
    size_t fire_dst = 0;
    uint64_t fire_seq = 0;
    for (size_t n = 0; n < pending.size(); ++n) {
      if (pending[n].empty()) continue;
      double t = fire_time(n);
      uint64_t seq = pending[n].front().seq;
      if (t < t_fire || (t == t_fire && seq < fire_seq)) {
        t_fire = t;
        fire_dst = n;
        fire_seq = seq;
      }
    }
    double t_net = net_.PeekNextTime().value_or(kInf);
    if (t_sched == kInf && t_fire == kInf && t_net == kInf) break;

    // Arrivals land first so a message arriving at (or before) a batch's
    // start instant still coalesces into it.
    if (t_net <= std::min(t_sched, t_fire)) {
      auto d = net_.PopNext();
      pending_tuples[d->dst] += std::max<size_t>(1, d->tuple_hint);
      pending[d->dst].push_back(std::move(*d));
      continue;
    }

    if (t_sched <= t_fire) {
      ScheduledTx& tx = scheduled_[next_scheduled++];
      if (tx.kind != ScheduledTx::Kind::kTx) {
        // Membership change. The new map is computed once; every old
        // owner of a departing shard runs a handoff transaction (snapshot
        // extraction + sealing, charged to its simulated clock, shipped
        // through the network model), then the map activates everywhere —
        // an idealized synchronous membership service. In-flight batches
        // sealed under the old epoch land at old owners and re-route.
        if (!config_.placement) {
          return Status::InvalidArgument(
              "membership event without placement mode");
        }
        ShardMap new_map = map_;
        if (tx.kind == ScheduledTx::Kind::kJoin) {
          new_map.Join(tx.node);
        } else {
          new_map.Leave(tx.node);
        }
        if (new_map.epoch() != map_.epoch()) {
          ++metrics.membership_changes;
          for (size_t n = 0; n < nodes_.size(); ++n) {
            auto t0 = std::chrono::steady_clock::now();
            auto handoff = nodes_[n]->ExtractHandoff(new_map);
            double wall_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
            if (!handoff.ok()) return handoff.status();
            if (handoff->empty()) continue;
            size_t rows = 0;
            for (const auto& o : *handoff) rows += o.num_tuples;
            metrics.handoff_transfers += handoff->size();
            metrics.handoff_rows += rows;
            double start = std::max(tx.at_s, available[n]);
            finish_tx(static_cast<NodeIndex>(n), start, wall_s,
                      /*accepted=*/true, /*is_delivery=*/false,
                      handoff->size(), rows, std::move(*handoff));
            metrics.transactions.back().is_handoff = true;
          }
          map_ = new_map;
          for (auto& node : nodes_) node->SetShardMap(map_);
        }
        continue;
      }
      double start = std::max(tx.at_s, available[tx.node]);
      auto t0 = std::chrono::steady_clock::now();
      auto outcome = nodes_[tx.node]->ApplyLocal(tx.inserts, tx.deletes);
      double wall_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      // Local failures surface: the workload itself is broken.
      if (!outcome.ok()) return outcome.status();
      finish_tx(tx.node, start, wall_s, outcome->accepted,
                /*is_delivery=*/false, 0, 0, std::move(outcome->outgoing));
      continue;
    }

    // Coalesce queued messages for fire_dst — across sources — into one
    // multi-source delivery transaction (whole messages, first always
    // taken, stop once the tuple cap is reached).
    std::vector<NodeRuntime::SealedDelivery> batch;
    size_t tuples = 0;
    while (!pending[fire_dst].empty()) {
      if (!batch.empty() && cap != 0 && tuples >= cap) break;
      net::SimNet::Delivery& d = pending[fire_dst].front();
      size_t hint = std::max<size_t>(1, d.tuple_hint);
      batch.push_back({d.src, std::move(d.payload)});
      tuples += hint;
      pending_tuples[fire_dst] -= hint;
      pending[fire_dst].pop_front();
    }

    double start = std::max(t_fire, available[fire_dst]);
    auto t0 = std::chrono::steady_clock::now();
    auto outcome =
        nodes_[fire_dst]->DeliverBatch(batch);
    double wall_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    NodeIndex dst = static_cast<NodeIndex>(fire_dst);
    if (!outcome.ok()) {
      // A malformed or hostile batch must not take down the cluster loop:
      // count the rejections and keep the node serving — but log it, since
      // this also catches local engine failures.
      SB_LOG_STREAM(Warning) << "node " << dst << ": rejected batch: "
                             << outcome.status().ToString();
      metrics.rejected_batches += batch.size();
      finish_tx(dst, start, wall_s, /*accepted=*/false, /*is_delivery=*/true,
                batch.size(), tuples, {});
      continue;
    }
    metrics.rejected_batches += batch.size() - outcome->accepted_payloads;
    ++metrics.delivery_transactions;
    if (batch.size() > 1) metrics.coalesced_messages += batch.size();
    finish_tx(dst, start, wall_s, outcome->accepted_payloads > 0,
              /*is_delivery=*/true, batch.size(), tuples,
              std::move(outcome->outgoing));
  }
  scheduled_.clear();

  metrics.fixpoint_latency_s = *std::max_element(
      metrics.node_convergence_s.begin(), metrics.node_convergence_s.end());
  metrics.total_messages = net_.total_messages();
  metrics.total_bytes = net_.total_bytes();
  for (size_t i = 0; i < nodes_.size(); ++i) {
    metrics.node_bytes_sent.push_back(
        net_.bytes_sent(static_cast<NodeIndex>(i)));
    metrics.rerouted_batches += nodes_[i]->stats().batches_rerouted;
  }
  return metrics;
}

}  // namespace secureblox::dist
