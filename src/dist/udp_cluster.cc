#include "dist/udp_cluster.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "net/wire.h"

namespace secureblox::dist {

using engine::FactUpdate;
using net::NodeIndex;

Result<std::unique_ptr<UdpCluster>> UdpCluster::Create(Config config) {
  std::unique_ptr<UdpCluster> cluster(new UdpCluster());
  NodeRuntime::Config ncfg;
  ncfg.batch_security = config.batch_security;
  ncfg.placement = config.placement;
  ncfg.placed_preds = config.placed_preds;
  ncfg.storage_shards = config.storage_shards;
  SB_ASSIGN_OR_RETURN(cluster->nodes_,
                      CreateClusterNodes(config.num_nodes, config.credentials,
                                         std::move(ncfg), config.sources));
  // Bind everyone on an ephemeral port, then fill in the address book.
  std::vector<net::UdpEndpoint> endpoints(config.num_nodes,
                                          {"127.0.0.1", 0});
  for (size_t i = 0; i < config.num_nodes; ++i) {
    SB_ASSIGN_OR_RETURN(
        net::UdpTransport sock,
        net::UdpTransport::Bind(static_cast<NodeIndex>(i), endpoints));
    cluster->transports_.push_back(std::move(sock));
  }
  for (size_t i = 0; i < config.num_nodes; ++i) {
    for (size_t j = 0; j < config.num_nodes; ++j) {
      cluster->transports_[i].SetEndpoint(
          static_cast<NodeIndex>(j),
          {"127.0.0.1", cluster->transports_[j].local_port()});
    }
  }
  cluster->config_ = std::move(config);
  return cluster;
}

Status UdpCluster::SendOutgoing(
    NodeIndex src, const std::vector<NodeRuntime::Outgoing>& outgoing) {
  for (const auto& out : outgoing) {
    // Datagram envelope: the sender's index (sealed payloads do not reveal
    // it before verification), its declared tuple count, and the shard
    // routing hints (target shard + map-epoch low word; net::kNoShard for
    // exports). Everything here is plaintext outside the seal — receivers
    // verify the values against the decoded payload and never let an
    // unverified envelope steer batching or routing.
    ByteWriter w;
    w.PutU32(src);
    w.PutU32(static_cast<uint32_t>(out.num_tuples));
    w.PutU32(out.shard);
    w.PutU32(static_cast<uint32_t>(out.map_epoch));
    w.PutRaw(out.payload);
    SB_RETURN_IF_ERROR(transports_[src].Send(out.dst, w.Take()));
  }
  return Status::OK();
}

Status UdpCluster::Insert(NodeIndex node,
                          const std::vector<FactUpdate>& facts) {
  SB_ASSIGN_OR_RETURN(NodeRuntime::ApplyOutcome outcome,
                      nodes_[node]->InsertLocal(facts));
  if (!outcome.accepted) {
    return Status::ConstraintViolation(outcome.reject_reason);
  }
  return SendOutgoing(node, outcome.outgoing);
}

Result<UdpCluster::Stats> UdpCluster::Run() {
  using Clock = std::chrono::steady_clock;
  // One verified (or verdict-carrying) datagram handed from the receive
  // thread to the apply loop. Node stats stay with the apply thread.
  struct RxItem {
    NodeIndex dst = 0;
    bool envelope_ok = true;
    /// Envelope hint contradicted the decoded payload (trust-boundary
    /// violation: the hint rides outside the seal).
    bool hint_mismatch = false;
    /// Envelope shard/epoch hints contradicted the sealed batch header.
    bool routing_mismatch = false;
    /// Tuples actually carried, from the structural parse of the opened
    /// payload — never the sender's claim. Unverifiable payloads (failed
    /// seal or unparseable plaintext) count 1, pending their rejection.
    size_t tuple_count = 1;
    Clock::time_point arrival{};
    NodeRuntime::OpenedDelivery opened;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<RxItem> rx_queue;
  std::atomic<bool> stop{false};
  Status rx_status = Status::OK();

  // Receive thread: drain every socket, verify seals against the claimed
  // source (OpenFromPeer is const — credentials are immutable after
  // Create), validate the envelope's tuple-count hint against the opened
  // payload, and enqueue opened payloads for the apply loop.
  std::thread rx([&] {
    bool final_sweep = false;
    while (!final_sweep) {
      // One more full sweep once stop is requested: datagrams already
      // sitting in the socket buffers at shutdown get verified and handed
      // over, so the apply side's final drain flushes them instead of the
      // OS dropping them with the sockets.
      final_sweep = stop.load(std::memory_order_acquire);
      bool any = false;
      for (size_t i = 0; i < nodes_.size(); ++i) {
        while (true) {
          Result<std::optional<Bytes>> datagram = transports_[i].Poll();
          if (!datagram.ok()) {
            std::lock_guard<std::mutex> lock(mu);
            rx_status = datagram.status();
            stop.store(true, std::memory_order_release);
            cv.notify_all();
            return;
          }
          if (!datagram->has_value()) break;
          any = true;
          RxItem item;
          item.dst = static_cast<NodeIndex>(i);
          item.arrival = Clock::now();
          ByteReader r(**datagram);
          auto src = r.GetU32();
          auto hint = r.GetU32();
          auto shard_hint = r.GetU32();
          auto epoch_hint = r.GetU32();
          if (!src.ok() || !hint.ok() || !shard_hint.ok() ||
              !epoch_hint.ok() || *src >= nodes_.size()) {
            item.envelope_ok = false;
          } else {
            item.opened.src = static_cast<NodeIndex>(*src);
            auto payload =
                r.GetRaw((*datagram)->size() - 4 * sizeof(uint32_t));
            if (!payload.ok()) {
              item.envelope_ok = false;
            } else {
              auto plain = nodes_[i]->OpenFromPeer(*payload, item.opened.src);
              if (!plain.ok()) {
                item.opened.auth_ok = false;
                item.opened.error = plain.status().ToString();
              } else {
                item.opened.opened = std::move(plain).value();
                // Clamp the batching weight to the decoded truth: an
                // oversized hint must not burst the tuple cap and a zero
                // hint must not starve it. A payload the structural parse
                // rejects keeps weight 1 and is thrown out by the apply
                // path's full decode.
                auto actual = net::CountBatchTuples(item.opened.opened);
                if (actual.ok()) {
                  item.tuple_count = std::max<size_t>(1, *actual);
                  item.hint_mismatch = *hint != *actual;
                }
                // Same canary for the routing hints: the sealed header is
                // what routes; a lying envelope only gets counted.
                auto routing = net::PeekBatchRouting(item.opened.opened);
                if (routing.ok()) {
                  item.routing_mismatch =
                      *shard_hint != routing->route_shard ||
                      *epoch_hint !=
                          static_cast<uint32_t>(routing->map_epoch);
                }
              }
            }
          }
          {
            std::lock_guard<std::mutex> lock(mu);
            rx_queue.push_back(std::move(item));
          }
          cv.notify_all();
        }
      }
      if (!any && !final_sweep) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    }
  });

  // Apply loop: coalesce opened payloads per destination (arrival order
  // preserved) into multi-source transactions. A batch closes when the
  // tuple cap fills; a non-full batch is held open `max_batch_delay_s`
  // after its first datagram's arrival (0 = apply on the next sweep) —
  // the same §5.2 semantics SimCluster implements in simulated time.
  struct PendingBatch {
    std::vector<NodeRuntime::OpenedDelivery> group;
    size_t tuples = 0;
    Clock::time_point first{};
  };
  std::vector<PendingBatch> pending(nodes_.size());
  Status status = Status::OK();
  const size_t cap = config_.max_batch_tuples;  // 0 = unbounded
  const auto delay = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(
          std::max(0.0, config_.max_batch_delay_s)));

  auto flush = [&](size_t dst) -> Status {
    PendingBatch& b = pending[dst];
    if (b.group.empty()) return Status::OK();
    auto outcome = nodes_[dst]->DeliverOpened(b.group);
    Status forward = Status::OK();
    if (!outcome.ok()) {
      // Leave a trail: this path also catches local engine failures
      // (budget, internal errors), not just attacker garbage.
      SB_LOG_STREAM(Warning)
          << "node " << dst << ": rejected batch: "
          << outcome.status().ToString();
      stats_.rejected += b.group.size();
    } else {
      ++stats_.apply_transactions;
      if (b.group.size() > 1) stats_.coalesced_messages += b.group.size();
      stats_.messages_delivered += b.group.size();
      stats_.rejected += b.group.size() - outcome->accepted_payloads;
      forward = SendOutgoing(static_cast<NodeIndex>(dst),
                             outcome->outgoing);
    }
    // The batch was consumed either way: a send failure must not leave
    // it queued for a re-delivery (the facts already committed).
    b.group.clear();
    b.tuples = 0;
    return forward;
  };

  // Admit one received item into its destination's held batch. A hostile
  // or malformed datagram must not take down the loop — it is counted and
  // the node keeps serving. A batch the tuple cap has filled closes before
  // the item joins, so the sweep loop and the shutdown drain both honor
  // max_batch_tuples. The item is held even when that flush fails, and
  // both callers admit every item, keeping the first error.
  auto admit = [&](RxItem& item) -> Status {
    if (!item.envelope_ok) {
      ++stats_.rejected;
      return Status::OK();
    }
    if (item.hint_mismatch) {
      // The payload may still verify and apply — only the unsealed
      // envelope lied — but the lie is counted where operators look.
      ++stats_.rejected;
      ++stats_.hint_mismatches;
    }
    if (item.routing_mismatch) {
      ++stats_.rejected;
      ++stats_.routing_mismatches;
    }
    Status flushed = Status::OK();
    PendingBatch& b = pending[item.dst];
    if (!b.group.empty() && cap != 0 && b.tuples >= cap) {
      flushed = flush(item.dst);
    }
    if (b.group.empty()) b.first = item.arrival;
    b.group.push_back(std::move(item.opened));
    b.tuples += item.tuple_count;
    return flushed;
  };

  int idle = 0;
  while (idle < config_.idle_sweeps && status.ok()) {
    std::vector<RxItem> items;
    {
      std::unique_lock<std::mutex> lock(mu);
      // Wake for traffic, or in time for the earliest held batch's
      // deadline so a quiet network cannot stall a non-full batch past
      // its delay.
      auto wait = std::chrono::milliseconds(config_.poll_timeout_ms);
      if (delay.count() > 0) {
        const auto now = Clock::now();
        for (const PendingBatch& b : pending) {
          if (b.group.empty()) continue;
          auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
              b.first + delay - now);
          wait = std::clamp(until, std::chrono::milliseconds(0), wait);
        }
      }
      cv.wait_for(lock, wait,
                  [&] { return !rx_queue.empty() || !rx_status.ok(); });
      if (!rx_status.ok()) {
        status = rx_status;
        break;
      }
      while (!rx_queue.empty()) {
        items.push_back(std::move(rx_queue.front()));
        rx_queue.pop_front();
      }
    }

    for (RxItem& item : items) {
      Status admitted = admit(item);
      if (status.ok()) status = std::move(admitted);
    }
    if (!status.ok()) break;

    // Close ready batches: full ones immediately, non-full ones once the
    // delay from their first arrival has elapsed (or right away with no
    // delay configured).
    const auto now = Clock::now();
    bool flushed = false;
    for (size_t dst = 0; dst < pending.size() && status.ok(); ++dst) {
      PendingBatch& b = pending[dst];
      if (b.group.empty()) continue;
      bool full = cap != 0 && b.tuples >= cap;
      if (full || delay.count() == 0 || now - b.first >= delay) {
        flushed = true;
        status = flush(dst);
      }
    }
    if (!status.ok()) break;

    bool holding = std::any_of(
        pending.begin(), pending.end(),
        [](const PendingBatch& b) { return !b.group.empty(); });
    if (items.empty() && !flushed && !holding) {
      ++idle;
    } else {
      idle = 0;
    }
  }

  stop.store(true, std::memory_order_release);
  cv.notify_all();
  rx.join();

  // The receive thread verifies seals off the apply loop, so it may have
  // enqueued payloads between this loop's last sweep and the join —
  // residue left in rx_queue here is a verified message silently dropped
  // at shutdown. Fold it into the held batches first: everything still
  // pending at stop time is *flushed, not dropped*. The first error is
  // preserved.
  std::deque<RxItem> residue;
  {
    std::lock_guard<std::mutex> lock(mu);
    residue.swap(rx_queue);
  }
  for (RxItem& item : residue) {
    Status admitted = admit(item);
    if (status.ok()) status = std::move(admitted);
  }

  // Drain everything still held open — unconditionally, so an error on
  // one destination's path never silently drops another destination's
  // verified payloads. The first error is preserved.
  for (size_t dst = 0; dst < pending.size(); ++dst) {
    Status drained = flush(dst);
    if (status.ok()) status = std::move(drained);
  }
  SB_RETURN_IF_ERROR(status);
  return stats_;
}

}  // namespace secureblox::dist
