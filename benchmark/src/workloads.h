// The five sbbench workloads. Each builds its inputs from the seed, drives
// the public APIs (SimCluster, NodeRuntime, Workspace, QueryEngine, the
// wire codec and the policy compiler) and measures every layer from the
// outside by timing calls into them.
//
// Cluster workloads run a pinned schedule: compute_scale = 1e-9, so the
// seeded network model alone orders events and every count repeats
// exactly. A TxRecord's simulated duration divided by kComputeScale is
// still that transaction's measured wall time.
#ifndef SBBENCH_WORKLOADS_H_
#define SBBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.h"

namespace sbbench {

constexpr double kComputeScale = 1e-9;

using Values = std::map<std::string, double>;

/// What one trial (set-up, measured phase, checks) produced.
struct Trial {
  /// Credentials plus every NodeRuntime::Create (plus the base load for
  /// serve-churn).
  double setup_s = 0;
  /// Wall time of the measured phase: SimCluster::Run, or the op loop.
  double run_s = 0;
  /// Peak RSS right after the measured phase (before any check).
  double rss_mb = 0;
  /// Per-op latency samples, pooled over a round's trials (tails over the
  /// whole run) before percentiles:
  /// "op_ms" on every workload, plus "engine.apply_us" (traced) and the
  /// serve-churn split "query_us" / "update_ms".
  std::map<std::string, std::vector<double>> samples;
  uint64_t attempted = 0;
  /// Rejected payloads, failed ops and wrong answers.
  uint64_t failed = 0;
  /// First correctness failure, empty when every check passed.
  std::string error;
  /// Counts the pinned schedule makes exact (determinism self-check).
  Values exact;
  /// Per-layer values of a traced trial.
  Values layers;
  /// Workload-specific end-to-end values (serve-churn latencies).
  Values extra;
  std::vector<Span> spans;
};

struct TrialOptions {
  uint64_t seed = 1;
  /// Toy sizes for the smoke test.
  bool smoke = false;
  /// Collect per-layer values, replays and spans after the timed section.
  bool traced = false;
  /// Trial index, stamped on spans.
  uint64_t index = 0;
};

struct Workload {
  const char* name;
  Trial (*run)(const TrialOptions& options);
};

const std::vector<Workload>& Workloads();

}  // namespace sbbench

#endif  // SBBENCH_WORKLOADS_H_
