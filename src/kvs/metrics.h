#ifndef PBS_KVS_METRICS_H_
#define PBS_KVS_METRICS_H_

#include <cstdint>
#include <map>
#include <vector>

#include "core/latency.h"
#include "sim/network.h"
#include "util/stats.h"

namespace pbs {
namespace kvs {

/// Collects raw operation latencies and converts them to a LatencyProfile.
class LatencyRecorder {
 public:
  void Record(double latency_ms) { samples_.push_back(latency_ms); }
  size_t count() const { return samples_.size(); }

  /// Pre-sizes the sample buffer; benchmarks and allocation-audit tests use
  /// this so steady-state Record calls never grow the vector.
  void Reserve(size_t n) { samples_.reserve(n); }
  const std::vector<double>& samples() const { return samples_; }

  /// Sorted percentile view; requires at least one sample.
  LatencyProfile ToProfile() const { return LatencyProfile(samples_); }

 private:
  std::vector<double> samples_;
};

/// Empirical t-visibility: (offset t, consistent?) observations grouped by
/// the probed offset. The Section 5.2 harness reads at a fixed grid of
/// offsets after each write commit, so grouping by exact offset is lossless.
class ConsistencyByOffset {
 public:
  struct Point {
    double t = 0.0;
    int64_t trials = 0;
    int64_t consistent = 0;

    double ProbConsistent() const {
      return trials == 0
                 ? 1.0
                 : static_cast<double>(consistent) /
                       static_cast<double>(trials);
    }
  };

  void Record(double t, bool consistent);

  /// Points sorted by t.
  std::vector<Point> Points() const;

  int64_t total_trials() const { return total_trials_; }

 private:
  std::map<double, Point> by_offset_;
  int64_t total_trials_ = 0;
};

/// Histogram over "how many versions stale was this read" (0 = fresh).
class VersionStalenessHistogram {
 public:
  void Record(int64_t versions_stale);

  int64_t total() const { return total_; }
  /// P(staleness >= k).
  double ProbStalerThan(int64_t k) const;
  /// Observed staleness counts, sparse (staleness -> count).
  const std::map<int64_t, int64_t>& counts() const { return counts_; }

 private:
  std::map<int64_t, int64_t> counts_;
  int64_t total_ = 0;
};

/// Per-shard operation counters, keyed by the shard's primary owner (the
/// first node of the key's current-ring preference list). Shards are the
/// unit the elastic cluster measures PBS at: during a rebalance the set of
/// primaries changes, and these counters attribute traffic — and staleness,
/// via the audit path — to the shard that served it.
struct ShardMetrics {
  int64_t reads = 0;               // coordinated reads routed to this shard
  int64_t writes = 0;              // coordinated writes routed to this shard
  int64_t migration_keys_received = 0;  // values applied from migration
  LatencyRecorder read_latency;
  LatencyRecorder write_latency;
};

/// Cluster-wide operation counters and latency recorders.
struct ClusterMetrics {
  LatencyRecorder read_latency;
  LatencyRecorder write_latency;
  int64_t reads_started = 0;
  int64_t reads_failed = 0;
  int64_t writes_started = 0;
  int64_t writes_failed = 0;
  int64_t read_repairs_sent = 0;
  int64_t hinted_handoffs_sent = 0;
  int64_t sloppy_substitutions = 0;
  int64_t hints_stored = 0;
  int64_t hints_delivered = 0;
  int64_t anti_entropy_rounds = 0;
  int64_t anti_entropy_values_shipped = 0;
  int64_t monotonic_read_violations = 0;
  int64_t session_reads = 0;

  // Hedged reads (rapid read protection).
  int64_t hedged_reads_sent = 0;  // hedge request legs dispatched
  int64_t hedged_reads_won = 0;   // reads completed by a hedge-only replica

  // Response deduplication (duplicate delivery and hedge re-sends must not
  // double-count one replica toward R / W).
  int64_t duplicate_responses_suppressed = 0;
  int64_t duplicate_acks_suppressed = 0;

  // Client-side retry with backoff under a deadline budget.
  int64_t client_read_retries = 0;
  int64_t client_write_retries = 0;
  int64_t client_deadline_misses = 0;
  int64_t consistency_downgrades = 0;  // reads retried at a reduced R

  // Gray-fault injection: activations per fault kind (FaultSchedule).
  int64_t fault_slow_node_activations = 0;
  int64_t fault_lossy_link_activations = 0;
  int64_t fault_flapping_activations = 0;
  int64_t fault_asymmetric_partition_activations = 0;

  // Elastic membership and data migration (ring rebalances).
  int64_t nodes_joined = 0;
  int64_t nodes_removed = 0;
  int64_t rebalances_started = 0;
  int64_t rebalances_completed = 0;
  int64_t migration_keys_examined = 0;   // (key, source) pairs scanned
  int64_t migration_transfers_sent = 0;  // transfer messages dispatched
  int64_t migration_transfers_delivered = 0;
  int64_t migration_transfers_dropped = 0;  // gave up after retries
  int64_t migration_transfer_retries = 0;
  int64_t stale_routes_forwarded = 0;  // ops carrying an old ring version

  // Closed-loop consistency controller (ROADMAP item 3).
  int64_t controller_epochs = 0;     // control ticks executed
  int64_t controller_steps = 0;      // knob changes actuated
  int64_t controller_rollbacks = 0;  // steps reverted on measured violation
  int64_t controller_holds = 0;      // epochs that kept the incumbent
  int64_t reads_fresh_measured = 0;  // reads within the SLA staleness bound
  int64_t reads_stale_measured = 0;  // reads beyond it
  int64_t mixed_reads_lo = 0;        // fractional-mix reads drawn at r_lo
  int64_t mixed_reads_hi = 0;        // fractional-mix reads drawn at r_hi

  // Per-shard attribution, keyed by primary owner node id (ordered map so
  // exports and merges are deterministic).
  std::map<NodeId, ShardMetrics> shards;
};

}  // namespace kvs
}  // namespace pbs

#endif  // PBS_KVS_METRICS_H_
