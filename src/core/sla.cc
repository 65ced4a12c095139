#include "core/sla.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <utility>

namespace pbs {

namespace {

// A target that is parsed or searched for must be enabled: Validate() alone
// lets p <= 0 through as "SLA disabled".
Status ValidateEnabled(const SlaTarget& sla) {
  if (!sla.enabled()) {
    return Status::InvalidArgument(
        "sla: fresh_probability must be in (0, 1), got " +
        std::to_string(sla.fresh_probability));
  }
  return sla.Validate();
}

}  // namespace

Status SlaTarget::Validate() const {
  if (!enabled()) return Status::Ok();
  if (!(fresh_probability > 0.0 && fresh_probability < 1.0)) {
    return Status::InvalidArgument(
        "sla: fresh_probability must be in (0, 1), got " +
        std::to_string(fresh_probability));
  }
  if (!(staleness_bound_ms >= 0.0)) {
    return Status::InvalidArgument("sla: staleness_bound_ms must be >= 0");
  }
  if (!(read_p99_ms > 0.0)) {
    return Status::InvalidArgument("sla: read_p99_ms must be > 0");
  }
  return Status::Ok();
}

StatusOr<SlaTarget> SlaTarget::Parse(const std::string& text) {
  SlaTarget sla;
  bool have_p = false, have_t = false, have_p99 = false;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string clause = text.substr(pos, comma - pos);
    pos = comma + 1;
    double* field = nullptr;
    std::string value;
    if (clause.rfind("p99<=", 0) == 0) {
      field = &sla.read_p99_ms;
      value = clause.substr(5);
      have_p99 = true;
    } else if (clause.rfind("p=", 0) == 0) {
      field = &sla.fresh_probability;
      value = clause.substr(2);
      have_p = true;
    } else if (clause.rfind("t=", 0) == 0) {
      field = &sla.staleness_bound_ms;
      value = clause.substr(2);
      have_t = true;
    } else {
      return Status::InvalidArgument("sla: unknown clause '" + clause +
                                     "' (want p=, t=, p99<=)");
    }
    char* end = nullptr;
    *field = std::strtod(value.c_str(), &end);
    if (value.empty() || end != value.c_str() + value.size() ||
        !std::isfinite(*field)) {
      return Status::InvalidArgument("sla: bad number in clause '" + clause +
                                     "'");
    }
  }
  if (!have_p || !have_t || !have_p99) {
    return Status::InvalidArgument(
        "sla: need all of p=, t=, p99<= in '" + text + "'");
  }
  Status status = ValidateEnabled(sla);
  if (!status.ok()) return status;
  return sla;
}

Status SlaConstraints::Validate() const {
  if (!(min_n >= 1 && max_n >= min_n && min_write_quorum >= 1)) {
    return Status::InvalidArgument(
        "sla: search box needs 1 <= min_n <= max_n and min_write_quorum >= 1, "
        "got min_n=" + std::to_string(min_n) + " max_n=" +
        std::to_string(max_n) + " min_write_quorum=" +
        std::to_string(min_write_quorum));
  }
  return ValidateEnabled(sla);
}

StatusOr<SlaCandidate> ScoreCandidate(const QuorumConfig& config,
                                      const ReplicaLatencyModelPtr& model,
                                      const PredictorOptions& options,
                                      const ResolvedBackend& backend,
                                      const SlaTarget& sla,
                                      const SlaObjective& objective) {
  auto made = MakePredictionEngine(config, model, options, backend);
  if (!made.ok()) return made.status();
  const PredictionEngine& engine = *made.value();
  SlaCandidate candidate;
  candidate.config = config;
  candidate.t_visibility_ms = engine.TimeForConsistency(sla.fresh_probability);
  candidate.read_latency_ms =
      engine.ReadLatencyPercentile(objective.latency_percentile);
  candidate.write_latency_ms =
      engine.WriteLatencyPercentile(objective.latency_percentile);
  candidate.objective = objective.read_weight * candidate.read_latency_ms +
                        objective.write_weight * candidate.write_latency_ms;
  candidate.feasible =
      candidate.t_visibility_ms <= sla.staleness_bound_ms &&
      engine.ReadLatencyPercentile(99.0) <= sla.read_p99_ms;
  return candidate;
}

SlaOptimizer::SlaOptimizer(ModelFactory factory, int trials_per_config,
                           uint64_t seed, const PbsExecutionOptions& exec)
    : factory_(std::move(factory)) {
  assert(factory_ != nullptr);
  options_.trials = trials_per_config;
  options_.seed = seed;
  options_.collect_propagation = false;
  options_.exec = exec;
}

StatusOr<std::vector<SlaCandidate>> SlaOptimizer::EnumerateAll(
    const SlaConstraints& constraints, const SlaObjective& objective) const {
  const Status status = constraints.Validate();
  if (!status.ok()) return status;

  const ResolvedBackend monte_carlo;
  std::vector<SlaCandidate> candidates;
  for (int n = constraints.min_n; n <= constraints.max_n; ++n) {
    const ReplicaLatencyModelPtr model = factory_(n);
    for (int r = 1; r <= n; ++r) {
      for (int w = constraints.min_write_quorum; w <= n; ++w) {
        auto candidate = ScoreCandidate({n, r, w}, model, options_,
                                        monte_carlo, constraints.sla,
                                        objective);
        if (!candidate.ok()) return candidate.status();
        candidates.push_back(candidate.value());
      }
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const SlaCandidate& a, const SlaCandidate& b) {
                     if (a.feasible != b.feasible) return a.feasible;
                     return a.objective < b.objective;
                   });
  return candidates;
}

StatusOr<SlaCandidate> SlaOptimizer::Optimize(
    const SlaConstraints& constraints, const SlaObjective& objective) const {
  auto candidates = EnumerateAll(constraints, objective);
  if (!candidates.ok()) return candidates.status();
  if (candidates.value().empty() || !candidates.value().front().feasible) {
    return Status::NotFound(
        "no configuration satisfies the staleness SLA within the search box");
  }
  return candidates.value().front();
}

}  // namespace pbs
