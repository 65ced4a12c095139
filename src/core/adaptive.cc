#include "core/adaptive.h"

#include <cassert>
#include <limits>
#include <memory>
#include <utility>

#include "core/analytic.h"
#include "util/math.h"
#include "util/radix_sort.h"
#include "util/stats.h"

namespace pbs {

double MixtureQuantileSorted(const std::vector<double>& lo_sorted,
                             double weight_lo,
                             const std::vector<double>& hi_sorted,
                             double weight_hi, double q) {
  const bool have_lo = weight_lo > 0.0 && !lo_sorted.empty();
  const bool have_hi = weight_hi > 0.0 && !hi_sorted.empty();
  if (!have_lo && !have_hi) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (!have_lo) return QuantileSorted(hi_sorted, q);
  if (!have_hi) return QuantileSorted(lo_sorted, q);
  // Merge-scan: advance through the union of both sorted arrays in value
  // order; after consuming i values of lo and j of hi the mixture CDF is
  // weight_lo * i/|lo| + weight_hi * j/|hi|. Return the first value at
  // which it reaches q.
  const double step_lo = weight_lo / static_cast<double>(lo_sorted.size());
  const double step_hi = weight_hi / static_cast<double>(hi_sorted.size());
  size_t i = 0, j = 0;
  double cdf = 0.0;
  double value = lo_sorted.back() > hi_sorted.back() ? lo_sorted.back()
                                                     : hi_sorted.back();
  while (i < lo_sorted.size() || j < hi_sorted.size()) {
    double next;
    if (j >= hi_sorted.size() ||
        (i < lo_sorted.size() && lo_sorted[i] <= hi_sorted[j])) {
      next = lo_sorted[i++];
      cdf += step_lo;
    } else {
      next = hi_sorted[j++];
      cdf += step_hi;
    }
    if (cdf >= q - 1e-12) {
      value = next;
      break;
    }
  }
  return value;
}

namespace {

// Fraction of (unsorted) thresholds at or below `bound`.
double FractionAtMost(const std::vector<double>& values, double bound) {
  if (values.empty()) return 0.0;
  int64_t hits = 0;
  for (double v : values) {
    if (v <= bound) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(values.size());
}

}  // namespace

MixedQuorumEvaluation EvaluateMixedQuorum(const MixedQuorum& quorum,
                                          const SlaTarget& sla,
                                          const ReplicaLatencyModelPtr& model,
                                          int trials, uint64_t seed,
                                          ReadFanout read_fanout,
                                          const PbsExecutionOptions& exec) {
  assert(quorum.IsValid());
  assert(model != nullptr && model->num_replicas() == quorum.n);
  assert(trials > 0);
  const double mix_lo = quorum.r_lo == quorum.r_hi ? 0.0 : quorum.mix;
  const double mix_hi = 1.0 - mix_lo;

  MixedQuorumEvaluation eval;
  std::vector<double> lo_reads, hi_reads, lo_writes, hi_writes;
  double fresh = 0.0;
  if (mix_hi > 0.0 || mix_lo <= 0.0) {
    const QuorumConfig hi{quorum.n, quorum.r_hi, quorum.w};
    WarsTrialSet set = RunWarsTrials(hi, model, trials, seed,
                                     /*want_propagation=*/false, read_fanout,
                                     exec);
    fresh += mix_hi * FractionAtMost(set.staleness_thresholds,
                                     sla.staleness_bound_ms);
    hi_reads = std::move(set.read_latencies);
    hi_writes = std::move(set.write_latencies);
    SortSamples(&hi_reads);
    SortSamples(&hi_writes);
  }
  if (mix_lo > 0.0) {
    const QuorumConfig lo{quorum.n, quorum.r_lo, quorum.w};
    // The lo arm draws from a deterministically derived but distinct seed
    // so the two arms are independent samples.
    WarsTrialSet set = RunWarsTrials(lo, model, trials,
                                     seed ^ 0x5CA1AB1E5CA1AB1EULL,
                                     /*want_propagation=*/false, read_fanout,
                                     exec);
    fresh += mix_lo * FractionAtMost(set.staleness_thresholds,
                                     sla.staleness_bound_ms);
    lo_reads = std::move(set.read_latencies);
    lo_writes = std::move(set.write_latencies);
    SortSamples(&lo_reads);
    SortSamples(&lo_writes);
  }
  eval.fresh_probability = fresh;
  eval.read_p99_ms =
      MixtureQuantileSorted(lo_reads, mix_lo, hi_reads, mix_hi, 0.99);
  eval.write_p99_ms =
      MixtureQuantileSorted(lo_writes, mix_lo, hi_writes, mix_hi, 0.99);
  eval.feasible = eval.fresh_probability >= sla.fresh_probability &&
                  eval.read_p99_ms <= sla.read_p99_ms;
  return eval;
}

MixedQuorumEvaluation EvaluateMixedQuorumAnalytic(
    const MixedQuorum& quorum, const SlaTarget& sla,
    const AnalyticScenarioPtr& scenario, ReadFanout read_fanout) {
  assert(quorum.IsValid());
  assert(scenario != nullptr);
  // Same arm-weight convention as the Monte Carlo path above.
  const double mix_lo = quorum.r_lo == quorum.r_hi ? 0.0 : quorum.mix;
  const double mix_hi = 1.0 - mix_lo;

  MixedQuorumEvaluation eval;
  std::unique_ptr<AnalyticWars> lo, hi;
  double fresh = 0.0;
  if (mix_hi > 0.0 || mix_lo <= 0.0) {
    hi = std::make_unique<AnalyticWars>(
        QuorumConfig{quorum.n, quorum.r_hi, quorum.w}, scenario, read_fanout);
    fresh += mix_hi * hi->ApproxProbConsistent(sla.staleness_bound_ms);
  }
  if (mix_lo > 0.0) {
    lo = std::make_unique<AnalyticWars>(
        QuorumConfig{quorum.n, quorum.r_lo, quorum.w}, scenario, read_fanout);
    fresh += mix_lo * lo->ApproxProbConsistent(sla.staleness_bound_ms);
  }
  eval.fresh_probability = ClampProbability(fresh);
  if (lo != nullptr && hi != nullptr) {
    // Exact mixture of the two read order-statistic CDFs on the shared grid.
    eval.read_p99_ms = DiscretizedDistribution::Mixture(
                           lo->read_latency(), mix_lo, hi->read_latency(),
                           mix_hi)
                           .Quantile(0.99);
  } else {
    const AnalyticWars& arm = hi != nullptr ? *hi : *lo;
    eval.read_p99_ms = arm.ReadLatencyQuantile(0.99);
  }
  // Write latency is R-independent (the W-th order statistic of w + a), so
  // the arms agree; take whichever was built.
  eval.write_p99_ms = (hi != nullptr ? *hi : *lo).WriteLatencyQuantile(0.99);
  eval.feasible = eval.fresh_probability >= sla.fresh_probability &&
                  eval.read_p99_ms <= sla.read_p99_ms;
  return eval;
}

MixedQuorumPredictor::MixedQuorumPredictor(const SlaTarget& sla,
                                           ReplicaLatencyModelPtr model,
                                           const MixedQuorum& probe,
                                           const Options& options)
    : sla_(sla), model_(std::move(model)), options_(options) {
  assert(model_ != nullptr && model_->num_replicas() == probe.n);
  assert(probe.IsValid());
  PredictorOptions predictor;
  predictor.trials = options_.trials;
  predictor.seed = options_.validation_seed;
  predictor.collect_propagation = false;
  predictor.exec = options_.exec;
  predictor.backend = options_.backend;
  predictor.grid = options_.grid;
  predictor.validation = options_.validation;
  auto resolved = ResolvePredictorBackend({probe.n, probe.r_hi, probe.w},
                                          model_, predictor);
  if (resolved.ok()) {
    resolved_ = std::move(resolved.value());
  } else {
    resolved_.note = "using Monte Carlo: " + resolved.status().message();
  }
}

MixedQuorumEvaluation MixedQuorumPredictor::Evaluate(const MixedQuorum& quorum,
                                                     uint64_t seed) const {
  if (resolved_.kind == PredictorBackend::kAnalytic) {
    return EvaluateMixedQuorumAnalytic(quorum, sla_, resolved_.scenario,
                                       options_.read_fanout);
  }
  return EvaluateMixedQuorum(quorum, sla_, model_, options_.trials, seed,
                             options_.read_fanout, options_.exec);
}

AdaptiveConfigController::AdaptiveConfigController(
    QuorumConfig initial, const AdaptiveControllerOptions& options)
    : current_(initial), options_(options) {
  assert(initial.IsValid());
  assert(options.sla.enabled() && options.sla.Validate().ok());
  assert(options.trials_per_eval > 0);
  assert(options.switch_improvement_factor > 0.0 &&
         options.switch_improvement_factor <= 1.0);
}

QuorumConfig AdaptiveConfigController::Update(
    const ReplicaLatencyModelPtr& model) {
  ++epoch_;

  // One backend resolution per epoch (the model may change between
  // epochs): kAnalytic/kAuto build one scenario grid shared by the whole
  // lattice, and kAuto spot-checks it on the incumbent.
  const uint64_t base_seed = options_.seed + epoch_ * 1000003ULL;
  PredictorOptions predictor;
  predictor.trials = options_.trials_per_eval;
  predictor.seed = base_seed;
  predictor.collect_propagation = false;
  predictor.exec = options_.exec;
  predictor.backend = options_.backend;
  predictor.grid = options_.grid;
  predictor.validation = options_.validation;
  auto resolved = ResolvePredictorBackend(current_, model, predictor);
  assert(resolved.ok() && "invalid model or AdaptiveControllerOptions");
  const ResolvedBackend backend =
      resolved.ok() ? std::move(resolved.value()) : ResolvedBackend{};
  last_backend_ = backend.kind;

  const auto score = [&](const QuorumConfig& config, uint64_t seed) {
    predictor.seed = seed;
    auto scored = ScoreCandidate(config, model, predictor, backend,
                                 options_.sla, options_.objective);
    assert(scored.ok());
    return scored.value();
  };

  // Score the incumbent and every challenger under the current model.
  const SlaCandidate incumbent = score(current_, base_seed);
  SlaCandidate best = incumbent;
  uint64_t salt = 1;
  for (int r = 1; r <= current_.n; ++r) {
    for (int w = 1; w <= current_.n; ++w) {
      const QuorumConfig candidate{current_.n, r, w};
      if (candidate == current_) continue;
      const SlaCandidate scored = score(candidate, base_seed + salt++);
      const bool better = (scored.feasible && !best.feasible) ||
                          (scored.feasible == best.feasible &&
                           scored.objective < best.objective);
      if (better) best = scored;
    }
  }

  // Hysteresis: keep a feasible incumbent unless the challenger is a clear
  // win; always leave an infeasible incumbent for the best feasible option.
  bool switch_now = false;
  if (!incumbent.feasible && best.feasible) {
    switch_now = true;
  } else if (best.feasible == incumbent.feasible &&
             best.objective <
                 options_.switch_improvement_factor * incumbent.objective) {
    switch_now = true;
  }

  const SlaCandidate& chosen = switch_now ? best : incumbent;
  Decision decision;
  decision.switched = !(chosen.config == current_);
  current_ = chosen.config;
  decision.chosen = current_;
  decision.objective_ms = chosen.objective;
  decision.t_visibility_ms = chosen.t_visibility_ms;
  decision.feasible = chosen.feasible;
  history_.push_back(decision);
  return current_;
}

}  // namespace pbs
