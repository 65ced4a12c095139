// Tracing for the attribution run, recorded from the benchmark's own files
// around calls into the library's public functions (no in-library
// instrumentation).
//
//  - Coarse spans (one per experiment, predictor build, RunUntil...) are
//    kept in memory with name, start, end and parent until the run ends.
//  - Per-message spans (leg samples, op issues) are aggregated per name
//    into count, total and self time, so a traced run stays bounded.
//  - Spans nest through a per-thread stack; a span's self time is its
//    duration minus the time its direct children cover. Only the thread
//    that opened the SpanLog records; others see a no-op.
//
// Nothing here draws from any Rng, so a traced run replays the untraced
// run's simulated outcomes bitwise (the benchmark checks this).

#ifndef PBSBENCH_SRC_TRACE_H_
#define PBSBENCH_SRC_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dist/distribution.h"
#include "dist/production.h"

namespace pbsbench {

class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;  // index into spans(), -1 for a root
  };
  struct Aggregate {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  /// Installs this log as the calling thread's active log.
  SpanLog();
  ~SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  static SpanLog* Active();

  /// `keep`: store the span itself (coarse spans); otherwise only its
  /// aggregate is updated (per-message spans).
  void Begin(const char* name, bool keep);
  void End();

  const std::vector<Span>& spans() const { return spans_; }
  const std::map<std::string, Aggregate>& aggregates() const {
    return aggregates_;
  }
  Aggregate Get(const std::string& name) const;

  /// The kept spans and the per-name aggregates as one JSON object,
  /// written out when the run ends.
  std::string Json() const;

 private:
  struct Frame {
    const char* name;
    int64_t start_ns;
    int64_t child_ns;
    int64_t span_index;  // -1 when not kept
    Aggregate* aggregate;
  };
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  std::map<std::string, Aggregate> aggregates_;
  std::map<const char*, Aggregate*> by_pointer_;
};

/// RAII span; a no-op when no SpanLog is active on this thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, bool keep = true)
      : log_(SpanLog::Active()) {
    if (log_ != nullptr) log_->Begin(name, keep);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

/// Delegating Distribution decorator: every scalar Sample() is an
/// aggregated "dist.sample" span. Delegation is exact — same draws, same
/// values — so simulated outcomes do not change.
class TimedDistribution final : public pbs::Distribution {
 public:
  explicit TimedDistribution(pbs::DistributionPtr inner)
      : inner_(std::move(inner)) {}
  double Sample(pbs::Rng& rng) const override;
  void SampleBatch(pbs::Rng& rng, std::span<double> out) const override {
    inner_->SampleBatch(rng, out);
  }
  double Cdf(double x) const override { return inner_->Cdf(x); }
  double Quantile(double p) const override { return inner_->Quantile(p); }
  double Mean() const override { return inner_->Mean(); }
  std::string Describe() const override { return inner_->Describe(); }

 private:
  pbs::DistributionPtr inner_;
};

/// The four legs, each wrapped in a TimedDistribution.
pbs::WarsDistributions TimedLegs(const pbs::WarsDistributions& legs);

/// Allocation counters from the counting operator new. Only the traced
/// build links it; the end-to-end build reads 0.
int64_t AllocCount();
int64_t AllocBytes();

}  // namespace pbsbench

#endif  // PBSBENCH_SRC_TRACE_H_
