// Shared plumbing of the end-to-end benchmark: the run context every
// workload fills (metrics, checks, digests, input sizes), host clocks, and
// the small statistics helpers the workloads report with.
//
// Vocabulary used throughout: *host* time is what running the simulator or
// predictor costs on this machine; *simulated* time is what the modelled
// cluster would take. Only host times are speed metrics; simulated
// statistics are output checks.

#ifndef PBSBENCH_SRC_BENCH_H_
#define PBSBENCH_SRC_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/parallel.h"

namespace pbsbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Type-7 quantile (linear interpolation between order statistics) of an
/// unsorted sample; NaN when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// FNV-1a over 64-bit words: the digests every workload prints so two runs
/// (traced and untraced, or two machines) can be compared bitwise.
class Fnv {
 public:
  void Add(uint64_t word) {
    for (int bit = 0; bit < 64; bit += 8) {
      hash_ ^= (word >> bit) & 0xFF;
      hash_ *= 1099511628211ULL;
    }
  }
  void AddDouble(double value);
  uint64_t value() const { return hash_; }
  std::string Hex() const;

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

/// FNV-1a over bytes (the library's telemetry-digest convention).
uint64_t FnvBytes(const std::string& bytes);
std::string Hex(uint64_t value);

/// Peak resident set of this process so far, in MB.
double PeakRssMb();

/// Everything one benchmark process is asked to do and everything it
/// reports back. Workloads read the request fields and call the reporting
/// methods; main() serializes the result as the final JSON line.
struct RunContext {
  // --- request ---
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;       // per-layer attribution run instead of timing
  bool setup_only = false;  // stop at the first timed call (set-up probe)
  bool tiny = false;        // self-test sizes
  int64_t spawn_ns = 0;     // CLOCK_MONOTONIC at spawn, 0 = process start
  int threads = 0;          // thread cap: nproc, resolved in main()

  pbs::PbsExecutionOptions Exec() const {
    pbs::PbsExecutionOptions exec;
    exec.threads = threads;
    return exec;
  }

  // --- result ---
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  double setup_s = -1.0;
  double peak_rss_mb = -1.0;  // see TimedLoopDone()
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> digests;
  std::vector<std::pair<std::string, std::string>> inputs;
  std::string trace_json;  // SpanLog::Json() of the attribution run

  /// Marks the end of set-up (process start to the first timed call).
  /// Returns true when the run should stop here (--setup-only).
  bool SetupDone();
  /// Marks the end of the timed loop: peak_rss_mb is the high-water mark
  /// up to here, before any output check builds its reference predictors.
  void TimedLoopDone() { peak_rss_mb = PeakRssMb(); }

  void AddMetric(const std::string& name, double value,
                 const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void AddInput(const std::string& name, const std::string& value) {
    inputs.emplace_back(name, value);
  }
  void AddInput(const std::string& name, double value);
  void AddDigest(const std::string& name, const std::string& value) {
    digests.emplace_back(name, value);
  }

  /// One public call into the library: counted as attempted, and as failed
  /// when it returned an error or a non-finite answer.
  void Call(bool ok, const std::string& what);
  /// One output check: counted as attempted; a failure also invalidates the
  /// run (correct = false).
  void Check(bool ok, const std::string& what);
};

/// The three jobs. Each runs either the timed loop (end-to-end metrics) or,
/// with ctx->trace, the attribution run (per-layer metrics).
void RunSec52(RunContext* ctx);
void RunPredict(RunContext* ctx);
void RunChaosControl(RunContext* ctx);

}  // namespace pbsbench

#endif  // PBSBENCH_SRC_BENCH_H_
