// The benchmark binary. Normally started by pbsbench/run.py, which builds
// it, runs the set-up probes and adds host provenance:
//
//   pbsbench --workload sec52|predict|chaos-control
//            [--seed N] [--seconds S] [--trace 0|1] [--setup-only]
//            [--spawn-ns NS] [--tiny]
//
// Prints human-readable progress, with --trace 1 the recorded spans
// ({"pbsbench_trace": ...}), then one JSON report line
// ({"pbsbench_report": ...}: inputs, digests, build provenance, set-up
// time) and, last, the result line
// {"correct", "attempted", "failed", "metrics"}. Exit code 0 when the run
// completed (even if an output check failed: that is reported, not
// hidden), 2 on bad arguments.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "obs/json.h"

namespace pbsbench {
namespace {

#ifndef PBSBENCH_COMPILER
#define PBSBENCH_COMPILER "unknown"
#endif
#ifndef PBSBENCH_BUILD_TYPE
#define PBSBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PBSBENCH_FLAGS
#define PBSBENCH_FLAGS ""
#endif
#ifndef PBSBENCH_KERNELS
#define PBSBENCH_KERNELS "unknown"
#endif

using pbs::obs::JsonString;

// Every digit of the measurement (obs::JsonNumber rounds to 10).
std::string JsonNumber(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

// Default seeds are the shipped harnesses' own: bench/sec52_validation's
// 520, bench/pcap's 20240, and PredictorOptions' 42.
uint64_t DefaultSeed(const std::string& workload) {
  if (workload == "sec52") return 520;
  if (workload == "chaos-control") return 20240;
  return 42;
}

int Usage() {
  std::fprintf(stderr,
               "usage: pbsbench --workload "
               "sec52|predict|chaos-control [--seed N] "
               "[--seconds S] [--trace 0|1] [--setup-only] [--spawn-ns NS] "
               "[--tiny]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunContext ctx;
  ctx.spawn_ns = NowNs();  // replaced by --spawn-ns when the parent gives it
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--setup-only") {
      ctx.setup_only = true;
    } else if (arg == "--tiny") {
      ctx.tiny = true;
    } else if ((arg == "--workload" || arg == "--seed" || arg == "--seconds" ||
                arg == "--trace" || arg == "--spawn-ns") &&
               (v = value()) != nullptr) {
      char* end = nullptr;
      if (arg == "--workload") {
        ctx.workload = v;
        continue;
      }
      if (arg == "--seconds") {
        ctx.seconds = std::strtod(v, &end);
      } else {
        const long long parsed = std::strtoll(v, &end, 10);
        if (arg == "--seed") {
          ctx.seed = static_cast<uint64_t>(parsed);
          have_seed = true;
        } else if (arg == "--trace") {
          ctx.trace = parsed != 0;
        } else {
          ctx.spawn_ns = parsed;
        }
      }
      if (end == v || *end != '\0') return Usage();
    } else {
      return Usage();
    }
  }
  if (!have_seed) ctx.seed = DefaultSeed(ctx.workload);
  // The thread cap is nproc.
  ctx.threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  if (!(ctx.seconds > 0.0)) return Usage();

  if (ctx.workload == "sec52") {
    RunSec52(&ctx);
  } else if (ctx.workload == "predict") {
    RunPredict(&ctx);
  } else if (ctx.workload == "chaos-control") {
    RunChaosControl(&ctx);
  } else {
    return Usage();
  }

  if (!ctx.trace && !ctx.setup_only) {
    ctx.AddMetric("setup_s", ctx.setup_s, "s");
    ctx.Check(ctx.peak_rss_mb > 0.0, "peak RSS recorded after the timed loop");
    ctx.AddMetric("peak_rss_mb", ctx.peak_rss_mb, "MB");
  }
  for (const RunContext::Metric& m : ctx.metrics) {
    ctx.Check(std::isfinite(m.value), "metric " + m.name + " is finite");
  }

  std::string report = "{\"pbsbench_report\": {\"workload\": " +
                       JsonString(ctx.workload) +
                       ", \"seed\": " + std::to_string(ctx.seed) +
                       ", \"seconds\": " + JsonNumber(ctx.seconds) +
                       ", \"trace\": " + (ctx.trace ? "1" : "0") +
                       ", \"tiny\": " + (ctx.tiny ? "true" : "false") +
                       ", \"thread_cap\": " + std::to_string(ctx.threads) +
                       ", \"setup_s\": " + JsonNumber(ctx.setup_s);
  report += ", \"build\": {\"compiler\": " + JsonString(PBSBENCH_COMPILER) +
            ", \"build_type\": " + JsonString(PBSBENCH_BUILD_TYPE) +
            ", \"flags\": " + JsonString(PBSBENCH_FLAGS) +
            ", \"kernels\": " + JsonString(PBSBENCH_KERNELS) + "}";
  const auto object = [](const auto& pairs) {
    std::string out = "{";
    for (size_t i = 0; i < pairs.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonString(pairs[i].first) + ": " + JsonString(pairs[i].second);
    }
    return out + "}";
  };
  report += ", \"inputs\": " + object(ctx.inputs);
  report += ", \"digests\": " + object(ctx.digests) + "}}";
  if (!ctx.trace_json.empty()) {
    std::printf("{\"pbsbench_trace\": %s}\n", ctx.trace_json.c_str());
  }
  std::printf("%s\n", report.c_str());

  std::string result = std::string("{\"correct\": ") +
                       (ctx.correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(ctx.attempted) +
                       ", \"failed\": " + std::to_string(ctx.failed) +
                       ", \"metrics\": {";
  for (size_t i = 0; i < ctx.metrics.size(); ++i) {
    const RunContext::Metric& m = ctx.metrics[i];
    if (i > 0) result += ", ";
    result += JsonString(m.name) + ": {\"value\": " +
              JsonNumber(std::isfinite(m.value) ? m.value : 0.0) +
              ", \"unit\": " + JsonString(m.unit) + "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace pbsbench

int main(int argc, char** argv) { return pbsbench::Main(argc, argv); }
