#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "obs/json.h"
#include "trace.h"
#include "util/stats.h"

#ifdef PBSBENCH_ALLOC_HOOK
#include "util/alloc_hook.h"
#endif

namespace pbsbench {

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return pbs::QuantileSorted(values, q);
}

void Fnv::AddDouble(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  Add(bits);
}

std::string Hex(uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof buffer, "%016" PRIx64, value);
  return buffer;
}

std::string Fnv::Hex() const { return pbsbench::Hex(hash_); }

uint64_t FnvBytes(const std::string& bytes) {
  uint64_t hash = 14695981039346656037ULL;
  for (const char ch : bytes) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 1099511628211ULL;
  }
  return hash;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool RunContext::SetupDone() {
  if (setup_s < 0.0) {
    const int64_t now = NowNs();
    setup_s = static_cast<double>(now - spawn_ns) * 1e-9;
  }
  return setup_only;
}

void RunContext::AddInput(const std::string& name, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  inputs.emplace_back(name, buffer);
}

void RunContext::Call(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::printf("CALL FAILED: %s\n", what.c_str());
  }
}

void RunContext::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    correct = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

// --- tracing ---------------------------------------------------------------

namespace {
thread_local SpanLog* t_active = nullptr;
}  // namespace

SpanLog::SpanLog() {
  stack_.reserve(64);
  t_active = this;
}

SpanLog::~SpanLog() {
  if (t_active == this) t_active = nullptr;
}

SpanLog* SpanLog::Active() { return t_active; }

void SpanLog::Begin(const char* name, bool keep) {
  Aggregate*& aggregate = by_pointer_[name];
  if (aggregate == nullptr) aggregate = &aggregates_[name];
  int64_t index = -1;
  if (keep) {
    index = static_cast<int64_t>(spans_.size());
    const int64_t parent = stack_.empty() ? -1 : stack_.back().span_index;
    spans_.push_back({name, 0, 0, parent});
  }
  stack_.push_back({name, NowNs(), 0, index, aggregate});
}

void SpanLog::End() {
  const int64_t end = NowNs();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const int64_t duration = end - frame.start_ns;
  frame.aggregate->count += 1;
  frame.aggregate->total_ns += duration;
  frame.aggregate->self_ns += duration - frame.child_ns;
  if (frame.span_index >= 0) {
    spans_[frame.span_index].start_ns = frame.start_ns;
    spans_[frame.span_index].end_ns = end;
  }
  if (!stack_.empty()) stack_.back().child_ns += duration;
}

SpanLog::Aggregate SpanLog::Get(const std::string& name) const {
  const auto it = aggregates_.find(name);
  return it == aggregates_.end() ? Aggregate{} : it->second;
}

std::string SpanLog::Json() const {
  std::string out = "{\"aggregates\": {";
  bool first = true;
  for (const auto& [name, a] : aggregates_) {
    if (!first) out += ", ";
    first = false;
    out += pbs::obs::JsonString(name) +
           ": {\"count\": " + std::to_string(a.count) +
           ", \"total_ns\": " + std::to_string(a.total_ns) +
           ", \"self_ns\": " + std::to_string(a.self_ns) + "}";
  }
  out += "}, \"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ", ";
    out += "[" + pbs::obs::JsonString(s.name) + ", " +
           std::to_string(s.start_ns) + ", " + std::to_string(s.end_ns) +
           ", " + std::to_string(s.parent) + "]";
  }
  return out + "]}";
}

double TimedDistribution::Sample(pbs::Rng& rng) const {
  ScopedSpan span("dist.sample", /*keep=*/false);
  return inner_->Sample(rng);
}

pbs::WarsDistributions TimedLegs(const pbs::WarsDistributions& legs) {
  pbs::WarsDistributions timed = legs;
  timed.w = std::make_shared<TimedDistribution>(legs.w);
  timed.a = std::make_shared<TimedDistribution>(legs.a);
  timed.r = std::make_shared<TimedDistribution>(legs.r);
  timed.s = std::make_shared<TimedDistribution>(legs.s);
  return timed;
}

#ifdef PBSBENCH_ALLOC_HOOK
int64_t AllocCount() { return pbs::alloc_hook::AllocationCount(); }
int64_t AllocBytes() { return pbs::alloc_hook::AllocatedBytes(); }
#else
int64_t AllocCount() { return 0; }
int64_t AllocBytes() { return 0; }
#endif

}  // namespace pbsbench
