// Shared pieces of the benchmark program: run configuration, timing,
// percentiles, the result record printed as the last stdout line, and the
// in-memory span recorder of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "idnscope/obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double ms_since(Clock::time_point from) {
  return ms_between(from, Clock::now());
}

// What the command line asked for.  `threads` is the benchmark's fixed
// worker count (kThreads in main.cpp), the same for every workload;
// `scratch` is a directory the run may write into (zone files, span dumps).
// `inject_invalid_day` (serve_churn, 0 = off) corrupts that day's delta to
// exercise the failure accounting; the benchmark command never sets it.
struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  unsigned threads = 0;
  std::string scratch;
  std::uint32_t inject_invalid_day = 0;
};

// One declared metric: its name and unit, as listed in BENCHMARK.json.
struct MetricSpec {
  const char* name;
  const char* unit;
};

// Everything a workload reports.  Failures are counted, never hidden; each
// reason is logged to stderr.
class Outcome {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  // `n` operations that did not complete (counted in `failed`).
  void fail_op(std::string_view why, std::uint64_t n = 1);
  // An output that fails a correctness check: the run is not correct.
  void fail_check(std::string_view why);
  // Both: `n` operations whose output is wrong.
  void fail_op_check(std::string_view why, std::uint64_t n = 1);

  // Records a measured value under its declared name (last write wins).
  void set(const std::string& name, double value) { values_[name] = value; }
  const std::map<std::string, double>& values() const { return values_; }

  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  // {"correct":..,"attempted":..,"failed":..,"metrics":{..}} over `specs`,
  // in their order.  A declared metric the workload did not set is written
  // as 0: the workload does not exercise that layer.
  std::string json(const std::vector<MetricSpec>& specs) const;

 private:
  void log(std::string_view why);

  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t logged_ = 0;
  std::map<std::string, double> values_;
};

// Exact percentile of a sample by linear interpolation between closest
// ranks (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> sample, double q);
inline double median(std::vector<double> sample) {
  return percentile(std::move(sample), 0.5);
}

// Process peak resident set size in MiB.
double peak_rss_mb();

// Counter/gauge values of the process-wide obs registry.
std::uint64_t counter(const idnscope::obs::Snapshot& snapshot,
                      std::string_view name);
std::int64_t gauge(const idnscope::obs::Snapshot& snapshot,
                   std::string_view name);
// Counter growth between two registry snapshots (one timed phase).
std::uint64_t counter_delta(const idnscope::obs::Snapshot& before,
                            const idnscope::obs::Snapshot& after,
                            std::string_view name);

// FNV-1a, the checksum the repository's benches use for output digests.
inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes);
std::uint64_t fnv1a_u64(std::uint64_t hash, std::uint64_t value);

// The traced run's span recorder.  Spans are kept in memory (bounded; the
// overflow is counted) and written out once, at the end of the run.  Each
// span has a name, start, end, parent and a batch id shared by the spans
// of one query batch (0 outside serving).  Recording is serial: every
// instrumented call is made from the benchmark's single driving thread.
class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = 1u << 21;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  // While inactive no span is recorded: a traced run alternates active and
  // inactive phases to measure the tracing overhead in one process.  Only
  // toggle while no span is open.
  void set_active(bool active) { active_ = active; }
  bool active() const { return enabled_ && active_; }

  // Opens a span under the innermost open one; returns its index, -1 when
  // the span table is full, or kNotRecorded when not active.
  static constexpr std::int64_t kNotRecorded = -2;
  std::int64_t open(const char* name, std::uint64_t batch = 0);
  void close(std::int64_t index);

  struct Totals {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  // Per span name: calls, total time, and self time (span time minus the
  // time its direct children cover).
  std::map<std::string, Totals> totals() const;

  // Writes the span table to stderr and every span as JSON lines to `path`.
  void write(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t parent;
    std::uint64_t batch;
  };
  bool enabled_;
  bool active_ = true;
  std::vector<Record> spans_;
  std::vector<std::int64_t> stack_;
  std::uint64_t dropped_ = 0;
};

// RAII span; no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t batch = 0)
      : tracer_(tracer), index_(tracer.open(name, batch)) {}
  ~Span() { tracer_.close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t index_;
};

}  // namespace perfbench
