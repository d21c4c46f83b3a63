#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include <sys/resource.h>

namespace perfbench {

void Outcome::log(std::string_view why) {
  // The first few reasons are enough to diagnose; the counts say the rest.
  if (++logged_ <= 20) {
    std::fprintf(stderr, "FAILED: %.*s\n", static_cast<int>(why.size()),
                 why.data());
  }
}

void Outcome::fail_op(std::string_view why, std::uint64_t n) {
  failed_ += n;
  log(why);
}

void Outcome::fail_check(std::string_view why) {
  correct_ = false;
  log(why);
}

void Outcome::fail_op_check(std::string_view why, std::uint64_t n) {
  failed_ += n;
  fail_check(why);
}

std::string Outcome::json(const std::vector<MetricSpec>& specs) const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = values_.find(specs[i].name);
    double v = it == values_.end() ? 0.0 : it->second;
    // Non-finite values (never expected) are written as 0 so the line stays
    // valid JSON; %.17g keeps every digit of the measured double.
    v = std::isfinite(v) ? v : 0.0;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", v);
    out += i == 0 ? "" : ", ";
    out += std::string("\"") + specs[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double percentile(std::vector<double> sample, double q) {
  if (sample.empty()) {
    return 0.0;
  }
  std::sort(sample.begin(), sample.end());
  const double rank = q * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sample[lo] + (sample[hi] - sample[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t counter(const idnscope::obs::Snapshot& snapshot,
                      std::string_view name) {
  const auto it = snapshot.counters.find(std::string(name));
  return it == snapshot.counters.end() ? 0 : it->second;
}

std::int64_t gauge(const idnscope::obs::Snapshot& snapshot,
                   std::string_view name) {
  const auto it = snapshot.gauges.find(std::string(name));
  return it == snapshot.gauges.end() ? 0 : it->second;
}

std::uint64_t counter_delta(const idnscope::obs::Snapshot& before,
                            const idnscope::obs::Snapshot& after,
                            std::string_view name) {
  return counter(after, name) - counter(before, name);
}

std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t fnv1a_u64(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFF;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::int64_t Tracer::open(const char* name, std::uint64_t batch) {
  if (!active()) {
    return kNotRecorded;
  }
  const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    stack_.push_back(-1);
    return -1;
  }
  const auto index = static_cast<std::int64_t>(spans_.size());
  const Clock::time_point now = Clock::now();
  spans_.push_back(Record{name, now, now, parent, batch});
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int64_t index) {
  if (index == kNotRecorded) {
    return;
  }
  if (index >= 0) {
    spans_[static_cast<std::size_t>(index)].end = Clock::now();
  }
  stack_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Record& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<std::size_t>(span.parent)] +=
          ms_between(span.start, span.end);
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double ms = ms_between(spans_[i].start, spans_[i].end);
    Totals& totals = out[spans_[i].name];
    ++totals.count;
    totals.total_ms += ms;
    totals.self_ms += ms - child_ms[i];
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::fprintf(stderr, "%-44s %10s %12s %12s\n", "span", "count", "total_ms",
               "self_ms");
  for (const auto& [name, totals] : this->totals()) {
    std::fprintf(stderr, "%-44s %10llu %12.3f %12.3f\n", name.c_str(),
                 static_cast<unsigned long long>(totals.count),
                 totals.total_ms, totals.self_ms);
  }
  std::fprintf(stderr, "spans recorded=%zu dropped=%llu\n", spans_.size(),
               static_cast<unsigned long long>(dropped_));
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write span file %s\n", path.c_str());
    return;
  }
  const Clock::time_point epoch =
      spans_.empty() ? Clock::now() : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& span = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%lld,\"batch\":%llu}\n",
                 i, span.name, ms_between(epoch, span.start) * 1000.0,
                 ms_between(epoch, span.end) * 1000.0,
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.batch));
  }
  std::fclose(out);
}

}  // namespace perfbench
