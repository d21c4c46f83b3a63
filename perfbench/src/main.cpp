// idnscope_perfbench: the repository benchmark.
//
//   idnscope_perfbench --workload census|serve_churn --seed N
//                      --seconds S --trace 0|1 [--scratch DIR]
//                      [--inject-invalid-day D]
//
// Runs one workload from generated inputs, measures for S seconds, checks
// the program's outputs, and prints as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
// the end-to-end metrics; --trace 1 makes a separate traced run that
// reports the per-layer metrics.  BENCHMARK.json lists both sets; README.md
// says what each per-layer metric is predicted to move.  Diagnostics go to
// stderr.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

using perfbench::MetricSpec;

// Worker threads of every parallel stage and of the query engine: fixed,
// the same for every workload, and at most the core count of the reference
// machine (4).
constexpr unsigned kThreads = 4;
constexpr std::uint64_t kDefaultSeed = 20170921;  // the paper's seed

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"items_per_s", "1/s"},
    {"answer_p50_ms", "ms"},
    {"answer_p99_ms", "ms"},
    {"update_p50_ms", "ms"},
};

// A workload that does not exercise a layer reports 0 for its metrics.
const std::vector<MetricSpec> kPerLayer = {
    // census -> answer_*, items_per_s, update_p50_ms (ingest)
    {"core.study.ingest_ms", "ms"},
    {"dns.zone_scan.mb_per_s", "MB/s"},
    {"core.registration_study.joins_ms", "ms"},
    {"core.study.join.records", "count"},
    {"core.study.join.spill_runs", "count"},
    {"core.dns_study.hosting_ms", "ms"},
    {"core.skeleton_index.build_ms", "ms"},
    {"core.homograph.detector_build_ms", "ms"},
    {"core.homograph.scan_ms", "ms"},
    {"core.homograph.ssim_per_domain", "ratio"},
    {"core.semantic.scan_ms", "ms"},
    {"core.availability.sweep_ms", "ms"},
    {"core.availability.ssim_evaluations", "count"},
    {"core.availability.homographic_ratio", "ratio"},
    {"core.delta.zero_counters", "count"},
    // census -> peak_rss_mb
    {"runtime.domain_table.bytes", "bytes"},
    // every workload -> setup_s
    {"ecosystem.generate_s", "s"},
    {"dns.write_zones_s", "s"},
    {"serve.snapshot.build_ms", "ms"},
    // serve_churn -> answer_*, items_per_s
    {"serve.engine.batch_p50_ms", "ms"},
    {"serve.engine.batch_p99_ms", "ms"},
    {"serve.engine.pending_wait_p50_us", "us"},
    {"serve.engine.hit_ratio", "ratio"},
    // serve_churn -> update_p50_ms (publish)
    {"serve.publish_p90_ms", "ms"},
    {"core.study.clone_ms", "ms"},
    {"core.study.apply_delta_ms", "ms"},
    {"serve.snapshot.advance_ms", "ms"},
    {"core.delta.redetected", "count"},
    {"core.delta.index_additions", "count"},
    // serve_churn, input preparation excluded from update_p50_ms
    {"ecosystem.apply_delta_ms", "ms"},
    // serve_churn -> items_per_s, answer_p99_ms (serial probes)
    {"serve.snapshot.classify_lookalike_p50_us", "us"},
    {"serve.snapshot.classify_lookalike_p99_us", "us"},
    {"serve.snapshot.classify_nod_p50_us", "us"},
    {"serve.snapshot.classify_nod_p99_us", "us"},
    {"serve.snapshot.classify_repeat_p50_us", "us"},
    {"serve.snapshot.classify_repeat_p99_us", "us"},
    {"core.homograph.best_match_lookalike_p50_us", "us"},
    {"core.homograph.best_match_lookalike_p99_us", "us"},
    {"core.homograph.best_match_nod_p50_us", "us"},
    {"core.homograph.best_match_nod_p99_us", "us"},
    {"core.homograph.best_match_repeat_p50_us", "us"},
    {"core.homograph.best_match_repeat_p99_us", "us"},
    {"idna.domain_to_ascii_p50_us", "us"},
    {"core.homograph.prefilter_checks_per_miss", "ratio"},
    {"core.homograph.ssim_per_miss", "ratio"},
    // every workload: traced minus untraced, over the untraced figure
    {"bench.trace_overhead_pct", "%"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: idnscope_perfbench --workload "
               "census|serve_churn [--seed N] [--seconds S] "
               "[--trace 0|1] [--scratch DIR] [--inject-invalid-day D]\n",
               why);
  return 2;
}

bool parse_u64(std::string_view text, std::uint64_t* out) {
  if (text.empty() || text.size() > 19) {
    return false;
  }
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config config;
  config.seed = kDefaultSeed;
  config.seconds = 10;
  config.threads = kThreads;
  config.scratch = ".bench_build/scratch";
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      return usage("flag without a value");
    }
    const std::string_view value = argv[i + 1];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &number)) {
        return usage("--seed takes a whole number");
      }
      config.seed = number;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, &number) || number == 0 || number > 3600) {
        return usage("--seconds takes a whole number from 1 to 3600");
      }
      config.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return usage("--trace takes 0 or 1");
      }
      config.trace = value == "1";
    } else if (flag == "--scratch") {
      config.scratch = value;
    } else if (flag == "--inject-invalid-day") {
      if (!parse_u64(value, &number) || number > 100000) {
        return usage("--inject-invalid-day takes a day number");
      }
      config.inject_invalid_day = static_cast<std::uint32_t>(number);
    } else {
      return usage("unknown flag");
    }
  }
  void (*run)(const perfbench::Config&, perfbench::Tracer&,
              perfbench::Outcome&) = nullptr;
  if (config.workload == "census") {
    run = perfbench::run_census;
  } else if (config.workload == "serve_churn") {
    run = perfbench::run_serve_churn;
  } else {
    return usage("unknown --workload");
  }
  std::error_code error;
  std::filesystem::create_directories(config.scratch, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s: %s\n", config.scratch.c_str(),
                 error.message().c_str());
    return 1;
  }
  std::fprintf(stderr, "workload=%s seed=%llu seconds=%.0f trace=%d threads=%u\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed), config.seconds,
               config.trace ? 1 : 0, config.threads);

  perfbench::Tracer tracer(config.trace);
  perfbench::Outcome outcome;
  try {
    run(config, tracer, outcome);
  } catch (const std::exception& e) {
    outcome.fail_check(std::string("workload threw: ") + e.what());
  }
  const std::vector<MetricSpec>& specs = config.trace ? kPerLayer : kEndToEnd;
  if (config.trace) {
    tracer.write(config.scratch + "/spans_" + config.workload + ".jsonl");
  } else {
    // Every end-to-end metric is measured on every workload; a missing one
    // is a benchmark bug, so the run is marked incorrect.
    for (const MetricSpec& spec : specs) {
      if (outcome.values().count(spec.name) == 0) {
        outcome.fail_check(std::string("metric not measured: ") + spec.name);
      }
    }
  }
  if (outcome.attempted() == 0) {
    outcome.fail_check("no operation was attempted");
  }
  // A printed result is a completed run; `correct` carries the verdict.
  std::printf("%s\n", outcome.json(specs).c_str());
  return 0;
}
