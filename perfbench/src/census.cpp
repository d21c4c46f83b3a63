// census: the paper's batch job.  Set-up generates the scale-10 world and
// writes its zone files; each timed pass goes from zone files on disk to
// every table and detector report (Sections III-VII), one stage call per
// operation.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "idnscope/core/availability.h"
#include "idnscope/core/dns_study.h"
#include "idnscope/core/homograph.h"
#include "idnscope/core/registration_study.h"
#include "idnscope/core/semantic.h"
#include "idnscope/core/skeleton_index.h"
#include "idnscope/core/study.h"
#include "idnscope/dns/zone_io.h"
#include "idnscope/ecosystem/brands.h"
#include "idnscope/ecosystem/ecosystem.h"
#include "idnscope/obs/provenance.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace idnscope;

constexpr unsigned kBulkScale = 10;
constexpr unsigned kAbuseScale = 10;
constexpr std::size_t kTopN = 20;
constexpr std::size_t kSweepBrands = 100;

// The stages of one pass, in call order.  Span names are the layer metric
// names without their unit suffix.
enum Stage : std::size_t {
  kIngest,
  kRegistrants,
  kOpportunistic,
  kRegistrars,
  kHosting,
  kSkeletonIndex,
  kDetectorBuild,
  kHomographScan,
  kSemanticScan,
  kAvailability,
  kStages,
};

constexpr const char* kStageSpan[kStages] = {
    "core.study.ingest",
    "core.registration_study.registrants",
    "core.registration_study.opportunistic",
    "core.registration_study.registrars",
    "core.dns_study.hosting",
    "core.skeleton_index.build",
    "core.homograph.detector_build",
    "core.homograph.scan",
    "core.semantic.scan",
    "core.availability.sweep",
};

// core.delta.* counters: a census never applies a delta, so each of these
// is zero on purpose here (the churn workload is where they move).
constexpr const char* kDeltaCounters[] = {
    "core.delta.applied",       "core.delta.records",
    "core.delta.registrations", "core.delta.expiries",
    "core.delta.blacklist_on",  "core.delta.blacklist_off",
    "core.delta.redetected",    "core.delta.index_additions",
};

std::uint64_t mix_double(std::uint64_t hash, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return fnv1a_u64(hash, bits);
}

// Every table and report of one pass.
struct PassResult {
  std::optional<core::Study> study;
  std::vector<core::RegistrantPortfolio> registrants;
  std::uint64_t opportunistic = 0;
  core::RegistrarStats registrars;
  core::HostingConcentration hosting;
  std::size_t index_keys = 0;
  std::size_t index_bytes = 0;
  std::optional<core::HomographDetector> detector;
  core::HomographReport homographs;
  core::SemanticReport semantics;
  core::AvailabilityReport availability;
  double stage_ms[kStages] = {};
  double pass_ms = 0.0;
  std::uint64_t failed = 0;
};

// What a timed pass leaves behind once its outputs are digested.
struct PassTiming {
  double stage_ms[kStages] = {};
  double pass_ms = 0.0;
  std::uint64_t slds = 0;  // registered SLDs the pass censused
};

std::uint64_t digest(const PassResult& r) {
  std::uint64_t h = kFnvBasis;
  for (const core::TldGroup& g : r.study->tld_groups()) {
    h = fnv1a(h, g.name);
    for (const std::uint64_t v :
         {g.sld_count, g.idn_count, g.whois_count, g.blacklist_virustotal,
          g.blacklist_360, g.blacklist_baidu, g.blacklist_total}) {
      h = fnv1a_u64(h, v);
    }
  }
  for (const auto& p : r.registrants) {
    h = fnv1a(h, p.email);
    h = fnv1a_u64(h, p.idn_count);
    for (const std::string& s : p.sample) {
      h = fnv1a(h, s);
    }
  }
  h = fnv1a_u64(h, r.opportunistic);
  for (const auto& s : r.registrars.top) {
    h = fnv1a(h, s.name);
    h = fnv1a_u64(h, s.idn_count);
    h = mix_double(h, s.rate);
  }
  h = fnv1a_u64(h, r.registrars.distinct_registrars);
  h = mix_double(h, r.registrars.top10_share);
  h = mix_double(h, r.registrars.top20_share);
  h = fnv1a_u64(h, r.hosting.distinct_ips);
  h = fnv1a_u64(h, r.hosting.distinct_segments);
  for (std::size_t i = 0; i < r.hosting.segment_sizes.size(); ++i) {
    h = fnv1a_u64(h, r.hosting.segment_sizes[i]);
    h = fnv1a_u64(h, r.hosting.segment_ids[i]);
  }
  h = fnv1a_u64(h, r.index_keys);
  h = fnv1a_u64(h, r.index_bytes);
  const core::HomographReport& hr = r.homographs;
  for (const core::HomographMatch& m : hr.matches) {
    h = fnv1a(h, m.domain);
    h = fnv1a(h, m.brand);
    h = fnv1a(h, m.rule);
    h = mix_double(h, m.ssim);
    h = fnv1a_u64(h, m.identical ? 1 : 0);
  }
  for (const std::uint64_t v :
       {hr.identical_count, hr.blacklisted_count, hr.whois_covered,
        hr.protective, hr.personal_email, hr.brands_targeted}) {
    h = fnv1a_u64(h, v);
  }
  for (const auto& b : hr.top_brands) {
    h = fnv1a(h, b.brand);
    h = fnv1a_u64(h, static_cast<std::uint64_t>(b.alexa_rank));
    h = fnv1a_u64(h, b.idn_count);
    h = fnv1a_u64(h, b.protective);
  }
  const core::SemanticReport& sr = r.semantics;
  for (const core::SemanticMatch& m : sr.matches) {
    h = fnv1a(h, m.domain);
    h = fnv1a(h, m.brand);
    h = fnv1a(h, m.keyword_utf8);
  }
  for (const std::uint64_t v : {sr.brands_targeted, sr.protective,
                                sr.personal_email, sr.blacklisted}) {
    h = fnv1a_u64(h, v);
  }
  for (const auto& b : sr.top_brands) {
    h = fnv1a(h, b.brand);
    h = fnv1a_u64(h, static_cast<std::uint64_t>(b.alexa_rank));
    h = fnv1a_u64(h, b.idn_count);
    h = fnv1a_u64(h, b.protective);
  }
  const core::AvailabilityReport& ar = r.availability;
  for (const core::BrandAvailability& b : ar.per_brand) {
    h = fnv1a(h, b.brand);
    h = fnv1a_u64(h, static_cast<std::uint64_t>(b.alexa_rank));
    h = fnv1a_u64(h, b.candidates);
    h = fnv1a_u64(h, b.homographic);
    h = fnv1a_u64(h, b.registered);
    for (const std::string& s : b.available_samples) {
      h = fnv1a(h, s);
    }
  }
  h = fnv1a_u64(h, ar.total_candidates);
  h = fnv1a_u64(h, ar.total_homographic);
  h = fnv1a_u64(h, ar.total_registered);
  return h;
}

// One census pass at `threads` workers.  Each stage call is one operation;
// a call that throws, or an ingest that misses registered IDNs, fails it.
PassResult run_pass(const ecosystem::Ecosystem& eco,
                    const std::vector<std::string>& zone_files,
                    unsigned threads, Tracer& tracer, Outcome& out) {
  PassResult r;
  const std::vector<ecosystem::Brand> sweep_brands =
      ecosystem::alexa_top(kSweepBrands);
  const std::function<void()> calls[kStages] = {
      [&] {
        core::StudyOptions options;
        options.threads = threads;
        r.study.emplace(eco, zone_files, options);
      },
      [&] { r.registrants = core::top_registrants(*r.study, 10); },
      [&] { r.opportunistic = core::opportunistic_idn_count(*r.study, 100); },
      [&] { r.registrars = core::registrar_stats(*r.study, 10); },
      [&] { r.hosting = core::hosting_concentration(*r.study); },
      [&] {
        const core::SkeletonIndex& index = r.study->skeleton_index();
        r.index_keys = index.keys();
        r.index_bytes = index.bytes();
      },
      [&] {
        core::HomographOptions options;
        options.threads = threads;
        r.detector.emplace(ecosystem::alexa_top1k(), options);
      },
      [&] {
        r.homographs = core::analyze_homographs(*r.study, *r.detector, kTopN);
      },
      [&] {
        const core::SemanticDetector detector(ecosystem::alexa_top1k());
        r.semantics = core::analyze_semantics(*r.study, detector, kTopN);
      },
      [&] {
        core::AvailabilityOptions options;
        options.threads = threads;
        r.availability =
            core::availability_sweep(*r.study, sweep_brands, options);
      },
  };
  const Span pass_span(tracer, "census.pass");
  const Clock::time_point pass_start = Clock::now();
  for (std::size_t s = 0; s < kStages; ++s) {
    out.attempt();
    const Clock::time_point start = Clock::now();
    try {
      const Span span(tracer, kStageSpan[s]);
      calls[s]();
    } catch (const std::exception& e) {
      ++r.failed;
      out.fail_op(std::string(kStageSpan[s]) + " threw: " + e.what());
    }
    r.stage_ms[s] = ms_since(start);
    if (s == kIngest && r.study &&
        r.study->idns().size() != eco.idns.size()) {
      ++r.failed;
      out.fail_op_check("ingest found " + std::to_string(r.study->idns().size()) +
                  " IDNs, the world registered " +
                  std::to_string(eco.idns.size()));
    }
    if (!r.study || (s == kDetectorBuild && !r.detector)) {
      // Every later stage reads what this one failed to build.
      const std::uint64_t blocked = kStages - 1 - s;
      out.attempt(blocked);
      out.fail_op(std::to_string(blocked) +
                      " stages blocked by an earlier failure",
                  blocked);
      r.failed += blocked;
      break;
    }
  }
  r.pass_ms = ms_since(pass_start);
  return r;
}

std::vector<double> stage_sample(const std::vector<PassTiming>& passes,
                                 Stage stage) {
  std::vector<double> v;
  for (const PassTiming& p : passes) {
    v.push_back(p.stage_ms[stage]);
  }
  return v;
}

}  // namespace

void run_census(const Config& config, Tracer& tracer, Outcome& out) {
  namespace fs = std::filesystem;
  ecosystem::Scenario scenario = ecosystem::Scenario::paper2017();
  scenario.seed = config.seed;
  scenario.bulk_scale = kBulkScale;
  scenario.abuse_scale = kAbuseScale;
  scenario.generate_filler = false;

  // --- set-up: the world and its zone files (generated inputs only) ---
  const Clock::time_point setup_start = Clock::now();
  const ecosystem::Ecosystem eco = ecosystem::generate(scenario);
  const double generate_ms = ms_since(setup_start);
  const fs::path dir =
      fs::path(config.scratch) / ("census-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  std::vector<std::string> zone_files;
  const Clock::time_point write_start = Clock::now();
  for (const dns::Zone& zone : eco.zones) {
    std::string path = (dir / (zone.origin() + ".zone")).string();
    const auto written = dns::write_zone_file(zone, path);
    if (!written.ok()) {
      out.fail_check("write_zone_file: " + written.error().message);
      fs::remove_all(dir);
      return;
    }
    zone_files.push_back(std::move(path));
  }
  const double write_ms = ms_since(write_start);
  const double setup_s = ms_since(setup_start) / 1000.0;
  std::fprintf(stderr, "census setup: generate %.1f ms, write %zu zones %.1f ms\n",
               generate_ms, zone_files.size(), write_ms);

  // --- untimed 1-thread pass: the reference digest, and the warm-up that
  // faults in the heap and the zone files' page cache before timing ---
  std::uint64_t serial_digest = 0;
  {
    obs::Ledger::global().reset();
    tracer.set_active(false);
    const PassResult serial = run_pass(eco, zone_files, 1, tracer, out);
    serial_digest = serial.failed == 0 ? digest(serial) : 0;
    std::fprintf(stderr,
                 "census 1-thread pass: %.1f ms digest %016" PRIx64 "\n",
                 serial.pass_ms, serial_digest);
  }

  // --- timed passes: at least two, so outputs can be compared ---
  std::vector<PassTiming> passes;
  std::vector<std::uint64_t> digests;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  obs::Snapshot first_before;
  obs::Snapshot first_after;
  const Clock::time_point timed_start = Clock::now();
  while (passes.size() < 2 || ms_since(timed_start) < config.seconds * 1000) {
    // The ledger is bounded and shared; clear it so every pass does the
    // same work.
    obs::Ledger::global().reset();
    // A traced run alternates traced and untraced passes, which gives the
    // tracing overhead from one process.
    const bool traced = config.trace && passes.size() % 2 == 0;
    const obs::Snapshot before = obs::Registry::global().snapshot();
    tracer.set_active(traced);
    const PassResult pass =
        run_pass(eco, zone_files, config.threads, tracer, out);
    if (passes.empty()) {
      first_before = before;
      first_after = obs::Registry::global().snapshot();
    }
    (traced ? traced_ms : untraced_ms).push_back(pass.pass_ms);
    digests.push_back(pass.failed == 0 ? digest(pass) : 0);
    std::fprintf(stderr, "census pass %zu: %.1f ms digest %016" PRIx64
                 "; stage ms:", passes.size(), pass.pass_ms, digests.back());
    for (const double ms : pass.stage_ms) {
      std::fprintf(stderr, " %.0f", ms);
    }
    std::fprintf(stderr, "\n");
    PassTiming timing;
    std::copy(std::begin(pass.stage_ms), std::end(pass.stage_ms),
              std::begin(timing.stage_ms));
    timing.pass_ms = pass.pass_ms;
    timing.slds = pass.study ? pass.study->totals().sld_count : 0;
    passes.push_back(timing);
  }

  // --- correctness: every pass at config.threads matches the 1-thread
  // pass, so outputs are identical across passes and thread counts ---
  for (std::size_t i = 0; i < digests.size(); ++i) {
    if (digests[i] != serial_digest) {
      out.fail_check("census pass " + std::to_string(i) + " digest at " +
                     std::to_string(config.threads) +
                     " threads differs from the 1-thread pass");
    }
  }
  fs::remove_all(dir);

  std::vector<double> pass_ms;
  double slds_censused = 0.0;
  double timed_ms = 0.0;
  for (const PassTiming& p : passes) {
    pass_ms.push_back(p.pass_ms);
    slds_censused += static_cast<double>(p.slds);
    timed_ms += p.pass_ms;
  }
  const std::uint64_t sld_count = passes.empty() ? 0 : passes[0].slds;
  const std::vector<double> ingest_ms = stage_sample(passes, kIngest);
  out.set("setup_s", setup_s);
  out.set("peak_rss_mb", peak_rss_mb());
  // Work completed per second over every timed pass: a mean over the
  // whole timed phase, which spans more than one speed phase of the host.
  out.set("items_per_s", slds_censused / (timed_ms / 1000.0));
  out.set("answer_p50_ms", median(pass_ms));
  out.set("answer_p99_ms", percentile(pass_ms, 0.99));
  out.set("update_p50_ms", median(ingest_ms));
  std::fprintf(stderr,
               "census: %zu passes (samples behind every percentile), "
               "%" PRIu64 " SLDs per pass\n",
               passes.size(), sld_count);

  if (!config.trace) {
    return;
  }
  // --- per-layer metrics: medians over passes, counts from pass 0 ---
  const auto delta = [&](const char* name) {
    return static_cast<double>(counter_delta(first_before, first_after, name));
  };
  const double ingest_med = median(ingest_ms);
  out.set("core.study.ingest_ms", ingest_med);
  out.set("dns.zone_scan.mb_per_s",
          delta("core.zone_scan.bytes") / 1e6 / (ingest_med / 1000.0));
  std::vector<double> joins;
  for (const PassTiming& p : passes) {
    joins.push_back(p.stage_ms[kRegistrants] + p.stage_ms[kOpportunistic] +
                    p.stage_ms[kRegistrars]);
  }
  out.set("core.registration_study.joins_ms", median(joins));
  out.set("core.study.join.records", delta("core.study.join.records"));
  out.set("core.study.join.spill_runs", delta("core.study.join.spill_runs"));
  out.set("core.dns_study.hosting_ms", median(stage_sample(passes, kHosting)));
  out.set("core.skeleton_index.build_ms",
          median(stage_sample(passes, kSkeletonIndex)));
  out.set("core.homograph.detector_build_ms",
          median(stage_sample(passes, kDetectorBuild)));
  out.set("core.homograph.scan_ms",
          median(stage_sample(passes, kHomographScan)));
  out.set("core.homograph.ssim_per_domain",
          delta("core.homograph.ssim_evaluations") /
              delta("core.homograph.domains_scanned"));
  out.set("core.semantic.scan_ms", median(stage_sample(passes, kSemanticScan)));
  out.set("core.availability.sweep_ms",
          median(stage_sample(passes, kAvailability)));
  out.set("core.availability.ssim_evaluations",
          delta("core.availability.ssim_evaluations"));
  out.set("core.availability.homographic_ratio",
          delta("core.availability.homographic") /
              delta("core.availability.ssim_evaluations"));
  out.set("runtime.domain_table.bytes",
          static_cast<double>(
              gauge(first_after, "runtime.domain_table.arena_bytes") +
              gauge(first_after, "runtime.domain_table.index_bytes")));
  double zero_delta_counters = 0;
  for (const char* name : kDeltaCounters) {
    zero_delta_counters += counter(first_after, name) == 0 ? 1 : 0;
  }
  out.set("core.delta.zero_counters", zero_delta_counters);
  out.set("ecosystem.generate_s", generate_ms / 1000.0);
  out.set("dns.write_zones_s", write_ms / 1000.0);
  out.set("bench.trace_overhead_pct",
          (median(traced_ms) - median(untraced_ms)) / median(untraced_ms) *
              100.0);
  std::fprintf(stderr, "census tracing overhead: traced %.1f ms - untraced "
               "%.1f ms per pass\n",
               median(traced_ms), median(untraced_ms));
}

}  // namespace perfbench
