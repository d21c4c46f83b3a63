// serve_churn: writes beside reads.  Each simulated day folds the next
// Timeline delta into the world, publishes the advanced snapshot
// (clone -> apply_delta -> advance -> publish, the timed "update"), then
// serves that day's queries: its new registrations, never-repeated brand
// lookalikes and repeat lookups of day-0 domains.  Every publish
// invalidates the verdict memo, so serving is dominated by classify misses.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "idnscope/common/rng.h"
#include "idnscope/core/homograph.h"
#include "idnscope/core/semantic.h"
#include "idnscope/core/semantic_type2.h"
#include "idnscope/ecosystem/brands.h"
#include "idnscope/ecosystem/ecosystem.h"
#include "idnscope/ecosystem/timeline.h"
#include "idnscope/idna/idna.h"
#include "idnscope/idna/lookalike.h"
#include "idnscope/obs/metrics.h"
#include "idnscope/runtime/parallel.h"
#include "idnscope/serve/engine.h"
#include "idnscope/serve/publisher.h"
#include "idnscope/serve/snapshot.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace idnscope;

constexpr unsigned kBulkScale = 1000;
constexpr unsigned kAbuseScale = 50;
// The timed phase replays the same days kReplays times, each time over a
// freshly set-up world, so that every run measures the same window of the
// delta stream however long it is.  Days per replay: kDaysPerSecond per
// requested second shared over the replays, and at least kMinDays so that
// ten or more publishes sit beyond p90.  A function of the arguments only,
// so the days a run replays (and any day it rejects) do not depend on
// machine speed.
constexpr std::uint32_t kDaysPerSecond = 8;
constexpr std::uint32_t kMinDays = 100;
constexpr std::size_t kReplays = 2;
constexpr std::size_t kLookalikesPerDay = 60;
constexpr std::size_t kRepeatsPerDay = 2000;
constexpr int kSetups = 3;
// Distinct queries per population replayed serially by the traced run:
// enough that ten or more calls sit beyond each reported p99.
constexpr std::size_t kProbeCap = 1000;

constexpr std::size_t kBatchSize = serve::EngineOptions{}.batch_size;

// Per query: latency (ms) and wait from submit to dispatch start (us);
// per batch: the sink's batch time (ms).  Shared by every replay.
struct QuerySamples {
  std::vector<double> latency_ms;
  std::vector<double> pending_wait_us;
  std::vector<double> batch_ms;
};

// The single closed-loop client: it submits queries one at a time, stamps
// each submit, and in the engine's batch sink turns the stamps into
// per-query latencies (submit() to the sink call carrying the verdict),
// appended to `samples`, and hands every verdict to the workload's check.
class Client {
 public:
  // Called for each verdict in submission order with the index of its
  // query (0, 1, 2, ... since construction); false fails the query.
  using Check =
      std::function<bool(const serve::Verdict&, std::uint64_t query_index)>;

  Client(const serve::SnapshotPublisher& publisher, unsigned threads,
         Tracer& tracer, QuerySamples& samples, Check check)
      : tracer_(tracer),
        samples_(samples),
        check_(std::move(check)),
        engine_(publisher, serve::EngineOptions{kBatchSize, threads},
                [this](std::span<const serve::Verdict> verdicts,
                       double batch_ms) { on_batch(verdicts, batch_ms); }) {}
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void submit(const serve::Query& query) {
    pending_.push_back(Clock::now());
    ++submitted_;
    if (pending_.size() < kBatchSize) {
      engine_.submit(query);
      return;
    }
    // This submit fills the batch and dispatches it synchronously.
    const Span span(tracer_, "serve.engine.dispatch", batch_id_);
    engine_.submit(query);
  }

  void flush() {
    const Span span(tracer_, "serve.engine.dispatch", batch_id_);
    engine_.flush();
  }

  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t answered() const { return answered_; }
  std::uint64_t failed() const { return failed_; }

 private:
  void on_batch(std::span<const serve::Verdict> verdicts, double batch_ms) {
    const Clock::time_point now = Clock::now();
    const Span span(tracer_, "bench.client.sink", batch_id_);
    ++batch_id_;
    samples_.batch_ms.push_back(batch_ms);
    const std::uint64_t first = submitted_ - pending_.size();
    if (verdicts.size() != pending_.size()) {
      // Missing verdicts: every query of the batch fails.
      failed_ += pending_.size();
      pending_.clear();
      return;
    }
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      ++answered_;
      if (!check_(verdicts[i], first + i)) {
        ++failed_;
      }
      const double ms = ms_between(pending_[i], now);
      samples_.latency_ms.push_back(ms);
      samples_.pending_wait_us.push_back((ms - batch_ms) * 1000.0);
    }
    pending_.clear();
  }

  Tracer& tracer_;
  QuerySamples& samples_;
  Check check_;
  std::vector<Clock::time_point> pending_;  // submit stamps of the open batch
  std::uint64_t submitted_ = 0;
  std::uint64_t answered_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t batch_id_ = 1;
  // Declared last: its sink calls back into the members above.
  serve::QueryEngine engine_;
};

bool finding_matches(const serve::Finding& finding, bool flagged,
                     std::string_view rule, std::string_view brand,
                     std::uint64_t score_micros) {
  return finding.flagged == flagged && finding.rule == rule &&
         finding.brand == brand && finding.score_micros == score_micros;
}

// The bench_serve parity rule: a served verdict's detector fields must be
// those freshly built batch detectors reach for its domain, field for
// field.  The detectors are constructed as core::build_markdown_report
// builds them: that construction defines "the batch verdict".  Returns
// the domains that disagree; runs on `threads` workers.
std::vector<std::string> parity_mismatches(
    const std::vector<serve::Verdict>& verdicts, unsigned threads) {
  const core::HomographDetector homograph(ecosystem::alexa_top1k());
  const core::SemanticDetector semantic(ecosystem::alexa_top1k());
  const core::Type2Detector type2;
  std::vector<char> agrees(verdicts.size(), 0);
  runtime::parallel_for(verdicts.size(), threads, [&](std::size_t i) {
    const serve::Verdict& v = verdicts[i];
    bool ok = v.parsed;
    if (const auto match = homograph.best_match(v.domain)) {
      ok = ok && finding_matches(v.homograph, true, match->rule, match->brand,
                                 obs::to_micros(match->ssim));
    } else {
      ok = ok && !v.homograph.flagged;
    }
    if (const auto hit = semantic.match(v.domain)) {
      ok = ok && finding_matches(v.semantic_t1, true,
                                 "ascii_strip_brand_match", hit->brand,
                                 obs::to_micros(1.0));
    } else {
      ok = ok && !v.semantic_t1.flagged;
    }
    if (const auto hit = type2.match(v.domain)) {
      ok = ok && finding_matches(v.semantic_t2, true, "translation_substring",
                                 hit->brand, obs::to_micros(1.0));
    } else {
      ok = ok && !v.semantic_t2.flagged;
    }
    agrees[i] = ok ? 1 : 0;
  });
  std::vector<std::string> out;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (agrees[i] == 0) {
      out.push_back(verdicts[i].domain);
    }
  }
  return out;
}

enum Population : std::uint8_t { kLookalike, kNod, kRepeat, kPopulations };
constexpr const char* kPopulationName[kPopulations] = {"lookalike", "nod",
                                                       "repeat"};

struct DayQueries {
  std::vector<std::string> text;
  std::vector<Population> population;
};

struct DomainFlags {
  bool homograph = false;
  bool semantic = false;
  bool type2 = false;
  bool any() const { return homograph || semantic || type2; }
};

struct FlagCounts {
  std::uint64_t homograph = 0;
  std::uint64_t semantic = 0;
  std::uint64_t type2 = 0;
  bool operator==(const FlagCounts&) const = default;
  void add(const DomainFlags& f, int sign) {
    homograph += static_cast<std::uint64_t>(sign * (f.homograph ? 1 : 0));
    semantic += static_cast<std::uint64_t>(sign * (f.semantic ? 1 : 0));
    type2 += static_cast<std::uint64_t>(sign * (f.type2 ? 1 : 0));
  }
};

DomainFlags probe(const core::DeltaDetectors& d, std::string_view domain) {
  return DomainFlags{d.homograph->best_match(domain).has_value(),
                     d.semantic->match(domain).has_value(),
                     d.type2->match(domain).has_value()};
}

FlagCounts probe_all(const core::Study& study, const core::DeltaDetectors& d,
                     std::map<std::string, DomainFlags>* flagged) {
  FlagCounts counts;
  for (const runtime::DomainId id : study.idns()) {
    const std::string domain(study.domain(id));
    const DomainFlags flags = probe(d, domain);
    counts.add(flags, 1);
    if (flagged != nullptr && flags.any()) {
      (*flagged)[domain] = flags;
    }
  }
  return counts;
}

bool groups_equal(const core::Study& a, const core::Study& b) {
  const auto& ga = a.tld_groups();
  const auto& gb = b.tld_groups();
  if (ga.size() != gb.size()) {
    return false;
  }
  for (std::size_t i = 0; i < ga.size(); ++i) {
    if (ga[i].name != gb[i].name || ga[i].sld_count != gb[i].sld_count ||
        ga[i].idn_count != gb[i].idn_count ||
        ga[i].whois_count != gb[i].whois_count ||
        ga[i].blacklist_virustotal != gb[i].blacklist_virustotal ||
        ga[i].blacklist_360 != gb[i].blacklist_360 ||
        ga[i].blacklist_baidu != gb[i].blacklist_baidu ||
        ga[i].blacklist_total != gb[i].blacklist_total) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> sorted_strings(const core::Study& study,
                                        std::span<const runtime::DomainId> ids) {
  std::vector<std::string> out = study.resolve(ids);
  std::sort(out.begin(), out.end());
  return out;
}

// Everything one set-up produces.
struct World {
  ecosystem::Ecosystem eco;
  ecosystem::TimelineState state;
  std::shared_ptr<const serve::StudySnapshot> snapshot;
  serve::SnapshotPublisher publisher;
  std::vector<ecosystem::DayDelta> deltas;  // deltas[d] is day d + 1
  std::vector<DayQueries> days;             // same indexing
  double generate_ms = 0.0;
  double build_ms = 0.0;
};

std::uint32_t replay_days(const Config& config) {
  return std::max(kMinDays,
                  static_cast<std::uint32_t>(config.seconds * kDaysPerSecond /
                                             kReplays));
}

std::unique_ptr<World> set_up(const Config& config,
                              const ecosystem::Scenario& scenario) {
  auto w = std::make_unique<World>();
  const Clock::time_point start = Clock::now();
  w->eco = ecosystem::generate(scenario);
  w->generate_ms = ms_since(start);
  const Clock::time_point build_start = Clock::now();
  serve::SnapshotOptions options;
  options.study.threads = config.threads;
  options.homograph.threads = config.threads;
  w->snapshot = std::make_shared<const serve::StudySnapshot>(w->eco, options);
  w->publisher.publish(w->snapshot);
  w->build_ms = ms_since(build_start);
  w->state = ecosystem::TimelineState::from(w->eco);

  // Deltas: the seeded stream, materialized as the generator emits it.
  ecosystem::Timeline timeline(w->eco);
  for (std::uint32_t day = 1; day <= replay_days(config); ++day) {
    w->deltas.push_back(timeline.next());
  }

  // Lookalikes: every single-substitution candidate of the Alexa top 1k
  // that is not registered on day 0, in seeded order, never repeated.
  const core::Study& study = w->snapshot->study();
  std::vector<std::string> lookalikes;
  for (const ecosystem::Brand& brand : ecosystem::alexa_top1k()) {
    for (idna::LookalikeCandidate& c :
         idna::single_substitution_candidates(brand.domain)) {
      if (!study.table().contains(c.ace_domain)) {
        lookalikes.push_back(std::move(c.ace_domain));
      }
    }
  }
  std::sort(lookalikes.begin(), lookalikes.end());
  lookalikes.erase(std::unique(lookalikes.begin(), lookalikes.end()),
                   lookalikes.end());
  Rng rng = Rng(config.seed).fork("perfbench/serve_churn");
  rng.shuffle(lookalikes);

  // Repeats: day-0 registered domains, IDN and ASCII.
  std::vector<std::string> day0 = study.idn_strings();
  day0.insert(day0.end(), w->eco.sampled_non_idns.begin(),
              w->eco.sampled_non_idns.end());

  std::size_t next_lookalike = 0;
  for (const ecosystem::DayDelta& delta : w->deltas) {
    std::vector<std::pair<std::string, Population>> day;
    for (const ecosystem::DeltaRecord& record : delta.records) {
      if (record.kind == ecosystem::DeltaKind::kRegister) {
        day.emplace_back(record.domain, kNod);
      }
    }
    for (std::size_t i = 0; i < kLookalikesPerDay; ++i) {
      day.emplace_back(lookalikes.at(next_lookalike++), kLookalike);
    }
    for (std::size_t i = 0; i < kRepeatsPerDay; ++i) {
      day.emplace_back(day0[rng.uniform(0, day0.size() - 1)], kRepeat);
    }
    rng.shuffle(day);
    DayQueries queries;
    for (auto& [text, population] : day) {
      queries.text.push_back(std::move(text));
      queries.population.push_back(population);
    }
    w->days.push_back(std::move(queries));
  }
  return w;
}

// Timings and counts gathered over every replay of the timed phase.
struct Samples {
  std::vector<double> publish_ms;
  std::vector<double> day_rate;
  std::vector<double> traced_rate;
  std::vector<double> untraced_rate;
  std::vector<double> eco_apply_ms;
  std::vector<double> clone_ms;
  std::vector<double> apply_ms;
  std::vector<double> advance_ms;
  QuerySamples queries;
  obs::Snapshot publish_counters;  // traced run: sums over publish phases
  obs::Snapshot serve_counters;    // traced run: sums over serving phases
  std::uint64_t serving_queries = 0;
  std::size_t verdicts_checked = 0;  // against the batch detectors
};

// One replay of `days` publish-then-serve days over a freshly set-up
// world, with its own query engine.  Appends its timings to `samples`,
// checks its outputs, and returns the last published snapshot and how
// many days applied.
std::pair<std::shared_ptr<const serve::StudySnapshot>, std::uint32_t> replay(
    World& world, std::uint32_t days, const Config& config, Tracer& tracer,
    Outcome& out, Samples& samples) {
  // Day-0 flag bookkeeping for the from-scratch comparison (verification).
  const core::DeltaDetectors detectors = world.snapshot->detectors();
  std::map<std::string, DomainFlags> flagged;
  FlagCounts counts = probe_all(world.snapshot->study(), detectors, &flagged);

  ecosystem::Ecosystem& eco = world.eco;
  serve::SnapshotPublisher& publisher = world.publisher;
  std::shared_ptr<const serve::StudySnapshot> current = world.snapshot;
  std::uint64_t day_first_query = 0;
  const DayQueries* today = nullptr;
  // Sampled served verdicts (first query of each population each day),
  // checked against fresh batch detectors after the replay.
  std::vector<serve::Verdict> sampled;
  std::vector<bool> sample_position;
  Client client(
      publisher, config.threads, tracer, samples.queries,
      [&](const serve::Verdict& v, std::uint64_t index) {
        const std::size_t i = index - day_first_query;
        if (i < sample_position.size() && sample_position[i]) {
          sampled.push_back(v);
        }
        // The verdict's facts are the side-table facts of the serving
        // generation (blacklist masks are kept for IDNs only).
        const runtime::DomainTable& table = current->study().table();
        const runtime::DomainId id = table.find(v.domain);
        const bool known = id != runtime::kInvalidDomainId;
        return v.parsed && v.domain == today->text[i] &&
               v.generation == current->generation() && v.known == known &&
               v.registered == (known && table.is_registered(id)) &&
               v.blacklist_mask == (known ? table.blacklist_mask(id) : 0);
      });

  const auto accumulate = [](obs::Snapshot& sum, const obs::Snapshot& before,
                             const obs::Snapshot& after) {
    for (const auto& [name, value] : after.counters) {
      sum.counters[name] += value - counter(before, name);
    }
  };
  std::uint32_t days_done = 0;
  bool blocked = false;
  std::uint64_t serving_queries = 0;
  const std::size_t first_day_sample = samples.day_rate.size();
  for (std::uint32_t d = 0; d < days; ++d) {
    const ecosystem::DayDelta& delta = world.deltas[d];
    const bool traced = config.trace && d % 2 == 0;
    out.attempt();
    // Input preparation, untimed: the world moves first (the Study-side
    // WHOIS join reads what this populates).
    const Clock::time_point eco_start = Clock::now();
    auto eco_applied = ecosystem::apply_delta(eco, world.state, delta);
    samples.eco_apply_ms.push_back(ms_since(eco_start));

    const obs::Snapshot publish_before =
        config.trace ? obs::Registry::global().snapshot() : obs::Snapshot{};
    tracer.set_active(traced);
    const Clock::time_point publish_start = Clock::now();
    std::optional<core::Study> next;
    Result<core::DeltaApplyResult> applied =
        Err("perfbench.not_applied", "not applied");
    double t_clone = 0;
    double t_apply = 0;
    double t_advance = 0;
    {
      const Span day_span(tracer, "bench.day.publish");
      Clock::time_point t = Clock::now();
      {
        const Span span(tracer, "core.study.clone");
        next.emplace(current->study().clone());
      }
      t_clone = ms_since(t);
      t = Clock::now();
      {
        const Span span(tracer, "core.study.apply_delta");
        applied = next->apply_delta(delta, &detectors);
      }
      t_apply = ms_since(t);
      if (applied.ok() && eco_applied.ok()) {
        t = Clock::now();
        std::shared_ptr<const serve::StudySnapshot> advanced;
        {
          const Span span(tracer, "serve.snapshot.advance");
          advanced = std::make_shared<const serve::StudySnapshot>(
              *current, std::move(*next), current->generation() + 1);
        }
        {
          const Span span(tracer, "serve.publish");
          publisher.publish(advanced);
        }
        t_advance = ms_since(t);
        current = std::move(advanced);
      }
    }
    const double day_publish_ms = ms_since(publish_start);
    tracer.set_active(false);
    if (!eco_applied.ok() || !applied.ok()) {
      // Both apply paths must reject the same record with the same text,
      // and the published generation must not move.
      const std::string eco_error =
          eco_applied.ok() ? "(accepted)" : eco_applied.error().message;
      const std::string study_error =
          applied.ok() ? "(accepted)" : applied.error().message;
      out.fail_op("serve_churn day " + std::to_string(delta.day) +
                  " rejected: " + eco_error);
      if (eco_error != study_error) {
        out.fail_check("serve_churn day " + std::to_string(delta.day) +
                       ": the study rejected it differently: " + study_error);
      }
      if (publisher.current() != current) {
        out.fail_check("serve_churn: a rejected day moved the published "
                       "snapshot");
      }
      // The stream is built on this day: every later day is blocked.
      const std::uint32_t later = days - d - 1;
      out.attempt(later);
      out.fail_op(std::to_string(later) + " later days blocked by it", later);
      blocked = true;
      break;
    }
    samples.publish_ms.push_back(day_publish_ms);
    samples.clone_ms.push_back(t_clone);
    samples.apply_ms.push_back(t_apply);
    samples.advance_ms.push_back(t_advance);
    for (const runtime::DomainId id : applied.value().expired_idns) {
      const std::string domain(current->study().domain(id));
      if (const auto it = flagged.find(domain); it != flagged.end()) {
        counts.add(it->second, -1);
        flagged.erase(it);
      }
    }
    for (const core::ReVerdict& v : applied.value().verdicts) {
      const DomainFlags flags{v.homograph, v.semantic_t1, v.semantic_t2};
      if (flags.any()) {
        counts.add(flags, 1);
        flagged[std::string(current->study().domain(v.id))] = flags;
      }
    }

    // Serve the day's queries.
    today = &world.days[d];
    day_first_query = client.submitted();
    sample_position.assign(today->text.size(), false);
    bool seen[kPopulations] = {};
    for (std::size_t i = 0; i < today->text.size(); ++i) {
      if (!seen[today->population[i]]) {
        seen[today->population[i]] = true;
        sample_position[i] = true;
      }
    }
    const obs::Snapshot serve_before =
        config.trace ? obs::Registry::global().snapshot() : obs::Snapshot{};
    if (config.trace) {
      accumulate(samples.publish_counters, publish_before, serve_before);
    }
    tracer.set_active(traced);
    const Clock::time_point serve_start = Clock::now();
    for (const std::string& text : today->text) {
      client.submit(serve::Query{text});
    }
    client.flush();
    const double serve_ms = ms_since(serve_start);
    tracer.set_active(false);
    if (config.trace) {
      accumulate(samples.serve_counters, serve_before,
                 obs::Registry::global().snapshot());
    }
    serving_queries += today->text.size();
    const double rate =
        static_cast<double>(today->text.size()) / (serve_ms / 1000.0);
    samples.day_rate.push_back(rate);
    (traced ? samples.traced_rate : samples.untraced_rate).push_back(rate);
    ++days_done;
  }
  out.attempt(serving_queries);
  if (client.failed() != 0) {
    out.fail_op_check("serve_churn: " + std::to_string(client.failed()) +
                          " verdicts failed their check",
                      client.failed());
  }
  if (client.answered() != client.submitted()) {
    out.fail_check("serve_churn: queries were never answered");
  }
  samples.serving_queries += serving_queries;

  // --- correctness: sampled verdicts against fresh batch detectors ---
  for (const std::string& domain : parity_mismatches(sampled, config.threads)) {
    out.fail_check("serve_churn: a served verdict disagrees with the batch "
                   "detectors on " + domain);
  }
  samples.verdicts_checked += sampled.size();
  // --- correctness: the advanced day-N Study equals a from-scratch one ---
  if (!blocked) {
    core::StudyOptions options;
    options.threads = config.threads;
    const core::Study fresh(eco, options);
    const core::Study& advanced = current->study();
    const FlagCounts fresh_counts = probe_all(fresh, detectors, nullptr);
    if (!groups_equal(advanced, fresh) || !(fresh_counts == counts) ||
        sorted_strings(advanced, advanced.idns()) !=
            sorted_strings(fresh, fresh.idns()) ||
        sorted_strings(advanced, advanced.malicious_idns()) !=
            sorted_strings(fresh, fresh.malicious_idns())) {
      out.fail_check("serve_churn: the day-" + std::to_string(days_done) +
                     " advanced study differs from a from-scratch study");
    }
  } else {
    std::fprintf(stderr,
                 "serve_churn: from-scratch comparison skipped; the world "
                 "holds the rejected day's applied prefix\n");
  }
  std::fprintf(stderr,
               "serve_churn replay: %u of %u days, %" PRIu64 " queries, %zu "
               "verdicts checked against the batch detectors; median day "
               "%.0f queries/s, publish %.3f ms\n",
               days_done, days, serving_queries, sampled.size(),
               median({samples.day_rate.begin() + first_day_sample,
                       samples.day_rate.end()}),
               median({samples.publish_ms.begin() + first_day_sample,
                       samples.publish_ms.end()}));
  return {current, days_done};
}

}  // namespace

void run_serve_churn(const Config& config, Tracer& tracer, Outcome& out) {
  ecosystem::Scenario scenario = ecosystem::Scenario::paper2017();
  scenario.seed = config.seed;
  scenario.bulk_scale = kBulkScale;
  scenario.abuse_scale = kAbuseScale;
  scenario.generate_filler = false;

  // --- set-up, kSetups times; the last world is the first one replayed ---
  std::vector<double> setup_ms;
  std::vector<double> generate_ms;
  std::vector<double> build_ms;
  std::unique_ptr<World> world;
  tracer.set_active(false);
  for (int s = 0; s < kSetups; ++s) {
    world.reset();
    const Clock::time_point start = Clock::now();
    world = set_up(config, scenario);
    setup_ms.push_back(ms_since(start));
    generate_ms.push_back(world->generate_ms);
    build_ms.push_back(world->build_ms);
    std::fprintf(stderr,
                 "serve_churn setup %d: %.1f ms (generate %.1f, snapshot "
                 "%.1f)\n",
                 s, setup_ms.back(), world->generate_ms, world->build_ms);
  }
  const std::uint32_t days = replay_days(config);
  const bool inject =
      config.inject_invalid_day >= 1 && config.inject_invalid_day <= days;
  // Failure-path check: a registration of an already-live name is invalid,
  // so this day must be rejected and leave the published snapshot untouched.
  const auto inject_invalid_record = [&](World& w) {
    ecosystem::DayDelta& delta = w.deltas[config.inject_invalid_day - 1];
    ecosystem::DeltaRecord duplicate;
    duplicate.kind = ecosystem::DeltaKind::kRegister;
    duplicate.domain =
        w.snapshot->study().domain(w.snapshot->study().idns().front());
    duplicate.is_idn = true;
    delta.records.insert(delta.records.begin(), duplicate);
    std::fprintf(stderr, "injected an invalid record into day %u\n",
                 config.inject_invalid_day);
  };

  // --- timed phase: kReplays identical replays of `days` days.  One world
  // is alive at a time, so peak memory does not grow with the replays;
  // each later replay sets up a fresh world first (untimed input
  // preparation, outside setup_s). ---
  Samples samples;
  {
    // The sample buffers are faulted in at their planned size up front, so
    // the benchmark's own share of peak_rss_mb is the same whether or not
    // a rejected day cuts the replays short.
    std::size_t planned = 0;
    for (std::uint32_t d = 0; d < days; ++d) {
      planned += world->days[d].text.size();
    }
    planned *= kReplays;
    const std::size_t planned_batches =
        planned / kBatchSize + std::size_t{days} * kReplays;
    for (auto [buffer, size] :
         {std::pair{&samples.queries.latency_ms, planned},
          std::pair{&samples.queries.pending_wait_us, planned},
          std::pair{&samples.queries.batch_ms, planned_batches}}) {
      buffer->assign(size, 0.0);
      buffer->clear();
    }
  }
  std::shared_ptr<const serve::StudySnapshot> current;
  std::uint32_t days_done = 0;
  for (std::size_t r = 0; r < kReplays; ++r) {
    if (r > 0) {
      current.reset();
      world.reset();
      world = set_up(config, scenario);
    }
    if (inject) {
      inject_invalid_record(*world);
    }
    std::tie(current, days_done) =
        replay(*world, days, config, tracer, out, samples);
  }
  const core::DeltaDetectors detectors = world->snapshot->detectors();
  const std::vector<double>& publish_ms = samples.publish_ms;
  std::fprintf(stderr,
               "serve_churn: %zu replays of %u days; percentiles from %zu "
               "query latencies and %zu publishes; %zu verdicts checked "
               "against the batch detectors\n",
               kReplays, days, samples.queries.latency_ms.size(),
               publish_ms.size(), samples.verdicts_checked);

  out.set("setup_s", median(setup_ms) / 1000.0);
  out.set("peak_rss_mb", peak_rss_mb());
  out.set("items_per_s", median(config.trace ? samples.untraced_rate
                                              : samples.day_rate));
  out.set("answer_p50_ms", percentile(samples.queries.latency_ms, 0.50));
  out.set("answer_p99_ms", percentile(samples.queries.latency_ms, 0.99));
  out.set("update_p50_ms", median(publish_ms));
  if (!config.trace) {
    return;
  }
  out.set("ecosystem.generate_s", median(generate_ms) / 1000.0);
  out.set("serve.snapshot.build_ms", median(build_ms));
  out.set("serve.publish_p90_ms", percentile(publish_ms, 0.90));
  out.set("serve.engine.batch_p50_ms",
          percentile(samples.queries.batch_ms, 0.50));
  out.set("serve.engine.batch_p99_ms",
          percentile(samples.queries.batch_ms, 0.99));
  out.set("serve.engine.pending_wait_p50_us",
          percentile(samples.queries.pending_wait_us, 0.50));
  const auto served = [&](const char* name) {
    return static_cast<double>(counter(samples.serve_counters, name));
  };
  const double misses = served("serve.engine.cache_misses");
  out.set("serve.engine.hit_ratio", served("serve.engine.cache_hits") /
                                        (served("serve.engine.cache_hits") +
                                         misses));
  out.set("core.homograph.prefilter_checks_per_miss",
          (served("core.homograph.prefilter_skips") +
           served("core.homograph.ssim_evaluations")) /
              misses);
  out.set("core.homograph.ssim_per_miss",
          served("core.homograph.ssim_evaluations") / misses);
  out.set("core.study.clone_ms", median(samples.clone_ms));
  out.set("core.study.apply_delta_ms", median(samples.apply_ms));
  out.set("serve.snapshot.advance_ms", median(samples.advance_ms));
  out.set("core.delta.redetected", static_cast<double>(counter(
                                       samples.publish_counters,
                                       "core.delta.redetected")));
  out.set("core.delta.index_additions",
          static_cast<double>(
              counter(samples.publish_counters,
                      "core.delta.index_additions")));
  out.set("ecosystem.apply_delta_ms", median(samples.eco_apply_ms));
  out.set("bench.trace_overhead_pct",
          (median(samples.untraced_rate) / median(samples.traced_rate) -
           1.0) * 100.0);

  // Serial probes on the final snapshot: each population's distinct
  // queries (the first kProbeCap of them), one timing per call.
  std::vector<std::string> distinct[kPopulations];
  {
    std::unordered_set<std::string> seen;
    for (std::uint32_t d = 0; d < days_done; ++d) {
      const DayQueries& q = world->days[d];
      for (std::size_t i = 0; i < q.text.size(); ++i) {
        std::vector<std::string>& pool = distinct[q.population[i]];
        if (pool.size() < kProbeCap && seen.insert(q.text[i]).second) {
          pool.push_back(q.text[i]);
        }
      }
    }
  }
  std::vector<double> to_ascii_us;
  for (int p = 0; p < kPopulations; ++p) {
    std::vector<double> classify_us;
    std::vector<double> best_match_us;
    for (const std::string& domain : distinct[p]) {
      Clock::time_point t = Clock::now();
      const serve::Verdict v = current->classify(domain);
      classify_us.push_back(ms_since(t) * 1000.0);
      t = Clock::now();
      const auto match = detectors.homograph->best_match(domain);
      best_match_us.push_back(ms_since(t) * 1000.0);
      t = Clock::now();
      const auto ascii = idna::domain_to_ascii(domain);
      to_ascii_us.push_back(ms_since(t) * 1000.0);
      if (!ascii.ok() || v.homograph.flagged != match.has_value()) {
        out.fail_check("serve_churn probe disagrees on " + domain);
      }
    }
    const std::string name = kPopulationName[p];
    out.set("serve.snapshot.classify_" + name + "_p50_us",
            percentile(classify_us, 0.50));
    out.set("serve.snapshot.classify_" + name + "_p99_us",
            percentile(classify_us, 0.99));
    out.set("core.homograph.best_match_" + name + "_p50_us",
            percentile(best_match_us, 0.50));
    out.set("core.homograph.best_match_" + name + "_p99_us",
            percentile(best_match_us, 0.99));
    std::fprintf(stderr, "probe %s: %zu distinct queries\n", name.c_str(),
                 distinct[p].size());
  }
  out.set("idna.domain_to_ascii_p50_us", percentile(to_ascii_us, 0.50));
}

}  // namespace perfbench
