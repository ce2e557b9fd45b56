#include "inputs.h"

#include <cmath>

#include "common.h"
#include "gen/corpus_generator.h"
#include "gen/event_script.h"
#include "text/document.h"
#include "util/random.h"

namespace stablebench {

using stabletext::FinderAlgorithm;
using stabletext::FinderMode;
using stabletext::FinderQuery;

namespace {

FinderQuery Q(FinderAlgorithm algorithm, FinderMode mode, size_t k,
              uint32_t l) {
  FinderQuery q;
  q.algorithm = algorithm;
  q.mode = mode;
  q.k = k;
  q.l = l;
  return q;
}

constexpr FinderMode kKl = FinderMode::kKlStable;
constexpr FinderMode kNorm = FinderMode::kNormalized;

// Kl-stable BFS with 1 <= l <= gap never returns, so no query below
// asks for l <= gap at gap 1. Kl-stable DFS at gap 1 can take seconds on
// small-tick graphs (see README), so DFS is queried at gap 0 only.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    {
      WorkloadSpec s;
      s.name = "crawl_durable";
      s.gap = 1;
      s.server_workers = 1;
      s.posts_per_day = 3000;
      s.vocabulary = 4000;
      s.micro_events = 60;
      s.history_days = 7;
      s.tick_period_ms = 120;
      s.open_rate_qps = 30;
      s.mix = QueryMixKind::kTrickle;
      s.subscriptions = {Q(FinderAlgorithm::kOnline, kKl, 5, 3)};
      v.push_back(s);
    }
    {
      WorkloadSpec s;
      s.name = "serve_hot";
      s.gap = 1;
      s.server_workers = 1;
      s.posts_per_day = 600;
      s.vocabulary = 1200;
      s.micro_events = 20;
      s.history_days = 14;
      s.tick_period_ms = 250;
      s.open_rate_qps = 40;
      s.mix = QueryMixKind::kHot;
      s.setup_repeats = 7;
      s.subscriptions = {Q(FinderAlgorithm::kOnline, kKl, 5, 3),
                         Q(FinderAlgorithm::kBfs, kKl, 5, 2),
                         Q(FinderAlgorithm::kBfs, kKl, 10, 4)};
      v.push_back(s);
    }
    {
      WorkloadSpec s;
      s.name = "history_cold";
      s.gap = 0;
      s.server_workers = 2;
      s.posts_per_day = 1500;
      s.vocabulary = 3000;
      s.micro_events = 150;
      s.micro_span_max = 4;
      s.history_days = 56;
      s.bulk_load = true;
      s.tick_period_ms = 1000;
      s.open_rate_qps = 40;
      s.mix = QueryMixKind::kCold;
      s.subscriptions = {Q(FinderAlgorithm::kBfs, kKl, 5, 4)};
      v.push_back(s);
    }
    return v;
  }();
  return specs;
}

std::vector<FinderQuery> Population(const WorkloadSpec& spec) {
  std::vector<FinderQuery> pop;
  switch (spec.mix) {
    case QueryMixKind::kTrickle:
      // The warm subscription's shape plus a few kl-stable BFS runs.
      pop = {spec.subscriptions.front(),
             Q(FinderAlgorithm::kBfs, kKl, 5, 2),
             Q(FinderAlgorithm::kBfs, kKl, 5, 4),
             Q(FinderAlgorithm::kBfs, kKl, 10, 3),
             Q(FinderAlgorithm::kBfs, kKl, 3, 3)};
      break;
    case QueryMixKind::kHot:
      // Ordered by popularity (Zipf rank). Few, kl-stable shapes: the
      // misses after each publish cost about a millisecond in all.
      pop = {spec.subscriptions.front(),
             Q(FinderAlgorithm::kBfs, kKl, 5, 2),
             Q(FinderAlgorithm::kBfs, kKl, 10, 3),
             Q(FinderAlgorithm::kBfs, kKl, 5, 4)};
      break;
    case QueryMixKind::kCold:
      // More distinct shapes than the query cache holds (4 shards of 64
      // entries), offered in a cycle, so every lookup misses.
      for (size_t k = 1; k <= 20; ++k) {
        for (uint32_t l = 2; l <= 6; ++l) {
          pop.push_back(Q(FinderAlgorithm::kBfs, kKl, k, l));
          pop.push_back(Q(FinderAlgorithm::kDfs, kKl, k, l));
          pop.push_back(Q(FinderAlgorithm::kOnline, kKl, k, l));
        }
        for (uint32_t l = 2; l <= 4; ++l) {
          pop.push_back(Q(FinderAlgorithm::kBfs, kNorm, k, l));
          pop.push_back(Q(FinderAlgorithm::kDfs, kNorm, k, l));
        }
        pop.push_back(Q(FinderAlgorithm::kTa, kKl, k, 0));
      }
      break;
  }
  return pop;
}

// Short-lived chatter of one week: small dedicated vocabularies
// bursting for up to micro_span_max days in every post of a small
// slice.
std::vector<stabletext::Event> MicroEvents(const WorkloadSpec& spec,
                                           uint32_t week, uint64_t seed) {
  stabletext::Rng rng(seed);
  std::vector<stabletext::Event> events;
  for (uint32_t e = 0; e < spec.micro_events; ++e) {
    stabletext::Event event;
    event.name = "micro" + std::to_string(week) + "." + std::to_string(e);
    stabletext::EventPhase phase;
    const uint32_t span =
        static_cast<uint32_t>(rng.UniformInt(1, spec.micro_span_max));
    phase.begin_day = static_cast<uint32_t>(rng.Uniform(8 - span));
    phase.end_day = phase.begin_day + span - 1;
    const uint32_t words = static_cast<uint32_t>(rng.UniformInt(4, 6));
    const size_t base =
        (static_cast<size_t>(week) * spec.micro_events + e) * 8;
    for (uint32_t k = 0; k < words; ++k) {
      phase.keywords.push_back(
          "q" + stabletext::CorpusGenerator::BackgroundWord(base + k));
    }
    phase.post_fraction = 0.004 + 0.006 * rng.NextDouble();
    phase.min_mentions = words;
    event.phases.push_back(std::move(phase));
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Workloads()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& s : Workloads()) names.push_back(s.name);
  return names;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                  uint32_t tick_count, size_t open_queries) {
  Inputs in;
  const uint32_t days = spec.history_days + tick_count;
  const uint32_t weeks = (days + 6) / 7;
  stabletext::DocumentProcessor processor;
  in.planted.resize(days);
  for (uint32_t w = 0; w < weeks; ++w) {
    stabletext::CorpusGenOptions gen;
    gen.days = 7;
    gen.posts_per_day = spec.posts_per_day;
    gen.vocabulary = spec.vocabulary;
    gen.micro_events = 0;
    gen.seed = MixSeed(seed, 1, w);
    gen.script = stabletext::EventScript::PaperWeek();
    for (auto& e : MicroEvents(spec, w, MixSeed(seed, 2, w))) {
      gen.script.events.push_back(std::move(e));
    }
    const stabletext::CorpusGenerator generator(gen);
    for (uint32_t d = 0; d < 7 && w * 7 + d < days; ++d) {
      const uint32_t day = w * 7 + d;
      auto posts = generator.GenerateDay(d);
      (day < spec.history_days ? in.history : in.ticks)
          .push_back(std::move(posts));
      for (const stabletext::Event& event : gen.script.events) {
        for (const stabletext::EventPhase& phase : event.phases) {
          if (d < phase.begin_day || d > phase.end_day) continue;
          std::string text;
          for (const std::string& k : phase.keywords) text += k + " ";
          PlantedEvent p;
          p.name = event.name;
          p.keywords = processor.Process(day, text).keywords;
          p.posts = static_cast<uint32_t>(std::llround(
              phase.post_fraction * static_cast<double>(gen.posts_per_day)));
          // An event post mentions m keywords of n, m uniform in
          // [lo, n]: a given pair is co-mentioned with probability
          // E[m(m-1)] / (n(n-1)).
          const double n = static_cast<double>(phase.keywords.size());
          const uint32_t lo = std::min<uint32_t>(
              phase.min_mentions > 0 ? phase.min_mentions
                                     : gen.min_event_keywords,
              static_cast<uint32_t>(phase.keywords.size()));
          double pair = 0;
          for (uint32_t m = lo; m <= phase.keywords.size(); ++m) {
            pair += static_cast<double>(m) * (m - 1);
          }
          pair /= (n - lo + 1) * n * (n - 1);
          p.expected_pair_support = p.posts * pair;
          in.planted[day].push_back(std::move(p));
        }
      }
    }
  }

  in.population = Population(spec);
  stabletext::Rng rng(MixSeed(seed, 3, 0));
  const size_t n = std::max<size_t>(open_queries, 4096);
  in.sequence.reserve(n);
  if (spec.mix == QueryMixKind::kHot) {
    stabletext::ZipfDistribution zipf(in.population.size(), 1.1);
    while (in.sequence.size() < n) {
      in.sequence.push_back(static_cast<uint32_t>(zipf.Sample(&rng)));
    }
  } else if (spec.mix == QueryMixKind::kCold) {
    std::vector<uint32_t> cycle(in.population.size());
    for (uint32_t i = 0; i < cycle.size(); ++i) cycle[i] = i;
    while (in.sequence.size() < n) {
      rng.Shuffle(&cycle);
      in.sequence.insert(in.sequence.end(), cycle.begin(), cycle.end());
    }
  } else {
    while (in.sequence.size() < n) {
      in.sequence.push_back(
          static_cast<uint32_t>(rng.Uniform(in.population.size())));
    }
  }
  return in;
}

stabletext::EngineOptions EngineOptionsFor(const WorkloadSpec& spec,
                                           const std::string& dir,
                                           size_t threads) {
  stabletext::EngineOptions options;
  options.gap = spec.gap;
  options.threads = threads;
  options.clustering.pruning.min_pair_support = kMinPairSupport;
  if (!dir.empty()) {
    options.durability.enabled = true;
    options.durability.dir = dir;
  }
  return options;
}

std::string QueryName(const FinderQuery& q) {
  return std::string(stabletext::FinderAlgorithmName(q.algorithm)) +
         (q.mode == FinderMode::kKlStable ? "/kl" : "/norm") + " k" +
         std::to_string(q.k) + " l" + std::to_string(q.l);
}

}  // namespace stablebench
