// The three workloads and the inputs each one draws from its seed: the
// posts of the preloaded history and of the measured ticks (weeks of the
// PaperWeek script, each week generated with its own seed), the planted
// events of every day, and the query population and order.
#ifndef STABLEBENCH_INPUTS_H_
#define STABLEBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"

namespace stablebench {

/// What the offered queries look like.
enum class QueryMixKind {
  kTrickle,  ///< A few query shapes, drawn uniformly.
  kHot,      ///< A small set with Zipf popularity: mostly cache hits.
  kCold,     ///< Many distinct shapes in a shuffled cycle: cache misses.
};

/// Pool of every live engine. A pool's caller and workers next to the
/// serving threads would exceed four busy threads.
inline constexpr size_t kEngineThreads = 1;
/// Pool of the bulk-load engine and of the traced run's pool engine.
inline constexpr size_t kPoolThreads = 2;
/// Pruning floor of every engine.
inline constexpr uint32_t kMinPairSupport = 5;
/// Timed recoveries per run, at least this many and for at least
/// kRecoverMinNs, so that a short recovery is sampled over seconds of
/// the host's state rather than a fraction of one; recover_ms is their
/// median.
inline constexpr int kRecoverRepeats = 101;
inline constexpr int64_t kRecoverMinNs = 2'000'000'000;

/// Everything that defines one workload apart from the seed.
struct WorkloadSpec {
  std::string name;
  uint32_t gap = 0;
  size_t server_workers = 2;
  uint32_t posts_per_day = 0;     ///< Posts of every tick, history too.
  uint32_t vocabulary = 0;        ///< Background vocabulary.
  uint32_t micro_events = 0;      ///< Short chatter events per week.
  uint32_t micro_span_max = 2;    ///< Longest chatter event, in days.
  uint32_t history_days = 0;      ///< Ticks preloaded in setup.
  bool bulk_load = false;         ///< Preload through IngestCorpusFile.
  double tick_period_ms = 0;      ///< Fixed measured tick schedule.
  double open_rate_qps = 0;       ///< Open-loop offered rate.
  QueryMixKind mix = QueryMixKind::kTrickle;
  std::vector<stabletext::FinderQuery> subscriptions;
  int setup_repeats = 3;
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);
/// All workload names, for the usage text.
std::vector<std::string> WorkloadNames();

/// A planted event phase on one day: its keywords after preprocessing
/// and the number of posts that mention it.
struct PlantedEvent {
  std::string name;
  std::vector<std::string> keywords;
  uint32_t posts = 0;
  /// Expected number of posts co-mentioning any one keyword pair.
  double expected_pair_support = 0;
};

/// The generated inputs of one run.
struct Inputs {
  std::vector<std::vector<std::string>> history;  ///< One per day.
  std::vector<std::vector<std::string>> ticks;    ///< Measured ticks.
  /// planted[d]: events of global day d (history days, then ticks).
  std::vector<std::vector<PlantedEvent>> planted;
  std::vector<stabletext::FinderQuery> population;
  /// Indices into `population`, in offer order (the loops cycle it).
  std::vector<uint32_t> sequence;
};

/// Generates the inputs of `spec` for a measured phase of
/// `tick_count` ticks and `open_queries` open-loop queries.
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                  uint32_t tick_count, size_t open_queries);

/// Engine options of `spec`; durable in `dir` when non-empty.
stabletext::EngineOptions EngineOptionsFor(const WorkloadSpec& spec,
                                           const std::string& dir,
                                           size_t threads);

/// Short text form of a query, for reports ("bfs/kl k5 l3").
std::string QueryName(const stabletext::FinderQuery& q);

}  // namespace stablebench

#endif  // STABLEBENCH_INPUTS_H_
