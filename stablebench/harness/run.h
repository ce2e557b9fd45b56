// What one run keeps from its measured phase, and the traced run's
// per-layer measurements built on it.
#ifndef STABLEBENCH_RUN_H_
#define STABLEBENCH_RUN_H_

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/engine.h"
#include "inputs.h"
#include "loadgen.h"

namespace stablebench {

/// One measured tick.
struct TickRecord {
  uint64_t epoch = 0;
  int64_t call_ns = 0;   ///< IngestText called (posts handed over).
  int64_t ret_ns = 0;    ///< IngestText returned (epoch published).
  double lag_ms = 0;     ///< How late the schedule ran.
  size_t posts = 0;
  bool ok = false;
  uint64_t publish_ns = 0;     ///< EngineStats after the tick.
  uint64_t wal_bytes = 0;
  uint64_t checkpoint_ns = 0;
};

/// The measured phase of a run, as the traced run needs it.
struct LiveRun {
  const WorkloadSpec* spec = nullptr;
  const Inputs* inputs = nullptr;
  std::string run_dir;    ///< Scratch directory of this run.
  std::string data_dir;   ///< The live engine's WAL and checkpoints.
  std::string corpus;     ///< History corpus file ("" unless bulk).
  std::vector<TickRecord> ticks;
  const LoadResult* load = nullptr;
  uint64_t cache_hits = 0;    ///< Over the measured phase.
  uint64_t cache_misses = 0;
  std::shared_ptr<const stabletext::GraphSnapshot> final_snapshot;
  std::vector<double> recover_ms;
  Tracer* tracer = nullptr;
};

/// Serving-side measurements taken while the server is up and idle.
struct IdleServing {
  double idle_rtt_ms = 0;        ///< Client round trip, median.
  double rtt_minus_inproc_ms = 0;
  uint64_t rejected = 0;         ///< queries_rejected via STATS.
  bool ok = false;
};

/// Measures idle round trips against the running server on `port`.
IdleServing MeasureIdleServing(const stabletext::Engine& engine,
                               uint16_t port, const Inputs& inputs,
                               Tracer* tracer);

/// Runs the traced replay and returns every per-layer metric. Checks
/// that the replays equal the live run are appended to `failures`.
std::vector<Metric> MeasureLayers(const LiveRun& live,
                                  const IdleServing& idle,
                                  std::vector<std::string>* failures);

}  // namespace stablebench

#endif  // STABLEBENCH_RUN_H_
