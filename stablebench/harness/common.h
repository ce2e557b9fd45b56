// Shared helpers of the benchmark harness: the monotonic clock, order
// statistics, operation accounting, the result line and the span recorder
// of the traced run.
#ifndef STABLEBENCH_COMMON_H_
#define STABLEBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace stablebench {

/// Nanoseconds on the monotonic clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// The CPUs this process may run on, in increasing order.
std::vector<int> AllowedCpus();
/// Restricts the calling thread, and the threads it starts from now on,
/// to `cpus`.
void PinThread(const std::vector<int>& cpus);

/// Median of `v` (0 for an empty sample).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest of p75, p90, p99 and p99.9 (nearest rank) with at least
/// ten samples beyond it; the median below forty samples.
inline double Tail(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (const double p : {0.999, 0.99, 0.9, 0.75}) {
    const size_t rank = static_cast<size_t>(std::ceil(p * n - 1e-9));
    if (v.size() - rank >= 10) return v[rank - 1];
  }
  return Median(v);
}

/// Attempted and failed operations of a run, by kind. A failure is a
/// non-OK ingest or recovery, a RETRY, ERROR or timed-out query, a
/// DELTA that never arrived, or an answer that fails a check.
struct Accounting {
  std::map<std::string, std::pair<uint64_t, uint64_t>> ops;
  std::vector<std::string> problems;  // First few failure descriptions.

  void Attempt(const std::string& kind, uint64_t n = 1) {
    ops[kind].first += n;
  }
  void Fail(const std::string& kind, const std::string& what,
            uint64_t n = 1) {
    ops[kind].second += n;
    if (problems.size() < 20) problems.push_back(kind + ": " + what);
  }
  uint64_t attempted() const {
    uint64_t a = 0;
    for (const auto& [k, v] : ops) a += v.first;
    return a;
  }
  uint64_t failed() const {
    uint64_t f = 0;
    for (const auto& [k, v] : ops) f += v.second;
    return f;
  }
};

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// \brief In-memory span recorder of the traced run.
///
/// Spans carry a name, start and end on the monotonic clock, the index
/// of the enclosing span (-1 at the top) and the tick or query id they
/// belong to. Used from the main thread only; written out once when the
/// run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;
    int64_t id = -1;
  };

  /// Records an already-timed span; returns its index, for use as a
  /// parent.
  int64_t Add(Span span) {
    spans_.push_back(std::move(span));
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  /// Writes one JSON object per span. Returns false on an I/O error.
  bool Write(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

/// Peak resident set of this process, in MB.
double PeakRssMb();

/// Current resident set of this process, in MB.
double CurrentRssMb();

/// Total bytes of the regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

/// Mixes a seed with a label and an index into an independent seed.
uint64_t MixSeed(uint64_t seed, uint64_t salt, uint64_t index);

}  // namespace stablebench

#endif  // STABLEBENCH_COMMON_H_
