// The load generator: one thread multiplexing, with poll(2), a
// subscriber connection that holds every standing query, one closed-loop
// connection and the open-loop connections. Over the whole measured
// phase it offers queries in an open loop at a fixed rate, each timed
// from the moment it was due, and keeps one query outstanding on the
// closed-loop connection, counting completions per window. DELTA pushes
// are timestamped on arrival for freshness.
#ifndef STABLEBENCH_LOADGEN_H_
#define STABLEBENCH_LOADGEN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "stable/finder.h"
#include "util/status.h"

namespace stablebench {

/// Open-loop connections, used in turn. With the subscriber and the
/// closed-loop connection that makes four, the number of CPUs.
inline constexpr size_t kOpenConns = 2;
/// Closed-loop completions are counted per window of this length.
inline constexpr int64_t kWindowNs = 250'000'000;
/// After the phase, stragglers are waited for this long.
inline constexpr int64_t kDrainNs = 20'000'000'000;
/// Every n-th open-loop reply and every (32 n)-th closed-loop one is
/// kept for the wire check.
inline constexpr size_t kSampleEvery = 16;

struct LoadPlan {
  uint16_t port = 0;
  std::vector<stabletext::FinderQuery> subscriptions;
  const std::vector<stabletext::FinderQuery>* population = nullptr;
  const std::vector<uint32_t>* sequence = nullptr;
  int64_t start_ns = 0;  ///< Both loops run over [start_ns, end_ns).
  int64_t end_ns = 0;
  double rate_qps = 0;   ///< Open-loop offered rate.
  /// DELTAs are expected for epochs first_epoch..last_epoch inclusive,
  /// once per subscription.
  uint64_t first_epoch = 0;
  uint64_t last_epoch = 0;
};

/// One reply kept for the wire check.
struct SampledReply {
  uint32_t query = 0;  ///< Index into the population.
  stabletext::net::WireResult result;
};

struct LoadResult {
  std::vector<double> open_latency_ms;  ///< Due time -> RESULT.
  std::vector<double> send_lag_ms;      ///< Due time -> sent.
  std::vector<double> window_qps;       ///< Closed-loop windows.
  /// Arrival of the last subscription's DELTA, per epoch.
  std::map<uint64_t, int64_t> delta_done_ns;
  uint64_t open_attempted = 0;
  uint64_t closed_attempted = 0;
  uint64_t ok = 0;
  uint64_t retries = 0;
  uint64_t errors = 0;
  uint64_t timeouts = 0;
  uint64_t deltas_expected = 0;
  uint64_t deltas_received = 0;
  uint64_t deltas_missing = 0;
  uint64_t deltas_unexpected = 0;
  /// Top-k of each subscription after applying every DELTA.
  std::vector<std::vector<stabletext::net::WireChain>> subscription_topk;
  std::vector<SampledReply> samples;
  std::vector<std::string> problems;
};

/// \brief Drives the server as planned. Connect() runs on the calling
/// thread before the measured phase; Run() is the load thread's body.
class LoadGenerator {
 public:
  explicit LoadGenerator(LoadPlan plan) : plan_(std::move(plan)) {}
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Opens the subscriber and query connections and registers every
  /// standing query.
  stabletext::Status Connect();
  /// Sets the phase boundaries on the monotonic clock (NowNs()).
  void SetClock(int64_t start_ns, int64_t end_ns) {
    plan_.start_ns = start_ns;
    plan_.end_ns = end_ns;
  }
  /// Runs both loops and the drain; fills `result()`.
  void Run();
  const LoadResult& result() const { return result_; }

 private:
  struct Conn {
    int fd = -1;
    stabletext::net::FrameReader reader;
    std::string out;
    size_t out_off = 0;
    bool closed_busy = false;  // A closed-loop query is outstanding.
  };
  struct Pending {
    uint32_t query = 0;
    int64_t due_ns = 0;
    bool open = true;
    size_t conn = 0;
  };

  void Send(size_t conn, stabletext::net::MsgType type, uint64_t id,
            const std::string& body);
  void Flush(Conn* c);
  void OnFrame(const stabletext::net::Frame& frame, int64_t now);
  void SendQuery(size_t conn, uint32_t query, int64_t due, bool open);
  void Problem(const std::string& what);

  LoadPlan plan_;
  LoadResult result_;
  // [0] subscriber, [1] closed loop, [2..] open loop.
  std::vector<Conn> conns_;
  std::map<uint64_t, Pending> pending_;
  uint64_t next_request_ = 1;
  size_t next_seq_ = 0;
  size_t open_replies_ = 0;
  size_t closed_replies_ = 0;
  std::map<uint64_t, size_t> subscription_index_;
  std::map<std::pair<size_t, uint64_t>, int> seen_delta_;
  // Closed-loop completions per window of the phase.
  std::vector<uint64_t> closed_done_;
};

}  // namespace stablebench

#endif  // STABLEBENCH_LOADGEN_H_
