// stablebench: the repository's end-to-end benchmark. One process runs a
// workload against the real Engine and net::Server:
//   1. setup: generate the inputs from --seed and preload the history
//      into a durable engine (repeated; setup_s is the median);
//   2. measured phase of --seconds: ticks on a fixed schedule, standing
//      subscriptions, an open-loop query stream at a fixed rate and a
//      one-connection closed loop, both over the whole phase;
//   3. recovery: Engine::Recover of the data directory (repeated);
//   4. answer checks, outside every timed section.
// The last line of standard output is one JSON object with `correct`,
// `attempted`, `failed` and `metrics` (end-to-end metrics, or with
// --trace 1 the per-layer metrics of the traced run).
//
//   stablebench --workload NAME --seed N --seconds S --trace 0|1

#include <malloc.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <thread>

#include "checks.h"
#include "common.h"
#include "inputs.h"
#include "loadgen.h"
#include "net/server.h"
#include "run.h"
#include "text/corpus.h"

namespace stablebench {
namespace {

namespace fs = std::filesystem;
using stabletext::Engine;
using stabletext::GraphSnapshot;

struct Args {
  std::string workload;
  std::string recover_dir;  // Set in the child that times recovery.
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
};

bool ParseU64(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string flag = argv[i];
    uint64_t v = 0;
    if (flag == "--workload") {
      args->workload = argv[i + 1];
    } else if (flag == "--recover-dir") {
      args->recover_dir = argv[i + 1];
    } else if (flag == "--seed" && ParseU64(argv[i + 1], &v)) {
      args->seed = v;
    } else if (flag == "--seconds" && ParseU64(argv[i + 1], &v) &&
               v >= 2 && v <= 600) {
      args->seconds = static_cast<int>(v);
    } else if (flag == "--trace" && ParseU64(argv[i + 1], &v) && v <= 1) {
      args->trace = static_cast<int>(v);
    } else {
      return false;
    }
  }
  return FindWorkload(args->workload) != nullptr &&
         (!args->recover_dir.empty() ||
          (args->seconds > 0 && args->trace >= 0));
}

const int64_t kStartNs = NowNs();

void Progress(const char* what) {
  std::fprintf(stderr, "stablebench: %7.2f s  %s\n",
               static_cast<double>(NowNs() - kStartNs) / 1e9, what);
}

void Usage() {
  std::string names;
  for (const std::string& n : WorkloadNames()) names += " " + n;
  std::fprintf(stderr,
               "usage: stablebench --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:%s\n",
               names.c_str());
}

// Preloads the history into a fresh durable engine in `dir`. A bulk load
// goes through IngestCorpusFile on an engine of its own, as the CLI's
// `ingest` does, and the live engine then recovers the directory.
stabletext::Result<std::unique_ptr<Engine>> Preload(
    const WorkloadSpec& spec, const Inputs& in, const std::string& dir,
    const std::string& corpus) {
  if (spec.bulk_load) {
    stabletext::CorpusWriter writer;
    ST_RETURN_IF_ERROR(writer.Open(corpus));
    for (uint32_t d = 0; d < in.history.size(); ++d) {
      for (const std::string& post : in.history[d]) {
        ST_RETURN_IF_ERROR(writer.Append(d, post));
      }
    }
    ST_RETURN_IF_ERROR(writer.Finish());
    {
      auto bulk = Engine::Recover(EngineOptionsFor(spec, dir, kPoolThreads));
      if (!bulk.ok()) return bulk.status();
      auto n = bulk.value()->IngestCorpusFile(corpus);
      if (!n.ok()) return n.status();
    }
    return Engine::Recover(EngineOptionsFor(spec, dir, kEngineThreads));
  }
  auto made = Engine::Recover(EngineOptionsFor(spec, dir, kEngineThreads));
  if (!made.ok()) return made.status();
  std::unique_ptr<Engine> engine = std::move(made).value();
  for (const auto& posts : in.history) {
    auto r = engine->IngestText(posts);
    if (!r.ok()) return r.status();
  }
  return engine;
}

// Times the recoveries of `dir`, printing one duration in ms per line.
int RecoverOnly(const WorkloadSpec& spec, const std::string& dir) {
  const int64_t start = NowNs();
  for (int r = 0; r < kRecoverRepeats || NowNs() - start < kRecoverMinNs;
       ++r) {
    const int64_t t0 = NowNs();
    auto rec = Engine::Recover(EngineOptionsFor(spec, dir, kEngineThreads));
    const int64_t t1 = NowNs();
    if (!rec.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   rec.status().ToString().c_str());
      return 1;
    }
    std::printf("%.6f\n", NsToMs(t1 - t0));
  }
  return 0;
}

// Runs RecoverOnly in a fresh process of this program, as a restart
// after a crash would: the timing does not depend on the heap and
// threads the measured phase left behind.
bool TimeRecovery(const WorkloadSpec& spec, const std::string& dir,
                  std::vector<double>* ms) {
  char exe[4096];
  const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  int fds[2];
  if (len <= 0 || ::pipe(fds) != 0) return false;
  exe[len] = '\0';
  std::vector<std::string> args = {exe, "--workload", spec.name,
                                   "--recover-dir", dir};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  pid_t pid = 0;
  const int rc =
      ::posix_spawn(&pid, exe, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string out;
  if (rc == 0) {
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) out.append(buf, n);
  }
  ::close(fds[0]);
  int status = 0;
  if (rc != 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return false;
  }
  const char* p = out.c_str();
  char* end = nullptr;
  for (double v = std::strtod(p, &end); end != p;
       p = end, v = std::strtod(p, &end)) {
    ms->push_back(v);
  }
  return ms->size() >= static_cast<size_t>(kRecoverRepeats);
}

void PrintResult(bool correct, const Accounting& acc,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(acc.attempted());
  out += ", \"failed\": " + std::to_string(acc.failed());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, "
                  "\"unit\": \"%s\"}", i ? ", " : "",
                  metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  const std::string run_dir =
      ".bench_out/run-" + std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(run_dir, ec);
  fs::create_directories(run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", run_dir.c_str());
    return 1;
  }
  const std::string data_dir = run_dir + "/data";
  const std::string corpus = run_dir + "/history.corpus";
  const double seconds = args.seconds;
  const uint32_t tick_count =
      static_cast<uint32_t>(seconds * 1000.0 / spec.tick_period_ms);
  const size_t open_queries =
      static_cast<size_t>(spec.open_rate_qps * seconds);
  Accounting acc;
  Tracer tracer;
  Tracer* tr = args.trace ? &tracer : nullptr;

  // ---- 1. Setup: inputs from the seed, then the history preload.
  std::vector<double> setup_s;
  Inputs in;
  std::unique_ptr<Engine> engine;
  // The resident set once the first inputs exist and no engine does:
  // what the harness itself holds, less than peak_rss_mb counts.
  double inputs_rss_mb = 0;
  for (int r = 0; r < spec.setup_repeats; ++r) {
    engine.reset();
    in = Inputs();
    fs::remove_all(data_dir, ec);
    const int64_t t0 = NowNs();
    in = MakeInputs(spec, args.seed, tick_count, open_queries);
    if (r == 0) inputs_rss_mb = CurrentRssMb();
    auto made = Preload(spec, in, data_dir, corpus);
    const int64_t t1 = NowNs();
    if (!made.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    engine = std::move(made).value();
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    if (tr) tr->Add({"setup", t0, t1, -1, r});
  }
  const uint64_t base_epoch = engine->snapshot()->epoch;
  Progress("setup done");

  // ---- 2. Measured phase.
  // The serving side (the server's threads, started here, and the load
  // generator) runs on one CPU and the tick thread on another (README,
  // "CPU placement"). Threads inherit the CPUs of the thread that starts
  // them.
  const std::vector<int> cpus = AllowedCpus();
  const bool place = cpus.size() >= 2;
  if (place) PinThread({cpus[1]});
  stabletext::net::ServerOptions sopts;
  sopts.workers = spec.server_workers;
  auto server = std::make_unique<stabletext::net::Server>(engine.get(),
                                                          sopts);
  if (!server->Start().ok()) {
    std::fprintf(stderr, "server failed to start\n");
    return 1;
  }
  LoadPlan plan;
  plan.port = server->port();
  plan.subscriptions = spec.subscriptions;
  plan.population = &in.population;
  plan.sequence = &in.sequence;
  plan.rate_qps = spec.open_rate_qps;
  plan.first_epoch = base_epoch + 1;
  plan.last_epoch = base_epoch + tick_count;
  LoadGenerator load(plan);
  if (auto s = load.Connect(); !s.ok()) {
    std::fprintf(stderr, "load generator: %s\n", s.ToString().c_str());
    return 1;
  }
  // Every epoch a sampled reply can name stays pinned until the checks.
  std::vector<std::shared_ptr<const GraphSnapshot>> pinned;
  pinned.push_back(engine->snapshot());
  const stabletext::EngineStats stats_before = engine->stats();

  const int64_t start = NowNs() + 20'000'000;
  const int64_t period = static_cast<int64_t>(spec.tick_period_ms * 1e6);
  load.SetClock(start, start + static_cast<int64_t>(seconds * 1e9));
  LoadGenerator* lg = &load;
  std::thread load_thread([lg] { lg->Run(); });
  if (place) PinThread({cpus[0]});

  std::vector<TickRecord> ticks;
  for (uint32_t i = 0; i < tick_count; ++i) {
    const int64_t due = start + static_cast<int64_t>(i) * period;
    int64_t now = NowNs();
    if (due > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    TickRecord t;
    t.call_ns = NowNs();
    t.lag_ms = NsToMs(t.call_ns - due);
    t.posts = in.ticks[i].size();
    auto r = engine->IngestText(in.ticks[i]);
    t.ret_ns = NowNs();
    t.ok = r.ok();
    t.epoch = base_epoch + i + 1;
    acc.Attempt("tick");
    if (!r.ok()) acc.Fail("tick", r.status().ToString());
    pinned.push_back(engine->snapshot());
    if (tr) {
      const stabletext::EngineStats st = engine->stats();
      t.publish_ns = st.publish_ns;
      t.wal_bytes = st.wal_bytes;
      t.checkpoint_ns = st.checkpoint_ns;
      tr->Add({"tick", t.call_ns, t.ret_ns, -1,
               static_cast<int64_t>(t.epoch)});
    }
    ticks.push_back(t);
  }
  Progress("ticks done");
  load_thread.join();
  const LoadResult& lr = load.result();
  const stabletext::EngineStats stats_after = engine->stats();
  // Before the checks and the untimed recovery below, which hold a
  // second engine and the checks' own state.
  const double peak_rss_mb = PeakRssMb() - inputs_rss_mb;
  Progress(("inputs RSS " + std::to_string(inputs_rss_mb) +
            " MB, peak above it " + std::to_string(peak_rss_mb) + " MB")
               .c_str());

  acc.Attempt("query", lr.open_attempted + lr.closed_attempted);
  if (lr.retries) acc.Fail("query", "RETRY", lr.retries);
  if (lr.errors) acc.Fail("query", "ERROR", lr.errors);
  if (lr.timeouts) acc.Fail("query", "timeout", lr.timeouts);
  acc.Attempt("delta", lr.deltas_expected);
  if (lr.deltas_missing) acc.Fail("delta", "missing", lr.deltas_missing);
  if (lr.deltas_unexpected) {
    acc.Fail("delta", "unexpected", lr.deltas_unexpected);
  }
  for (const std::string& p : lr.problems) {
    std::fprintf(stderr, "load: %s\n", p.c_str());
  }

  Progress("load generator done");
  IdleServing idle;
  if (tr) {
    // The idle client runs where the load generator ran.
    if (place) PinThread({cpus[1]});
    idle = MeasureIdleServing(*engine, server->port(), in, tr);
  }
  if (place) PinThread(cpus);

  // Checks that need the pinned epochs: sampled wire replies equal the
  // snapshot answer of their epoch and pass the answer checks; each
  // subscriber's delta-applied top-k equals the last epoch's answer.
  const auto final_snapshot = engine->snapshot();
  // Snapshot answers per (epoch, query), each computed and checked once.
  std::map<std::pair<uint64_t, uint32_t>,
           std::vector<stabletext::net::WireChain>> answers;
  for (const SampledReply& s : lr.samples) {
    const auto& q = in.population[s.query];
    const uint64_t e = s.result.epoch;
    if (e < base_epoch || e - base_epoch >= pinned.size()) {
      acc.Fail("query", "reply names an unknown epoch");
      continue;
    }
    auto it = answers.find({e, s.query});
    if (it == answers.end()) {
      const GraphSnapshot& snap = *pinned[e - base_epoch];
      auto want = stabletext::QuerySnapshot(snap, q);
      if (!want.ok()) {
        acc.Fail("query", QueryName(q) + ": " + want.status().ToString());
        continue;
      }
      it = answers.emplace(std::make_pair(e, s.query),
                           WireChains(want.value())).first;
      for (const std::string& f : CheckAnswer(snap, spec.gap, q,
                                              it->second)) {
        acc.Fail("query", QueryName(q) + ": " + f);
      }
    }
    if (it->second != s.result.chains) {
      acc.Fail("query", "wire reply differs from the snapshot answer for " +
                            QueryName(q));
    }
  }
  for (size_t i = 0; i < spec.subscriptions.size(); ++i) {
    auto want = stabletext::QuerySnapshot(*final_snapshot,
                                          spec.subscriptions[i]);
    if (!want.ok() ||
        WireChains(want.value()) != lr.subscription_topk[i]) {
      acc.Fail("delta", "subscription top-k differs from the last epoch");
    }
  }
  const uint64_t hits =
      stats_after.query_cache_hits - stats_before.query_cache_hits;
  const uint64_t misses =
      stats_after.query_cache_misses - stats_before.query_cache_misses;

  Progress("measured phase checked, shutting down");
  server->Shutdown();
  server.reset();
  engine.reset();
  pinned.resize(1);  // Keep the preloaded epoch for the gap-0 checks.

  // ---- 3. Recovery of the data directory: timed in a fresh process,
  // then once more here, untimed, for the checks.
  std::vector<double> recover_ms;
  {
    const int64_t t0 = NowNs();
    // The recovering process inherits this thread's CPUs: one, as the
    // tick thread had.
    if (place) PinThread({cpus[0]});
    if (TimeRecovery(spec, data_dir, &recover_ms)) {
      acc.Attempt("recovery", recover_ms.size());
    } else {
      acc.Attempt("recovery", kRecoverRepeats);
      acc.Fail("recovery", "timed recovery failed");
    }
    if (place) PinThread(cpus);
    if (tr) tr->Add({"recovery.process", t0, NowNs(), -1, 0});
  }
  std::unique_ptr<Engine> recovered;
  acc.Attempt("recovery");
  {
    auto rec = Engine::Recover(EngineOptionsFor(spec, data_dir,
                                                kEngineThreads));
    if (rec.ok()) {
      recovered = std::move(rec).value();
    } else {
      acc.Fail("recovery", rec.status().ToString());
    }
  }
  const double disk_mb = static_cast<double>(DirectoryBytes(data_dir)) / 1e6;

  Progress("recovered, checking");
  // ---- 4. Checks on the final state.
  size_t check_failures = 0;
  auto fail_all = [&](const std::string& kind, const Failures& fs) {
    for (const std::string& f : fs) acc.Fail(kind, f);
    check_failures += fs.size();
  };
  if (recovered != nullptr) {
    fail_all("recovery", CheckSameSnapshot(*final_snapshot,
                                           *recovered->snapshot(),
                                           in.population));
  }
  const double theta = stabletext::AffinityOptions().theta;
  fail_all("tick", CheckEdges(*final_snapshot, spec.gap, theta));
  // Pairs expected at four times the pruning floor survive it on every
  // seed; nearer the floor, binomial variation drops some.
  fail_all("tick", CheckPlanted(*final_snapshot, in.planted,
                                4.0 * kMinPairSupport));
  for (const auto& q : in.population) {
    auto r = stabletext::QuerySnapshot(*final_snapshot, q);
    if (!r.ok()) {
      acc.Fail("query", QueryName(q) + ": " + r.status().ToString());
      continue;
    }
    fail_all("query", CheckAnswer(*final_snapshot, spec.gap, q,
                                  WireChains(r.value())));
  }
  if (spec.gap == 0) {
    // On the preloaded history and at the end of the run.
    const std::vector<uint32_t> ls = {2, 3, 4, 5, 6};
    fail_all("query", CheckFinderAgreement(*final_snapshot, ls, 5));
    fail_all("query", CheckFinderAgreement(*pinned.front(), ls, 5));
  }

  std::vector<Metric> metrics;
  LiveRun live;
  if (tr) {
    live.spec = &spec;
    live.inputs = &in;
    live.run_dir = run_dir;
    live.data_dir = data_dir;
    live.corpus = spec.bulk_load ? corpus : "";
    live.ticks = ticks;
    live.load = &lr;
    live.cache_hits = hits;
    live.cache_misses = misses;
    live.final_snapshot = final_snapshot;
    live.recover_ms = recover_ms;
    live.tracer = tr;
    recovered.reset();
    std::vector<std::string> failures;
    metrics = MeasureLayers(live, idle, &failures);
    for (const std::string& f : failures) acc.Fail("tick", f);
    const std::string trace_path = ".bench_out/trace-" + spec.name +
                                   "-seed" + std::to_string(args.seed) +
                                   ".jsonl";
    if (!tracer.Write(trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "trace: %zu spans in %s\n", tracer.size(),
                   trace_path.c_str());
    }
  } else {
    std::vector<double> tick_ms, fresh_ms;
    double ingest_ns = 0, posts = 0;
    for (const TickRecord& t : ticks) {
      if (!t.ok) continue;
      tick_ms.push_back(NsToMs(t.ret_ns - t.call_ns));
      ingest_ns += static_cast<double>(t.ret_ns - t.call_ns);
      posts += static_cast<double>(t.posts);
      auto it = lr.delta_done_ns.find(t.epoch);
      if (it != lr.delta_done_ns.end()) {
        fresh_ms.push_back(NsToMs(it->second - t.call_ns));
      }
    }
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"tick_p50_ms", Median(tick_ms), "ms"},
        {"tick_tail_ms", Tail(tick_ms), "ms"},
        {"ingest_posts_per_s", ingest_ns > 0 ? posts * 1e9 / ingest_ns : 0,
         "posts/s"},
        {"freshness_p50_ms", Median(fresh_ms), "ms"},
        {"query_p50_ms", Median(lr.open_latency_ms), "ms"},
        {"served_qps", Median(lr.window_qps), "q/s"},
        {"recover_ms", Median(recover_ms), "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"disk_mb", disk_mb, "MB"},
    };
  }
  recovered.reset();
  pinned.clear();
  fs::remove_all(run_dir, ec);

  for (const auto& [kind, v] : acc.ops) {
    std::fprintf(stderr, "%-9s attempted %8" PRIu64 "  failed %" PRIu64 "\n",
                 kind.c_str(), v.first, v.second);
  }
  for (const std::string& p : acc.problems) {
    std::fprintf(stderr, "failure: %s\n", p.c_str());
  }
  Progress("done");
  const bool correct = check_failures == 0 && acc.failed() == 0;
  PrintResult(correct, acc, metrics);
  return 0;
}

}  // namespace
}  // namespace stablebench

int main(int argc, char** argv) {
  // Fixed allocator thresholds. By default glibc moves its mmap threshold
  // as large blocks are freed, so whether a tick's large temporaries are
  // mmap'ed and unmapped every tick depends on the run's history; with
  // that churn, crawl_durable's served_qps spread 0.88 between seeds and
  // its ticks ran about 5 % slower (README).
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  stablebench::Args args;
  if (!stablebench::ParseArgs(argc, argv, &args)) {
    stablebench::Usage();
    return 2;
  }
  if (!args.recover_dir.empty()) {
    return stablebench::RecoverOnly(*stablebench::FindWorkload(args.workload),
                                    args.recover_dir);
  }
  return stablebench::Run(args);
}
