// The traced run's per-layer measurements. Every number is taken from
// outside the library, around the public entry point of a layer, on the
// workload's own inputs:
//   - a lockstep replay of every day through the tick's stages
//     (DocumentProcessor, KeywordDict, CooccurrenceCounter, GraphBuilder,
//     ClusterExtractor, SimilarityJoin) next to a single-thread engine and
//     a 2-thread engine, whose outputs must equal the live run's;
//   - WAL appends at each tick's record size, Durability::Open of the
//     live data directory, cold QueryAt and RunFinder per query class;
//   - wire encode/decode of the sampled replies, and the serving numbers
//     of the measured phase and of an idle server.

#include "affinity/similarity_join.h"
#include "checks.h"
#include "cluster/cluster_extractor.h"
#include "cooccur/cooccurrence_counter.h"
#include "core/durability.h"
#include "graph/graph_builder.h"
#include "net/client.h"
#include "run.h"
#include "storage/wal.h"
#include "text/corpus.h"
#include "text/document.h"

namespace stablebench {

using stabletext::Engine;
using stabletext::FinderAlgorithm;
using stabletext::FinderMode;
using stabletext::FinderQuery;

namespace {

// Times `fn` on the monotonic clock; records a top-level span when
// tracing.
template <typename Fn>
double TimedMs(Tracer* tr, const char* name, int64_t id, Fn&& fn) {
  const int64_t t0 = NowNs();
  fn();
  const int64_t t1 = NowNs();
  if (tr) tr->Add({name, t0, t1, -1, id});
  return NsToMs(t1 - t0);
}

}  // namespace

IdleServing MeasureIdleServing(const Engine& engine, uint16_t port,
                               const Inputs& in, Tracer* tr) {
  IdleServing out;
  stabletext::net::Client client;
  if (!client.Connect("127.0.0.1", port, 3).ok()) return out;
  const auto snap = engine.snapshot();
  std::vector<double> rtt, diff;
  const size_t n = std::min<size_t>(in.population.size(), 24);
  for (int rep = 0; rep < 3; ++rep) {
    for (size_t i = 0; i < n; ++i) {
      const FinderQuery& q = in.population[i];
      // Warm the cache at this epoch, so both sides below are hits and
      // the difference is the network path alone.
      (void)engine.QueryAt(snap, q);
      bool retry = false;
      const int64_t t0 = NowNs();
      auto r = client.Query(q, false, &retry);
      const int64_t t1 = NowNs();
      (void)engine.QueryAt(snap, q);
      const int64_t t2 = NowNs();
      if (!r.ok() || retry) return out;
      if (tr) tr->Add({"net.idle_rtt", t0, t1, -1, static_cast<int64_t>(i)});
      rtt.push_back(NsToMs(t1 - t0));
      diff.push_back(NsToMs((t1 - t0) - (t2 - t1)));
    }
  }
  auto stats = client.Stats();
  if (!stats.ok()) return out;
  out.rejected = stats.value().queries_rejected;
  out.idle_rtt_ms = Median(rtt);
  out.rtt_minus_inproc_ms = Median(diff);
  out.ok = true;
  return out;
}

std::vector<Metric> MeasureLayers(const LiveRun& live,
                                  const IdleServing& idle,
                                  std::vector<std::string>* failures) {
  const WorkloadSpec& spec = *live.spec;
  const Inputs& in = *live.inputs;
  Tracer* tr = live.tracer;
  const uint32_t history = static_cast<uint32_t>(in.history.size());
  const uint32_t days = history + static_cast<uint32_t>(in.ticks.size());
  auto posts_of = [&](uint32_t d) -> const std::vector<std::string>& {
    return d < history ? in.history[d] : in.ticks[d - history];
  };
  auto fail = [&](const std::string& f) { failures->push_back(f); };
  const auto& final_snap = *live.final_snapshot;

  // ---- Lockstep replay: stages, a 1-thread engine, a pool engine.
  const stabletext::EngineOptions options =
      EngineOptionsFor(spec, live.run_dir + "/replay1", 1);
  auto e1 = Engine::Recover(options);
  // The pool engine, so the pool's speed-up is measured although the
  // live engines run one thread.
  auto en = Engine::Recover(EngineOptionsFor(
      spec, live.run_dir + "/replayN", kPoolThreads));
  if (!e1.ok() || !en.ok()) {
    fail("replay engines could not be created");
    return {};
  }
  stabletext::WalWriter wal;
  if (!wal.Create(live.run_dir + "/wal-probe", nullptr, nullptr).ok()) {
    fail("cannot create the WAL probe");
    return {};
  }
  stabletext::KeywordDict dict;
  stabletext::IoStats io;
  const stabletext::DocumentProcessor processor;
  std::vector<std::vector<stabletext::Cluster>> clusters_by_day;
  std::vector<double> tokenize, intern, emit, pairs, sort, prune, kept,
      extract, clusters, join, cand, wal_commit, tick1, tickn, rest,
      coverage;
  uint64_t wal_seen = 0;
  // The graph after the first week: where kl-stable DFS is timed at
  // gap 1 (on longer gap-1 histories it can run for seconds; README).
  std::shared_ptr<const stabletext::GraphSnapshot> first_week;
  for (uint32_t d = 0; d < days; ++d) {
    const auto& posts = posts_of(d);
    // The day's stage spans, recorded under its replay.tick span.
    const int64_t day_start = NowNs();
    std::vector<Tracer::Span> stages;
    auto stage = [&](const char* name, auto&& fn) {
      const int64_t t0 = NowNs();
      fn();
      const int64_t t1 = NowNs();
      stages.push_back({name, t0, t1, -1, d});
      return NsToMs(t1 - t0);
    };
    std::vector<stabletext::Document> docs(posts.size());
    const double t_tok = stage("text.tokenize", [&] {
      for (size_t i = 0; i < posts.size(); ++i) {
        docs[i] = processor.Process(d, posts[i]);
      }
    });
    std::vector<std::vector<stabletext::KeywordId>> interned(docs.size());
    const double t_int = stage("cooccur.intern", [&] {
      for (size_t i = 0; i < docs.size(); ++i) {
        interned[i].reserve(docs[i].keywords.size());
        for (const std::string& w : docs[i].keywords) {
          interned[i].push_back(dict.Intern(w));
        }
        std::sort(interned[i].begin(), interned[i].end());
      }
    });
    stabletext::CooccurrenceCounter counter(
        &dict, options.clustering.counting, &io);
    bool ok = true;
    const double t_emit = stage("cooccur.emit", [&] {
      for (const auto& ids : interned) ok = ok && counter.AddInterned(ids).ok();
    });
    stabletext::CooccurrenceTable table;
    const double t_sort = stage("storage.pair_sort", [&] {
      ok = ok && counter.Finish(&table, dict.size()).ok();
    });
    stabletext::KeywordGraphSummary summary;
    stabletext::KeywordGraph graph;
    const double t_prune = stage("graph.prune", [&] {
      graph = stabletext::GraphBuilder(options.clustering.pruning)
                  .Build(table, &summary);
    });
    stabletext::ClusterExtractorOptions ext = options.clustering.extraction;
    ext.biconnected.io_stats = &io;
    std::vector<stabletext::Cluster> cl;
    const double t_ext = stage("cluster.extract", [&] {
      auto r = stabletext::ClusterExtractor(ext).Extract(graph, d);
      if (r.ok()) cl = std::move(r).value(); else ok = false;
    });
    if (!ok) {
      fail("stage replay failed on day " + std::to_string(d));
      return {};
    }
    // Gap-window joins against the earlier days' replayed clusters.
    const uint32_t lo = d > spec.gap + 1 ? d - spec.gap - 1 : 0;
    stabletext::SimilarityJoinStats js;
    std::vector<std::pair<stabletext::NodeId, std::pair<uint32_t, double>>>
        edges;  // (child index, (parent node, affinity)).
    const double t_join = stage("affinity.join", [&] {
      const stabletext::SimilarityJoin join(options.affinity);
      for (uint32_t iv = lo; iv < d; ++iv) {
        for (const auto& m : join.Join(clusters_by_day[iv], cl, &js)) {
          edges.push_back(
              {m.right,
               {final_snap.graph->IntervalNodes(iv)[m.left], m.affinity}});
        }
      }
    });
    // The replayed clusters and joins must equal the live run's.
    const auto& live_cl = final_snap.intervals[d]->result.clusters;
    bool same = live_cl.size() == cl.size();
    for (size_t j = 0; same && j < cl.size(); ++j) {
      same = live_cl[j].keywords == cl[j].keywords;
    }
    if (same) {
      size_t live_edges = 0;
      for (const auto n : final_snap.graph->IntervalNodes(d)) {
        live_edges += final_snap.graph->Parents(n).size();
      }
      same = live_edges == edges.size();
      for (const auto& [child, pe] : edges) {
        const auto n = final_snap.graph->IntervalNodes(d)[child];
        bool found = false;
        for (const auto e : final_snap.graph->Parents(n)) {
          found = found || (e.target == pe.first &&
                            std::min(pe.second, 1.0) == e.weight);
        }
        same = same && found;
      }
    }
    if (!same) fail("stage replay differs from the live run on day " +
                    std::to_string(d));
    clusters_by_day.push_back(std::move(cl));

    bool engines_ok = true;
    const double t_tick1 = stage("core.tick", [&] {
      engines_ok = e1.value()->IngestText(posts).ok();
    });
    const uint64_t wal_now = e1.value()->stats().wal_bytes;
    const std::string payload(
        wal_now - wal_seen > 8 ? wal_now - wal_seen - 8 : 1, 'x');
    wal_seen = wal_now;
    const double t_wal = stage("storage.wal_commit", [&] {
      engines_ok = engines_ok && wal.Append(payload.data(), payload.size()).ok() &&
                   wal.Sync().ok();
    });
    const double t_tickn = stage("core.tick_pool", [&] {
      engines_ok = engines_ok && en.value()->IngestText(posts).ok();
    });
    if (d == 6) first_week = e1.value()->snapshot();
    if (tr) {
      const int64_t parent =
          tr->Add({"replay.tick", day_start, NowNs(), -1, d});
      for (Tracer::Span& sp : stages) {
        sp.parent = parent;
        tr->Add(std::move(sp));
      }
    }
    if (!engines_ok) {
      fail("replay engines failed on day " + std::to_string(d));
      return {};
    }
    if (d < history) continue;
    const double stage_sum =
        t_tok + t_int + t_emit + t_sort + t_prune + t_ext + t_join + t_wal;
    tokenize.push_back(t_tok);
    intern.push_back(t_int);
    emit.push_back(t_emit);
    pairs.push_back(static_cast<double>(counter.pair_count()));
    sort.push_back(t_sort);
    prune.push_back(t_prune);
    kept.push_back(static_cast<double>(summary.prune.surviving_edges));
    extract.push_back(t_ext);
    clusters.push_back(static_cast<double>(clusters_by_day.back().size()));
    join.push_back(t_join);
    cand.push_back(js.result_pairs ? static_cast<double>(js.candidate_pairs) /
                                         static_cast<double>(js.result_pairs)
                                   : static_cast<double>(js.candidate_pairs));
    wal_commit.push_back(t_wal);
    tick1.push_back(t_tick1);
    tickn.push_back(t_tickn);
    rest.push_back(t_tick1 - stage_sum);
    coverage.push_back(stage_sum / t_tick1);
  }
  (void)wal.Close();
  for (auto* e : {&e1, &en}) {
    for (const std::string& f : CheckSameSnapshot(
             final_snap, *e->value()->snapshot(), in.population)) {
      fail("replayed engine differs from the live run: " + f);
    }
  }
  e1.value().reset();
  en.value().reset();

  // ---- Batch ingest: per-tick IngestText against IngestCorpusFile.
  std::string corpus = live.corpus;
  if (corpus.empty()) {
    corpus = live.run_dir + "/history.corpus";
    stabletext::CorpusWriter writer;
    bool ok = writer.Open(corpus).ok();
    for (uint32_t d = 0; ok && d < history; ++d) {
      for (const std::string& p : in.history[d]) {
        ok = ok && writer.Append(d, p).ok();
      }
    }
    if (!ok || !writer.Finish().ok()) fail("cannot write the history corpus");
  }
  double per_tick_ms = 0, bulk_ms = 0;
  {
    auto a = Engine::Recover(EngineOptionsFor(
        spec, live.run_dir + "/batch-a", kPoolThreads));
    auto b = Engine::Recover(EngineOptionsFor(
        spec, live.run_dir + "/batch-b", kPoolThreads));
    bool ok = a.ok() && b.ok();
    if (ok) {
      per_tick_ms = TimedMs(tr, "core.ingest_per_tick", 0, [&] {
        for (const auto& posts : in.history) {
          ok = ok && a.value()->IngestText(posts).ok();
        }
      });
      bulk_ms = TimedMs(tr, "core.ingest_corpus_file", 0, [&] {
        ok = ok && b.value()->IngestCorpusFile(corpus).ok();
      });
    }
    if (!ok) fail("batch ingest failed");
  }

  // ---- Recovery split: reading the directory, then replaying it.
  stabletext::DurabilityOptions durability = options.durability;
  durability.dir = live.data_dir;
  std::vector<double> read_ms;
  for (int r = 0; r < kRecoverRepeats; ++r) {
    stabletext::Durability::RecoveredState state;
    std::unique_ptr<stabletext::Durability> dur;
    read_ms.push_back(TimedMs(tr, "storage.recover_read", r, [&] {
      auto opened = stabletext::Durability::Open(durability, &state);
      if (opened.ok()) dur = std::move(opened).value();
    }));
    if (dur == nullptr) fail("Durability::Open failed");
  }
  const double recover_read = Median(read_ms);

  // ---- Cold queries on a freshly recovered engine.
  std::vector<double> miss_ms;
  {
    auto rec = Engine::Recover(
        EngineOptionsFor(spec, live.data_dir, kEngineThreads));
    if (!rec.ok()) {
      fail("recovery for cold queries failed");
    } else {
      const auto snap = rec.value()->snapshot();
      for (size_t i = 0; i < in.population.size(); ++i) {
        miss_ms.push_back(TimedMs(tr, "core.query_miss", i, [&] {
          (void)rec.value()->QueryAt(snap, in.population[i]);
        }));
      }
    }
  }

  // ---- Finder runs per query class on the final graph.
  struct Class {
    const char* metric;
    FinderAlgorithm algorithm;
    FinderMode mode;
    uint32_t l;
  };
  const Class classes[] = {
      {"stable.bfs_ms", FinderAlgorithm::kBfs, FinderMode::kKlStable, 3},
      {"stable.dfs_ms", FinderAlgorithm::kDfs, FinderMode::kKlStable, 3},
      {"stable.online_cold_ms", FinderAlgorithm::kOnline,
       FinderMode::kKlStable, 3},
      {"stable.normalized_ms", FinderAlgorithm::kBfs, FinderMode::kNormalized,
       2},
      {"stable.ta_ms", FinderAlgorithm::kTa, FinderMode::kKlStable, 0},
  };
  std::vector<Metric> finder_metrics;
  double heap_offers = 0, ta_edges = 0;
  for (const Class& c : classes) {
    FinderQuery q;
    q.algorithm = c.algorithm;
    q.mode = c.mode;
    q.k = 5;
    q.l = c.l;
    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
      stabletext::Result<stabletext::StableFinderResult> r =
          stabletext::Status::Internal("not run");
      ms.push_back(TimedMs(tr, c.metric, rep, [&] {
        r = stabletext::RunFinder(c.algorithm == FinderAlgorithm::kDfs &&
                                          spec.gap != 0 && first_week
                                      ? *first_week->graph
                                      : *final_snap.graph,
                                  q);
      }));
      if (rep == 0 && r.ok()) {
        heap_offers += static_cast<double>(r.value().heap_offers);
        if (c.algorithm == FinderAlgorithm::kTa) {
          ta_edges = static_cast<double>(r.value().edges_scanned);
        }
      }
      // TA answers full paths at gap 0 only; elsewhere the registry
      // refuses it and the time is that of the refusal.
      if (!r.ok() && !(c.algorithm == FinderAlgorithm::kTa && spec.gap != 0)) {
        fail(std::string(c.metric) + ": " + r.status().ToString());
      }
    }
    finder_metrics.push_back({c.metric, Median(ms), "ms"});
  }

  // ---- Wire encode and decode of the sampled replies.
  std::vector<double> enc_us, dec_us;
  const auto& samples = live.load->samples;
  for (size_t i = 0; i < samples.size() && i < 64; ++i) {
    constexpr int kReps = 200;
    std::string frame;
    const int64_t t0 = NowNs();
    for (int r = 0; r < kReps; ++r) {
      frame = stabletext::net::EncodeFrame(
          stabletext::net::MsgType::kResult, 1,
          stabletext::net::EncodeResultBody(samples[i].result));
    }
    const int64_t t1 = NowNs();
    bool ok = true;
    for (int r = 0; r < kReps; ++r) {
      stabletext::net::FrameReader reader;
      reader.Feed(frame.data(), frame.size());
      stabletext::net::Frame f;
      stabletext::net::WireResult w;
      ok = ok && reader.Next(&f).ok() &&
           stabletext::net::DecodeResultBody(f.body, &w).ok();
    }
    const int64_t t2 = NowNs();
    if (!ok) fail("sampled reply does not round-trip");
    if (tr) {
      tr->Add({"net.encode", t0, t1, -1, static_cast<int64_t>(i)});
      tr->Add({"net.decode", t1, t2, -1, static_cast<int64_t>(i)});
    }
    enc_us.push_back(static_cast<double>(t1 - t0) / 1e3 / kReps);
    dec_us.push_back(static_cast<double>(t2 - t1) / 1e3 / kReps);
  }

  // ---- Measured-phase numbers of the live run.
  std::vector<double> publish_us, wal_bytes, checkpoint_ms, push_ms, lag;
  uint64_t prev_wal = 0, prev_ck = 0;
  for (size_t i = 0; i < live.ticks.size(); ++i) {
    const TickRecord& t = live.ticks[i];
    publish_us.push_back(static_cast<double>(t.publish_ns) / 1e3);
    if (i > 0) wal_bytes.push_back(static_cast<double>(t.wal_bytes - prev_wal));
    if (t.checkpoint_ns != prev_ck) {
      checkpoint_ms.push_back(static_cast<double>(t.checkpoint_ns) / 1e6);
    }
    prev_wal = t.wal_bytes;
    prev_ck = t.checkpoint_ns;
    lag.push_back(t.lag_ms);
    auto it = live.load->delta_done_ns.find(t.epoch);
    if (it != live.load->delta_done_ns.end()) {
      push_ms.push_back(NsToMs(it->second - t.ret_ns));
    }
  }
  lag.insert(lag.end(), live.load->send_lag_ms.begin(),
             live.load->send_lag_ms.end());
  if (checkpoint_ms.empty() && !live.ticks.empty()) {
    checkpoint_ms.push_back(
        static_cast<double>(live.ticks.back().checkpoint_ns) / 1e6);
  }
  const double lookups =
      static_cast<double>(live.cache_hits + live.cache_misses);

  std::vector<Metric> m = {
      {"text.tokenize_ms", Median(tokenize), "ms"},
      {"cooccur.intern_ms", Median(intern), "ms"},
      {"cooccur.emit_ms", Median(emit), "ms"},
      {"cooccur.pairs", Median(pairs), "count"},
      {"storage.pair_sort_ms", Median(sort), "ms"},
      {"storage.wal_commit_ms", Median(wal_commit), "ms"},
      {"storage.wal_bytes", Median(wal_bytes), "bytes"},
      {"storage.checkpoint_ms", Median(checkpoint_ms), "ms"},
      {"storage.recover_read_ms", recover_read, "ms"},
      {"graph.prune_ms", Median(prune), "ms"},
      {"graph.edges_kept", Median(kept), "count"},
      {"cluster.extract_ms", Median(extract), "ms"},
      {"cluster.clusters", Median(clusters), "count"},
      {"affinity.join_ms", Median(join), "ms"},
      {"affinity.candidates_per_match", Median(cand), "ratio"},
      {"core.tick_ms", Median(tick1), "ms"},
      {"core.commit_rest_ms", Median(rest), "ms"},
      {"core.stage_coverage", Median(coverage), "ratio"},
      {"core.publish_us", Median(publish_us), "us"},
      {"core.pool_speedup",
       Median(tickn) > 0 ? Median(tick1) / Median(tickn) : 0, "ratio"},
      {"core.pipeline_speedup", bulk_ms > 0 ? per_tick_ms / bulk_ms : 0,
       "ratio"},
      {"core.replay_ms", Median(live.recover_ms) - recover_read, "ms"},
      {"core.query_miss_ms", Median(miss_ms), "ms"},
      {"core.cache_hit_ratio",
       lookups > 0 ? static_cast<double>(live.cache_hits) / lookups : 0,
       "ratio"},
  };
  m.insert(m.end(), finder_metrics.begin(), finder_metrics.end());
  m.push_back({"stable.heap_offers", heap_offers, "count"});
  m.push_back({"stable.ta_edges_scanned", ta_edges, "count"});
  m.push_back({"net.encode_us", Median(enc_us), "us"});
  m.push_back({"net.decode_us", Median(dec_us), "us"});
  m.push_back({"net.idle_rtt_ms", idle.rtt_minus_inproc_ms, "ms"});
  m.push_back({"net.load_wait_ms",
               Median(live.load->open_latency_ms) - idle.idle_rtt_ms, "ms"});
  m.push_back({"net.query_tail_ms", Tail(live.load->open_latency_ms), "ms"});
  m.push_back({"net.push_ms", Median(push_ms), "ms"});
  m.push_back({"net.rejected", static_cast<double>(idle.rejected), "count"});
  m.push_back({"loadgen.lag_ms", Tail(lag), "ms"});
  if (!idle.ok) fail("idle serving measurement failed");
  return m;
}

}  // namespace stablebench
