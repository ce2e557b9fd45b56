#include "checks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "affinity/affinity.h"

namespace stablebench {

using stabletext::Cluster;
using stabletext::ClusterGraphEdge;
using stabletext::FinderAlgorithm;
using stabletext::FinderMode;
using stabletext::FinderQuery;
using stabletext::GraphSnapshot;
using stabletext::NodeId;
using stabletext::net::WireChain;

namespace {

const double kTheta = stabletext::AffinityOptions().theta;
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

std::string Str(double v) { return std::to_string(v); }

}  // namespace

double Jaccard(const Cluster& a, const Cluster& b) {
  size_t i = 0, j = 0, common = 0;
  while (i < a.keywords.size() && j < b.keywords.size()) {
    if (a.keywords[i] < b.keywords[j]) {
      ++i;
    } else if (b.keywords[j] < a.keywords[i]) {
      ++j;
    } else {
      ++common, ++i, ++j;
    }
  }
  const size_t uni = a.keywords.size() + b.keywords.size() - common;
  return uni == 0 ? 0 : static_cast<double>(common) /
                            static_cast<double>(uni);
}

Failures CheckEdges(const GraphSnapshot& snap, uint32_t gap, double theta) {
  Failures out;
  const auto& g = *snap.graph;
  for (uint32_t i = 1; i < snap.epoch; ++i) {
    const uint32_t lo = i > gap + 1 ? i - gap - 1 : 0;
    size_t wrong = 0;
    for (NodeId c : g.IntervalNodes(i)) {
      // Expected parents of c, recomputed from the keyword sets.
      std::vector<std::pair<NodeId, double>> want;
      for (uint32_t j = lo; j < i; ++j) {
        for (NodeId p : g.IntervalNodes(j)) {
          const double jac = Jaccard(*snap.NodeCluster(p),
                                     *snap.NodeCluster(c));
          if (jac > theta) want.emplace_back(p, jac);
        }
      }
      std::vector<std::pair<NodeId, double>> got;
      for (const ClusterGraphEdge e : g.Parents(c)) {
        got.emplace_back(e.target, e.weight);
      }
      std::sort(want.begin(), want.end());
      std::sort(got.begin(), got.end());
      bool same = want.size() == got.size();
      for (size_t k = 0; same && k < want.size(); ++k) {
        same = want[k].first == got[k].first &&
               Near(got[k].second, want[k].second);
      }
      if (!same) ++wrong;
    }
    if (wrong > 0) {
      out.push_back("interval " + std::to_string(i) + ": " +
                    std::to_string(wrong) +
                    " clusters with wrong affinity edges");
    }
  }
  return out;
}

double TopOneWeight(const GraphSnapshot& snap, uint32_t l) {
  const auto& g = *snap.graph;
  // best[n * (l+1) + len]: heaviest path of `len` intervals ending at n.
  std::vector<double> best(g.node_count() * (l + 1), kNegInf);
  double top = kNegInf;
  for (uint32_t i = 0; i < g.interval_count(); ++i) {
    for (NodeId c : g.IntervalNodes(i)) {
      double* bc = &best[static_cast<size_t>(c) * (l + 1)];
      bc[0] = 0;
      for (const ClusterGraphEdge e : g.Parents(c)) {
        const uint32_t span = i - g.Interval(e.target);
        const double* bp = &best[static_cast<size_t>(e.target) * (l + 1)];
        for (uint32_t len = span; len <= l; ++len) {
          if (bp[len - span] == kNegInf) continue;
          bc[len] = std::max(bc[len], bp[len - span] + e.weight);
        }
      }
      if (l > 0) top = std::max(top, bc[l]);
    }
  }
  return top;
}

Failures CheckAnswer(const GraphSnapshot& snap, uint32_t gap,
                     const FinderQuery& query,
                     const std::vector<WireChain>& chains) {
  Failures out;
  const auto& g = *snap.graph;
  const bool kl = query.mode == FinderMode::kKlStable;
  const uint32_t want_len =
      query.l != 0 ? query.l
                   : static_cast<uint32_t>(snap.epoch > 0 ? snap.epoch - 1
                                                          : 0);
  if (chains.size() > query.k) out.push_back("more than k chains");
  double prev_key = std::numeric_limits<double>::infinity();
  for (const WireChain& ch : chains) {
    if (ch.nodes.empty()) {
      out.push_back("empty chain");
      continue;
    }
    double weight = 0;
    bool valid = true;
    for (size_t i = 0; i < ch.nodes.size(); ++i) {
      if (ch.nodes[i] >= g.node_count()) {
        valid = false;
        break;
      }
      if (i == 0) continue;
      const uint32_t a = g.Interval(ch.nodes[i - 1]);
      const uint32_t b = g.Interval(ch.nodes[i]);
      if (b <= a || b - a > gap + 1) valid = false;
      const double jac = Jaccard(*snap.NodeCluster(ch.nodes[i - 1]),
                                 *snap.NodeCluster(ch.nodes[i]));
      if (!(jac > kTheta)) valid = false;
      weight += jac;
    }
    if (!valid) {
      out.push_back("chain with a bad node, span or edge");
      continue;
    }
    const uint32_t length =
        g.Interval(ch.nodes.back()) - g.Interval(ch.nodes.front());
    if (ch.length != length) out.push_back("stated length is wrong");
    if (kl ? length != want_len : length < query.l) {
      out.push_back("chain length " + std::to_string(length) +
                    " does not answer l=" + std::to_string(query.l));
    }
    if (!Near(ch.weight, weight)) {
      out.push_back("chain weight " + Str(ch.weight) +
                    " != recomputed " + Str(weight));
    }
    const double key = kl ? ch.weight : ch.weight / length;
    if (key > prev_key + 1e-12) out.push_back("chains out of order");
    prev_key = key;
  }
  if (kl && want_len < snap.epoch) {
    const double top = TopOneWeight(snap, want_len);
    if (top == kNegInf ? !chains.empty()
                       : chains.empty() || !Near(chains[0].weight, top)) {
      out.push_back("top-1 weight " +
                    Str(chains.empty() ? 0 : chains[0].weight) +
                    " != dynamic program " + Str(top));
    }
  }
  return out;
}

Failures CheckFinderAgreement(const GraphSnapshot& snap,
                              const std::vector<uint32_t>& ls, size_t k) {
  Failures out;
  auto weights = [&](FinderAlgorithm a, uint32_t l,
                     std::vector<double>* w) -> bool {
    FinderQuery q;
    q.algorithm = a;
    q.k = k;
    q.l = l;
    auto r = stabletext::QuerySnapshot(snap, q);
    if (!r.ok()) {
      out.push_back(std::string(stabletext::FinderAlgorithmName(a)) +
                    " failed: " + r.status().ToString());
      return false;
    }
    w->clear();
    for (const auto& ch : r.value().chains) w->push_back(ch.path.weight);
    return true;
  };
  auto same = [](const std::vector<double>& a, const std::vector<double>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!Near(a[i], b[i])) return false;
    }
    return true;
  };
  std::vector<double> bfs, other;
  for (uint32_t l : ls) {
    if (l >= snap.epoch || !weights(FinderAlgorithm::kBfs, l, &bfs)) continue;
    for (FinderAlgorithm a : {FinderAlgorithm::kDfs, FinderAlgorithm::kOnline}) {
      if (weights(a, l, &other) && !same(bfs, other)) {
        out.push_back(std::string(stabletext::FinderAlgorithmName(a)) +
                      " disagrees with bfs at epoch " +
                      std::to_string(snap.epoch) + " l=" + std::to_string(l));
      }
    }
  }
  if (snap.epoch >= 2) {
    const uint32_t full = static_cast<uint32_t>(snap.epoch - 1);
    if (weights(FinderAlgorithm::kBfs, full, &bfs) &&
        weights(FinderAlgorithm::kTa, 0, &other) && !same(bfs, other)) {
      out.push_back("ta disagrees with bfs on full paths at epoch " +
                    std::to_string(snap.epoch));
    }
  }
  return out;
}

std::vector<WireChain> WireChains(const stabletext::QueryResult& result) {
  std::vector<WireChain> out;
  for (const auto& ch : result.chains) {
    WireChain w;
    w.nodes = ch.path.nodes;
    w.weight = ch.path.weight;
    w.length = ch.path.length;
    out.push_back(std::move(w));
  }
  return out;
}

Failures CheckSameSnapshot(const GraphSnapshot& want, const GraphSnapshot& got,
                           const std::vector<FinderQuery>& queries) {
  Failures out;
  if (want.epoch != got.epoch) {
    out.push_back("epoch " + std::to_string(got.epoch) + " != " +
                  std::to_string(want.epoch));
    return out;
  }
  for (uint64_t i = 0; i < want.epoch; ++i) {
    const auto& a = want.intervals[i]->result.clusters;
    const auto& b = got.intervals[i]->result.clusters;
    bool same = a.size() == b.size();
    for (size_t j = 0; same && j < a.size(); ++j) {
      same = a[j].keywords == b[j].keywords;
    }
    if (!same) out.push_back("clusters differ in interval " +
                             std::to_string(i));
  }
  const auto& ga = *want.graph;
  const auto& gb = *got.graph;
  if (ga.node_count() != gb.node_count() ||
      ga.edge_count() != gb.edge_count()) {
    out.push_back("graph sizes differ");
    return out;
  }
  for (NodeId n = 0; n < ga.node_count(); ++n) {
    const auto pa = ga.Parents(n);
    const auto pb = gb.Parents(n);
    bool same = pa.size() == pb.size();
    for (size_t i = 0; same && i < pa.size(); ++i) {
      same = pa[i].target == pb[i].target && pa[i].weight == pb[i].weight;
    }
    if (!same) {
      out.push_back("adjacency differs at node " + std::to_string(n));
      break;
    }
  }
  for (const FinderQuery& q : queries) {
    auto ra = stabletext::QuerySnapshot(want, q);
    auto rb = stabletext::QuerySnapshot(got, q);
    if (!ra.ok() || !rb.ok() ||
        WireChains(ra.value()) != WireChains(rb.value())) {
      out.push_back("answers differ for " + QueryName(q));
    }
  }
  return out;
}

Failures CheckPlanted(const GraphSnapshot& snap,
                      const std::vector<std::vector<PlantedEvent>>& planted,
                      double min_support) {
  Failures out;
  std::unordered_map<std::string, stabletext::KeywordId> ids;
  for (size_t id = 0; id < snap.words.size(); ++id) {
    ids.emplace(snap.words.Word(static_cast<stabletext::KeywordId>(id)),
                static_cast<stabletext::KeywordId>(id));
  }
  for (uint64_t day = 0; day < snap.epoch && day < planted.size(); ++day) {
    const auto& clusters = snap.intervals[day]->result.clusters;
    for (const PlantedEvent& ev : planted[day]) {
      if (ev.expected_pair_support < min_support) continue;
      bool found = false;
      for (const Cluster& c : clusters) {
        found = true;
        for (const std::string& w : ev.keywords) {
          auto it = ids.find(w);
          if (it == ids.end() || !c.Contains(it->second)) {
            found = false;
            break;
          }
        }
        if (found) break;
      }
      if (!found) {
        out.push_back("event " + ev.name + " (" + std::to_string(ev.posts) +
                      " posts) not inside one cluster on day " +
                      std::to_string(day));
      }
    }
  }
  return out;
}

}  // namespace stablebench
