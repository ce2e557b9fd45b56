#include "stable/bfs_finder.h"

#include <algorithm>
#include <cassert>

namespace stabletext {

namespace {

// Per-node annotation: heaps_[x] holds the top-k paths of length x ending
// at the node. In full-path mode a single heap is kept (x == interval),
// the "reduces the computation by a factor of l" special case of
// Section 4.2.
struct NodeAnnotation {
  std::vector<TopKHeap<>> heaps;  // Index = path length; [0] unused.
  uint32_t min_length = 0;        // Full mode: the single valid length.
  bool full_mode = false;

  TopKHeap<>* HeapFor(uint32_t length) {
    if (full_mode) {
      return length == min_length && !heaps.empty() ? &heaps[0] : nullptr;
    }
    if (length == 0 || length >= heaps.size()) return nullptr;
    return &heaps[length];
  }

  size_t MemoryBytes() const {
    size_t bytes = sizeof(*this);
    for (const auto& h : heaps) bytes += h.MemoryBytes();
    return bytes;
  }
};

}  // namespace

Result<StableFinderResult> BfsStableFinder::Find(
    const ClusterGraph& graph) const {
  const uint32_t m = graph.interval_count();
  StableFinderResult result;
  if (m < 2) return result;
  const uint32_t l = options_.l == 0 ? m - 1 : options_.l;
  if (l < 1 || l > m - 1) {
    return Status::InvalidArgument("path length l out of range");
  }
  const bool full_mode = (l == m - 1);
  const size_t k = options_.k;
  const uint32_t g = graph.gap();

  std::vector<NodeAnnotation> ann(graph.node_count());
  for (NodeId nid = 0; nid < graph.node_count(); ++nid) {
    NodeAnnotation& a = ann[nid];
    const uint32_t i = graph.Interval(nid);
    a.full_mode = full_mode;
    if (full_mode) {
      a.min_length = i;
      if (i >= 1) a.heaps.assign(1, TopKHeap<>(k));
    } else {
      const uint32_t max_len = std::min(l, i);
      a.heaps.assign(max_len + 1, TopKHeap<>(k));
    }
  }

  TopKHeap<> global(k);

  // chunk_of[node] = chunk index within the current window, or -1.
  std::vector<int> chunk_of(graph.node_count(), -1);

  for (uint32_t i = 1; i < m; ++i) {
    // The window: intervals [i-g-1, i-1] — every possible parent interval.
    const uint32_t window_begin = i >= g + 1 ? i - g - 1 : 0;

    // Partition window nodes into chunks that fit the memory budget
    // (block-nested-loop fallback of Section 4.2). With an unlimited
    // budget there is exactly one chunk.
    std::vector<NodeId> window_nodes;
    size_t window_bytes = 0;
    for (uint32_t iv = window_begin; iv < i; ++iv) {
      for (NodeId nid : graph.IntervalNodes(iv)) {
        window_nodes.push_back(nid);
        window_bytes += ann[nid].MemoryBytes();
      }
    }
    int chunk_count = 0;
    {
      size_t acc = 0;
      for (NodeId nid : window_nodes) {
        const size_t bytes = ann[nid].MemoryBytes();
        if (chunk_count == 0 ||
            (acc + bytes > options_.memory_budget_bytes && acc > 0)) {
          ++chunk_count;
          acc = 0;
        }
        acc += bytes;
        chunk_of[nid] = chunk_count - 1;
      }
      if (chunk_count == 0) chunk_count = 1;  // Empty window.
    }
    result.passes = std::max(result.passes, static_cast<size_t>(chunk_count));

    // Bytes of the current interval's annotations (built during the pass).
    auto interval_bytes = [&](uint32_t iv) {
      size_t bytes = 0;
      for (NodeId nid : graph.IntervalNodes(iv)) {
        bytes += ann[nid].MemoryBytes();
      }
      return bytes;
    };

    for (int chunk = 0; chunk < chunk_count; ++chunk) {
      // Read this chunk of window annotations (sequential I/O), plus one
      // sequential read per current-interval node.
      size_t chunk_bytes = 0;
      for (NodeId nid : window_nodes) {
        if (chunk_of[nid] == chunk) {
          ++result.io.page_reads;
          chunk_bytes += ann[nid].MemoryBytes();
        }
      }
      result.io.page_reads += graph.IntervalNodes(i).size();

      for (NodeId c : graph.IntervalNodes(i)) {
        for (const ClusterGraphEdge& pe : graph.Parents(c)) {
          const NodeId p = pe.target;
          if (chunk_of[p] != chunk) continue;
          const uint32_t len = i - graph.Interval(p);
          // Bare edge as a path of length len.
          {
            StablePath path;
            path.nodes = {p, c};
            path.weight = pe.weight;
            path.length = len;
            ++result.heap_offers;
            if (TopKHeap<>* h = ann[c].HeapFor(len)) h->Offer(path);
            if (len == l) {
              ++result.heap_offers;
              global.Offer(path);
            }
          }
          // Extensions of subpaths ending at p. An edge spanning l or
          // more intervals (possible when l <= gap) has none.
          if (len >= l) continue;
          const uint32_t x_hi = l - len;
          for (uint32_t x = 1; x <= x_hi; ++x) {
            TopKHeap<>* src = ann[p].HeapFor(x);
            if (src == nullptr) continue;
            for (const StablePath& pi : src->paths()) {
              StablePath extended = pi;
              extended.nodes.push_back(c);
              extended.weight += pe.weight;
              extended.length += len;
              ++result.heap_offers;
              if (TopKHeap<>* h = ann[c].HeapFor(extended.length)) {
                h->Offer(extended);
              }
              if (extended.length == l) {
                ++result.heap_offers;
                global.Offer(extended);
              }
            }
          }
        }
      }

      const size_t live = chunk_bytes + interval_bytes(i) +
                          global.MemoryBytes();
      result.peak_memory_bytes = std::max(result.peak_memory_bytes, live);
    }

    // Save the interval's annotations to disk (line 17 of Algorithm 2).
    result.io.page_writes += graph.IntervalNodes(i).size();
    for (NodeId nid : window_nodes) chunk_of[nid] = -1;
  }

  result.paths = global.paths();
  return result;
}

}  // namespace stabletext
