// Answer checks, computed independently of the finders and run outside
// every timed section: Jaccard affinities recomputed from the cluster
// keyword sets, a top-1 dynamic program per path length, chain validity,
// cross-finder agreement at gap 0, wire-versus-snapshot equality,
// snapshot equality (recovered or replayed against uninterrupted) and
// planted-event recall. Each returns a list of failures (empty = pass).
#ifndef STABLEBENCH_CHECKS_H_
#define STABLEBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "core/snapshot.h"
#include "inputs.h"
#include "net/protocol.h"

namespace stablebench {

using Failures = std::vector<std::string>;

/// Jaccard of two clusters' keyword sets.
double Jaccard(const stabletext::Cluster& a, const stabletext::Cluster& b);

/// Recomputes Jaccard between every cluster pair within the gap window
/// of every interval and compares the result (> theta) with the
/// snapshot's edge set and weights. One failure per wrong interval.
Failures CheckEdges(const stabletext::GraphSnapshot& snap, uint32_t gap,
                    double theta);

/// Best weight of a path of exactly `l` intervals in the snapshot
/// (-infinity when none exists), by dynamic programming.
double TopOneWeight(const stabletext::GraphSnapshot& snap, uint32_t l);

/// Validates one answer of `query` at `snap`: chain intervals, spans of
/// at most gap+1, stated and required length, weights equal to the sum
/// of recomputed affinities, at most k chains, best first, and (for
/// kl-stable queries) a first chain as heavy as the top-1 program.
Failures CheckAnswer(const stabletext::GraphSnapshot& snap, uint32_t gap,
                     const stabletext::FinderQuery& query,
                     const std::vector<stabletext::net::WireChain>& chains);

/// At gap 0: BFS, DFS and online agree on the top-k weights for each l
/// in `ls`, and TA agrees with BFS on full paths.
Failures CheckFinderAgreement(const stabletext::GraphSnapshot& snap,
                              const std::vector<uint32_t>& ls, size_t k);

/// Same epoch, clusters, adjacency (bit-exact weights) and answers to
/// every query of `queries`.
Failures CheckSameSnapshot(const stabletext::GraphSnapshot& want,
                           const stabletext::GraphSnapshot& got,
                           const std::vector<stabletext::FinderQuery>& queries);

/// Every planted event whose keyword pairs are expected to be
/// co-mentioned in at least `min_support` posts on a day comes back
/// inside one cluster of that day's interval.
Failures CheckPlanted(const stabletext::GraphSnapshot& snap,
                      const std::vector<std::vector<PlantedEvent>>& planted,
                      double min_support);

/// Wire form of a snapshot answer (what the server sends, unrendered).
std::vector<stabletext::net::WireChain> WireChains(
    const stabletext::QueryResult& result);

}  // namespace stablebench

#endif  // STABLEBENCH_CHECKS_H_
