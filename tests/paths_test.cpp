#include "graph/paths.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>

#include "graph/topology.hpp"
#include "util/rng.hpp"

namespace dust::graph {
namespace {

Graph diamond() {
  // 0-1, 0-2, 1-3, 2-3 plus the chord 1-2.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.add_edge(1, 2);
  return g;
}

TEST(BfsHops, LineGraph) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const auto dist = bfs_hops(g, 0);
  EXPECT_EQ(dist, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(BfsHops, UnreachableMarked) {
  Graph g(3);
  g.add_edge(0, 1);
  const auto dist = bfs_hops(g, 0);
  EXPECT_EQ(dist[2], kUnreachable);
}

TEST(BfsHops, FatTreeDiameter) {
  const FatTree ft(4);
  // Edge switches in different pods are exactly 4 hops apart
  // (edge-agg-core-agg-edge).
  const auto dist = bfs_hops(ft.graph(), ft.edge_switch(0, 0));
  EXPECT_EQ(dist[ft.edge_switch(1, 0)], 4u);
  EXPECT_EQ(dist[ft.edge_switch(0, 1)], 2u);  // same pod via aggregation
  EXPECT_EQ(dist[ft.aggregation(0, 0)], 1u);
}

TEST(BfsHops, InvalidSourceThrows) {
  Graph g(2);
  EXPECT_THROW(bfs_hops(g, 5), std::out_of_range);
}

TEST(Dijkstra, PrefersCheapLongPath) {
  Graph g(3);
  const EdgeId direct = g.add_edge(0, 2);
  const EdgeId hop1 = g.add_edge(0, 1);
  const EdgeId hop2 = g.add_edge(1, 2);
  std::vector<double> cost(3);
  cost[direct] = 10.0;
  cost[hop1] = 1.0;
  cost[hop2] = 2.0;
  const ShortestPathTree tree = dijkstra(g, 0, cost);
  EXPECT_DOUBLE_EQ(tree.distance[2], 3.0);
  const Path path = tree.extract(g, 0, 2);
  EXPECT_EQ(path.nodes, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(path.hops(), 2u);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  Graph g(3);
  const EdgeId e = g.add_edge(0, 1);
  std::vector<double> cost(1, 1.0);
  (void)e;
  const ShortestPathTree tree = dijkstra(g, 0, cost);
  EXPECT_EQ(tree.distance[2], kInfiniteCost);
  EXPECT_TRUE(tree.extract(g, 0, 2).nodes.empty());
}

TEST(Dijkstra, NegativeCostThrows) {
  Graph g(2);
  g.add_edge(0, 1);
  std::vector<double> cost{-1.0};
  EXPECT_THROW(dijkstra(g, 0, cost), std::invalid_argument);
}

TEST(Dijkstra, CostSizeMismatchThrows) {
  Graph g(2);
  g.add_edge(0, 1);
  std::vector<double> cost;
  EXPECT_THROW(dijkstra(g, 0, cost), std::invalid_argument);
}

TEST(PathCost, SumsEdgeCosts) {
  Graph g = diamond();
  std::vector<double> cost{1, 2, 4, 8, 16};
  const auto paths = enumerate_simple_paths(g, 0, 3, 0);
  for (const Path& p : paths) {
    double expected = 0;
    for (EdgeId e : p.edges) expected += cost[e];
    EXPECT_DOUBLE_EQ(p.cost(cost), expected);
  }
}

TEST(Enumerate, DiamondAllPaths) {
  Graph g = diamond();
  const auto paths = enumerate_simple_paths(g, 0, 3, 0);
  // 0-1-3, 0-2-3, 0-1-2-3, 0-2-1-3.
  EXPECT_EQ(paths.size(), 4u);
  std::set<std::vector<NodeId>> node_seqs;
  for (const Path& p : paths) {
    EXPECT_EQ(p.source(), 0u);
    EXPECT_EQ(p.destination(), 3u);
    EXPECT_EQ(p.nodes.size(), p.edges.size() + 1);
    node_seqs.insert(p.nodes);
  }
  EXPECT_EQ(node_seqs.size(), 4u);  // all distinct
}

TEST(Enumerate, HopBoundFilters) {
  Graph g = diamond();
  EXPECT_EQ(enumerate_simple_paths(g, 0, 3, 2).size(), 2u);
  EXPECT_EQ(enumerate_simple_paths(g, 0, 3, 1).size(), 0u);
  EXPECT_EQ(enumerate_simple_paths(g, 0, 3, 3).size(), 4u);
}

TEST(Enumerate, MaxPathsCapStopsEarly) {
  Graph g = diamond();
  EXPECT_EQ(enumerate_simple_paths(g, 0, 3, 0, 2).size(), 2u);
}

TEST(Enumerate, SimplePathsNeverRevisit) {
  Graph g = diamond();
  for (const Path& p : enumerate_simple_paths(g, 0, 3, 0)) {
    std::set<NodeId> seen(p.nodes.begin(), p.nodes.end());
    EXPECT_EQ(seen.size(), p.nodes.size());
  }
}

TEST(CountPaths, MatchesEnumeration) {
  Graph g = diamond();
  EXPECT_EQ(count_simple_paths(g, 0, 3, 0), 4u);
  EXPECT_EQ(count_simple_paths(g, 0, 3, 2), 2u);
}

TEST(CountPaths, FatTreeInterPod) {
  const FatTree ft(4);
  // Between edge switches in different pods, the 4-hop paths go via one of
  // the 2 aggregations and then one of its 2 cores: 4 paths.
  EXPECT_EQ(count_simple_paths(ft.graph(), ft.edge_switch(0, 0),
                               ft.edge_switch(1, 0), 4),
            4u);
  // Same pod, 2 hops: one per aggregation.
  EXPECT_EQ(count_simple_paths(ft.graph(), ft.edge_switch(0, 0),
                               ft.edge_switch(0, 1), 2),
            2u);
}

TEST(ForEachSimplePath, VisitsMultipleTargets) {
  Graph g = diamond();
  std::set<NodeId> targets{1, 2};
  std::size_t count = 0;
  for_each_simple_path(
      g, 0, [&targets](NodeId v) { return targets.count(v) > 0; }, 2,
      [&count](const Path&) {
        ++count;
        return true;
      });
  // To node 1: {0-1}, {0-2-1}; to node 2: {0-2}, {0-1-2}.
  EXPECT_EQ(count, 4u);
}

TEST(ForEachSimplePath, CallbackCanAbort) {
  Graph g = diamond();
  std::size_t count = 0;
  for_each_simple_path(
      g, 0, [](NodeId) { return true; }, 0,
      [&count](const Path&) {
        ++count;
        return count < 3;
      });
  EXPECT_EQ(count, 3u);
}

TEST(HopBoundedMinCost, MatchesEnumerationOnDiamond) {
  Graph g = diamond();
  std::vector<double> cost{1, 5, 1, 1, 1};
  for (std::uint32_t bound : {1u, 2u, 3u, 0u}) {
    const auto dp = hop_bounded_min_cost(g, 0, cost, bound);
    for (NodeId v = 1; v < 4; ++v) {
      const auto paths = enumerate_simple_paths(g, 0, v, bound);
      double best = kInfiniteCost;
      for (const Path& p : paths) best = std::min(best, p.cost(cost));
      EXPECT_DOUBLE_EQ(dp[v], best) << "node " << v << " bound " << bound;
    }
  }
}

TEST(HopBoundedMinCost, ZeroMeansUnbounded) {
  Graph g(5);
  std::vector<double> cost;
  for (int i = 0; i < 4; ++i) {
    g.add_edge(i, i + 1);
    cost.push_back(1.0);
  }
  const auto dp = hop_bounded_min_cost(g, 0, cost, 0);
  EXPECT_DOUBLE_EQ(dp[4], 4.0);
  const auto bounded = hop_bounded_min_cost(g, 0, cost, 3);
  EXPECT_EQ(bounded[4], kInfiniteCost);
}

// Dense layered Bellman-Ford over walks of at most `max_hops` edges: every
// reached node is re-expanded at every layer. The sparse shared-frontier
// sweep must reproduce its labels bit for bit.
std::vector<double> dense_layered_min_cost(const Graph& g, NodeId src,
                                           const std::vector<double>& cost,
                                           std::uint32_t max_hops) {
  const std::size_t n = g.node_count();
  const std::uint32_t bound =
      max_hops == 0 ? static_cast<std::uint32_t>(n) - 1 : max_hops;
  std::vector<double> best(n, kInfiniteCost);
  std::vector<double> frontier(n, kInfiniteCost);
  std::vector<double> next(n);
  best[src] = frontier[src] = 0.0;
  for (std::uint32_t hop = 0; hop < bound; ++hop) {
    std::fill(next.begin(), next.end(), kInfiniteCost);
    for (NodeId node = 0; node < n; ++node) {
      if (frontier[node] == kInfiniteCost) continue;
      for (const Adjacency& adj : g.neighbors(node))
        next[adj.neighbor] =
            std::min(next[adj.neighbor], frontier[node] + cost[adj.edge]);
    }
    bool improved = false;
    for (NodeId node = 0; node < n; ++node) {
      if (next[node] < best[node]) {
        best[node] = next[node];
        improved = true;
      }
    }
    frontier.swap(next);
    if (!improved) break;
  }
  return best;
}

// Tie-breaking pin for the shared-frontier sweep. With costs drawn from six
// dyadic values every path sum is exact, so equal-cost routes tie all over
// the fat-tree and which one lands in used_edges depends only on the order
// the sweep relaxes edges in. The digest (labels, used_edges words, rounds
// for every source and hop bound) was recorded from the sweep that expands
// each layer's frontier in first-touch order; any change to that order
// changes the recorded edge support, the cache decisions built on it, and
// with them the placements.
TEST(HopBoundedMinCost, SharedFrontierPinnedOnQuantizedFatTree) {
  const FatTree ft(8);
  const Graph& g = ft.graph();
  util::Rng rng(2024);
  const double levels[] = {0.25, 0.5, 0.75, 1.0, 1.5, 2.0};
  std::vector<double> cost(g.edge_count());
  for (double& c : cost) c = levels[rng.below(6)];
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over 64-bit words
  const auto mix = [&h](std::uint64_t word) {
    h ^= word;
    h *= 0x100000001b3ULL;
  };
  std::vector<double> best;
  std::vector<std::uint64_t> used;
  for (std::uint32_t max_hops : {1u, 2u, 3u, 4u, 0u}) {
    for (NodeId src = 0; src < g.node_count(); ++src) {
      std::size_t rounds = 0;
      shared_frontier_labels_into(g, src, cost, max_hops, best, &used, &rounds);
      const std::vector<double> dense =
          dense_layered_min_cost(g, src, cost, max_hops);
      for (NodeId v = 0; v < g.node_count(); ++v) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(best[v]),
                  std::bit_cast<std::uint64_t>(dense[v]))
            << "src " << src << " node " << v << " hops " << max_hops;
        mix(std::bit_cast<std::uint64_t>(best[v]));
      }
      ASSERT_EQ(used.size(), (g.edge_count() + 63) / 64);
      for (std::uint64_t word : used) mix(word);
      mix(rounds);
    }
  }
  EXPECT_EQ(h, 0x04f7bf70061208d5ULL) << std::hex << "0x" << h;
}

class RandomGraphSweep : public ::testing::TestWithParam<std::uint64_t> {};

// Property: the DP evaluator equals exhaustive enumeration for every target
// and hop bound (this underpins the paper-faithful vs. fast Trmin claim).
TEST_P(RandomGraphSweep, DpEqualsEnumeration) {
  util::Rng rng(GetParam());
  const Graph g = make_random_connected(9, 8, rng);
  std::vector<double> cost(g.edge_count());
  for (double& c : cost) c = rng.uniform(0.1, 10.0);
  for (std::uint32_t bound : {1u, 2u, 3u, 5u, 0u}) {
    const auto dp = hop_bounded_min_cost(g, 0, cost, bound);
    for (NodeId v = 1; v < g.node_count(); ++v) {
      double best = kInfiniteCost;
      for (const Path& p : enumerate_simple_paths(g, 0, v, bound))
        best = std::min(best, p.cost(cost));
      if (best == kInfiniteCost)
        EXPECT_EQ(dp[v], kInfiniteCost);
      else
        EXPECT_NEAR(dp[v], best, 1e-9);
    }
  }
}

// Property: Dijkstra equals unbounded DP.
TEST_P(RandomGraphSweep, DijkstraEqualsUnboundedDp) {
  util::Rng rng(GetParam() ^ 0xabcdef);
  const Graph g = make_random_connected(30, 40, rng);
  std::vector<double> cost(g.edge_count());
  for (double& c : cost) c = rng.uniform(0.1, 10.0);
  const ShortestPathTree tree = dijkstra(g, 3, cost);
  const auto dp = hop_bounded_min_cost(g, 3, cost, 0);
  for (NodeId v = 0; v < g.node_count(); ++v)
    EXPECT_NEAR(tree.distance[v], dp[v], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphSweep,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

TEST(KShortest, OrderedDistinctLoopless) {
  Graph g = diamond();
  std::vector<double> cost{1, 2, 4, 8, 16};
  const auto paths = k_shortest_paths(g, 0, 3, cost, 10);
  EXPECT_EQ(paths.size(), 4u);  // only 4 simple paths exist
  for (std::size_t i = 1; i < paths.size(); ++i)
    EXPECT_LE(paths[i - 1].cost(cost), paths[i].cost(cost));
  std::set<std::vector<NodeId>> distinct;
  for (const Path& p : paths) {
    distinct.insert(p.nodes);
    std::set<NodeId> seen(p.nodes.begin(), p.nodes.end());
    EXPECT_EQ(seen.size(), p.nodes.size()) << "loop found";
  }
  EXPECT_EQ(distinct.size(), paths.size());
}

TEST(KShortest, FirstMatchesDijkstra) {
  util::Rng rng(77);
  const Graph g = make_random_connected(15, 20, rng);
  std::vector<double> cost(g.edge_count());
  for (double& c : cost) c = rng.uniform(0.5, 5.0);
  const auto paths = k_shortest_paths(g, 0, 14, cost, 3);
  ASSERT_FALSE(paths.empty());
  const ShortestPathTree tree = dijkstra(g, 0, cost);
  EXPECT_NEAR(paths[0].cost(cost), tree.distance[14], 1e-9);
}

TEST(KShortest, KZeroEmpty) {
  Graph g = diamond();
  std::vector<double> cost(5, 1.0);
  EXPECT_TRUE(k_shortest_paths(g, 0, 3, cost, 0).empty());
}

TEST(KShortest, DisconnectedEmpty) {
  Graph g(3);
  g.add_edge(0, 1);
  std::vector<double> cost{1.0};
  EXPECT_TRUE(k_shortest_paths(g, 0, 2, cost, 5).empty());
}

TEST(KShortest, MatchesEnumerationRanking) {
  util::Rng rng(88);
  const Graph g = make_random_connected(8, 6, rng);
  std::vector<double> cost(g.edge_count());
  for (double& c : cost) c = rng.uniform(0.5, 5.0);
  const NodeId dst = 7;
  auto all = enumerate_simple_paths(g, 0, dst, 0);
  std::sort(all.begin(), all.end(), [&cost](const Path& a, const Path& b) {
    return a.cost(cost) < b.cost(cost);
  });
  const std::size_t k = std::min<std::size_t>(4, all.size());
  const auto top = k_shortest_paths(g, 0, dst, cost, k);
  ASSERT_EQ(top.size(), k);
  for (std::size_t i = 0; i < k; ++i)
    EXPECT_NEAR(top[i].cost(cost), all[i].cost(cost), 1e-9);
}

}  // namespace
}  // namespace dust::graph
