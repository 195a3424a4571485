// Tests for hop-bounded path reconstruction, edge-disjoint routes, and the
// DOT exporter.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <sstream>

#include "graph/dot.hpp"
#include "graph/paths.hpp"
#include "graph/topology.hpp"
#include "util/rng.hpp"

namespace dust::graph {
namespace {

Graph square() {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  return g;
}

TEST(HopBoundedPath, ReconstructsMinCostRoute) {
  Graph g = square();
  std::vector<double> cost{5.0, 5.0, 1.0, 1.0};
  const Path path = hop_bounded_path(g, 0, 3, cost, 0);
  EXPECT_EQ(path.nodes, (std::vector<NodeId>{0, 2, 3}));
  EXPECT_DOUBLE_EQ(path.cost(cost), 2.0);
}

TEST(HopBoundedPath, BoundForcesShorterRoute) {
  // Line 0-1-2 plus expensive direct 0-2.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  std::vector<double> cost{1.0, 1.0, 10.0};
  EXPECT_EQ(hop_bounded_path(g, 0, 2, cost, 0).hops(), 2u);  // cheap 2-hop
  const Path bounded = hop_bounded_path(g, 0, 2, cost, 1);
  EXPECT_EQ(bounded.hops(), 1u);  // must take the expensive direct edge
  EXPECT_DOUBLE_EQ(bounded.cost(cost), 10.0);
}

TEST(HopBoundedPath, UnreachableEmpty) {
  Graph g(3);
  g.add_edge(0, 1);
  std::vector<double> cost{1.0};
  EXPECT_TRUE(hop_bounded_path(g, 0, 2, cost, 0).nodes.empty());
  Graph h = square();
  std::vector<double> hcost(4, 1.0);
  EXPECT_TRUE(hop_bounded_path(h, 0, 3, hcost, 1).nodes.empty());
}

TEST(HopBoundedPath, SelfPathTrivial) {
  Graph g = square();
  std::vector<double> cost(4, 1.0);
  const Path path = hop_bounded_path(g, 2, 2, cost, 0);
  EXPECT_EQ(path.nodes, (std::vector<NodeId>{2}));
  EXPECT_TRUE(path.edges.empty());
}

class HopBoundedPathSweep : public ::testing::TestWithParam<std::uint64_t> {};

// Property: reconstructed path cost equals hop_bounded_min_cost for every
// destination and bound.
TEST_P(HopBoundedPathSweep, CostMatchesDp) {
  util::Rng rng(GetParam());
  const Graph g = make_random_connected(12, 10, rng);
  std::vector<double> cost(g.edge_count());
  for (double& c : cost) c = rng.uniform(0.1, 5.0);
  for (std::uint32_t bound : {2u, 3u, 0u}) {
    const auto dp = hop_bounded_min_cost(g, 0, cost, bound);
    for (NodeId v = 1; v < g.node_count(); ++v) {
      const Path path = hop_bounded_path(g, 0, v, cost, bound);
      if (dp[v] == kInfiniteCost) {
        EXPECT_TRUE(path.nodes.empty());
      } else {
        ASSERT_FALSE(path.nodes.empty());
        EXPECT_NEAR(path.cost(cost), dp[v], 1e-9);
        if (bound) {
          EXPECT_LE(path.hops(), bound);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HopBoundedPathSweep,
                         ::testing::Values(1u, 2u, 3u, 4u));

// The dense layered DP hop_bounded_path used before the corridor search:
// every layer relaxes every reached node in ascending id, each through its
// adjacency in order, keeping the first strictly better candidate; dst's
// route ends at the first layer of its cheapest cost. One table per
// (src, bound) serves every destination, so the reference returns the
// route to each node.
std::vector<Path> dense_reference_paths(const Graph& g, NodeId src,
                                        std::span<const double> edge_cost,
                                        std::uint32_t max_hops) {
  const std::size_t n = g.node_count();
  const std::uint32_t bound =
      max_hops == 0 ? static_cast<std::uint32_t>(n) - 1 : max_hops;
  std::vector<double> cost((bound + 1) * n, kInfiniteCost);
  std::vector<EdgeId> via((bound + 1) * n, kInvalidEdge);
  std::vector<double> best(n, kInfiniteCost);
  std::vector<std::uint32_t> best_layer(n, 0);
  cost[src] = 0.0;
  for (std::uint32_t h = 1; h <= bound; ++h) {
    const std::size_t prev = (h - 1) * n;
    const std::size_t cur = h * n;
    for (NodeId node = 0; node < n; ++node) {
      if (cost[prev + node] == kInfiniteCost) continue;
      for (const Adjacency& adj : g.neighbors(node)) {
        const double candidate = cost[prev + node] + edge_cost[adj.edge];
        if (candidate < cost[cur + adj.neighbor]) {
          cost[cur + adj.neighbor] = candidate;
          via[cur + adj.neighbor] = adj.edge;
        }
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      if (cost[cur + v] < best[v]) {
        best[v] = cost[cur + v];
        best_layer[v] = h;
      }
    }
  }
  std::vector<Path> paths(n);
  for (NodeId dst = 0; dst < n; ++dst) {
    Path& path = paths[dst];
    if (dst == src) {
      path.nodes.push_back(src);
      continue;
    }
    if (best[dst] == kInfiniteCost) continue;
    NodeId node = dst;
    for (std::uint32_t h = best_layer[dst]; h > 0; --h) {
      const EdgeId edge = via[h * n + node];
      path.edges.push_back(edge);
      path.nodes.push_back(node);
      node = g.edge(edge).other(node);
    }
    path.nodes.push_back(src);
    std::reverse(path.nodes.begin(), path.nodes.end());
    std::reverse(path.edges.begin(), path.edges.end());
  }
  return paths;
}

std::size_t expect_matches_dense_reference(const Graph& g,
                                           std::span<const NodeId> sources,
                                           std::span<const double> cost) {
  std::size_t cases = 0;
  for (std::uint32_t bound : {1u, 2u, 3u, 4u, 6u, 0u}) {
    for (NodeId src : sources) {
      const std::vector<Path> reference =
          dense_reference_paths(g, src, cost, bound);
      for (NodeId dst = 0; dst < g.node_count(); ++dst) {
        ++cases;
        EXPECT_EQ(hop_bounded_path(g, src, dst, cost, bound), reference[dst])
            << "src " << src << " dst " << dst << " bound " << bound;
      }
    }
  }
  return cases;
}

// The corridor search returns the dense DP's route bit for bit, tie rule
// included: fat-trees under heavily tied costs (four values whose sums
// collide often, and all costs equal) at every bound the manager uses plus
// the unbounded query, and a small graph with two equal-cost parallel
// routes, a zero-cost edge and a component dst cannot reach.
TEST(GraphPaths, HopBoundedPathMatchesDenseReference) {
  util::Rng rng(20);
  std::size_t cases = 0;
  for (std::uint32_t k : {4u, 8u, 16u}) {
    const FatTree tree(k);
    const Graph& g = tree.graph();
    const auto n = static_cast<NodeId>(g.node_count());
    const std::vector<NodeId> sources{0, n / 3, n / 2, n - 1};
    std::vector<double> tiered(g.edge_count());
    constexpr double kTiers[] = {1.0, 1.5, 2.25, 3.375};
    for (double& c : tiered) c = kTiers[rng.below(4)];
    const std::vector<double> equal(g.edge_count(), 1.0);
    SCOPED_TRACE(::testing::Message() << "fat-tree k=" << k);
    cases += expect_matches_dense_reference(g, sources, tiered);
    cases += expect_matches_dense_reference(g, sources, equal);
  }
  // 0-1-3 and 0-2-3 are equal-cost parallel routes, and 3 lists its
  // neighbour 2 before 1, so the tie rule is not adjacency order; 3-4 costs
  // nothing; 5-6 is a separate component.
  Graph small(7);
  small.add_edge(0, 1);
  small.add_edge(0, 2);
  small.add_edge(2, 3);
  small.add_edge(1, 3);
  small.add_edge(3, 4);
  small.add_edge(1, 4);
  small.add_edge(5, 6);
  const std::vector<double> small_cost{1.0, 2.0, 1.0, 2.0, 0.0, 3.0, 1.0};
  const std::vector<NodeId> all{0, 1, 2, 3, 4, 5, 6};
  cases += expect_matches_dense_reference(small, all, small_cost);
  for (std::uint32_t bound : {2u, 0u})  // 2: the tie falls in the last layer
    EXPECT_EQ(hop_bounded_path(small, 0, 3, small_cost, bound).nodes,
              (std::vector<NodeId>{0, 1, 3}));  // tie: lower node id first
  EXPECT_TRUE(hop_bounded_path(small, 0, 6, small_cost, 0).nodes.empty());
  EXPECT_GT(cases, 10000u);
}

TEST(EdgeDisjoint, FindsBothRoutesOfSquare) {
  Graph g = square();
  std::vector<double> cost(4, 1.0);
  const auto paths = edge_disjoint_paths(g, 0, 3, cost, 2);
  ASSERT_EQ(paths.size(), 2u);
  std::set<EdgeId> used;
  for (const Path& p : paths) {
    EXPECT_EQ(p.source(), 0u);
    EXPECT_EQ(p.destination(), 3u);
    for (EdgeId e : p.edges) EXPECT_TRUE(used.insert(e).second) << "edge reused";
  }
}

TEST(EdgeDisjoint, CapsAtConnectivity) {
  Graph g = square();
  std::vector<double> cost(4, 1.0);
  EXPECT_EQ(edge_disjoint_paths(g, 0, 3, cost, 5).size(), 2u);  // 2-connected
}

TEST(EdgeDisjoint, BridgeAllowsOnlyOne) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  std::vector<double> cost(2, 1.0);
  EXPECT_EQ(edge_disjoint_paths(g, 0, 2, cost, 2).size(), 1u);
}

TEST(EdgeDisjoint, PrefersCheapRoutesFirst) {
  // Square with one cheap and one expensive route; k=1 must pick the cheap.
  Graph g = square();
  std::vector<double> cost{1.0, 1.0, 10.0, 10.0};
  const auto paths = edge_disjoint_paths(g, 0, 3, cost, 1);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_DOUBLE_EQ(paths[0].cost(cost), 2.0);
}

TEST(EdgeDisjoint, FatTreeInterPodMultiplicity) {
  const FatTree ft(4);
  std::vector<double> cost(ft.graph().edge_count(), 1.0);
  // Edge switches have degree k/2 = 2, so at most 2 edge-disjoint routes.
  const auto paths = edge_disjoint_paths(ft.graph(), ft.edge_switch(0, 0),
                                         ft.edge_switch(1, 0), cost, 4);
  EXPECT_EQ(paths.size(), 2u);
}

TEST(EdgeDisjoint, ZeroKOrSelfEmpty) {
  Graph g = square();
  std::vector<double> cost(4, 1.0);
  EXPECT_TRUE(edge_disjoint_paths(g, 0, 3, cost, 0).empty());
  EXPECT_TRUE(edge_disjoint_paths(g, 1, 1, cost, 2).empty());
}

TEST(Dot, BasicStructure) {
  Graph g(2);
  g.add_edge(0, 1);
  std::ostringstream os;
  write_dot(os, g);
  const std::string out = os.str();
  EXPECT_NE(out.find("graph dust {"), std::string::npos);
  EXPECT_NE(out.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(out.find("label=\"0\""), std::string::npos);
}

TEST(Dot, CustomLabelsColorsAndEscaping) {
  Graph g(2);
  g.add_edge(0, 1);
  DotOptions options;
  options.node_label = [](NodeId v) {
    return v == 0 ? std::string("sw\"1\"") : std::string("sw2");
  };
  options.node_color = [](NodeId v) {
    return v == 0 ? std::string("red") : std::string();
  };
  options.edge_label = [](EdgeId) { return std::string("10G"); };
  options.graph_name = "pod";
  std::ostringstream os;
  write_dot(os, g, options);
  const std::string out = os.str();
  EXPECT_NE(out.find("graph pod {"), std::string::npos);
  EXPECT_NE(out.find("sw\\\"1\\\""), std::string::npos);
  EXPECT_NE(out.find("fillcolor=\"red\""), std::string::npos);
  EXPECT_NE(out.find("label=\"10G\""), std::string::npos);
}

TEST(Dot, FatTreeExportsAllNodesAndEdges) {
  const FatTree ft(4);
  std::ostringstream os;
  DotOptions options;
  options.node_label = [&ft](NodeId v) { return ft.node_name(v); };
  write_dot(os, ft.graph(), options);
  const std::string out = os.str();
  std::size_t edges = 0;
  for (std::size_t pos = out.find(" -- "); pos != std::string::npos;
       pos = out.find(" -- ", pos + 1))
    ++edges;
  EXPECT_EQ(edges, ft.graph().edge_count());
  EXPECT_NE(out.find("core0"), std::string::npos);
  EXPECT_NE(out.find("edge3.1"), std::string::npos);
}

}  // namespace
}  // namespace dust::graph
