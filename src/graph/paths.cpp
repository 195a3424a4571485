#include "graph/paths.hpp"

#include <algorithm>
#include <queue>
#include <set>
#include <stdexcept>

#include "solver/min_cost_flow.hpp"

namespace dust::graph {

double Path::cost(std::span<const double> edge_cost) const {
  double total = 0.0;
  for (EdgeId e : edges) total += edge_cost[e];
  return total;
}

std::vector<std::uint32_t> bfs_hops(const Graph& graph, NodeId src) {
  std::vector<std::uint32_t> dist(graph.node_count(), kUnreachable);
  if (src >= graph.node_count()) throw std::out_of_range("bfs_hops: src");
  std::queue<NodeId> frontier;
  dist[src] = 0;
  frontier.push(src);
  while (!frontier.empty()) {
    const NodeId node = frontier.front();
    frontier.pop();
    for (const Adjacency& adj : graph.neighbors(node)) {
      if (dist[adj.neighbor] == kUnreachable) {
        dist[adj.neighbor] = dist[node] + 1;
        frontier.push(adj.neighbor);
      }
    }
  }
  return dist;
}

Path ShortestPathTree::extract(const Graph& graph, NodeId src, NodeId dst) const {
  Path path;
  if (distance.at(dst) == kInfiniteCost) return path;
  NodeId node = dst;
  while (node != src) {
    const EdgeId via = parent_edge.at(node);
    path.edges.push_back(via);
    path.nodes.push_back(node);
    node = graph.edge(via).other(node);
  }
  path.nodes.push_back(src);
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

ShortestPathTree dijkstra(const Graph& graph, NodeId src,
                          std::span<const double> edge_cost) {
  if (edge_cost.size() != graph.edge_count())
    throw std::invalid_argument("dijkstra: edge_cost size mismatch");
  ShortestPathTree tree;
  tree.distance.assign(graph.node_count(), kInfiniteCost);
  tree.parent_edge.assign(graph.node_count(), kInvalidEdge);
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  tree.distance.at(src) = 0.0;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [dist, node] = heap.top();
    heap.pop();
    if (dist > tree.distance[node]) continue;  // stale entry
    for (const Adjacency& adj : graph.neighbors(node)) {
      const double cost = edge_cost[adj.edge];
      if (cost < 0) throw std::invalid_argument("dijkstra: negative edge cost");
      const double candidate = dist + cost;
      if (candidate < tree.distance[adj.neighbor]) {
        tree.distance[adj.neighbor] = candidate;
        tree.parent_edge[adj.neighbor] = adj.edge;
        heap.emplace(candidate, adj.neighbor);
      }
    }
  }
  return tree;
}

std::vector<double> hop_bounded_min_cost(const Graph& graph, NodeId src,
                                         std::span<const double> edge_cost,
                                         std::uint32_t max_hops) {
  std::vector<double> best;
  hop_bounded_min_cost_into(graph, src, edge_cost, max_hops, best);
  return best;
}

void hop_bounded_min_cost_into(const Graph& graph, NodeId src,
                               std::span<const double> edge_cost,
                               std::uint32_t max_hops,
                               std::vector<double>& out) {
  shared_frontier_labels_into(graph, src, edge_cost, max_hops, out, nullptr);
}

namespace {

/// The layered sweep behind shared_frontier_labels_into. kRecordVia keeps
/// each label's layer and the per-layer predecessor edges the used-edges
/// backwalk needs; label-only callers skip those stores.
template <bool kRecordVia>
std::size_t frontier_sweep(const Graph& graph, NodeId src,
                           std::span<const double> edge_cost,
                           std::uint32_t bound, std::vector<double>& best,
                           std::vector<std::uint32_t>& best_layer,
                           std::vector<EdgeId>& layer_via) {
  const std::size_t n = graph.node_count();
  // `layer` holds the layer being built (cost of reaching each node in
  // exactly h hops) and is all +inf between layers: the filter below resets
  // every entry it reads. The frontier carries its own labels, so no
  // earlier layer's costs are kept. All scratch is per-thread and reused
  // across calls.
  static thread_local std::vector<double> layer;
  static thread_local std::vector<NodeId> frontier;
  static thread_local std::vector<double> frontier_cost;
  static thread_local std::vector<NodeId> fresh;
  static thread_local std::vector<char> touched;
  layer.assign(n, kInfiniteCost);
  touched.assign(n, 0);
  frontier.resize(n);
  frontier_cost.resize(n);
  fresh.resize(n + 1);  // the unconditional append writes one past the count
  frontier[0] = src;
  frontier_cost[0] = 0.0;
  std::size_t frontier_size = 1;
  std::size_t rounds = 0;
  for (std::uint32_t h = 1; h <= bound && frontier_size != 0; ++h) {
    ++rounds;
    // The via table is grown on demand, so its high-water memory is
    // rounds-actually-run * n, not max_hops * n (the sweep converges at the
    // weighted diameter, far below n - 1 for unbounded queries).
    EdgeId* via = nullptr;
    if constexpr (kRecordVia) {
      if (layer_via.size() < (h + 1) * n) layer_via.resize((h + 1) * n);
      via = layer_via.data() + h * n;
    }
    if (h == bound) {
      // Last layer: nothing expands it, so relax straight into the labels.
      // Keeping the first strictly-better candidate leaves the same label
      // and predecessor as the min-then-compare of the inner layers.
      for (std::size_t i = 0; i < frontier_size; ++i) {
        const double base = frontier_cost[i];
        for (const Adjacency& adj : graph.neighbors(frontier[i])) {
          const NodeId w = adj.neighbor;
          const double candidate = base + edge_cost[adj.edge];
          const bool better = candidate < best[w];
          best[w] = better ? candidate : best[w];
          if constexpr (kRecordVia) {
            best_layer[w] = better ? h : best_layer[w];
            via[w] = better ? adj.edge : via[w];
          }
        }
      }
      break;
    }
    // Relax in frontier order and list every touched node in first-touch
    // order. Both orders are part of the result: with tied path costs they
    // decide which predecessor a label keeps, and so the used_edges bitmap.
    std::size_t fresh_size = 0;
    for (std::size_t i = 0; i < frontier_size; ++i) {
      const double base = frontier_cost[i];
      for (const Adjacency& adj : graph.neighbors(frontier[i])) {
        const NodeId w = adj.neighbor;
        const double candidate = base + edge_cost[adj.edge];
        fresh[fresh_size] = w;
        fresh_size += !touched[w];
        touched[w] = 1;
        const bool better = candidate < layer[w];
        layer[w] = better ? candidate : layer[w];
        if constexpr (kRecordVia) via[w] = better ? adj.edge : via[w];
      }
    }
    // Only strict improvers are re-expanded: a walk that reaches a node at
    // cost >= an earlier layer's label is dominated edge-for-edge by
    // extending that earlier, cheaper-and-shorter label instead. This is
    // what keeps the frontier sparse and the labels bit-identical to a dense
    // layered Bellman-Ford, which carries the dominated entries along
    // without ever letting them win.
    frontier_size = 0;
    for (std::size_t i = 0; i < fresh_size; ++i) {
      const NodeId w = fresh[i];
      const double cost = layer[w];
      touched[w] = 0;
      layer[w] = kInfiniteCost;
      const bool improves = cost < best[w];
      best[w] = improves ? cost : best[w];
      if constexpr (kRecordVia) best_layer[w] = improves ? h : best_layer[w];
      frontier[frontier_size] = w;
      frontier_cost[frontier_size] = cost;
      frontier_size += improves;
    }
  }
  return rounds;
}

}  // namespace

void shared_frontier_labels_into(const Graph& graph, NodeId src,
                                 std::span<const double> edge_cost,
                                 std::uint32_t max_hops,
                                 std::vector<double>& best,
                                 std::vector<std::uint64_t>* used_edges,
                                 std::size_t* rounds_out) {
  if (edge_cost.size() != graph.edge_count())
    throw std::invalid_argument(
        "shared_frontier_labels: edge_cost size mismatch");
  if (src >= graph.node_count())
    throw std::out_of_range("shared_frontier_labels: src");
  const std::size_t n = graph.node_count();
  const std::uint32_t bound =
      max_hops == 0 ? static_cast<std::uint32_t>(n) - 1 : max_hops;
  best.assign(n, kInfiniteCost);
  best[src] = 0.0;
  static thread_local std::vector<std::uint32_t> best_layer;
  static thread_local std::vector<EdgeId> layer_via;
  std::size_t rounds = 0;
  if (used_edges == nullptr) {
    rounds = frontier_sweep<false>(graph, src, edge_cost, bound, best,
                                   best_layer, layer_via);
  } else {
    best_layer.assign(n, 0);
    rounds = frontier_sweep<true>(graph, src, edge_cost, bound, best,
                                  best_layer, layer_via);
    // Backwalk: every reached destination's winning label sits at
    // (best_layer[v], v); its predecessor chain passes only through nodes
    // that were strict improvers at their layer, so each hop of the walk
    // has a recorded via edge. OR the path edges into the shared bitmap.
    // A walked entry is overwritten with kInvalidEdge, so a later walk
    // stops where an earlier one already OR-ed the rest of the chain.
    used_edges->assign((graph.edge_count() + 63) / 64, 0);
    for (NodeId v = 0; v < n; ++v) {
      if (v == src || best[v] == kInfiniteCost) continue;
      NodeId node = v;
      for (std::uint32_t h = best_layer[v]; h > 0; --h) {
        EdgeId& e = layer_via[h * n + node];
        if (e == kInvalidEdge) break;
        (*used_edges)[e / 64] |= std::uint64_t{1} << (e % 64);
        node = graph.edge(e).other(node);
        e = kInvalidEdge;
      }
    }
  }
  if (rounds_out != nullptr) *rounds_out = rounds;
}

Path hop_bounded_path(const Graph& graph, NodeId src, NodeId dst,
                      std::span<const double> edge_cost,
                      std::uint32_t max_hops) {
  if (edge_cost.size() != graph.edge_count())
    throw std::invalid_argument("hop_bounded_path: edge_cost size mismatch");
  if (src >= graph.node_count() || dst >= graph.node_count())
    throw std::out_of_range("hop_bounded_path: node out of range");
  Path path;
  if (src == dst) {
    path.nodes.push_back(src);
    return path;
  }
  const std::size_t n = graph.node_count();
  const std::uint32_t bound =
      max_hops == 0 ? static_cast<std::uint32_t>(n) - 1 : max_hops;
  // The corridor: hop distance to dst, by a BFS from dst cut at bound - 1
  // (kUnreachable beyond). A node entered at layer h can lie on a route of
  // at most `bound` hops only if it is within bound - h hops of dst.
  // All scratch is per-thread and reused across calls.
  static thread_local std::vector<std::uint32_t> to_dst;
  static thread_local std::vector<NodeId> queue;
  to_dst.assign(n, kUnreachable);
  queue.assign(1, dst);
  to_dst[dst] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId node = queue[head];
    if (to_dst[node] + 1 >= bound) break;  // BFS order: the rest are as far
    for (const Adjacency& adj : graph.neighbors(node)) {
      if (to_dst[adj.neighbor] != kUnreachable) continue;
      to_dst[adj.neighbor] = to_dst[node] + 1;
      queue.push_back(adj.neighbor);
    }
  }
  // Layered search over the corridor. `best` is each node's label (its
  // cheapest cost over the layers so far); `layer` holds the layer being
  // built and is all +inf between layers. Only nodes whose label strictly
  // improved at layer h - 1 are relaxed at layer h, in ascending node id,
  // each through its adjacency in order, keeping the first strictly better
  // candidate. That is the dense layered DP restricted to the entries that
  // can matter: with costs >= 0 and monotone float addition, a label that
  // did not strictly improve, or a node outside the corridor, is never the
  // dense DP's first strictly-better predecessor on the winning route, so
  // ties go to the lowest node id, then adjacency order, exactly as there.
  static thread_local std::vector<double> best;
  static thread_local std::vector<double> layer;
  static thread_local std::vector<NodeId> frontier;
  static thread_local std::vector<NodeId> fresh;
  // Predecessor edge per (layer, node), grown one row per layer run: the
  // search stops when no label improves, so an unbounded query allocates
  // rounds * n, not n^2.
  static thread_local std::vector<EdgeId> via;
  best.assign(n, kInfiniteCost);
  layer.assign(n, kInfiniteCost);
  best[src] = 0.0;
  frontier.assign(1, src);
  std::uint32_t dst_layer = 0;  // layer of dst's last strict improvement
  std::uint32_t h = 1;
  for (; h < bound && !frontier.empty(); ++h) {
    if (via.size() < (h + 1) * n) via.resize((h + 1) * n);
    EdgeId* layer_via = via.data() + h * n;
    const std::uint32_t reach = bound - h;
    fresh.clear();
    for (const NodeId u : frontier) {
      const double base = best[u];
      for (const Adjacency& adj : graph.neighbors(u)) {
        const NodeId w = adj.neighbor;
        if (to_dst[w] > reach) continue;
        const double candidate = base + edge_cost[adj.edge];
        if (!(candidate < layer[w])) continue;
        if (layer[w] == kInfiniteCost) fresh.push_back(w);
        layer[w] = candidate;
        layer_via[w] = adj.edge;
      }
    }
    frontier.clear();
    for (const NodeId w : fresh) {
      const double cost = layer[w];
      layer[w] = kInfiniteCost;
      if (!(cost < best[w])) continue;
      best[w] = cost;
      frontier.push_back(w);
      if (w == dst) dst_layer = h;
    }
    std::sort(frontier.begin(), frontier.end());
  }
  // Last layer: only dst can still finish a route, so pull over its
  // neighbours instead of pushing the frontier. `layer` carries the
  // frontier's labels for the lookup; the lowest neighbour id wins a tie,
  // as the dense DP's ascending scan would pick it.
  EdgeId last_edge = kInvalidEdge;
  if (h == bound && !frontier.empty()) {
    for (const NodeId u : frontier) layer[u] = best[u];
    double pulled = kInfiniteCost;
    NodeId pulled_from = kInvalidNode;
    for (const Adjacency& adj : graph.neighbors(dst)) {
      const double candidate = layer[adj.neighbor] + edge_cost[adj.edge];
      if (candidate < pulled ||
          (candidate == pulled && adj.neighbor < pulled_from)) {
        pulled = candidate;
        pulled_from = adj.neighbor;
        last_edge = adj.edge;
      }
    }
    for (const NodeId u : frontier) layer[u] = kInfiniteCost;
    if (pulled < best[dst]) dst_layer = bound;
  }
  if (dst_layer == 0) return path;  // unreachable within the bound
  // Walk predecessors back from (dst_layer, dst).
  NodeId node = dst;
  for (std::uint32_t layer_index = dst_layer; layer_index > 0; --layer_index) {
    const EdgeId edge =
        layer_index == bound ? last_edge : via[layer_index * n + node];
    path.edges.push_back(edge);
    path.nodes.push_back(node);
    node = graph.edge(edge).other(node);
  }
  path.nodes.push_back(src);
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

std::vector<Path> edge_disjoint_paths(const Graph& graph, NodeId src,
                                      NodeId dst,
                                      std::span<const double> edge_cost,
                                      std::size_t k) {
  if (edge_cost.size() != graph.edge_count())
    throw std::invalid_argument("edge_disjoint_paths: edge_cost size mismatch");
  std::vector<Path> paths;
  if (k == 0 || src == dst) return paths;
  // Unit-capacity min-cost flow; an undirected edge becomes one arc per
  // direction. With non-negative costs an optimal integral flow never uses
  // both directions of the same edge, so arc-disjointness in the flow is
  // edge-disjointness in the graph. Arc ids are dense and sequential: arc
  // 2e is edge e in a->b orientation, arc 2e+1 the reverse — no associative
  // bookkeeping needed in the path-peeling loop below.
  solver::MinCostFlow mcf(graph.node_count());
  for (EdgeId e = 0; e < graph.edge_count(); ++e) {
    const Edge& edge = graph.edge(e);
    if (edge_cost[e] < 0)
      throw std::invalid_argument("edge_disjoint_paths: negative cost");
    mcf.add_arc(edge.a, edge.b, 1.0, edge_cost[e]);
    mcf.add_arc(edge.b, edge.a, 1.0, edge_cost[e]);
  }
  const auto result = mcf.solve(src, dst, static_cast<double>(k));
  const auto flows = static_cast<std::size_t>(result.max_flow + 0.5);
  if (flows == 0) return paths;
  // Collect used directed arcs (net usage) and peel off paths.
  std::vector<std::vector<std::pair<NodeId, EdgeId>>> outgoing(
      graph.node_count());
  for (std::size_t arc = 0; arc < 2 * graph.edge_count(); ++arc) {
    if (mcf.arc_flow(arc) < 0.5) continue;
    const EdgeId e = static_cast<EdgeId>(arc / 2);
    const bool forward = (arc % 2) == 0;
    const Edge& edge = graph.edge(e);
    const NodeId from = forward ? edge.a : edge.b;
    const NodeId to = forward ? edge.b : edge.a;
    outgoing[from].emplace_back(to, e);
  }
  for (std::size_t i = 0; i < flows; ++i) {
    Path path;
    path.nodes.push_back(src);
    NodeId node = src;
    while (node != dst) {
      auto& arcs = outgoing[node];
      if (arcs.empty()) {
        path.nodes.clear();  // degenerate (cancelled flow); give up this one
        path.edges.clear();
        break;
      }
      const auto [next, edge] = arcs.back();
      arcs.pop_back();
      path.nodes.push_back(next);
      path.edges.push_back(edge);
      node = next;
    }
    if (!path.nodes.empty()) paths.push_back(std::move(path));
  }
  return paths;
}

namespace {

/// Shared DFS state for exhaustive simple-path enumeration.
struct EnumerationState {
  const Graph* graph = nullptr;
  std::uint32_t max_hops = 0;
  const std::function<bool(NodeId)>* is_target = nullptr;
  const std::function<bool(const Path&)>* visit = nullptr;
  std::vector<char> on_path;
  Path path;
  bool stopped = false;

  void dfs(NodeId node) {
    if ((*is_target)(node) && !path.edges.empty()) {
      if (!(*visit)(path)) {
        stopped = true;
        return;
      }
    }
    if (path.edges.size() >= max_hops) return;
    for (const Adjacency& adj : graph->neighbors(node)) {
      if (on_path[adj.neighbor]) continue;
      on_path[adj.neighbor] = 1;
      path.nodes.push_back(adj.neighbor);
      path.edges.push_back(adj.edge);
      dfs(adj.neighbor);
      path.edges.pop_back();
      path.nodes.pop_back();
      on_path[adj.neighbor] = 0;
      if (stopped) return;
    }
  }
};

}  // namespace

void for_each_simple_path(const Graph& graph, NodeId src,
                          const std::function<bool(NodeId)>& is_target,
                          std::uint32_t max_hops,
                          const std::function<bool(const Path&)>& visit) {
  if (src >= graph.node_count())
    throw std::out_of_range("for_each_simple_path: src");
  EnumerationState state;
  state.graph = &graph;
  state.max_hops = max_hops == 0
                       ? static_cast<std::uint32_t>(graph.node_count()) - 1
                       : max_hops;
  state.is_target = &is_target;
  state.visit = &visit;
  state.on_path.assign(graph.node_count(), 0);
  state.on_path[src] = 1;
  state.path.nodes.push_back(src);
  state.dfs(src);
}

std::vector<Path> enumerate_simple_paths(const Graph& graph, NodeId src,
                                         NodeId dst, std::uint32_t max_hops,
                                         std::size_t max_paths) {
  std::vector<Path> result;
  for_each_simple_path(
      graph, src, [dst](NodeId node) { return node == dst; }, max_hops,
      [&result, max_paths](const Path& path) {
        result.push_back(path);
        return max_paths == 0 || result.size() < max_paths;
      });
  return result;
}

std::size_t count_simple_paths(const Graph& graph, NodeId src, NodeId dst,
                               std::uint32_t max_hops) {
  std::size_t count = 0;
  for_each_simple_path(
      graph, src, [dst](NodeId node) { return node == dst; }, max_hops,
      [&count](const Path&) {
        ++count;
        return true;
      });
  return count;
}

std::vector<Path> k_shortest_paths(const Graph& graph, NodeId src, NodeId dst,
                                   std::span<const double> edge_cost,
                                   std::size_t k) {
  std::vector<Path> accepted;
  if (k == 0) return accepted;
  std::vector<double> cost(edge_cost.begin(), edge_cost.end());
  {
    const ShortestPathTree tree = dijkstra(graph, src, cost);
    Path first = tree.extract(graph, src, dst);
    if (first.nodes.empty()) return accepted;
    accepted.push_back(std::move(first));
  }
  // Candidate pool with each path's cost computed once at insertion (the
  // min_element comparator below then compares cached doubles instead of
  // re-walking both paths' edges per comparison); set-based dedup on the
  // node sequence.
  std::vector<Path> candidates;
  std::vector<double> candidate_cost;
  std::set<std::vector<NodeId>> seen;
  seen.insert(accepted[0].nodes);

  while (accepted.size() < k) {
    const Path& previous = accepted.back();
    // Spur from every node of the previous path.
    for (std::size_t spur_index = 0; spur_index < previous.nodes.size() - 1;
         ++spur_index) {
      const NodeId spur_node = previous.nodes[spur_index];
      // Root = previous path up to the spur node.
      std::vector<NodeId> root_nodes(previous.nodes.begin(),
                                     previous.nodes.begin() + spur_index + 1);
      // Ban edges that would recreate an already-accepted path with this root,
      // and ban root nodes (except the spur) to keep paths loopless.
      std::vector<double> banned = cost;
      for (const Path& path : accepted) {
        if (path.nodes.size() > spur_index + 1 &&
            std::equal(root_nodes.begin(), root_nodes.end(), path.nodes.begin()))
          banned[path.edges[spur_index]] = kInfiniteCost;
      }
      std::vector<char> removed(graph.node_count(), 0);
      for (std::size_t i = 0; i < spur_index; ++i)
        removed[previous.nodes[i]] = 1;
      for (EdgeId e = 0; e < graph.edge_count(); ++e) {
        const Edge& edge = graph.edge(e);
        if (removed[edge.a] || removed[edge.b]) banned[e] = kInfiniteCost;
      }
      const ShortestPathTree tree = dijkstra(graph, spur_node, banned);
      Path spur = tree.extract(graph, spur_node, dst);
      if (spur.nodes.empty() || tree.distance[dst] == kInfiniteCost) continue;
      // Total = root + spur.
      Path total;
      total.nodes = root_nodes;
      total.edges.assign(previous.edges.begin(),
                         previous.edges.begin() + spur_index);
      total.nodes.insert(total.nodes.end(), spur.nodes.begin() + 1,
                         spur.nodes.end());
      total.edges.insert(total.edges.end(), spur.edges.begin(), spur.edges.end());
      if (seen.insert(total.nodes).second) {
        candidate_cost.push_back(total.cost(cost));
        candidates.push_back(std::move(total));
      }
    }
    if (candidates.empty()) break;
    const auto best_cost =
        std::min_element(candidate_cost.begin(), candidate_cost.end());
    const auto index =
        static_cast<std::size_t>(best_cost - candidate_cost.begin());
    accepted.push_back(std::move(candidates[index]));
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(index));
    candidate_cost.erase(best_cost);
  }
  return accepted;
}

}  // namespace dust::graph
