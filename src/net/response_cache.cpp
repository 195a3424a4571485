#include "net/response_cache.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

#include "graph/paths.hpp"
#include "obs/metrics.hpp"

namespace dust::net {

ResponseTimeCache::ResponseTimeCache() {
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  hit_counter_ = &registry.counter("dust_net_trmin_cache_hits_total");
  miss_counter_ = &registry.counter("dust_net_trmin_cache_misses_total");
  invalidation_counter_ =
      &registry.counter("dust_net_trmin_cache_invalidated_rows_total");
  bypass_counter_ = &registry.counter("dust_net_trmin_cache_bypasses_total");
}

void ResponseTimeCache::set_lu_quantum(double step) {
  if (step < 0.0 || !std::isfinite(step))
    throw std::invalid_argument("ResponseTimeCache: Lu quantum must be >= 0");
  if (step == lu_quantum_) return;
  lu_quantum_ = step;
  // Cached rows and the cost snapshot were built against the old
  // representatives; force a wholesale rebuild on the next begin_cycle.
  clear();
}

void ResponseTimeCache::set_reprice_epsilon(double epsilon) {
  if (epsilon < 0.0 || epsilon >= 1.0 || !std::isfinite(epsilon))
    throw std::invalid_argument(
        "ResponseTimeCache: reprice epsilon must be in [0, 1)");
  if (epsilon == reprice_epsilon_) return;
  // Tightening: surviving rows may be staler than the new band promises.
  if (epsilon < reprice_epsilon_) clear();
  reprice_epsilon_ = epsilon;
}

double ResponseTimeCache::quantize(double inverse_cost) const noexcept {
  if (lu_quantum_ <= 0.0 || !(inverse_cost > 0.0) ||
      !std::isfinite(inverse_cost))
    return inverse_cost;  // exact mode; keep 0 / inf / NaN sentinels as-is
  const double log_step = std::log1p(lu_quantum_);
  const double bucket = std::floor(std::log(inverse_cost) / log_step);
  return std::exp((bucket + 0.5) * log_step);
}

bool ResponseTimeCache::synced_with(const NetworkState& net) const noexcept {
  return synced_once_ && entries_.size() == net.node_count() &&
         inverse_costs_.size() == net.edge_count() &&
         synced_version_ == net.link_version() && net.dirty_links().empty();
}

bool ResponseTimeCache::holds(const Entry& entry,
                              const ResponseTimeOptions& options) noexcept {
  return entry.valid && entry.max_hops == options.max_hops &&
         entry.mode == options.mode &&
         entry.max_paths == options.max_paths_per_source;
}

bool ResponseTimeCache::serves(const NetworkState& net, graph::NodeId source,
                               const ResponseTimeOptions& options) const {
  return synced_with(net) && holds(entries_.at(source), options);
}

void ResponseTimeCache::begin_cycle(NetworkState& net) {
  const std::size_t n = net.node_count();
  if (!synced_once_ || entries_.size() != n ||
      inverse_costs_.size() != net.edge_count()) {
    // First use or topology change: rebuild wholesale.
    entries_.assign(n, Entry{});
    net.inverse_bandwidth_costs_into(inverse_costs_);
    for (double& cost : inverse_costs_) cost = quantize(cost);
    net.snapshot_links();
    synced_version_ = net.link_version();
    synced_once_ = true;
    return;
  }
  if (net.dirty_links().empty()) {
    synced_version_ = net.link_version();
    return;
  }

  // Refresh the cost snapshot for the links that moved. Clean links keep
  // their pinned value — NetworkState's baseline rule guarantees the live
  // Lu stays within the epsilon band of it. Under quantization a dirty link
  // whose bucket representative is unchanged only jittered inside its band:
  // it re-baselines (snapshot below) without invalidating anything. Moves
  // are kept with their direction, because the invalidation tests below
  // treat cost increases and decreases differently.
  struct MovedLink {
    graph::EdgeId e;
    double new_cost;
    bool worsened;  ///< cost increased (link got more utilized)
  };
  static thread_local std::vector<MovedLink> moved;
  moved.clear();
  for (graph::EdgeId e : net.dirty_links()) {
    const double fresh = quantize(1.0 / net.link(e).utilized_bandwidth());
    if (fresh == inverse_costs_[e]) continue;
    moved.push_back({e, fresh, fresh > inverse_costs_[e]});
    inverse_costs_[e] = fresh;
  }
  if (moved.empty()) {
    net.snapshot_links();
    synced_version_ = net.link_version();
    return;
  }

  const graph::Graph& g = net.graph();

  // Per-direction row tests (the reason a hot core link no longer nukes
  // every row on the topology):
  //
  //   worsened link  — paths through it only got more expensive, so a row
  //                    whose winning paths (used_edges) avoid it keeps its
  //                    exact values. O(1) bitmap probe per link.
  //   improved link  — it may have created a better path the row never
  //                    evaluated. A row survives a destination v when no
  //                    route through the link can fit the hop budget
  //                    (hops(s,a) + 1 + hops(b,v) > max_hops, by BFS) or
  //                    when the cost lower bound through it — hop-bounded
  //                    segment minima d(s,a) + cost + d(b,v) on the
  //                    refreshed costs — cannot beat the cached unit Trmin.
  //
  // Rows without used_edges (kHopBoundedDp) fall back to the conservative
  // hop-ball test: one multi-source BFS from all moved endpoints, row
  // invalid iff dist(s) + 1 <= max_hops (0 = unbounded).
  //
  // A row survives iff it passes every link's test, so the cheap tests run
  // first over all rows and the improved links then run one at a time over
  // the rows still standing, each link's endpoint data in one set of reused
  // O(n) buffers.
  std::uint32_t max_hops_cap = 0;  // loosest hop bound any valid row uses
  bool unbounded_rows = false;
  for (const Entry& entry : entries_) {
    if (!entry.valid || entry.unit.used_edges.empty()) continue;
    if (entry.max_hops == 0)
      unbounded_rows = true;
    else
      max_hops_cap = std::max(max_hops_cap, entry.max_hops);
  }

  // Hop ball for the fallback rows, lazily: dist to the nearest moved link.
  static thread_local std::vector<std::uint32_t> dist;
  bool ball_built = false;
  const auto build_ball = [&] {
    dist.assign(n, graph::kUnreachable);
    std::queue<graph::NodeId> frontier;
    for (const MovedLink& m : moved) {
      const graph::Edge& edge = g.edge(m.e);
      for (graph::NodeId endpoint : {edge.a, edge.b}) {
        if (dist[endpoint] != 0) {
          dist[endpoint] = 0;
          frontier.push(endpoint);
        }
      }
    }
    while (!frontier.empty()) {
      const graph::NodeId node = frontier.front();
      frontier.pop();
      for (const graph::Adjacency& adj : g.neighbors(node)) {
        if (dist[adj.neighbor] == graph::kUnreachable) {
          dist[adj.neighbor] = dist[node] + 1;
          frontier.push(adj.neighbor);
        }
      }
    }
    ball_built = true;
  };

  std::uint64_t dropped = 0;
  const auto drop = [&](Entry& entry) {
    entry.valid = false;
    ++dropped;
  };
  // Rows that still need the improved-link test, in source order.
  static thread_local std::vector<graph::NodeId> pending;
  pending.clear();
  for (graph::NodeId s = 0; s < n; ++s) {
    Entry& entry = entries_[s];
    if (!entry.valid) continue;
    const std::vector<std::uint64_t>& used = entry.unit.used_edges;
    if (used.empty()) {
      // No edge support recorded: conservative hop-ball reachability.
      if (!ball_built) build_ball();
      if (dist[s] != graph::kUnreachable &&
          (entry.max_hops == 0 || dist[s] + 1 <= entry.max_hops))
        drop(entry);
      continue;
    }
    const bool hits_worsened =
        std::any_of(moved.begin(), moved.end(), [&](const MovedLink& m) {
          return m.worsened &&
                 (used[m.e / 64] & (std::uint64_t{1} << (m.e % 64))) != 0;
        });
    if (hits_worsened)
      drop(entry);
    else
      pending.push_back(s);
  }

  // Per improved link (a, b): segment minima from both endpoints, and BFS
  // hop counts from both endpoints cut at max_hops_cap - 1 (no row's hop-fit
  // test can pass beyond that depth). The BFS visit order lists nodes by
  // nondecreasing hop count, so the first within[k] entries of by_hops are
  // exactly the nodes at most k hops from the endpoint.
  struct Endpoint {
    std::vector<double> cost;            ///< segment cost minima
    std::vector<std::uint32_t> hops;     ///< cut BFS hop counts
    std::vector<graph::NodeId> by_hops;  ///< BFS visit order
    std::vector<std::size_t> within;     ///< prefix ends per hop count
  };
  static thread_local Endpoint end_a;
  static thread_local Endpoint end_b;
  const std::uint32_t depth = max_hops_cap == 0 ? 0 : max_hops_cap - 1;
  const auto fill_endpoint = [&](graph::NodeId x, Endpoint& out) {
    // Each side of a via-link path has at most max_hops - 1 edges, so the
    // hop-bounded segment minimum is a valid (and much tighter than
    // unbounded Dijkstra) lower bound. Rows with no hop bound need the
    // unbounded minimum.
    if (unbounded_rows || max_hops_cap == 0)
      out.cost = graph::dijkstra(g, x, inverse_costs_).distance;
    else
      graph::hop_bounded_min_cost_into(g, x, inverse_costs_, max_hops_cap - 1,
                                       out.cost);
    if (max_hops_cap == 0) return;  // every pending row is unbounded
    out.hops.assign(n, graph::kUnreachable);
    out.by_hops.clear();
    out.within.assign(depth + 1, 0);
    out.hops[x] = 0;
    out.by_hops.push_back(x);
    for (std::size_t head = 0; head < out.by_hops.size(); ++head) {
      const graph::NodeId node = out.by_hops[head];
      const std::uint32_t next = out.hops[node] + 1;
      if (next > depth) continue;
      for (const graph::Adjacency& adj : g.neighbors(node)) {
        if (out.hops[adj.neighbor] != graph::kUnreachable) continue;
        out.hops[adj.neighbor] = next;
        out.by_hops.push_back(adj.neighbor);
      }
    }
    for (graph::NodeId v : out.by_hops) ++out.within[out.hops[v]];
    for (std::uint32_t k = 1; k <= depth; ++k)
      out.within[k] += out.within[k - 1];
  };

  // Deadband: only a beat by more than the relative epsilon forces a
  // reprice. scale == 1.0 when the band is off, keeping the test exact.
  const double scale = 1.0 - reprice_epsilon_;
  for (const MovedLink& m : moved) {
    if (m.worsened || pending.empty()) continue;
    const graph::Edge& edge = g.edge(m.e);
    fill_endpoint(edge.a, end_a);
    fill_endpoint(edge.b, end_b);
    const double cost = m.new_cost;
    // Does a route s -> near -> far -> v through the link beat a cached
    // value for some v whose hop count from `far` fits the row's budget?
    // `near`/`far` are the link's endpoints in either orientation.
    const auto beats = [&](const std::vector<double>& trmin, graph::NodeId s,
                           std::uint32_t h, const Endpoint& near,
                           const Endpoint& far) {
      const double to_near = near.cost[s];
      if (h == 0) {
        for (graph::NodeId v = 0; v < n; ++v)
          if (to_near + cost + far.cost[v] < trmin[v] * scale) return true;
        return false;
      }
      // A new path via the link needs hops(s, near) + 1 + hops(far, v)
      // edges at minimum; beyond the row's hop budget it cannot exist.
      const std::uint32_t sh = near.hops[s];
      if (sh == graph::kUnreachable || sh + 1 > h) return false;
      const std::size_t fit = far.within[h - 1 - sh];
      for (std::size_t i = 0; i < fit; ++i) {
        const graph::NodeId v = far.by_hops[i];
        if (to_near + cost + far.cost[v] < trmin[v] * scale) return true;
      }
      return false;
    };
    std::size_t kept = 0;
    for (graph::NodeId s : pending) {
      Entry& entry = entries_[s];
      const std::vector<double>& trmin = entry.unit.trmin_seconds;
      if (beats(trmin, s, entry.max_hops, end_a, end_b) ||
          beats(trmin, s, entry.max_hops, end_b, end_a))
        drop(entry);
      else
        pending[kept++] = s;
    }
    pending.resize(kept);
  }
  invalidations_.fetch_add(dropped, std::memory_order_relaxed);
  invalidation_counter_->inc(dropped);

  net.snapshot_links();
  synced_version_ = net.link_version();
}

void ResponseTimeCache::serve(const Entry& entry, double data_mb,
                              ResponseTimeResult& out) const {
  const std::vector<double>& unit = entry.unit.trmin_seconds;
  out.trmin_seconds.resize(unit.size());
  for (std::size_t v = 0; v < unit.size(); ++v)
    out.trmin_seconds[v] =
        unit[v] == graph::kInfiniteCost ? graph::kInfiniteCost
                                        : unit[v] * data_mb;
  out.truncated = entry.unit.truncated;
}

void ResponseTimeCache::row_into(const NetworkState& net, graph::NodeId source,
                                 double data_mb,
                                 const ResponseTimeOptions& options,
                                 ResponseTimeResult& out) {
  if (!synced_with(net)) {
    // Out of sync (begin_cycle not run since the links moved): evaluate
    // directly without touching the cache — correct, just not incremental.
    bypasses_.fetch_add(1, std::memory_order_relaxed);
    bypass_counter_->inc();
    static thread_local std::vector<double> inv;
    net.inverse_bandwidth_costs_into(inv);
    min_response_times_into(net, source, data_mb, options, inv, out);
    return;
  }
  Entry& entry = entries_.at(source);
  if (holds(entry, options)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    hit_counter_->inc();
    out.work = 0;  // nothing evaluated; the row came from cache
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    miss_counter_->inc();
    min_response_times_into(net, source, 1.0, options, inverse_costs_,
                            entry.unit);
    entry.max_hops = options.max_hops;
    entry.mode = options.mode;
    entry.max_paths = options.max_paths_per_source;
    entry.valid = true;
    out.work = entry.unit.work;
  }
  serve(entry, data_mb, out);
}

ResponseTimeResult ResponseTimeCache::row(const NetworkState& net,
                                          graph::NodeId source, double data_mb,
                                          const ResponseTimeOptions& options) {
  ResponseTimeResult out;
  row_into(net, source, data_mb, options, out);
  return out;
}

void ResponseTimeCache::clear() {
  for (Entry& entry : entries_) entry.valid = false;
  synced_once_ = false;
}

ResponseTimeCacheStats ResponseTimeCache::stats() const {
  ResponseTimeCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  s.bypasses = bypasses_.load(std::memory_order_relaxed);
  return s;
}

std::size_t ResponseTimeCache::cached_rows() const {
  std::size_t count = 0;
  for (const Entry& entry : entries_)
    if (entry.valid) ++count;
  return count;
}

}  // namespace dust::net
