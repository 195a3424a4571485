// Dynamic network state: per-link bandwidth/utilization and per-node
// utilized capacity. This is the data the paper's NMDB stores (topology,
// link utilization, node resource utilization) and the optimization engine
// consumes.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/graph.hpp"

namespace dust::net {

/// One link's dynamic state. Lu (the paper's "link utilization bandwidth",
/// Mbps) = physical bandwidth x utilization rate of data in transit.
struct LinkState {
  double bandwidth_mbps = 10000.0;  ///< physical capacity
  double utilization = 0.5;         ///< fraction of capacity in use, (0, 1]

  /// Lu_e in Mbps; the denominator of the paper's Eq. 1.
  [[nodiscard]] double utilized_bandwidth() const noexcept {
    return bandwidth_mbps * utilization;
  }
};

/// Topology + per-edge link state + per-node utilized capacity C_j (%) and
/// monitoring data volume D_i (Mb).
///
/// The topology is immutable once the state is built and is held by a
/// shared pointer: a copy (the manager's per-cycle planning view) shares it
/// and copies only the per-node and per-link state.
class NetworkState {
 public:
  explicit NetworkState(graph::Graph graph)
      : graph_(std::make_shared<const graph::Graph>(std::move(graph))),
        links_(graph_->edge_count()),
        node_utilization_(graph_->node_count(), 0.0),
        monitoring_data_mb_(graph_->node_count(), 0.0),
        baseline_lu_(graph_->edge_count(), LinkState{}.utilized_bandwidth()),
        link_dirty_(graph_->edge_count(), 0) {}

  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return graph_->node_count(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return graph_->edge_count(); }

  [[nodiscard]] const LinkState& link(graph::EdgeId edge) const {
    return links_.at(edge);
  }
  void set_link(graph::EdgeId edge, LinkState state) {
    if (state.bandwidth_mbps <= 0 || state.utilization <= 0 ||
        state.utilization > 1.0)
      throw std::invalid_argument("NetworkState::set_link: invalid link state");
    links_.at(edge) = state;
    if (!link_dirty_[edge]) {
      const double baseline = baseline_lu_[edge];
      if (std::abs(state.utilized_bandwidth() - baseline) >
          link_epsilon_ * baseline) {
        link_dirty_[edge] = 1;
        dirty_links_.push_back(edge);
        ++link_version_;
      }
    }
  }

  // --- Dirty-link tracking (incremental consumers, DESIGN.md §8) ---
  //
  // set_link marks an edge dirty when its Lu moves by more than
  // `link_epsilon` (relative) from the baseline captured at the last
  // snapshot_links(). Once dirty, an edge stays dirty until the next
  // snapshot, so intermediate reverts cannot hide a change a consumer has
  // not yet seen. snapshot_links() re-baselines only the dirty edges:
  // sub-epsilon drift on clean edges keeps accumulating against the old
  // baseline and eventually trips, bounding a consumer's total staleness
  // per edge to the epsilon band.

  /// Relative Lu change that marks a link dirty (0 = any change).
  void set_link_epsilon(double epsilon) {
    if (epsilon < 0.0)
      throw std::invalid_argument("NetworkState: negative link epsilon");
    link_epsilon_ = epsilon;
  }
  [[nodiscard]] double link_epsilon() const noexcept { return link_epsilon_; }

  /// Edges whose Lu moved beyond epsilon since the last snapshot_links().
  [[nodiscard]] const std::vector<graph::EdgeId>& dirty_links() const noexcept {
    return dirty_links_;
  }
  [[nodiscard]] bool link_dirty(graph::EdgeId edge) const {
    return link_dirty_.at(edge) != 0;
  }
  /// Monotonic counter bumped each time a link turns dirty; an unchanged
  /// value guarantees no link crossed the epsilon band since it was read.
  [[nodiscard]] std::uint64_t link_version() const noexcept {
    return link_version_;
  }
  /// Accept the current state of all dirty links as the new baseline and
  /// clear the dirty set. Does not advance link_version().
  void snapshot_links() {
    for (graph::EdgeId e : dirty_links_) {
      baseline_lu_[e] = links_[e].utilized_bandwidth();
      link_dirty_[e] = 0;
    }
    dirty_links_.clear();
  }

  /// C_j, percent in [0, 100].
  [[nodiscard]] double node_utilization(graph::NodeId node) const {
    return node_utilization_.at(node);
  }
  void set_node_utilization(graph::NodeId node, double percent) {
    if (percent < 0.0 || percent > 100.0)
      throw std::invalid_argument("NetworkState: utilization out of [0,100]");
    node_utilization_.at(node) = percent;
  }

  /// D_i, the monitoring data volume to move if node i offloads (Mb).
  [[nodiscard]] double monitoring_data_mb(graph::NodeId node) const {
    return monitoring_data_mb_.at(node);
  }
  void set_monitoring_data_mb(graph::NodeId node, double mb) {
    if (mb < 0.0)
      throw std::invalid_argument("NetworkState: negative monitoring data");
    monitoring_data_mb_.at(node) = mb;
  }

  /// Per-edge Lu vector (Mbps), aligned with edge ids.
  [[nodiscard]] std::vector<double> utilized_bandwidths() const;

  /// Per-edge cost 1/Lu_e — the Eq. 1 response-time weight without the D_i
  /// factor (multiply by D_i to get seconds).
  [[nodiscard]] std::vector<double> inverse_bandwidth_costs() const;

  /// As inverse_bandwidth_costs(), overwriting `out` (capacity reused).
  void inverse_bandwidth_costs_into(std::vector<double>& out) const;

 private:
  std::shared_ptr<const graph::Graph> graph_;
  std::vector<LinkState> links_;
  std::vector<double> node_utilization_;
  std::vector<double> monitoring_data_mb_;
  std::vector<double> baseline_lu_;
  std::vector<char> link_dirty_;
  std::vector<graph::EdgeId> dirty_links_;
  double link_epsilon_ = 0.0;
  std::uint64_t link_version_ = 0;
};

}  // namespace dust::net
