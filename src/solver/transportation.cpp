#include "solver/transportation.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

namespace dust::solver {

namespace {

constexpr double kEps = 1e-9;

// Internal balanced instance: a dummy *source* row absorbs spare destination
// capacity (zero cost), so every row supply ships fully and every column
// receives exactly its capacity. Forbidden cells get big-M.
struct Balanced {
  std::size_t m = 0;  // rows including dummy
  std::size_t n = 0;
  std::vector<double> supply;
  std::vector<double> demand;
  std::vector<double> cost;
  double big_m = 0.0;
  bool has_dummy = false;
};

/// MODI / u-v transportation simplex over a balanced instance.
///
/// The basis is a spanning tree on the bipartite row/column node set (rows
/// [0, m), columns [m, m+n)) with exactly m + n - 1 cells. Each pivot works on
/// that tree through per-row and per-column incidence lists of basic cells,
/// so potentials and the entering cell's cycle cost O(m + n); only pricing
/// scans the dense m*n grid.
class TransportSimplex {
 public:
  /// `warm_cells`, when non-null, flags cells to allocate first in the
  /// initial solution (see solve_transportation's warm_flow doc).
  explicit TransportSimplex(const Balanced& bal,
                            const std::vector<char>* warm_cells = nullptr)
      : bal_(bal), warm_cells_(warm_cells) {
    // Size every O(m + n) buffer once, up front: no pivot allocates, and no
    // small buffer allocated mid-solve lands on the heap above the m*n
    // grids, where it would keep their memory from being returned to the OS
    // once they are freed (about 1.4 MB of peak RSS at k=32).
    const std::size_t nodes = bal.m + bal.n;
    u_.resize(bal.m);
    v_.resize(bal.n);
    parent_.resize(nodes);
    head_.resize(nodes);
    next_.resize(2 * (nodes - 1));
    prev_.resize(2 * (nodes - 1));
    depth_.resize(nodes);
    tree_edge_.resize(nodes);
    for (auto* list : {&slot_cell_, &stack_, &up_, &down_, &minus_, &plus_})
      list->reserve(nodes);
  }

  /// Adopt a previous solve's flows and basis membership instead of building
  /// an initial solution (dirty-basis path). The caller guarantees the seed
  /// was optimal for the same balanced supplies/demands; solve() then skips
  /// least_cost_start and goes straight to potentials + pivots.
  void seed_basis(std::vector<double>&& flow, std::vector<char>&& basic) {
    flow_ = std::move(flow);
    basic_ = std::move(basic);
    seeded_ = true;
  }

  Status solve(std::size_t max_iterations) {
    if (!seeded_) {
      flow_.assign(bal_.m * bal_.n, 0.0);
      basic_.assign(bal_.m * bal_.n, 0);
      least_cost_start();
    }
    // Always repair: a retained basis can have lost tree-ness to degenerate
    // pivots, and repair is a cheap union-find sweep that is a no-op on a
    // healthy spanning tree.
    repair_basis_tree();
    build_tree_index();
    // Dantzig's rule can cycle forever on degenerate instances (exact
    // supply/capacity ties, zero-capacity columns): every pivot has theta=0
    // and the same bases repeat. After a streak of m+n degenerate pivots,
    // switch to Bland's rule permanently — it guarantees termination, so an
    // infeasible big-M instance reaches the forbidden-flow check instead of
    // burning the iteration budget.
    std::size_t degenerate_streak = 0;
    for (std::size_t iter = 0; iter < max_iterations; ++iter) {
      compute_potentials();
      const auto [enter_i, enter_j, reduced] =
          bland_ ? first_negative_cell() : most_negative_cell();
      if (reduced >= -kEps) {
        iterations_ = iter;
        return Status::kOptimal;
      }
      const double theta = pivot(enter_i, enter_j);
      if (theta <= kEps) {
        if (++degenerate_streak > bal_.m + bal_.n) bland_ = true;
      } else {
        degenerate_streak = 0;
      }
    }
    iterations_ = max_iterations;
    return Status::kIterationLimit;
  }

  [[nodiscard]] const std::vector<double>& flow() const noexcept { return flow_; }
  [[nodiscard]] std::size_t iterations() const noexcept { return iterations_; }
  [[nodiscard]] bool bland() const noexcept { return bland_; }

  /// Move the final flows and basis membership out; the simplex is spent.
  void release_basis(std::vector<double>& flow, std::vector<char>& basic) {
    flow = std::move(flow_);
    basic = std::move(basic_);
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  // Least-cost method: repeatedly allocate to the cheapest open cell. With a
  // warm hint, previously-used cells are allocated first (cheapest first
  // among them) so the start reproduces the prior basis structure wherever
  // supplies/demands still admit it.
  void least_cost_start() {
    std::vector<double> remaining_supply = bal_.supply;
    std::vector<double> remaining_demand = bal_.demand;
    // Cells sorted by (warm priority, cost) once; skip exhausted rows/cols
    // while scanning.
    std::vector<std::size_t> order(bal_.m * bal_.n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
      if (warm_cells_ != nullptr && (*warm_cells_)[a] != (*warm_cells_)[b])
        return (*warm_cells_)[a] > (*warm_cells_)[b];
      return bal_.cost[a] < bal_.cost[b];
    });
    for (std::size_t cell : order) {
      const std::size_t i = cell / bal_.n;
      const std::size_t j = cell % bal_.n;
      if (remaining_supply[i] <= kEps || remaining_demand[j] <= kEps) continue;
      const double quantity = std::min(remaining_supply[i], remaining_demand[j]);
      flow_[cell] = quantity;
      basic_[cell] = 1;
      remaining_supply[i] -= quantity;
      remaining_demand[j] -= quantity;
    }
  }

  // The basis must be a spanning tree on the bipartite row/col node set with
  // exactly m + n - 1 cells. The least-cost start can be degenerate (fewer
  // cells) or accidentally contain a cycle-free subset already; add zero
  // cells until the bipartite graph is connected and acyclic.
  void repair_basis_tree() {
    // Union-find over m + n nodes (rows then cols).
    std::iota(parent_.begin(), parent_.end(), 0);
    std::size_t basic_count = 0;
    for (std::size_t i = 0; i < bal_.m; ++i) {
      for (std::size_t j = 0; j < bal_.n; ++j) {
        if (!basic_[i * bal_.n + j]) continue;
        if (!unite(i, bal_.m + j)) {
          // Cycle among basic cells (possible with ties): demote to nonbasic.
          basic_[i * bal_.n + j] = 0;
          // Note: flow stays; a cycle of equal-cost cells keeps feasibility.
        } else {
          ++basic_count;
        }
      }
    }
    // Connect remaining components with zero-flow basic cells, preferring
    // cheap cells so potentials stay tame.
    for (std::size_t i = 0; i < bal_.m && basic_count + 1 < bal_.m + bal_.n; ++i) {
      for (std::size_t j = 0; j < bal_.n && basic_count + 1 < bal_.m + bal_.n; ++j) {
        if (basic_[i * bal_.n + j]) continue;
        if (unite(i, bal_.m + j)) {
          basic_[i * bal_.n + j] = 1;
          ++basic_count;
        }
      }
    }
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool unite(std::size_t a, std::size_t b) {
    const std::size_t ra = find(a);
    const std::size_t rb = find(b);
    if (ra == rb) return false;
    parent_[ra] = rb;
    return true;
  }

  // Index the repaired basis as incidence lists. A basis always holds
  // m + n - 1 cells, one per slot: slot s is half-edge 2s on its row's list
  // and half-edge 2s + 1 on its column's list (doubly linked, nodes are rows
  // then columns). A pivot hands the leaving cell's slot to the entering
  // cell, so the lists never grow after this.
  void build_tree_index() {
    const std::size_t nodes = bal_.m + bal_.n;
    slot_cell_.clear();
    head_.assign(nodes, kNone);
    for (std::size_t cell = 0; cell < basic_.size(); ++cell) {
      if (!basic_[cell]) continue;
      slot_cell_.push_back(cell);
      link(2 * slot_cell_.size() - 2);
      link(2 * slot_cell_.size() - 1);
    }
  }

  // The node a half-edge hangs off: its cell's row for even half-edges, its
  // cell's column for odd ones.
  [[nodiscard]] std::size_t end_node(std::size_t half) const {
    const std::size_t cell = slot_cell_[half / 2];
    return half % 2 == 0 ? cell / bal_.n : bal_.m + cell % bal_.n;
  }
  void link(std::size_t half) {
    const std::size_t node = end_node(half);
    prev_[half] = kNone;
    next_[half] = head_[node];
    if (head_[node] != kNone) prev_[head_[node]] = half;
    head_[node] = half;
  }
  void unlink(std::size_t half) {
    if (prev_[half] != kNone)
      next_[prev_[half]] = next_[half];
    else
      head_[end_node(half)] = next_[half];
    if (next_[half] != kNone) prev_[next_[half]] = prev_[half];
  }

  // The node across the tree edge that connects `node` to its parent.
  [[nodiscard]] std::size_t tree_parent(std::size_t node) const {
    return end_node(2 * tree_edge_[node] + (node < bal_.m ? 1 : 0));
  }

  // Potentials u_i + v_j = c_ij on basic cells: one traversal of the basis
  // tree from row 0. Each potential follows from its unique tree parent, so
  // the values do not depend on the traversal order. The traversal also
  // records each node's depth and parent edge for pivot()'s cycle walk.
  void compute_potentials() {
    u_.assign(bal_.m, 0.0);
    v_.assign(bal_.n, 0.0);
    std::fill(depth_.begin(), depth_.end(), kNone);
    depth_[0] = 0;
    stack_.assign(1, 0);
    while (!stack_.empty()) {
      const std::size_t node = stack_.back();
      stack_.pop_back();
      for (std::size_t half = head_[node]; half != kNone; half = next_[half]) {
        const std::size_t next = end_node(half ^ 1);
        if (depth_[next] != kNone) continue;
        const double cost = bal_.cost[slot_cell_[half / 2]];
        if (node < bal_.m)
          v_[next - bal_.m] = cost - u_[node];
        else
          u_[next] = cost - v_[node - bal_.m];
        depth_[next] = depth_[node] + 1;
        tree_edge_[next] = half / 2;
        stack_.push_back(next);
      }
    }
  }

  // Reduced costs are differences of quantities that can carry big-M
  // magnitudes (~1e7) through the potentials, so the cancellation noise is
  // ~1e-9 absolute — larger than a fixed kEps. A cell only counts as
  // improving when its reduced cost clears a tolerance scaled to the
  // magnitudes that produced it; otherwise the solver chases phantom
  // improvements in an endless theta=0 loop.
  [[nodiscard]] double reduced_cost_tolerance(std::size_t i,
                                              std::size_t j) const {
    return kEps + 1e-12 * (std::abs(bal_.cost[i * bal_.n + j]) +
                           std::abs(u_[i]) + std::abs(v_[j]));
  }

  [[nodiscard]] std::tuple<std::size_t, std::size_t, double>
  most_negative_cell() const {
    double best = 0.0;
    std::size_t bi = 0, bj = 0;
    for (std::size_t i = 0; i < bal_.m; ++i) {
      for (std::size_t j = 0; j < bal_.n; ++j) {
        if (basic_[i * bal_.n + j]) continue;
        const double reduced = bal_.cost[i * bal_.n + j] - u_[i] - v_[j];
        if (reduced < best && reduced < -reduced_cost_tolerance(i, j)) {
          best = reduced;
          bi = i;
          bj = j;
        }
      }
    }
    return {bi, bj, best};
  }

  // Bland's rule: the lowest-index cell with a negative reduced cost. Slower
  // per pivot than Dantzig but provably cycle-free.
  [[nodiscard]] std::tuple<std::size_t, std::size_t, double>
  first_negative_cell() const {
    for (std::size_t i = 0; i < bal_.m; ++i) {
      for (std::size_t j = 0; j < bal_.n; ++j) {
        if (basic_[i * bal_.n + j]) continue;
        const double reduced = bal_.cost[i * bal_.n + j] - u_[i] - v_[j];
        if (reduced < -reduced_cost_tolerance(i, j)) return {i, j, reduced};
      }
    }
    return {0, 0, 0.0};
  }

  // Find the unique alternating cycle created by adding (enter_i, enter_j)
  // to the basis tree, shift flow around it, and swap basis membership.
  // Returns theta, the amount of flow shifted (0 on a degenerate pivot).
  // Relies on depth_/tree_edge_ from the compute_potentials() call that
  // priced this entering cell.
  double pivot(std::size_t enter_i, std::size_t enter_j) {
    // Tree path from row enter_i (start) to column enter_j (goal): climb
    // from the deeper end until the two walks meet. up_ gets the start
    // side's slots in path order, down_ the goal side's in reverse order.
    std::size_t a = enter_i;
    std::size_t b = bal_.m + enter_j;
    up_.clear();
    down_.clear();
    while (a != b) {
      if (depth_[a] >= depth_[b]) {
        up_.push_back(tree_edge_[a]);
        a = tree_parent(a);
      } else {
        down_.push_back(tree_edge_[b]);
        b = tree_parent(b);
      }
    }
    // Walking start -> goal, the path's cells alternate '-', '+', ...
    // beginning with '-', since the entering '+' cell closes the loop
    // goal -> start. A row-to-column path has odd length, so down_[q] takes
    // the sign of its index q as well.
    minus_.clear();
    plus_.clear();
    for (std::size_t p = 0; p < up_.size(); ++p)
      (p % 2 == 0 ? minus_ : plus_).push_back(up_[p]);
    for (std::size_t q = down_.size(); q-- > 0;)
      (q % 2 == 0 ? minus_ : plus_).push_back(down_[q]);
    // Theta = min flow on minus cells, first in path order on ties. Under
    // Bland's rule ties break toward the lowest cell index (required for the
    // anti-cycling guarantee).
    double theta = kInfinity;
    std::size_t leaving = 0;  // slot
    for (const std::size_t slot : minus_) {
      const std::size_t cell = slot_cell_[slot];
      const double f = flow_[cell];
      const bool tie_wins = bland_ && f == theta && cell < slot_cell_[leaving];
      if (f < theta || tie_wins) {
        theta = f;
        leaving = slot;
      }
    }
    const std::size_t enter = enter_i * bal_.n + enter_j;
    flow_[enter] += theta;
    for (const std::size_t slot : plus_) flow_[slot_cell_[slot]] += theta;
    for (const std::size_t slot : minus_) flow_[slot_cell_[slot]] -= theta;
    const std::size_t leaving_cell = slot_cell_[leaving];
    basic_[enter] = 1;
    basic_[leaving_cell] = 0;
    flow_[leaving_cell] = 0.0;  // kill -0 noise
    unlink(2 * leaving);
    unlink(2 * leaving + 1);
    slot_cell_[leaving] = enter;
    link(2 * leaving);
    link(2 * leaving + 1);
    return theta;
  }

  const Balanced& bal_;
  const std::vector<char>* warm_cells_ = nullptr;
  bool seeded_ = false;
  bool bland_ = false;
  std::vector<double> flow_;
  std::vector<char> basic_;
  std::vector<double> u_, v_;
  std::vector<std::size_t> parent_;  // union-find, repair_basis_tree only
  // Basis tree incidence lists (see build_tree_index).
  std::vector<std::size_t> slot_cell_, head_, next_, prev_;
  // Rooted at row 0 by compute_potentials(); nodes are rows then columns.
  std::vector<std::size_t> depth_, tree_edge_;
  // Per-pivot scratch, reused across pivots.
  std::vector<std::size_t> stack_, up_, down_, minus_, plus_;
  std::size_t iterations_ = 0;
};

// One solve body behind both public entry points. `basis`, when non-null, is
// consulted for the dirty-basis fast path and refreshed (or invalidated) on
// the way out.
TransportationResult solve_impl(const TransportationProblem& problem,
                                const std::vector<double>* warm_flow,
                                TransportationBasis* basis) {
  const std::size_t m = problem.sources();
  const std::size_t n = problem.destinations();
  if (problem.cost.size() != m * n)
    throw std::invalid_argument("solve_transportation: cost size mismatch");
  for (double s : problem.supply)
    if (s < 0) throw std::invalid_argument("solve_transportation: negative supply");
  for (double c : problem.capacity)
    if (c < 0) throw std::invalid_argument("solve_transportation: negative capacity");

  TransportationResult result;
  result.flow.assign(m * n, 0.0);
  const double total_supply =
      std::accumulate(problem.supply.begin(), problem.supply.end(), 0.0);
  const double total_capacity =
      std::accumulate(problem.capacity.begin(), problem.capacity.end(), 0.0);
  if (m == 0 || total_supply <= kEps) {
    // Nothing to ship: trivially optimal at zero.
    if (basis != nullptr) basis->valid = false;
    result.status = Status::kOptimal;
    return result;
  }
  if (n == 0 || total_supply > total_capacity + kEps) {
    if (basis != nullptr) basis->valid = false;
    result.status = Status::kInfeasible;
    return result;
  }

  Balanced bal;
  bal.has_dummy = total_capacity > total_supply + kEps;
  bal.m = m + (bal.has_dummy ? 1 : 0);
  bal.n = n;
  bal.supply = problem.supply;
  if (bal.has_dummy) bal.supply.push_back(total_capacity - total_supply);
  bal.demand = problem.capacity;
  // Big-M: strictly dominates any finite objective.
  double max_finite = 1.0;
  for (double c : problem.cost)
    if (c != kInfinity) max_finite = std::max(max_finite, std::abs(c));
  bal.big_m = max_finite * 1e6 * static_cast<double>(m + n) + 1e6;
  bal.cost.assign(bal.m * bal.n, 0.0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      bal.cost[i * n + j] =
          problem.cost[i * n + j] == kInfinity ? bal.big_m : problem.cost[i * n + j];
  // Dummy row cost stays 0.

  // Dirty-basis eligibility: the retained basis must come from the *same*
  // balanced instance modulo costs — identical shape and bit-identical
  // supplies/capacities. Basic flows satisfy the supply/demand constraints
  // regardless of costs, so the old basis is primal-feasible here and MODI
  // can resume from it directly.
  const bool dirty = basis != nullptr && basis->valid && basis->m == bal.m &&
                     basis->n == bal.n && basis->supply == bal.supply &&
                     basis->demand == bal.demand;

  // Translate the warm flow grid (real rows only) into balanced-instance
  // cell priorities; the dummy row, when present, stays unprioritized.
  std::vector<char> warm_cells;
  if (!dirty && warm_flow != nullptr && warm_flow->size() == m * n) {
    warm_cells.assign(bal.m * bal.n, 0);
    for (std::size_t cell = 0; cell < m * n; ++cell)
      if ((*warm_flow)[cell] > kEps && problem.cost[cell] != kInfinity)
        warm_cells[cell] = 1;  // never prioritize a now-forbidden route
  }
  TransportSimplex simplex(bal, warm_cells.empty() ? nullptr : &warm_cells);
  if (dirty) {
    simplex.seed_basis(std::move(basis->flow), std::move(basis->basic));
    result.dirty_resolve = true;
  }
  const std::size_t max_iterations = 100 * (bal.m + bal.n) * (bal.m + bal.n) + 1000;
  const Status status = simplex.solve(max_iterations);
  result.iterations = simplex.iterations();
  result.bland_fallback = simplex.bland();
  if (status != Status::kOptimal) {
    if (basis != nullptr) basis->valid = false;
    result.status = status;
    return result;
  }
  // Check forbidden cells and extract the real flow grid.
  double objective = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double f = simplex.flow()[i * bal.n + j];
      if (f > kEps && problem.cost[i * n + j] == kInfinity) {
        if (basis != nullptr) basis->valid = false;
        result.status = Status::kInfeasible;  // needed a forbidden route
        return result;
      }
      result.flow[i * n + j] = f;
      if (f > 0) objective += f * problem.cost[i * n + j];
    }
  }
  result.objective = objective;
  result.status = Status::kOptimal;
  if (basis != nullptr) {
    basis->valid = true;
    basis->m = bal.m;
    basis->n = bal.n;
    basis->supply = std::move(bal.supply);
    basis->demand = std::move(bal.demand);
    simplex.release_basis(basis->flow, basis->basic);
  }
  return result;
}

}  // namespace

TransportationResult solve_transportation(const TransportationProblem& problem,
                                          const std::vector<double>* warm_flow) {
  return solve_impl(problem, warm_flow, nullptr);
}

TransportationResult solve_transportation_dirty(
    const TransportationProblem& problem, TransportationBasis& basis,
    const std::vector<double>* warm_flow) {
  return solve_impl(problem, warm_flow, &basis);
}

LinearProgram to_linear_program(const TransportationProblem& problem) {
  const std::size_t m = problem.sources();
  const std::size_t n = problem.destinations();
  LinearProgram lp;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double cost = problem.cost[i * n + j];
      // Forbidden cells become fixed-at-zero variables.
      if (cost == kInfinity)
        lp.add_variable(0.0, 0.0, 0.0);
      else
        lp.add_variable(0.0, kInfinity, cost);
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t j = 0; j < n; ++j) terms.emplace_back(i * n + j, 1.0);
    lp.add_constraint(std::move(terms), Sense::kEqual, problem.supply[i]);
  }
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t i = 0; i < m; ++i) terms.emplace_back(i * n + j, 1.0);
    lp.add_constraint(std::move(terms), Sense::kLessEqual, problem.capacity[j]);
  }
  return lp;
}

}  // namespace dust::solver
