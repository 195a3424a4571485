#include "solver/transportation.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

namespace dust::solver {

namespace {

constexpr double kEps = 1e-9;

// Internal balanced instance over the caller's live lines: the rows with
// supply and the columns with capacity above kEps, in their order. A row or
// column at or below kEps is closed before the least-cost start ships a unit,
// and no pivot moves flow into it, so it is left out. A dummy *source* row
// absorbs spare destination capacity (zero cost), so every row supply ships
// fully and every column receives exactly its capacity. Forbidden cells get
// big-M.
struct Balanced {
  std::size_t m = 0;  // live rows, plus the dummy
  std::size_t n = 0;  // live columns
  std::vector<std::uint32_t> rows;  // the caller's row of each real row
  std::vector<std::uint32_t> cols;  // the caller's column of each column
  std::vector<double> supply;
  std::vector<double> demand;
  std::vector<double> cost;
  bool has_dummy = false;
};

// The one read of the caller's cost grid. Rejects a NaN in any cell (it has
// no place in the start's order) and returns the largest finite |cost| (at
// least 1) over every cell, so big-M does not depend on which lines are live.
// The live cells (`rows` x `cols`) go to `out` row-major, from `out[0]`; the
// index in `out` of each infinite one goes to `forbidden`, for big-M to be
// written there once it is known.
double gather_costs(const TransportationView& problem,
                    std::span<const std::uint32_t> rows,
                    std::span<const std::uint32_t> cols,
                    std::vector<double>& out,
                    std::vector<std::size_t>& forbidden) {
  const std::size_t m = problem.supply.size();
  const std::size_t n = problem.capacity.size();
  double max_finite = 1.0;
  bool nan = false;
  std::size_t live = 0;  // rows gathered so far
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = problem.cost.data() + i * n;
    std::size_t infinite = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const double c = row[j];
      nan |= std::isnan(c);
      max_finite = std::max(max_finite, c != kInfinity ? std::abs(c) : 0.0);
      infinite += c == kInfinity ? 1 : 0;
    }
    if (live == rows.size() || rows[live] != i) continue;
    // The row is in cache now; gathering it reads the grid no further.
    const std::size_t base = live++ * cols.size();
    double* dst = out.data() + base;
    if (cols.size() == n)
      std::copy(row, row + n, dst);
    else
      for (std::size_t k = 0; k < cols.size(); ++k) dst[k] = row[cols[k]];
    for (std::size_t k = 0; infinite != 0 && k < cols.size(); ++k)
      if (dst[k] == kInfinity) forbidden.push_back(base + k);
  }
  if (nan) throw std::invalid_argument("solve_transportation: NaN cost");
  return max_finite;
}

/// MODI / u-v transportation simplex over a balanced instance.
///
/// The basis is a spanning tree on the bipartite row/column node set (rows
/// [0, m), columns [m, m+n)) with exactly m + n - 1 cells, held as slots: a
/// cell and its flow each. Only basic cells carry flow — the least-cost
/// start ships only over the cells it makes basic, and a pivot empties the
/// cell that leaves — so the slots are the whole solution. Each pivot works
/// on the tree through per-row and per-column incidence lists of slots: the
/// entering cell's cycle costs O(path), and only the subtree the pivot
/// re-hangs gets new potentials. Pricing is the one dense pass per pivot.
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
    slot_flow_.reserve(nodes);
    for (auto* list :
         {&slot_cell_, &stack_, &up_, &down_, &minus_, &plus_, &order_})
      list->reserve(nodes);
  }

  /// Take over a retained basis. With `seeded`, it holds a previous optimal
  /// solve's membership and slots for the same balanced supplies/demands,
  /// and solve() resumes from it (dirty-basis path); otherwise it only
  /// lends its storage to a fresh least-cost start.
  void adopt(std::vector<char>&& basic, std::vector<std::size_t>&& cells,
             std::vector<double>&& flows, bool seeded) {
    basic_ = std::move(basic);
    slot_cell_ = std::move(cells);
    slot_flow_ = std::move(flows);
    slot_cell_.reserve(bal_.m + bal_.n);
    slot_flow_.reserve(bal_.m + bal_.n);
    seeded_ = seeded;
  }

  Status solve(std::size_t max_iterations) {
    if (!seeded_ || !resume_tree()) {
      seeded_ = false;
      least_cost_start();
      connect_basis_tree();
      link_slots();
      compute_potentials();
    }
    // Dantzig's rule can cycle forever on degenerate instances (exact
    // supply/capacity ties, zero-capacity columns): every pivot has theta=0
    // and the same bases repeat. After a streak of m+n degenerate pivots,
    // switch to Bland's rule permanently — it guarantees termination, so an
    // infeasible big-M instance reaches the forbidden-flow check instead of
    // burning the iteration budget.
    std::size_t degenerate_streak = 0;
    for (std::size_t iter = 0; iter < max_iterations; ++iter) {
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

  [[nodiscard]] std::size_t iterations() const noexcept { return iterations_; }
  [[nodiscard]] bool bland() const noexcept { return bland_; }
  /// Whether solve() resumed from the seeded basis.
  [[nodiscard]] bool resumed() const noexcept { return seeded_; }

  /// Write the real rows' flows into `result`'s m*n grid of the caller's
  /// lines (the lines left out get zeros) and price them at `problem`'s
  /// costs, walking the basic cells (the only ones with flow) in row-major
  /// order, which the live lines keep; the dummy row, if any, comes last. An
  /// optimum that ships over a forbidden cell is infeasible; the grid then
  /// keeps the flows of the cells before it.
  Status extract(const TransportationView& problem,
                 TransportationResult& result) {
    const std::size_t real_cells = bal_.rows.size() * bal_.n;
    order_.resize(slot_cell_.size());
    std::iota(order_.begin(), order_.end(), 0);
    std::sort(order_.begin(), order_.end(), [this](std::size_t a, std::size_t b) {
      return slot_cell_[a] < slot_cell_[b];
    });
    result.flow.assign(problem.cost.size(), 0.0);
    double objective = 0.0;
    for (const std::size_t slot : order_) {
      if (slot_cell_[slot] >= real_cells) break;
      const std::size_t cell =
          bal_.rows[slot_cell_[slot] / bal_.n] * problem.capacity.size() +
          bal_.cols[slot_cell_[slot] % bal_.n];
      const double f = slot_flow_[slot];
      if (f > kEps && problem.cost[cell] == kInfinity)
        return Status::kInfeasible;  // needed a forbidden route
      result.flow[cell] = f;
      if (f > 0) objective += f * problem.cost[cell];
    }
    result.objective = objective;
    return Status::kOptimal;
  }

  /// Move the basis membership and slots out; the simplex is spent.
  void release_basis(std::vector<char>& basic, std::vector<std::size_t>& cells,
                     std::vector<double>& flows) {
    basic = std::move(basic_);
    cells = std::move(slot_cell_);
    flows = std::move(slot_flow_);
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  // Least-cost method: walk the cells in one total order and ship as much as
  // each cell's row and column still allow. The real rows go first, in
  // real_cell_order(); the dummy row goes last, in column order. Once the
  // real rows have shipped, the dummy row's supply is exactly the capacity
  // left over, so its allocations are forced: spare capacity is handed out
  // only after every busy row has taken its cheapest cells, not before, as
  // a zero-cost dummy row sorted by cost would. Each allocation ships the
  // smaller of its row's and column's remainders, which closes that row or
  // column for good; so the cells it makes basic never close a cycle.
  void least_cost_start() {
    basic_.assign(bal_.m * bal_.n, 0);
    slot_cell_.clear();
    slot_flow_.clear();
    std::vector<double> remaining_supply = bal_.supply;
    std::vector<double> remaining_demand = bal_.demand;
    const auto allocate = [&](std::size_t cell) {
      const std::size_t i = cell / bal_.n;
      const std::size_t j = cell % bal_.n;
      if (remaining_supply[i] <= kEps || remaining_demand[j] <= kEps) return;
      const double quantity = std::min(remaining_supply[i], remaining_demand[j]);
      basic_[cell] = 1;
      slot_cell_.push_back(cell);
      slot_flow_.push_back(quantity);
      remaining_supply[i] -= quantity;
      remaining_demand[j] -= quantity;
    };
    const std::size_t real_cells =
        (bal_.has_dummy ? bal_.m - 1 : bal_.m) * bal_.n;
    for (const std::uint32_t cell : real_cell_order(real_cells)) allocate(cell);
    for (std::size_t cell = real_cells; cell < bal_.m * bal_.n; ++cell)
      allocate(cell);
  }

  // Order-preserving unsigned image of a cost: a non-negative double's bits
  // with the sign bit set, a negative double's bits inverted (the IEEE sign
  // flip), and -0.0 read as +0.0 so the two zeros tie.
  static std::uint64_t cost_key(double cost) {
    const auto bits = std::bit_cast<std::uint64_t>(cost == 0.0 ? 0.0 : cost);
    return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
  }

  // The first `cells` cells (the real rows) in the start's total order:
  // warm-hinted cells first, then cost ascending, then cell index ascending
  // (row-major, so busy order, then candidate order). A stable LSD radix
  // sort over the 8-bit digits of cost_key, from cell order, settles cost
  // and index; one stable partition then moves the warm cells to the front.
  // O(cells), and the same permutation whatever standard library sorts.
  [[nodiscard]] std::vector<std::uint32_t> real_cell_order(
      std::size_t cells) const {
    constexpr std::size_t kDigits = 8;
    std::array<std::array<std::uint32_t, 256>, kDigits> count{};
    for (std::size_t cell = 0; cell < cells; ++cell) {
      const std::uint64_t key = cost_key(bal_.cost[cell]);
      for (std::size_t d = 0; d < kDigits; ++d)
        ++count[d][(key >> (8 * d)) & 0xff];
    }
    std::vector<std::uint32_t> order(cells), spare(cells);
    std::iota(order.begin(), order.end(), 0u);
    for (std::size_t d = 0; d < kDigits; ++d) {
      auto& bucket = count[d];
      // A digit every key shares leaves the order as it is.
      if (std::find(bucket.begin(), bucket.end(), cells) != bucket.end())
        continue;
      std::uint32_t start = 0;
      for (std::uint32_t& slot : bucket) start += std::exchange(slot, start);
      for (const std::uint32_t cell : order)
        spare[bucket[(cost_key(bal_.cost[cell]) >> (8 * d)) & 0xff]++] = cell;
      order.swap(spare);
    }
    if (warm_cells_ != nullptr) {
      const std::vector<char>& warm = *warm_cells_;
      auto out = std::copy_if(order.begin(), order.end(), spare.begin(),
                              [&warm](std::uint32_t cell) { return warm[cell]; });
      std::copy_if(order.begin(), order.end(), out,
                   [&warm](std::uint32_t cell) { return !warm[cell]; });
      order.swap(spare);
    }
    return order;
  }

  // The basis must be a spanning tree on the bipartite row/col node set with
  // exactly m + n - 1 cells. The least-cost start is a forest, with fewer
  // cells when it is degenerate; add zero-flow cells, first in row-major
  // order, until it is connected.
  void connect_basis_tree() {
    // Union-find over m + n nodes (rows then cols).
    std::iota(parent_.begin(), parent_.end(), 0);
    for (const std::size_t cell : slot_cell_)
      unite(cell / bal_.n, bal_.m + cell % bal_.n);
    const std::size_t tree_cells = bal_.m + bal_.n - 1;
    for (std::size_t cell = 0;
         cell < basic_.size() && slot_cell_.size() < tree_cells; ++cell) {
      if (basic_[cell] || !unite(cell / bal_.n, bal_.m + cell % bal_.n)) continue;
      basic_[cell] = 1;
      slot_cell_.push_back(cell);
      slot_flow_.push_back(0.0);
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

  // Index the basis as incidence lists. A basis always holds m + n - 1
  // cells, one per slot: slot s is half-edge 2s on its row's list and
  // half-edge 2s + 1 on its column's list (doubly linked, nodes are rows
  // then columns). A pivot hands the leaving cell's slot to the entering
  // cell, so the lists never grow after this. The order of the slots
  // changes no result: potentials, depths and parent edges are properties
  // of the tree, and the pivot's tie-breaks go by path order or cell index.
  void link_slots() {
    head_.assign(bal_.m + bal_.n, kNone);
    for (std::size_t slot = 0; slot < slot_cell_.size(); ++slot) {
      link(2 * slot);
      link(2 * slot + 1);
    }
  }

  // Index a seeded basis straight from its retained slots, O(m + n). Accept
  // it only if the potentials walk from row 0 spans every node: m + n - 1
  // cells that reach all m + n nodes are a spanning tree. Anything else
  // restarts from a least-cost start.
  bool resume_tree() {
    if (slot_cell_.size() + 1 != bal_.m + bal_.n) return false;
    link_slots();
    return compute_potentials();
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

  // Potentials u_i + v_j = c_ij on basic cells, rooted at row 0 (u_0 = 0).
  // Each potential follows from its unique tree parent, so it is a fixed
  // function of its path from row 0: the values depend neither on the
  // traversal order nor on whether the walk starts at the root or at a
  // subtree whose parent is already up to date. The walk also records each
  // node's depth and parent edge for pivot()'s cycle walk. Returns whether
  // the basis spans all m + n nodes.
  bool compute_potentials() {
    u_[0] = 0.0;
    depth_[0] = 0;
    tree_edge_[0] = kNone;
    return walk_down(0) + 1 == bal_.m + bal_.n;
  }

  // Make `slot` the tree edge from `child` up to `parent`, and derive the
  // child's potential, depth and parent edge from the parent's.
  void hang(std::size_t child, std::size_t parent, std::size_t slot) {
    const double cost = bal_.cost[slot_cell_[slot]];
    if (parent < bal_.m)
      v_[child - bal_.m] = cost - u_[parent];
    else
      u_[child] = cost - v_[parent - bal_.m];
    depth_[child] = depth_[parent] + 1;
    tree_edge_[child] = slot;
  }

  // Hang every node below `top` (whose own potential, depth and parent edge
  // are current) from its tree parent; returns how many it reached. A walk
  // that would reach all m + n nodes below `top` has met a cycle and stops.
  std::size_t walk_down(std::size_t top) {
    const std::size_t nodes = bal_.m + bal_.n;
    std::size_t reached = 0;
    stack_.assign(1, top);
    while (!stack_.empty()) {
      const std::size_t node = stack_.back();
      stack_.pop_back();
      for (std::size_t half = head_[node]; half != kNone; half = next_[half]) {
        if (half / 2 == tree_edge_[node]) continue;
        if (++reached == nodes) return reached;
        const std::size_t child = end_node(half ^ 1);
        hang(child, node, half / 2);
        stack_.push_back(child);
      }
    }
    return reached;
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

  // Row i's minimum reduced cost over all its cells, basic ones included:
  // the same expression in the same order as the pricing loops, so the
  // same bits, but branch-free and in four independent chains, which
  // runs the pass at load bandwidth. Every tolerance is at least kEps, so a
  // row whose minimum is not below min(best, -kEps) holds no cell pricing
  // can take, and the pricing loops skip it without changing their pick.
  [[nodiscard]] double row_min(std::size_t i) const {
    const std::size_t n = bal_.n;
    const double* cost = bal_.cost.data() + i * n;
    const double* v = v_.data();
    const double u = u_[i];
    double m0 = kInfinity, m1 = kInfinity, m2 = kInfinity, m3 = kInfinity;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      m0 = std::min(m0, cost[j] - u - v[j]);
      m1 = std::min(m1, cost[j + 1] - u - v[j + 1]);
      m2 = std::min(m2, cost[j + 2] - u - v[j + 2]);
      m3 = std::min(m3, cost[j + 3] - u - v[j + 3]);
    }
    for (; j < n; ++j) m0 = std::min(m0, cost[j] - u - v[j]);
    return std::min(std::min(m0, m1), std::min(m2, m3));
  }

  [[nodiscard]] std::tuple<std::size_t, std::size_t, double>
  most_negative_cell() const {
    double best = 0.0;
    std::size_t bi = 0, bj = 0;
    for (std::size_t i = 0; i < bal_.m; ++i) {
      if (row_min(i) >= std::min(best, -kEps)) continue;
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
      if (row_min(i) >= -kEps) continue;
      for (std::size_t j = 0; j < bal_.n; ++j) {
        if (basic_[i * bal_.n + j]) continue;
        const double reduced = bal_.cost[i * bal_.n + j] - u_[i] - v_[j];
        if (reduced < -reduced_cost_tolerance(i, j)) return {i, j, reduced};
      }
    }
    return {0, 0, 0.0};
  }

  // Find the unique alternating cycle created by adding (enter_i, enter_j)
  // to the basis tree, shift flow around it, swap basis membership and bring
  // the potentials up to date. Returns theta, the amount of flow shifted (0
  // on a degenerate pivot).
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
    const std::size_t start_side = minus_.size();
    for (std::size_t q = down_.size(); q-- > 0;)
      (q % 2 == 0 ? minus_ : plus_).push_back(down_[q]);
    // Theta = min flow on minus cells, first in path order on ties. Under
    // Bland's rule ties break toward the lowest cell index (required for the
    // anti-cycling guarantee).
    double theta = kInfinity;
    std::size_t leaving = 0;  // slot
    bool leaving_on_start_side = false;
    for (std::size_t k = 0; k < minus_.size(); ++k) {
      const std::size_t slot = minus_[k];
      const std::size_t cell = slot_cell_[slot];
      const double f = slot_flow_[slot];
      const bool tie_wins = bland_ && f == theta && cell < slot_cell_[leaving];
      if (f < theta || tie_wins) {
        theta = f;
        leaving = slot;
        leaving_on_start_side = k < start_side;
      }
    }
    for (const std::size_t slot : plus_) slot_flow_[slot] += theta;
    for (const std::size_t slot : minus_) slot_flow_[slot] -= theta;
    // The entering cell takes over the leaving cell's slot, and with it
    // theta (the leaving cell's flow before this pivot).
    const std::size_t enter = enter_i * bal_.n + enter_j;
    basic_[enter] = 1;
    basic_[slot_cell_[leaving]] = 0;
    unlink(2 * leaving);
    unlink(2 * leaving + 1);
    slot_cell_[leaving] = enter;
    slot_flow_[leaving] = theta;
    link(2 * leaving);
    link(2 * leaving + 1);
    // Dropping the leaving cell cut the subtree below it off from row 0;
    // that subtree holds the entering cell's end on the leaving cell's side
    // of the path. The entering cell re-hangs it from its other end, and
    // only its nodes get new potentials.
    const std::size_t row = enter_i;
    const std::size_t col = bal_.m + enter_j;
    const std::size_t top = leaving_on_start_side ? row : col;
    hang(top, leaving_on_start_side ? col : row, leaving);
    walk_down(top);
    return theta;
  }

  const Balanced& bal_;
  const std::vector<char>* warm_cells_ = nullptr;
  bool seeded_ = false;
  bool bland_ = false;
  std::vector<char> basic_;  // m*n basis membership
  std::vector<double> u_, v_;
  std::vector<std::size_t> parent_;  // union-find, connect_basis_tree only
  // The basis, one cell and its flow per slot, and its incidence lists (see
  // link_slots).
  std::vector<std::size_t> slot_cell_;
  std::vector<double> slot_flow_;
  std::vector<std::size_t> head_, next_, prev_;
  // Rooted at row 0 by compute_potentials(); nodes are rows then columns.
  std::vector<std::size_t> depth_, tree_edge_;
  // Per-pivot scratch, reused across pivots; order_ for extract().
  std::vector<std::size_t> stack_, up_, down_, minus_, plus_, order_;
  std::size_t iterations_ = 0;
};

// One solve body behind both public entry points. `basis`, when non-null, is
// consulted for the dirty-basis fast path, lends its buffers to the solve and
// is refreshed (or invalidated) on the way out.
TransportationResult solve_impl(const TransportationView& problem,
                                const std::vector<double>* warm_flow,
                                TransportationBasis* basis) {
  const std::size_t m = problem.supply.size();
  const std::size_t n = problem.capacity.size();
  if (problem.cost.size() != m * n)
    throw std::invalid_argument("solve_transportation: cost size mismatch");
  for (double s : problem.supply)
    if (s < 0) throw std::invalid_argument("solve_transportation: negative supply");
  for (double c : problem.capacity)
    if (c < 0) throw std::invalid_argument("solve_transportation: negative capacity");
  // The start orders cells by 32-bit index.
  if (m * n > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("solve_transportation: too many cells");

  Balanced bal;
  for (std::size_t i = 0; i < m; ++i)
    if (problem.supply[i] > kEps)
      bal.rows.push_back(static_cast<std::uint32_t>(i));
  for (std::size_t j = 0; j < n; ++j)
    if (problem.capacity[j] > kEps)
      bal.cols.push_back(static_cast<std::uint32_t>(j));
  // Feasibility, the dummy row and big-M are judged on the whole problem.
  const double total_supply =
      std::accumulate(problem.supply.begin(), problem.supply.end(), 0.0);
  const double total_capacity =
      std::accumulate(problem.capacity.begin(), problem.capacity.end(), 0.0);
  const bool nothing_to_ship = m == 0 || total_supply <= kEps;
  const bool infeasible =
      !nothing_to_ship && (n == 0 || total_supply > total_capacity + kEps);
  TransportationResult result;
  std::vector<std::size_t> forbidden;
  if (nothing_to_ship || infeasible || bal.rows.empty() || bal.cols.empty()) {
    // No live cell: trivially optimal at zero, unless the supply cannot fit.
    // The costs are still checked.
    gather_costs(problem, {}, {}, bal.cost, forbidden);
    if (basis != nullptr) basis->valid = false;
    result.status = infeasible ? Status::kInfeasible : Status::kOptimal;
    result.flow.assign(m * n, 0.0);
    return result;
  }

  bal.has_dummy = total_capacity > total_supply + kEps;
  bal.m = bal.rows.size() + (bal.has_dummy ? 1 : 0);
  bal.n = bal.cols.size();
  for (const std::uint32_t i : bal.rows)
    bal.supply.push_back(problem.supply[i]);
  if (bal.has_dummy) bal.supply.push_back(total_capacity - total_supply);
  for (const std::uint32_t j : bal.cols)
    bal.demand.push_back(problem.capacity[j]);
  if (basis != nullptr) bal.cost = std::move(basis->cost);
  bal.cost.resize(bal.m * bal.n);
  const double max_finite =
      gather_costs(problem, bal.rows, bal.cols, bal.cost, forbidden);
  // Big-M: strictly dominates any finite objective.
  const double big_m = max_finite * 1e6 * static_cast<double>(m + n) + 1e6;
  for (const std::size_t cell : forbidden) bal.cost[cell] = big_m;
  const std::size_t real_cells = bal.rows.size() * bal.n;
  std::fill(bal.cost.begin() + static_cast<std::ptrdiff_t>(real_cells),
            bal.cost.end(), 0.0);  // dummy row

  // Dirty-basis eligibility: the retained basis must come from the *same*
  // balanced instance modulo costs — the same live lines and bit-identical
  // supplies/capacities on them. Basic flows satisfy the supply/demand
  // constraints regardless of costs, so the old basis is primal-feasible
  // here and MODI can resume from it directly.
  const bool dirty = basis != nullptr && basis->valid && basis->m == bal.m &&
                     basis->n == bal.n && basis->rows == bal.rows &&
                     basis->cols == bal.cols && basis->supply == bal.supply &&
                     basis->demand == bal.demand;

  // Translate the warm flow grid (the caller's real rows) into balanced
  // cell priorities on the live lines; the dummy row, when present, stays
  // unprioritized.
  std::vector<char> warm_cells;
  if (!dirty && warm_flow != nullptr && warm_flow->size() == m * n) {
    warm_cells.assign(bal.m * bal.n, 0);
    for (std::size_t cell = 0; cell < real_cells; ++cell) {
      const std::size_t full =
          bal.rows[cell / bal.n] * n + bal.cols[cell % bal.n];
      if ((*warm_flow)[full] > kEps && problem.cost[full] != kInfinity)
        warm_cells[cell] = 1;  // never prioritize a now-forbidden route
    }
  }
  TransportSimplex simplex(bal, warm_cells.empty() ? nullptr : &warm_cells);
  if (basis != nullptr)
    simplex.adopt(std::move(basis->basic), std::move(basis->cells),
                  std::move(basis->flows), dirty);
  const std::size_t max_iterations = 100 * (bal.m + bal.n) * (bal.m + bal.n) + 1000;
  result.status = simplex.solve(max_iterations);
  result.iterations = simplex.iterations();
  result.bland_fallback = simplex.bland();
  result.dirty_resolve = simplex.resumed();
  if (result.status == Status::kOptimal)
    result.status = simplex.extract(problem, result);
  else
    result.flow.assign(m * n, 0.0);
  if (basis != nullptr) {
    basis->valid = result.optimal();
    basis->m = bal.m;
    basis->n = bal.n;
    basis->rows = std::move(bal.rows);
    basis->cols = std::move(bal.cols);
    basis->supply = std::move(bal.supply);
    basis->demand = std::move(bal.demand);
    simplex.release_basis(basis->basic, basis->cells, basis->flows);
    basis->cost = std::move(bal.cost);
  }
  return result;
}

}  // namespace

TransportationResult solve_transportation(TransportationView problem,
                                          const std::vector<double>* warm_flow) {
  return solve_impl(problem, warm_flow, nullptr);
}

TransportationResult solve_transportation_dirty(
    TransportationView problem, TransportationBasis& basis,
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
