#include "solver/transportation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "solver/min_cost_flow.hpp"
#include "solver/simplex.hpp"
#include "util/rng.hpp"

namespace dust::solver {
namespace {

double row_sum(const TransportationResult& r, std::size_t i, std::size_t n) {
  double s = 0;
  for (std::size_t j = 0; j < n; ++j) s += r.flow[i * n + j];
  return s;
}

double col_sum(const TransportationResult& r, std::size_t j, std::size_t m,
               std::size_t n) {
  double s = 0;
  for (std::size_t i = 0; i < m; ++i) s += r.flow[i * n + j];
  return s;
}

TEST(Transportation, TextbookBalanced) {
  // Classic 3x3 with supplies 300/400/500 and demands 250/350/400 + dummy
  // absorbed by capacities exactly (total 1200 vs 1000): capacities chosen
  // so the instance is tight where it matters.
  TransportationProblem p;
  p.supply = {300, 400, 500};
  p.capacity = {250, 350, 600};
  p.cost = {3, 1, 7,
            2, 6, 5,
            8, 3, 3};
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  // Cross-check against the general simplex.
  const Solution s = solve_simplex(to_linear_program(p));
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, s.objective, 1e-6);
}

TEST(Transportation, SingleCellExact) {
  TransportationProblem p;
  p.supply = {5};
  p.capacity = {7};
  p.cost = {2.5};
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, 12.5, 1e-9);
  EXPECT_NEAR(r.flow[0], 5.0, 1e-9);
}

TEST(Transportation, PicksCheaperDestination) {
  TransportationProblem p;
  p.supply = {10};
  p.capacity = {10, 10};
  p.cost = {5.0, 1.0};
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.flow_at(0, 1, 2), 10.0, 1e-9);
  EXPECT_NEAR(r.objective, 10.0, 1e-9);
}

TEST(Transportation, SplitsWhenCapacityBinds) {
  TransportationProblem p;
  p.supply = {10};
  p.capacity = {4, 10};
  p.cost = {1.0, 2.0};
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.flow_at(0, 0, 2), 4.0, 1e-9);
  EXPECT_NEAR(r.flow_at(0, 1, 2), 6.0, 1e-9);
  EXPECT_NEAR(r.objective, 16.0, 1e-9);
}

TEST(Transportation, InfeasibleWhenSupplyExceedsCapacity) {
  TransportationProblem p;
  p.supply = {10, 5};
  p.capacity = {8};
  p.cost = {1.0, 1.0};
  EXPECT_EQ(solve_transportation(p).status, Status::kInfeasible);
}

TEST(Transportation, ForbiddenCellAvoided) {
  TransportationProblem p;
  p.supply = {5};
  p.capacity = {10, 10};
  p.cost = {kInfinity, 3.0};
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.flow_at(0, 1, 2), 5.0, 1e-9);
  EXPECT_NEAR(r.objective, 15.0, 1e-9);
}

TEST(Transportation, InfeasibleWhenOnlyForbiddenRoutesRemain) {
  TransportationProblem p;
  p.supply = {5, 5};
  p.capacity = {5, 5};
  p.cost = {kInfinity, kInfinity,
            1.0, 1.0};
  EXPECT_EQ(solve_transportation(p).status, Status::kInfeasible);
}

TEST(Transportation, ZeroSupplyTrivial) {
  TransportationProblem p;
  p.supply = {0.0, 0.0};
  p.capacity = {5.0};
  p.cost = {1.0, 1.0};
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_DOUBLE_EQ(r.objective, 0.0);
}

TEST(Transportation, EmptyProblem) {
  TransportationProblem p;
  const TransportationResult r = solve_transportation(p);
  EXPECT_EQ(r.status, Status::kOptimal);
}

TEST(Transportation, NoDestinationsWithSupplyInfeasible) {
  TransportationProblem p;
  p.supply = {1.0};
  EXPECT_EQ(solve_transportation(p).status, Status::kInfeasible);
}

TEST(Transportation, NegativeInputsThrow) {
  TransportationProblem p;
  p.supply = {-1.0};
  p.capacity = {5.0};
  p.cost = {1.0};
  EXPECT_THROW(solve_transportation(p), std::invalid_argument);
  p.supply = {1.0};
  p.capacity = {-5.0};
  EXPECT_THROW(solve_transportation(p), std::invalid_argument);
}

TEST(Transportation, CostSizeMismatchThrows) {
  TransportationProblem p;
  p.supply = {1.0};
  p.capacity = {1.0};
  p.cost = {1.0, 2.0};
  EXPECT_THROW(solve_transportation(p), std::invalid_argument);
}

TEST(Transportation, DegenerateTiesTerminate) {
  // All costs equal and supplies exactly matching capacities: maximally
  // degenerate; any assignment is optimal.
  TransportationProblem p;
  p.supply = {2, 2, 2};
  p.capacity = {2, 2, 2};
  p.cost = std::vector<double>(9, 1.0);
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, 6.0, 1e-9);
}

// ---- The least-cost start's total order ---------------------------------
//
// Real rows' cells in (warm hint first, cost ascending, cell index ascending)
// order, then the dummy row in column order. Each instance below is solved
// by the start alone (0 pivots), so the flow shows the order.

TEST(TransportationStart, TiedColumnsGoToFirstColumn) {
  // Spare capacity 60 - 13 = 47 goes to the dummy row, which ships last.
  TransportationProblem p;
  p.supply = {13};
  p.capacity = {20, 25, 15};
  p.cost = {1.0, 1.0, 1.0};
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_EQ(r.flow, (std::vector<double>{13.0, 0.0, 0.0}));
}

TEST(TransportationStart, LastMantissaBitDecides) {
  TransportationProblem p;
  p.supply = {5};
  p.capacity = {5, 5};
  p.cost = {std::nextafter(1.0, 2.0), 1.0};
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_EQ(r.flow, (std::vector<double>{0.0, 5.0}));
}

TEST(TransportationStart, SignedCostsOrderedAsValues) {
  // Value order: -1 (column 3), then the two zeros, which tie and so go by
  // column (+0.0 in column 1 before -0.0 in column 2), then 1e-300.
  TransportationProblem p;
  p.supply = {2.5};
  p.capacity = {1, 1, 1, 1};
  p.cost = {1e-300, 0.0, -0.0, -1.0};
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_EQ(r.flow, (std::vector<double>{0.0, 1.0, 0.5, 1.0}));
  EXPECT_EQ(r.objective, -1.0);
}

TEST(TransportationStart, ExactlyBalancedLastRowIsOrderedByCost) {
  // No dummy row: row 1's 0.5 cell ships first and leaves row 0 column 1.
  TransportationProblem p;
  p.supply = {2, 2};
  p.capacity = {2, 2};
  p.cost = {1.0, 2.0,
            0.5, 3.0};
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_EQ(r.flow, (std::vector<double>{0.0, 2.0, 2.0, 0.0}));
  EXPECT_EQ(r.objective, 5.0);
}

TEST(TransportationStart, WarmHintOverridesCostOrder) {
  // By cost alone the start ships (0,0) first and needs a pivot; the hint
  // on (0,1) and (1,0) puts the cost-2 cell ahead of the cost-1 cell (0,0),
  // and the start is then optimal.
  TransportationProblem p;
  p.supply = {5, 5};
  p.capacity = {5, 5};
  p.cost = {1.0, 2.0,
            1.0, 4.0};
  const std::vector<double> optimum = {0.0, 5.0, 5.0, 0.0};
  const TransportationResult cold = solve_transportation(p);
  ASSERT_EQ(cold.status, Status::kOptimal);
  EXPECT_EQ(cold.iterations, 1u);
  EXPECT_EQ(cold.flow, optimum);
  const TransportationResult warm = solve_transportation(p, &optimum);
  ASSERT_EQ(warm.status, Status::kOptimal);
  EXPECT_EQ(warm.iterations, 0u);
  EXPECT_EQ(warm.flow, optimum);
  EXPECT_EQ(warm.objective, 15.0);
}

TEST(TransportationStart, RejectsNaNCost) {
  TransportationProblem p;
  p.supply = {1.0};
  p.capacity = {2.0, 2.0};
  p.cost = {1.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(solve_transportation(p), std::invalid_argument);
  p.supply = {0.0};  // rejected even with nothing to ship
  EXPECT_THROW(solve_transportation(p), std::invalid_argument);
}

class TransportationRandomSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

// Property: the specialized solver and the general simplex agree on the
// optimum, and the flow satisfies all constraints.
TEST_P(TransportationRandomSweep, AgreesWithSimplexAndFeasible) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t m = 1 + rng.below(4);
    const std::size_t n = 1 + rng.below(5);
    TransportationProblem p;
    for (std::size_t i = 0; i < m; ++i)
      p.supply.push_back(rng.uniform(0.0, 10.0));
    const double total =
        std::accumulate(p.supply.begin(), p.supply.end(), 0.0);
    // Guarantee feasibility: capacities cover supply with slack.
    for (std::size_t j = 0; j < n; ++j)
      p.capacity.push_back(total / n + rng.uniform(0.0, 5.0));
    for (std::size_t c = 0; c < m * n; ++c)
      p.cost.push_back(rng.uniform(0.1, 9.0));
    const TransportationResult r = solve_transportation(p);
    ASSERT_EQ(r.status, Status::kOptimal) << "seed " << GetParam();
    // Feasibility invariants.
    for (std::size_t i = 0; i < m; ++i)
      EXPECT_NEAR(row_sum(r, i, n), p.supply[i], 1e-6);
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_LE(col_sum(r, j, m, n), p.capacity[j] + 1e-6);
    for (double f : r.flow) EXPECT_GE(f, -1e-9);
    // Optimality: simplex agreement.
    const Solution s = solve_simplex(to_linear_program(p));
    ASSERT_EQ(s.status, Status::kOptimal);
    EXPECT_NEAR(r.objective, s.objective, 1e-5);
  }
}

// Property: tight instances (capacity == supply exactly) stay solvable.
TEST_P(TransportationRandomSweep, TightInstances) {
  util::Rng rng(GetParam() ^ 0x7777);
  const std::size_t m = 3, n = 3;
  TransportationProblem p;
  double total = 0;
  for (std::size_t i = 0; i < m; ++i) {
    p.supply.push_back(rng.uniform(1.0, 5.0));
    total += p.supply.back();
  }
  p.capacity = {total / 3, total / 3, total / 3};
  for (std::size_t c = 0; c < m * n; ++c)
    p.cost.push_back(rng.uniform(0.5, 3.0));
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  const Solution s = solve_simplex(to_linear_program(p));
  EXPECT_NEAR(r.objective, s.objective, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransportationRandomSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// Every optimal dirty solve must leave a retained basis that is a spanning
// tree of the balanced instance: exactly m + n - 1 cells, no cycle, every
// row and column reached.
void expect_spanning_tree(const TransportationBasis& basis) {
  ASSERT_TRUE(basis.valid);
  ASSERT_EQ(basis.basic.size(), basis.m * basis.n);
  std::vector<std::size_t> root(basis.m + basis.n);
  std::iota(root.begin(), root.end(), 0);
  const auto find = [&root](std::size_t x) {
    while (root[x] != x) x = root[x] = root[root[x]];
    return x;
  };
  std::size_t cells = 0, merges = 0;
  for (std::size_t i = 0; i < basis.m; ++i) {
    for (std::size_t j = 0; j < basis.n; ++j) {
      if (!basis.basic[i * basis.n + j]) continue;
      ++cells;
      const std::size_t a = find(i), b = find(basis.m + j);
      if (a != b) {
        root[a] = b;
        ++merges;
      }
    }
  }
  EXPECT_EQ(cells, basis.m + basis.n - 1);
  EXPECT_EQ(merges, basis.m + basis.n - 1);  // acyclic and connected
}

// ---- Fleet-scale objective against an independent solver ----------------
//
// Placement-sized instances (about 26 busy x 205 candidates, as on a k=16
// fat-tree): Trmin-like costs on a coarse grid, so many cells tie, slack
// capacity, so a dummy row exists, and about 10% forbidden cells. One
// instance of at least 300 x 700 cells (more than 2^16) has unquantized
// costs, so every digit of the start's radix pass varies. Successive
// shortest paths on the bipartite network must agree on status and, to
// 1e-9 relative, on the objective.

struct FleetInstance {
  TransportationProblem problem;
  double total_supply = 0.0;
};

FleetInstance fleet_instance(std::uint64_t seed, bool large) {
  util::Rng rng(seed);
  FleetInstance fleet;
  TransportationProblem& p = fleet.problem;
  const std::size_t m = large ? 300 + rng.below(20) : 20 + rng.below(13);
  const std::size_t n = large ? 700 + rng.below(40) : 180 + rng.below(50);
  for (std::size_t i = 0; i < m; ++i) {
    p.supply.push_back(static_cast<double>(1 + rng.below(20)));
    fleet.total_supply += p.supply.back();
  }
  const double slack = rng.uniform(1.2, 3.0);
  for (std::size_t j = 0; j < n; ++j)
    p.capacity.push_back(
        std::ceil(fleet.total_supply * slack / static_cast<double>(n) *
                   rng.uniform(0.5, 1.5)));
  for (std::size_t c = 0; c < m * n; ++c) {
    const double cost = large ? rng.uniform(0.01, 0.5)
                              : 0.02 * static_cast<double>(1 + rng.below(12));
    p.cost.push_back(rng.below(10) == 0 ? kInfinity : cost);
  }
  return fleet;
}

// Solves `p` by successive shortest paths on its bipartite network and
// checks `r` against it: the same verdict, the objective to 1e-9 relative,
// and a flow that ships every supply within every capacity.
void expect_matches_min_cost_flow(const TransportationProblem& p,
                                  const TransportationResult& r) {
  const std::size_t m = p.sources(), n = p.destinations();
  MinCostFlow mcf(m + n + 2);
  const std::size_t source = m + n, sink = m + n + 1;
  for (std::size_t i = 0; i < m; ++i) mcf.add_arc(source, i, p.supply[i], 0.0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (p.cost[i * n + j] != kInfinity)
        mcf.add_arc(i, m + j, kInfinity, p.cost[i * n + j]);
  for (std::size_t j = 0; j < n; ++j)
    mcf.add_arc(m + j, sink, p.capacity[j], 0.0);
  const MinCostFlow::FlowResult flow = mcf.solve(source, sink);
  const double total_supply =
      std::accumulate(p.supply.begin(), p.supply.end(), 0.0);
  const bool mcf_feasible = flow.max_flow >= total_supply - 1e-6;

  ASSERT_EQ(r.optimal(), mcf_feasible);
  if (!mcf_feasible) return;
  EXPECT_NEAR(r.objective, flow.total_cost, 1e-9 * flow.total_cost);
  for (std::size_t i = 0; i < m; ++i)
    EXPECT_NEAR(row_sum(r, i, n), p.supply[i], 1e-9);
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_LE(col_sum(r, j, m, n), p.capacity[j] + 1e-9);
}

TEST(TransportationFleetScale, ObjectiveMatchesMinCostFlow) {
  for (std::uint64_t seed = 1; seed <= 21; ++seed) {
    const bool large = seed == 21;
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FleetInstance fleet = fleet_instance(seed, large);
    const TransportationProblem& p = fleet.problem;
    if (large) {
      ASSERT_GT(p.sources() * p.destinations(), std::size_t{1} << 16);
    }
    expect_matches_min_cost_flow(p, solve_transportation(p));
  }
}

// ---- Pinned pivot paths ---------------------------------------------------
//
// Seeded instances whose pivot count, objective bit pattern and flow digest
// are pinned. The path pins were recorded from the tree-indexed MODI behind
// the radix-ordered least-cost start (real rows in (cost, cell) order, the
// dummy row last), so they prove the pivot sequence repeats bit for bit.
// kTies' zero rows and columns are left out of the solve, so its iterations
// were re-pinned then (its objectives and flows did not move); with them
// gone it no longer switches to Bland's rule, and kStall does, with every
// line live. Each case also keeps `reference_objective_bits`, the objective the
// original dense-grid MODI reached from an introsort-ordered start with the
// dummy row first: the new path must reach the same optimum, to within
// rounding (1e-12 relative; the sums differ by at most a few hundred ULP).

enum class Family {
  kRandom,     // random shapes, slack capacity
  kTies,       // integer costs, exact balance, zero rows and columns
  kForbidden,  // ~30% forbidden (big-M) cells; seed 8 is infeasible
  kDummy,      // capacity far above supply: a wide dummy row
  kDirty,      // cost-only perturbation re-solved from the retained basis
  kStall,      // stall_instance(seed blocks, 5 * (seed - 1) spare columns)
};

struct Pin {
  Family family;
  std::uint64_t seed;
  Status status;
  bool bland_fallback;
  std::size_t iterations;
  std::uint64_t reference_objective_bits;
  std::uint64_t objective_bits;
  std::uint64_t flow_digest;
};

// The same optimum as the reference path reached, to within rounding.
void expect_reference_objective(std::uint64_t got_bits,
                                std::uint64_t reference_bits) {
  const double got = std::bit_cast<double>(got_bits);
  const double reference = std::bit_cast<double>(reference_bits);
  EXPECT_NEAR(got, reference, 1e-12 * std::abs(reference));
}

std::uint64_t flow_digest(const std::vector<double>& flow) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over 64-bit words
  for (double f : flow) {
    h ^= std::bit_cast<std::uint64_t>(f);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TransportationProblem pinned_instance(Family family, util::Rng& rng) {
  TransportationProblem p;
  std::size_t m = 1 + rng.below(30);
  std::size_t n = 1 + rng.below(50);
  if (family == Family::kTies) {
    m = 4 + rng.below(12);
    n = 4 + rng.below(12);
    std::size_t total = 0;
    for (std::size_t i = 0; i < m; ++i) {
      p.supply.push_back(static_cast<double>(rng.below(3)));  // zero rows too
      total += static_cast<std::size_t>(p.supply.back());
    }
    if (total == 0) {
      p.supply[0] = 1.0;
      total = 1;
    }
    // Deal the supply out unit by unit over the columns that are not held
    // at zero capacity, so capacity matches supply exactly.
    p.capacity.assign(n, 0.0);
    const std::size_t open = 1 + n / 2 + rng.below(n / 2);
    for (std::size_t unit = 0; unit < total; ++unit)
      p.capacity[rng.below(open)] += 1.0;
    for (std::size_t c = 0; c < m * n; ++c)
      p.cost.push_back(static_cast<double>(1 + rng.below(3)));
    return p;
  }
  for (std::size_t i = 0; i < m; ++i) p.supply.push_back(rng.uniform(0.0, 10.0));
  const double total = std::accumulate(p.supply.begin(), p.supply.end(), 0.0);
  for (std::size_t j = 0; j < n; ++j)
    p.capacity.push_back(family == Family::kDummy
                             ? rng.uniform(total / n + 5.0, total / n + 40.0)
                             : total / n + rng.uniform(0.0, 5.0));
  for (std::size_t c = 0; c < m * n; ++c) {
    const bool forbidden = family == Family::kForbidden && rng.below(10) < 3;
    p.cost.push_back(forbidden ? kInfinity : rng.uniform(0.1, 9.0));
  }
  return p;
}

// The 12 x 12 block of stall_instance: integer costs, 1 on the diagonal.
// A local search over the off-diagonal costs found it, maximizing Dantzig
// pivots on the unit assignment problem.
constexpr int kStallBlock[12][12] = {
    {1, 7, 20, 31, 16, 31, 13, 20, 9, 21, 31, 20},
    {25, 1, 6, 13, 21, 14, 2, 21, 2, 25, 22, 7},
    {17, 2, 1, 4, 13, 20, 14, 17, 6, 18, 4, 15},
    {9, 22, 19, 1, 18, 28, 26, 21, 4, 4, 5, 17},
    {18, 16, 16, 15, 1, 31, 13, 6, 14, 21, 15, 19},
    {31, 2, 3, 30, 6, 1, 2, 19, 9, 18, 12, 7},
    {22, 5, 2, 28, 5, 8, 1, 2, 15, 19, 27, 27},
    {11, 18, 6, 2, 16, 23, 24, 1, 4, 9, 30, 18},
    {20, 2, 21, 27, 5, 17, 2, 14, 1, 2, 31, 4},
    {15, 10, 3, 9, 6, 2, 2, 6, 5, 1, 22, 15},
    {2, 3, 24, 10, 10, 29, 15, 12, 17, 2, 1, 2},
    {13, 2, 9, 2, 2, 22, 11, 2, 2, 3, 31, 1}};

// Exact ties with every line live: each supply and capacity is 1, so the
// least-cost start takes the unique optimum (the block diagonals, cost 1
// each) and every pivot is degenerate. `blocks` copies of kStallBlock sit
// on the diagonal; row 0 reaches the other copies at 1000 plus the block's
// row 0, every other cell costs 10000, and `spare` extra columns at 10000
// make a dummy row. The start hangs every copy from row 0 as the lone block
// hangs from its own row 0, so each copy stalls for about 40 pivots: the
// streak outgrows m + n and the solve switches to Bland's rule.
TransportationProblem stall_instance(std::size_t blocks, std::size_t spare) {
  constexpr std::size_t kSide = 12;
  const std::size_t m = blocks * kSide, n = m + spare;
  TransportationProblem p;
  p.supply.assign(m, 1.0);
  p.capacity.assign(n, 1.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double c = 10000.0;
      if (j < m && i / kSide == j / kSide)
        c = kStallBlock[i % kSide][j % kSide];
      else if (j < m && i == 0)
        c = 1000.0 + kStallBlock[0][j % kSide];
      p.cost.push_back(c);
    }
  }
  return p;
}

// Solves one pinned case and reports what it pins.
Pin observe(Family family, std::uint64_t seed) {
  util::Rng rng(seed);
  TransportationProblem p = family == Family::kStall
                                ? stall_instance(seed, 5 * (seed - 1))
                                : pinned_instance(family, rng);
  TransportationResult r;
  if (family == Family::kDirty) {
    TransportationBasis basis;
    const TransportationResult first = solve_transportation_dirty(p, basis);
    EXPECT_TRUE(first.optimal());
    if (first.optimal()) expect_spanning_tree(basis);
    for (double& c : p.cost)
      if (rng.below(3) == 0) c = rng.uniform(0.1, 9.0);
    r = solve_transportation_dirty(p, basis);
    EXPECT_TRUE(r.dirty_resolve);
    if (r.optimal()) expect_spanning_tree(basis);
  } else {
    r = solve_transportation(p);
  }
  return {family,
          seed,
          r.status,
          r.bland_fallback,
          r.iterations,
          0,
          std::bit_cast<std::uint64_t>(r.objective),
          flow_digest(r.flow)};
}

// clang-format off
constexpr Pin kPins[] = {
  {Family::kRandom, 1, Status::kOptimal, false, 3, 0x403806a4e1099449ULL, 0x403806a4e1099449ULL, 0x2c1986b945b3130dULL},
  {Family::kRandom, 2, Status::kOptimal, false, 2, 0x4030f7db44826cb2ULL, 0x4030f7db44826cb3ULL, 0x170fa9dc73ce4ee8ULL},
  {Family::kRandom, 3, Status::kOptimal, false, 6, 0x404d6d09a8409a8eULL, 0x404d6d09a8409a90ULL, 0x51d2332c66eeab1bULL},
  {Family::kRandom, 4, Status::kOptimal, false, 3, 0x40306e02fd2fac5cULL, 0x40306e02fd2fac63ULL, 0xd056f39d3c49d616ULL},
  {Family::kRandom, 5, Status::kOptimal, false, 2, 0x403c25286524d74eULL, 0x403c25286524d753ULL, 0xc7cb701394dd582eULL},
  {Family::kRandom, 6, Status::kOptimal, false, 1, 0x403cd03eb2665998ULL, 0x403cd03eb2665998ULL, 0xe9c2d53fa31d6636ULL},
  {Family::kRandom, 7, Status::kOptimal, false, 13, 0x4050a73aed140d1eULL, 0x4050a73aed140d1dULL, 0xf9a4d0125d6fa87bULL},
  {Family::kRandom, 8, Status::kOptimal, false, 0, 0x4080de6f20766891ULL, 0x4080de6f20766891ULL, 0xd3e1e20425fd9676ULL},
  {Family::kRandom, 9, Status::kOptimal, false, 9, 0x404c8a6169f1c2f9ULL, 0x404c8a6169f1c2f8ULL, 0x89e7055e8fdb75c0ULL},
  {Family::kRandom, 10, Status::kOptimal, false, 0, 0x3ff9fad57e060e26ULL, 0x3ff9fad57e060e3fULL, 0xabfb81d084adcac9ULL},
  {Family::kTies, 1, Status::kOptimal, false, 4, 0x402a000000000000ULL, 0x402a000000000000ULL, 0x31d8eedda4cecdb5ULL},
  {Family::kTies, 2, Status::kOptimal, false, 2, 0x402e000000000000ULL, 0x402e000000000000ULL, 0x723995069ff4d6dfULL},
  {Family::kTies, 3, Status::kOptimal, false, 10, 0x4031000000000000ULL, 0x4031000000000000ULL, 0xba33fc343753559dULL},
  {Family::kTies, 4, Status::kOptimal, false, 2, 0x4018000000000000ULL, 0x4018000000000000ULL, 0x68bb38c6cf34ac55ULL},
  {Family::kTies, 5, Status::kOptimal, false, 4, 0x402e000000000000ULL, 0x402e000000000000ULL, 0x32afce200093c9edULL},
  {Family::kTies, 6, Status::kOptimal, false, 10, 0x4031000000000000ULL, 0x4031000000000000ULL, 0x03d8eedda4cecdb5ULL},
  {Family::kTies, 1386, Status::kOptimal, false, 0, 0x4014000000000000ULL, 0x4014000000000000ULL, 0x5820c5f14c7cf157ULL},
  {Family::kTies, 1417, Status::kOptimal, false, 10, 0x4026000000000000ULL, 0x4026000000000000ULL, 0x6368f3f57b84445fULL},
  {Family::kTies, 1975, Status::kOptimal, false, 0, 0x4018000000000000ULL, 0x4018000000000000ULL, 0x61d4ea71af95ef15ULL},
  {Family::kTies, 2084, Status::kOptimal, false, 1, 0x4020000000000000ULL, 0x4020000000000000ULL, 0x527519d78418065dULL},
  {Family::kForbidden, 1, Status::kOptimal, false, 0, 0x4043a0fc5938feadULL, 0x4043a0fc5938feadULL, 0x962d5835222532f2ULL},
  {Family::kForbidden, 2, Status::kOptimal, false, 0, 0x403d785b088a1078ULL, 0x403d785b088a107aULL, 0x1fa2b3e8aee2ab30ULL},
  {Family::kForbidden, 3, Status::kOptimal, false, 2, 0x404313d1d42bff30ULL, 0x404313d1d42bff32ULL, 0x71e566611f8d7a3dULL},
  {Family::kForbidden, 4, Status::kOptimal, false, 3, 0x403af28ba66a23b0ULL, 0x403af28ba66a23c0ULL, 0x9f4e453b1b0b0836ULL},
  {Family::kForbidden, 5, Status::kOptimal, false, 4, 0x40483369258ffd4cULL, 0x40483369258ffd50ULL, 0xe299de98db3a6367ULL},
  {Family::kForbidden, 6, Status::kOptimal, false, 1, 0x404cb9775755ed42ULL, 0x404cb9775755ed42ULL, 0xcf1b14da1111ff97ULL},
  {Family::kForbidden, 7, Status::kOptimal, false, 12, 0x4058716a00f2a1e1ULL, 0x4058716a00f2a1e1ULL, 0x0bcf4a4a5ce094beULL},
  {Family::kForbidden, 8, Status::kInfeasible, false, 0, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x6a6acb468563504dULL},
  {Family::kDummy, 1, Status::kOptimal, false, 0, 0x403246a52baa2543ULL, 0x403246a52baa2543ULL, 0xb3c5d8273c37d9f3ULL},
  {Family::kDummy, 2, Status::kOptimal, false, 0, 0x4023a9035eb57b53ULL, 0x4023a9035eb57b53ULL, 0xea5170efa4638b83ULL},
  {Family::kDummy, 3, Status::kOptimal, false, 1, 0x404644b608b49befULL, 0x404644b608b49befULL, 0xc9d5959eb80f211eULL},
  {Family::kDummy, 4, Status::kOptimal, false, 0, 0x4027f14c2b4462b3ULL, 0x4027f14c2b4462b3ULL, 0xd86c5be221396082ULL},
  {Family::kDummy, 5, Status::kOptimal, false, 0, 0x40334df5ede8509aULL, 0x40334df5ede8509aULL, 0x412bb7b6ff4a4fbaULL},
  {Family::kDirty, 1, Status::kOptimal, false, 15, 0x4043b11d7dd4b7b7ULL, 0x4043b11d7dd4b7b7ULL, 0x6d7cea61675d3b18ULL},
  {Family::kDirty, 2, Status::kOptimal, false, 8, 0x40326c70c6e2e304ULL, 0x40326c70c6e2e305ULL, 0xc26d64f1180eeb59ULL},
  {Family::kDirty, 3, Status::kOptimal, false, 8, 0x404c027e420c4760ULL, 0x404c027e420c4761ULL, 0xa6287b337915ad50ULL},
  {Family::kDirty, 4, Status::kOptimal, false, 26, 0x40329f18f5844849ULL, 0x40329f18f5844852ULL, 0xe7a0a62869ce7344ULL},
  {Family::kDirty, 5, Status::kOptimal, false, 11, 0x4035a839b41e3d81ULL, 0x4035a839b41e3d87ULL, 0xa88e10de107250b8ULL},
  {Family::kDirty, 6, Status::kOptimal, false, 3, 0x4022ed3012702e6eULL, 0x4022ed3012702e6eULL, 0x136353a83363962dULL},
  {Family::kDirty, 7, Status::kOptimal, false, 30, 0x405060fbdbc03ea5ULL, 0x405060fbdbc03ea5ULL, 0x3bed98fcc7cfa895ULL},
  {Family::kStall, 1, Status::kOptimal, true, 47, 0x4028000000000000ULL, 0x4028000000000000ULL, 0xf632669a74fcae65ULL},
  {Family::kStall, 2, Status::kOptimal, true, 77, 0x4038000000000000ULL, 0x4038000000000000ULL, 0x4dce1f6ad0b29785ULL},
};
// clang-format on

TEST(TransportationPinned, PivotPathsMatchDenseReference) {
  std::size_t bland_cases = 0;
  for (const Pin& pin : kPins) {
    SCOPED_TRACE("family " + std::to_string(static_cast<int>(pin.family)) +
                 " seed " + std::to_string(pin.seed));
    const Pin got = observe(pin.family, pin.seed);
    EXPECT_EQ(got.status, pin.status);
    EXPECT_EQ(got.bland_fallback, pin.bland_fallback);
    EXPECT_EQ(got.iterations, pin.iterations);
    expect_reference_objective(got.objective_bits, pin.reference_objective_bits);
    EXPECT_EQ(got.objective_bits, pin.objective_bits);
    EXPECT_EQ(got.flow_digest, pin.flow_digest);
    if (got.bland_fallback) ++bland_cases;
  }
  // The stalling family must exercise the switch to Bland's rule.
  EXPECT_GE(bland_cases, 1u);
}

// ---- Pinned pivot paths at scale -----------------------------------------
//
// The same pins on instances of at least 200 x 400 cells, where pricing, the
// potentials update and the dirty-basis resume carry real weight: fabric-like
// quantized costs, forbidden cells, integer ties, tiled stalls that switch
// to Bland's rule, near-diagonal costs whose basis is a deep path-like tree (depth above 200,
// where the quantized family's stays near 40), and chains of dirty re-solves
// (one round of each chain changes a supply and so restarts cold on the
// retained buffers). The reference objectives were recorded from the solver
// that priced every cell in its scalar loop, walked the whole tree for
// potentials after every pivot, re-indexed a retained basis by scanning the
// m*n grid and started from an introsort-ordered, dummy-row-first start.
// kTies' instances are mostly zero rows and columns, which the solve leaves
// out; on the live lines that remain none of them switches to Bland's rule,
// so the two kStall tilings keep two Bland cases in the table. Their
// reference objectives are the exact optimum (one unit per row at cost 1).

enum class Large {
  kQuantized,       // costs on a 0.25 grid, slack capacity (dummy row)
  kForbidden,       // kQuantized with ~30% forbidden cells
  kTies,            // costs 1 or 2, 0/1 supplies, exact balance
  kStaircase,       // costs grow with the distance from the diagonal
  kDirty,           // kQuantized, then four re-solve rounds
  kDirtyStaircase,  // kStaircase, then four re-solve rounds
  kStall,           // stall_instance(34, 40 * (seed - 1))
};

TransportationProblem large_instance(Large family, util::Rng& rng) {
  TransportationProblem p;
  const std::size_t m = 200 + rng.below(40);
  const std::size_t n = 400 + rng.below(80);
  if (family == Large::kTies) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < m; ++i) {
      p.supply.push_back(rng.below(4) == 0 ? 1.0 : 0.0);
      total += static_cast<std::size_t>(p.supply.back());
    }
    p.capacity.assign(n, 0.0);
    const std::size_t open = n / 2 + rng.below(n / 2);
    for (std::size_t unit = 0; unit < total; ++unit)
      p.capacity[rng.below(open)] += 1.0;
    for (std::size_t c = 0; c < m * n; ++c)
      p.cost.push_back(static_cast<double>(1 + rng.below(2)));
    return p;
  }
  const bool stair =
      family == Large::kStaircase || family == Large::kDirtyStaircase;
  for (std::size_t i = 0; i < m; ++i) p.supply.push_back(rng.uniform(0.5, 10.0));
  const double total = std::accumulate(p.supply.begin(), p.supply.end(), 0.0);
  for (std::size_t j = 0; j < n; ++j)
    p.capacity.push_back(total / static_cast<double>(n) *
                         rng.uniform(1.0, stair ? 1.05 : 2.5));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double gap = static_cast<double>(i) / static_cast<double>(m) -
                         static_cast<double>(j) / static_cast<double>(n);
      double c = stair ? 100.0 * gap * gap + rng.uniform(0.0, 0.01)
                       : 0.25 * static_cast<double>(1 + rng.below(24));
      if (family == Large::kForbidden && rng.below(10) < 3) c = kInfinity;
      p.cost.push_back(c);
    }
  }
  return p;
}

struct LargePin {
  Large family;
  std::uint64_t seed;
  bool bland_fallback;         // any solve of the case switched to Bland
  std::size_t iterations;      // summed over every solve of the case
  std::uint64_t reference_objective_bits;  // of the last solve, see kPins
  std::uint64_t objective_bits;  // of the last solve
  std::uint64_t flow_digest;   // folded over every solve's flow
};

LargePin observe_large(Large family, std::uint64_t seed) {
  util::Rng rng(seed);
  TransportationProblem p = family == Large::kStall
                                ? stall_instance(34, 40 * (seed - 1))
                                : large_instance(family, rng);
  LargePin got{family, seed, false, 0, 0, 0, 0};
  const auto record = [&got](const TransportationResult& r) {
    EXPECT_EQ(r.status, Status::kOptimal);
    got.bland_fallback = got.bland_fallback || r.bland_fallback;
    got.iterations += r.iterations;
    got.objective_bits = std::bit_cast<std::uint64_t>(r.objective);
    got.flow_digest = got.flow_digest * 0x100000001b3ULL ^ flow_digest(r.flow);
  };
  if (family != Large::kDirty && family != Large::kDirtyStaircase) {
    record(solve_transportation(p));
    return got;
  }
  TransportationBasis basis;
  record(solve_transportation_dirty(p, basis));
  for (int round = 0; round < 4; ++round) {
    if (round == 2) {
      p.supply[rng.below(p.supply.size())] *= 0.9;
    } else {
      for (double& c : p.cost) {
        if (rng.below(100) != 0) continue;
        if (family == Large::kDirty)
          c = std::max(0.25, c + 0.25 * (static_cast<double>(rng.below(3)) - 1.0));
        else
          c *= rng.uniform(0.97, 1.03);
      }
    }
    const TransportationResult r = solve_transportation_dirty(p, basis);
    EXPECT_EQ(r.dirty_resolve, round != 2);
    expect_spanning_tree(basis);
    record(r);
  }
  return got;
}

// clang-format off
constexpr LargePin kLargePins[] = {
  {Large::kQuantized, 1, false, 0, 0x4073bf2fe31de002ULL, 0x4073bf2fe31ddffcULL, 0x5eafa8419f4bd160ULL},
  {Large::kQuantized, 2, false, 0, 0x4071c3af8499e312ULL, 0x4071c3af8499e314ULL, 0xa69bf17430fcb028ULL},
  {Large::kForbidden, 1, false, 0, 0x4073bf2fe31de001ULL, 0x4073bf2fe31ddffaULL, 0x00801deaa9e2b7cfULL},
  {Large::kTies, 8, false, 32, 0x404a000000000000ULL, 0x404a000000000000ULL, 0x151574a6c931daadULL},
  {Large::kTies, 10, false, 42, 0x404d000000000000ULL, 0x404d000000000000ULL, 0x724dac6dbe471557ULL},
  {Large::kTies, 1, false, 37, 0x4046000000000000ULL, 0x4046000000000000ULL, 0x10978ac26f640dadULL},
  {Large::kTies, 3, false, 24, 0x4048800000000000ULL, 0x4048800000000000ULL, 0x023af1458d6d1ea5ULL},
  {Large::kStaircase, 1, false, 702, 0x40267bdfde196f4aULL, 0x40267bdfde196f4bULL, 0x9b16d516a9c798c5ULL},
  {Large::kStaircase, 2, false, 1547, 0x402ece49adc80a02ULL, 0x402ece49adc80b94ULL, 0x4887e7ccf3a476d3ULL},
  {Large::kDirty, 1, false, 80, 0x4073bb506a58f255ULL, 0x4073bb506a58f259ULL, 0xb6a113a41f32210cULL},
  {Large::kDirty, 2, false, 41, 0x4071c149c74c5477ULL, 0x4071c149c74c547aULL, 0x98613c1092461506ULL},
  {Large::kDirtyStaircase, 1, false, 1357, 0x402672ac3b67b77eULL, 0x402672ac3b67b77fULL, 0x97ca105aa749f441ULL},
  {Large::kStall, 1, true, 1329, 0x4079800000000000ULL, 0x4079800000000000ULL, 0xe9d20adafba6d025ULL},
  {Large::kStall, 2, true, 1305, 0x4079800000000000ULL, 0x4079800000000000ULL, 0x289337df7168eb25ULL},
};
// clang-format on

TEST(TransportationPinned, LargePivotPathsMatchReference) {
  std::size_t bland_cases = 0;
  for (const LargePin& pin : kLargePins) {
    SCOPED_TRACE("large family " + std::to_string(static_cast<int>(pin.family)) +
                 " seed " + std::to_string(pin.seed));
    const LargePin got = observe_large(pin.family, pin.seed);
    EXPECT_EQ(got.bland_fallback, pin.bland_fallback);
    EXPECT_EQ(got.iterations, pin.iterations);
    expect_reference_objective(got.objective_bits, pin.reference_objective_bits);
    EXPECT_EQ(got.objective_bits, pin.objective_bits);
    EXPECT_EQ(got.flow_digest, pin.flow_digest);
    if (got.bland_fallback) ++bland_cases;
  }
  EXPECT_GE(bland_cases, 2u);
}

// ---- Inert lines ----------------------------------------------------------
//
// A row with supply, or a column with capacity, at or below 1e-9 ships
// nothing, and the solve leaves it out. Each case below holds such lines
// between live ones.

// Zeroes about `row_share` of the rows' supplies and `col_share` of the
// columns' capacities (never all rows), keeping the instance feasible.
void make_inert(TransportationProblem& p, util::Rng& rng, double row_share,
                double col_share) {
  for (double& s : p.supply)
    if (rng.uniform() < row_share) s = 0.0;
  if (std::all_of(p.supply.begin(), p.supply.end(),
                  [](double s) { return s == 0.0; }))
    p.supply[rng.below(p.supply.size())] = 1.0;
  double spare = std::accumulate(p.capacity.begin(), p.capacity.end(), 0.0) -
                 std::accumulate(p.supply.begin(), p.supply.end(), 0.0);
  for (double& c : p.capacity) {
    if (rng.uniform() >= col_share || c > spare) continue;
    spare -= c;
    c = 0.0;
  }
}

// The instance with its inert lines cut out, as a caller would write it.
TransportationProblem compressed(const TransportationProblem& p,
                                 std::vector<std::size_t>& rows,
                                 std::vector<std::size_t>& cols) {
  const std::size_t n = p.destinations();
  for (std::size_t i = 0; i < p.sources(); ++i)
    if (p.supply[i] > 1e-9) rows.push_back(i);
  for (std::size_t j = 0; j < n; ++j)
    if (p.capacity[j] > 1e-9) cols.push_back(j);
  TransportationProblem q;
  for (const std::size_t i : rows) q.supply.push_back(p.supply[i]);
  for (const std::size_t j : cols) q.capacity.push_back(p.capacity[j]);
  for (const std::size_t i : rows)
    for (const std::size_t j : cols) q.cost.push_back(p.cost[i * n + j]);
  return q;
}

TEST(TransportationInert, SameSolveAsHandCompressedInstance) {
  std::size_t inert_rows = 0, inert_cols = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    // Finite costs only: big-M is priced from the whole grid, so with
    // forbidden cells the two instances would differ in it.
    TransportationProblem p = pinned_instance(
        seed % 3 == 0 ? Family::kTies : seed % 3 == 1 ? Family::kRandom
                                                      : Family::kDummy,
        rng);
    make_inert(p, rng, 0.3, 0.2);
    std::vector<std::size_t> rows, cols;
    const TransportationProblem q = compressed(p, rows, cols);
    inert_rows += p.sources() - rows.size();
    inert_cols += p.destinations() - cols.size();

    const TransportationResult full = solve_transportation(p);
    const TransportationResult cut = solve_transportation(q);
    ASSERT_EQ(full.status, cut.status);
    EXPECT_EQ(full.iterations, cut.iterations);
    EXPECT_EQ(full.bland_fallback, cut.bland_fallback);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(full.objective),
              std::bit_cast<std::uint64_t>(cut.objective));
    std::vector<double> expanded(p.cost.size(), 0.0);
    for (std::size_t a = 0; a < rows.size(); ++a)
      for (std::size_t b = 0; b < cols.size(); ++b)
        expanded[rows[a] * p.destinations() + cols[b]] =
            cut.flow[a * cols.size() + b];
    EXPECT_EQ(full.flow, expanded);
  }
  EXPECT_GT(inert_rows, 20u);
  EXPECT_GT(inert_cols, 20u);
}

TEST(TransportationInert, NaNInInertLineThrows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TransportationProblem p;
  p.supply = {0.0, 2.0};
  p.capacity = {3.0, 3.0};
  p.cost = {nan, 1.0,
            1.0, 2.0};
  EXPECT_THROW(solve_transportation(p), std::invalid_argument);
  p.supply = {1.0, 2.0};
  p.capacity = {3.0, 0.0};
  p.cost = {1.0, 1.0,
            2.0, nan};
  EXPECT_THROW(solve_transportation(p), std::invalid_argument);
  TransportationBasis basis;
  EXPECT_THROW(solve_transportation_dirty(p, basis), std::invalid_argument);
}

TEST(TransportationInert, AllRowsInertIsOptimalAtZero) {
  TransportationProblem p;
  p.supply = {0.0, 5e-10, 0.0};
  p.capacity = {4.0, 0.0};
  p.cost = {1.0, kInfinity,
            kInfinity, 2.0,
            3.0, 1.0};
  TransportationBasis basis;
  const TransportationResult r = solve_transportation_dirty(p, basis);
  EXPECT_EQ(r.status, Status::kOptimal);
  EXPECT_EQ(r.objective, 0.0);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_EQ(r.flow, std::vector<double>(6, 0.0));
  EXPECT_FALSE(basis.valid);
}

// Supply just above 1e-9 keeps a row live; the row's supply must ship.
TEST(TransportationInert, LineJustAboveThresholdShips) {
  TransportationProblem p;
  p.supply = {2e-9, 1.0};
  p.capacity = {2.0, 1e-9};
  p.cost = {1.0, 0.5,
            2.0, 0.5};
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_EQ(r.flow, (std::vector<double>{2e-9, 0.0, 1.0, 0.0}));
}

// A dirty chain keeps resuming while the same lines stay inert, and starts
// cold when a line turns live or inert.
TEST(TransportationInert, DirtyChainFollowsInertSet) {
  util::Rng rng(5);
  TransportationProblem p;
  const std::size_t m = 14, n = 24;
  for (std::size_t i = 0; i < m; ++i) p.supply.push_back(rng.uniform(1.0, 10.0));
  const double total = std::accumulate(p.supply.begin(), p.supply.end(), 0.0);
  for (std::size_t j = 0; j < n; ++j)
    p.capacity.push_back(2.0 * total / n + rng.uniform(0.0, 2.0));
  for (std::size_t c = 0; c < m * n; ++c) p.cost.push_back(rng.uniform(0.1, 9.0));
  p.supply[2] = p.supply[9] = 0.0;
  p.capacity[5] = 0.0;
  const auto drift = [&] {
    for (double& c : p.cost)
      if (rng.below(4) == 0) c = rng.uniform(0.1, 9.0);
  };
  TransportationBasis basis;
  // {change before the round, whether the round resumes}
  const std::vector<std::pair<std::function<void()>, bool>> rounds = {
      {[] {}, false},
      {drift, true},
      {drift, true},
      {[&] { p.supply[2] = 3.0; }, false},  // row 2 turns live
      {drift, true},
      {[&] { p.capacity[11] = 0.0; }, false},  // column 11 turns inert
      {drift, true},
      {[&] { p.cost[9 * n] = 0.01; }, true},  // a cost in inert row 9
  };
  for (std::size_t round = 0; round < rounds.size(); ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    rounds[round].first();
    const TransportationResult r = solve_transportation_dirty(p, basis);
    ASSERT_TRUE(r.optimal());
    EXPECT_EQ(r.dirty_resolve, rounds[round].second);
    expect_spanning_tree(basis);
    const TransportationResult cold = solve_transportation(p);
    EXPECT_NEAR(r.objective, cold.objective, 1e-9 * cold.objective);
    EXPECT_EQ(r.flow[9 * n], 0.0);
  }
}

// Placement-sized instances as under fleet churn: about 26 busy rows, most
// of them relieved switches reporting exactly Cmax (zero excess), and a few
// candidates without spare capacity.
TEST(TransportationInert, FleetChurnShapeMatchesMinCostFlow) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FleetInstance fleet = fleet_instance(seed, false);
    TransportationProblem& p = fleet.problem;
    util::Rng rng(seed + 1000);
    make_inert(p, rng, 0.78, 0.05);
    expect_matches_min_cost_flow(p, solve_transportation(p));
  }
}

// ---- Pricing tolerance ----------------------------------------------------
//
// Row 1's most negative reduced cost belongs to a forbidden (big-M) cell and
// is cancellation noise: column 1 is reachable from the dummy row only, and
// the start connects it to row 0 through its big-M cell, so u_1 + v_1 =
// big_M + delta and the big-M cell (1,1) prices at -delta, inside its
// big-M-scaled tolerance (~1.1e-4 here).
// The finite cell (1,3) in the same row prices at -epsilon, less negative
// but clear of its ~1e-9 tolerance, and is the one improving pivot. Pricing
// must rescan the row for it rather than settle for the row's minimum.
TEST(TransportationPricing, ToleranceRejectedRowMinimum) {
  constexpr double kDelta = 1e-4;
  constexpr double kEpsilon = 1e-5;
  TransportationProblem p;
  p.supply = {1.5, 1.5};
  p.capacity = {2.0, 1.0, 0.5, 0.5};
  // Least-cost start: (0,3) 0.5, (0,0) 1, (1,0) 1, (1,2) 0.5, then the dummy
  // row's 1 to column 1; connecting the tree adds the zero-flow big-M cell
  // (0,1).
  p.cost = {2.0,          kInfinity, 9.0, 1.0,
            2.0 + kDelta, kInfinity, 3.0, 1.0 + kDelta - kEpsilon};
  const TransportationResult r = solve_transportation(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_EQ(r.iterations, 1u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.objective), 0x40180018e757928eULL);
  EXPECT_EQ(flow_digest(r.flow), 0x337ff832281a39c5ULL);
  // (1,3) entered and took the 0.5 that (0,3) carried.
  EXPECT_EQ(r.flow[1 * 4 + 3], 0.5);
  EXPECT_EQ(r.flow[0 * 4 + 3], 0.0);
}

// Repeated dirty re-solves keep the retained basis a spanning tree: cost-only
// changes resume from it (and pivot through the tree upkeep), quantity
// changes fall back to a fresh start.
TEST(TransportationDirty, RepeatedResolvesKeepSpanningTreeBasis) {
  util::Rng rng(42);
  TransportationProblem p;
  const std::size_t m = 25, n = 40;
  for (std::size_t i = 0; i < m; ++i) p.supply.push_back(rng.uniform(1.0, 10.0));
  const double total = std::accumulate(p.supply.begin(), p.supply.end(), 0.0);
  for (std::size_t j = 0; j < n; ++j)
    p.capacity.push_back(total / n + rng.uniform(0.0, 2.0));
  for (std::size_t c = 0; c < m * n; ++c) p.cost.push_back(rng.uniform(0.1, 9.0));
  TransportationBasis basis;
  std::size_t dirty = 0;
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const TransportationResult r = solve_transportation_dirty(p, basis);
    ASSERT_TRUE(r.optimal());
    expect_spanning_tree(basis);
    const TransportationResult cold = solve_transportation(p);
    EXPECT_NEAR(r.objective, cold.objective, 1e-6 * std::max(1.0, cold.objective));
    if (r.dirty_resolve) ++dirty;
    if (round % 8 == 7) {
      p.supply[rng.below(m)] *= 0.9;  // quantity change: no dirty resume
    } else {
      for (double& c : p.cost)
        if (rng.below(4) == 0) c = rng.uniform(0.1, 9.0);
    }
  }
  EXPECT_GE(dirty, 30u);
}

TEST(ToLinearProgram, StructureMatches) {
  TransportationProblem p;
  p.supply = {3, 4};
  p.capacity = {5, 6, 7};
  p.cost = {1, 2, kInfinity, 4, 5, 6};
  const LinearProgram lp = to_linear_program(p);
  EXPECT_EQ(lp.variable_count(), 6u);
  EXPECT_EQ(lp.constraint_count(), 5u);  // 2 supply + 3 capacity
  // Forbidden cell is fixed at zero.
  EXPECT_DOUBLE_EQ(lp.variable(2).upper, 0.0);
}

}  // namespace
}  // namespace dust::solver
