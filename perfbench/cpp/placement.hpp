// What the two placement workloads share: the production optimizer
// options, the per-cycle correctness check and the placement digest.
#pragma once

#include <string>

#include "bench.hpp"
#include "core/optimizer.hpp"
#include "core/placement.hpp"
#include "net/response_cache.hpp"

namespace perfbench {

/// Workers of the parallel Trmin fill. Fewer than the 4 cores of the
/// reference host: a fork-join stage waits for its slowest worker, so on a
/// shared host every worker it adds adds exposure to CPU stolen by other
/// guests.
inline constexpr std::size_t kSolverThreads = 2;

/// The production pipeline: shared-frontier Trmin, max_hops 4, parallel
/// row fill, warm start (flow seed + dirty-basis re-solve), partial fallback.
inline dust::core::OptimizerOptions pipeline_options(
    dust::net::ResponseTimeCache* cache) {
  dust::core::OptimizerOptions options;
  options.placement.max_hops = 4;
  options.placement.evaluator = dust::net::EvaluatorMode::kSharedFrontier;
  options.placement.parallel_trmin = true;
  options.placement.solver_threads = kSolverThreads;
  options.placement.response_cache = cache;
  options.allow_partial = true;
  options.warm_start = true;
  return options;
}

/// Empty when the result is a valid placement of `problem`: constraint
/// violation at most 1e-6, and status optimal (partial solves report their
/// shortfall in `unplaced`, which placement_violation checks too).
inline std::string placement_error(const dust::core::PlacementProblem& problem,
                                   const dust::core::PlacementResult& result) {
  if (!result.optimal())
    return std::string("status ") + dust::solver::to_string(result.status);
  const double violation = dust::core::placement_violation(problem, result);
  if (!(violation <= 1e-6)) return "violation " + std::to_string(violation);
  return {};
}

inline void digest_result(Digest& digest, const dust::core::PlacementResult& r) {
  digest.add(static_cast<int>(r.status));
  digest.add(r.objective);
  digest.add(r.unplaced);
  for (const dust::core::Assignment& a : r.assignments) {
    digest.add(a.from);
    digest.add(a.to);
    digest.add(a.amount);
    digest.add(a.trmin_seconds);
  }
}

}  // namespace perfbench
