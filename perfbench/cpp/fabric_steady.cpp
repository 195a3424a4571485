// fabric-steady: the link-churn steady state of one placement loop on a
// k=32 fat-tree (1280 switches, 16384 links). Node loads hold; every closed-
// loop cycle drifts 10% of links by at most 3%, then runs cache sync →
// model build → solve. Set-up is topology generation plus the cold first
// cycle.
//
// A run sets up kInstances fabrics, each drawn from its own stream of the
// seed, and cycles through them in turn: set-up time and cycle times are
// medians over several instances, so they vary less from seed to seed than
// one instance's solve would.
//
// Node loads are U[10, 100] stratified by role: exactly the expected 284
// busy (>= Cmax 80) and 711 candidate (<= COmax 60) switches, at seeded
// positions, so the model is 284 x 711 on every seed and seeds differ only
// in where the load sits.
#include <algorithm>
#include <memory>

#include "core/nmdb.hpp"
#include "graph/topology.hpp"
#include "net/traffic.hpp"
#include "placement.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dust;

constexpr std::uint32_t kFatTreeK = 32;
constexpr std::size_t kInstances = 3;
constexpr std::size_t kBusyNodes = 284;       ///< 1280 * 20/90
constexpr std::size_t kCandidateNodes = 711;  ///< 1280 * 50/90
/// Steady cycles per --seconds (a fixed count, so one seed repeats the
/// placement digest), and the fewest a run makes: a p90 keeps ten cycles
/// beyond it in either half of a traced run.
constexpr double kCyclesPerSecond = 50.0;
constexpr std::size_t kMinCycles = 240;

struct Fabric {
  explicit Fabric(util::Rng stream)
      : rng(stream),
        nmdb(net::make_random_state(graph::FatTree(kFatTreeK).graph(),
                                    net::LinkProfile{}, net::NodeLoadProfile{},
                                    rng),
             core::Thresholds{}),
        engine(pipeline_options(&cache)) {
    net::NetworkState& net = nmdb.network();
    std::vector<graph::NodeId> order(net.node_count());
    for (graph::NodeId v = 0; v < order.size(); ++v) order[v] = v;
    for (std::size_t i = order.size() - 1; i > 0; --i)
      std::swap(order[i], order[rng.below(i + 1)]);
    for (std::size_t i = 0; i < order.size(); ++i)
      net.set_node_utilization(order[i], i < kBusyNodes ? rng.uniform(80.0, 100.0)
                                         : i < kBusyNodes + kCandidateNodes ? rng.uniform(10.0, 60.0)
                                                                            : rng.uniform(60.0, 80.0));
    net.set_link_epsilon(0.05);
    cache.set_lu_quantum(0.50);
    cache.set_reprice_epsilon(0.10);
  }

  util::Rng rng;
  core::Nmdb nmdb;
  net::ResponseTimeCache cache;
  core::OptimizationEngine engine;  ///< options point at `cache`
};

/// 10% of links drift by at most 3% — inside the 5% link-epsilon band.
void drift_links(net::NetworkState& net, util::Rng& rng) {
  const std::size_t count = net.edge_count() / 10;
  for (std::size_t i = 0; i < count; ++i) {
    const auto e = static_cast<graph::EdgeId>(rng.below(net.edge_count()));
    net::LinkState state = net.link(e);
    state.utilization = std::clamp(state.utilization * rng.uniform(0.97, 1.03), 0.01, 1.0);
    net.set_link(e, state);
  }
}

struct Cycle {
  core::PlacementProblem problem;
  core::PlacementResult result;
  double ms = 0.0;
  double cpu_s = 0.0;
};

Cycle run_cycle(Fabric& fabric, Tracer& tracer) {
  Cycle cycle;
  const double cpu = process_cpu_seconds();
  const std::int64_t start = now_ns();
  {
    Scope root(tracer, "bench.step");
    {
      Scope span(tracer, "net.begin_cycle");
      fabric.cache.begin_cycle(fabric.nmdb.network());
    }
    {
      Scope span(tracer, "core.build_placement_problem");
      cycle.problem = core::build_placement_problem(
          fabric.nmdb, fabric.engine.options().placement);
    }
    {
      Scope span(tracer, "solver.solve");
      cycle.result = fabric.engine.solve(cycle.problem);
    }
  }
  cycle.ms = static_cast<double>(now_ns() - start) / 1e6;
  cycle.cpu_s = process_cpu_seconds() - cpu;
  return cycle;
}

}  // namespace

void run_fabric_steady(const Options& options, Report& report) {
  Tracer tracer;
  Digest digest;
  std::size_t failed = 0;
  auto check = [&](const Cycle& cycle, std::size_t index) {
    const std::string error = placement_error(cycle.problem, cycle.result);
    report.check(error.empty(), "cycle " + std::to_string(index) + ": " + error);
    if (!error.empty()) ++failed;
    digest_result(digest, cycle.result);
  };

  // Set-up: one topology and cold cycle per instance.
  EndToEnd e2e;
  std::vector<std::unique_ptr<Fabric>> fabrics;
  std::vector<double> cold_ms, cold_pivots;
  for (std::size_t i = 0; i < kInstances; ++i) {
    const std::int64_t start = now_ns();
    fabrics.push_back(std::make_unique<Fabric>(util::Rng(options.seed).fork(i)));
    const Cycle cold = run_cycle(*fabrics.back(), tracer);
    e2e.setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    check(cold, 0);
    report.check(cold.problem.busy.size() == kBusyNodes &&
                     cold.problem.candidates.size() == kCandidateNodes,
                 "instance " + std::to_string(i) + " is not " + std::to_string(kBusyNodes) +
                     " busy x " + std::to_string(kCandidateNodes) + " candidates");
    cold_ms.push_back(cold.ms);
    cold_pivots.push_back(static_cast<double>(cold.result.solver_iterations));
  }

  // Solver and cache counters, summed over the instances.
  struct Counters {
    net::ResponseTimeCacheStats cache;
    std::size_t warm = 0, cold = 0, dirty = 0;
  };
  auto read_counters = [&] {
    Counters c;
    for (const auto& f : fabrics) {
      const net::ResponseTimeCacheStats s = f->cache.stats();
      c.cache.hits += s.hits;
      c.cache.misses += s.misses;
      c.cache.invalidations += s.invalidations;
      c.warm += f->engine.warm_solves();
      c.cold += f->engine.cold_solves();
      c.dirty += f->engine.dirty_resolves();
    }
    return c;
  };
  const Counters before = read_counters();

  // Traced runs trace every other cycle: the untraced half prices the
  // tracing itself.
  std::vector<double> cycle_ms[2];
  double pivots = 0.0, busy = 0.0, candidates = 0.0;
  const std::size_t planned = std::max<std::size_t>(
      kMinCycles, static_cast<std::size_t>(std::llround(options.seconds * kCyclesPerSecond)));
  std::size_t cycles = 0;
  while (cycles < planned) {
    Fabric& fabric = *fabrics[cycles % kInstances];
    drift_links(fabric.nmdb.network(), fabric.rng);
    // Instances take turns, and so do traced and untraced cycles within
    // each instance's own sequence.
    const bool traced = options.trace && (cycles / kInstances) % 2 == 1;
    tracer.set_active(traced);
    const Cycle cycle = run_cycle(fabric, tracer);
    tracer.set_active(false);
    ++cycles;
    check(cycle, cycles);
    cycle_ms[traced].push_back(cycle.ms);
    e2e.cpu_s += cycle.cpu_s;
    pivots += static_cast<double>(cycle.result.solver_iterations);
    busy += static_cast<double>(cycle.problem.busy.size());
    candidates += static_cast<double>(cycle.problem.candidates.size());
  }
  report.attempt(cycles + kInstances, failed);

  const Counters after = read_counters();
  const double n = static_cast<double>(cycles);
  report.info("cycles", n);
  report.info("digest", Report::quoted(digest.hex()));
  report.info("instances", static_cast<double>(kInstances));
  report.info("cold_cycle_ms_median", median(cold_ms));
  report.info("cold_pivots_median", median(cold_pivots));

  if (!options.trace) {
    e2e.latency_ms = cycle_ms[0];
    e2e.steps = cycles;
    e2e.report(report);
    return;
  }

  const double solves = static_cast<double>(after.warm + after.cold - before.warm - before.cold);
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses = static_cast<double>(after.cache.misses - before.cache.misses);
  Layers layers;
  layers.set("solver.pivots", pivots / n);
  layers.set("solver.warm_ratio", ratio(static_cast<double>(after.warm - before.warm), solves));
  layers.set("solver.dirty_resolve_ratio",
             ratio(static_cast<double>(after.dirty - before.dirty), solves));
  layers.set("net.cache_hit_ratio", ratio(hits, hits + misses));
  layers.set("net.rows_recomputed", misses / n);
  layers.set("net.cache_invalidations",
             static_cast<double>(after.cache.invalidations - before.cache.invalidations) / n);
  layers.set("core.busy_nodes", busy / n);
  layers.set("core.candidate_nodes", candidates / n);
  layers.report(report, tracer.spans(), cycle_ms);
  tracer.write(options.trace_out);
}

}  // namespace perfbench
