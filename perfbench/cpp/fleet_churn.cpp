// fleet-churn: the full control protocol on a k=16 fat-tree (320 switches)
// over sim::Transport — one DustManager with incremental placement, one
// DustClient per switch. STATs and keepalives every 10 sim-s; the benchmark
// runs a placement cycle every 60 sim-s, as manager_daemon does. Reported
// loads random-walk in [30, 70]; open-loop overload episodes (Poisson, mean
// one per 20 sim-s fleet-wide) hold a switch at U[85, 95] for U[3, 15]
// sim-min. Node loads change every cycle, so busy and candidate sets do too.
//
// The run covers a fixed sim horizon, kMinutesPerSecond sim-minutes per
// --seconds, so one seed and duration repeat every sim-time metric (relief,
// misses, message rate, protocol counters) and the placement digest exactly;
// only wall times vary. An episode is relieved once its switch holds an
// acknowledged offload as the busy node (at the first step after onset when
// one from an earlier episode is still in place); relief counts for episodes
// that start early enough to end inside the horizon. The simulator is
// stepped in kStepMs slices, the resolution of every relief time.
#include <algorithm>
#include <memory>

#include "core/client.hpp"
#include "core/manager.hpp"
#include "graph/topology.hpp"
#include "net/traffic.hpp"
#include "placement.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dust;

constexpr std::uint32_t kFatTreeK = 16;
constexpr std::size_t kSetups = 15;
constexpr sim::TimeMs kMinuteMs = 60'000;
constexpr sim::TimeMs kStepMs = 100;          ///< relief-time resolution
constexpr sim::TimeMs kStatMs = 10'000;       ///< STAT and keepalive period
constexpr double kMeanGapMs = 20'000.0;       ///< fleet-wide episode spacing
constexpr sim::TimeMs kMaxEpisodeMin = 15;
constexpr double kMinutesPerSecond = 200.0;   ///< sim horizon per --seconds
/// Shortest horizon: a p90 over its cycles keeps ten cycles beyond it.
constexpr sim::TimeMs kMinMinutes = 120;
constexpr std::uint32_t kAgents = 10;

struct Episode {
  graph::NodeId node = 0;
  sim::TimeMs onset = 0;
  sim::TimeMs end = 0;
  double level = 0.0;
  sim::TimeMs relief = -1;        ///< sim-ms from onset to acked offload
  bool ended = false;
};

core::ManagerConfig manager_config() {
  core::ManagerConfig config;
  config.update_interval_ms = kStatMs;
  config.placement_period_ms = sim::TimeMs{1} << 40;  // cycles driven below
  config.keepalive_timeout_ms = 3 * kStatMs;
  config.keepalive_check_period_ms = kStatMs;
  config.incremental_placement = true;
  config.optimizer = pipeline_options(nullptr);  // manager wires its cache
  return config;
}

class Fleet {
 public:
  Fleet(std::uint64_t seed, sim::TimeMs horizon_ms)
      : rng_(seed),
        transport_(sim_, rng_.fork(1)),
        manager_(sim_, transport_, make_nmdb(), manager_config()) {
    walk_rng_ = rng_.fork(2);
    const std::size_t n = manager_.nmdb().network().node_count();
    episode_level_.assign(n, 0.0);
    for (graph::NodeId v = 0; v < n; ++v) {
      clients_.push_back(std::make_unique<core::DustClient>(
          sim_, transport_, v, core::ClientConfig{.keepalive_interval_ms = kStatMs},
          rng_.fork(100 + v)));
      clients_.back()->set_reported_state(walk_[v], data_mb_[v], kAgents);
      clients_.back()->start();
    }
    manager_.start();
    walk_task_ = std::make_unique<sim::PeriodicTask>(
        sim_, kStatMs / 2, kStatMs, [this](sim::TimeMs) { step_walk(); });
    schedule_episodes(rng_.fork(3), horizon_ms);
    manager_.set_cycle_observer([this](const core::CycleObservation& o) {
      // Copy out; the checks run after the cycle, outside its timing.
      problem_ = *o.problem;
      result_ = *o.result;
      // The engine times build and solve itself inside the cycle; they ran
      // back to back just before this callback.
      const std::int64_t now = now_ns();
      const auto solve = static_cast<std::int64_t>(o.result->solve_seconds * 1e9);
      const auto build = static_cast<std::int64_t>(o.result->build_seconds * 1e9);
      tracer_->add("core.build_placement_problem", now - solve - build, now - solve);
      tracer_->add("solver.solve", now - solve, now);
    });
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Advance one sim-minute in kStepMs slices, one span per run_until call,
  /// noting relief as acknowledged offloads appear.
  void run_minute() {
    const sim::TimeMs end = sim_.now() + kMinuteMs;
    while (sim_.now() < end) {
      const std::uint64_t delivered = transport_.delivered();
      {
        Scope span(*tracer_, "sim.run_until");
        events_ += sim_.run_until(sim_.now() + kStepMs);
      }
      if (transport_.delivered() != delivered) note_relief();
    }
  }

  /// One placement cycle; returns its wall ms.
  double cycle(std::size_t& created) {
    const std::int64_t start = now_ns();
    {
      Scope span(*tracer_, "core.run_placement_cycle");
      created = manager_.run_placement_cycle();
    }
    return static_cast<double>(now_ns() - start) / 1e6;
  }

  [[nodiscard]] const core::DustManager& manager() const { return manager_; }
  [[nodiscard]] const sim::Transport& transport() const { return transport_; }
  [[nodiscard]] const core::PlacementProblem& problem() const { return problem_; }
  [[nodiscard]] const core::PlacementResult& result() const { return result_; }
  [[nodiscard]] const std::vector<Episode>& episodes() const { return episodes_; }
  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] std::size_t nodes() const { return clients_.size(); }

 private:
  core::Nmdb make_nmdb() {
    util::Rng topo_rng = rng_.fork(0);
    net::NetworkState state = net::make_random_state(
        graph::FatTree(kFatTreeK).graph(), net::LinkProfile{},
        net::NodeLoadProfile{}, topo_rng);
    state.set_link_epsilon(0.05);
    for (graph::NodeId v = 0; v < state.node_count(); ++v) {
      walk_.push_back(topo_rng.uniform(30.0, 70.0));
      data_mb_.push_back(state.monitoring_data_mb(v));
      state.set_node_utilization(v, walk_.back());
    }
    return core::Nmdb(std::move(state), core::Thresholds{});
  }

  void step_walk() {
    for (double& load : walk_) load = std::clamp(load + walk_rng_.uniform(-2.0, 2.0), 30.0, 70.0);
    report_loads();
  }

  /// The device model: a switch reports its own load (the walk, or the
  /// episode level) minus what it has shed and plus what it hosts, as
  /// acknowledged offloads stand now.
  void report_loads() {
    std::vector<double> moved(clients_.size(), 0.0);
    for (const core::ActiveOffload& o : manager_.active_offloads())
      if (o.acknowledged) {
        moved[o.busy] -= o.amount;
        moved[o.destination] += o.amount;
      }
    for (graph::NodeId v = 0; v < clients_.size(); ++v) {
      const double own = episode_level_[v] > 0.0 ? episode_level_[v] : walk_[v];
      clients_[v]->set_reported_state(std::clamp(own + moved[v], 0.0, 100.0), data_mb_[v], kAgents);
    }
  }

  /// The open-loop schedule: drawn up front from the seed, never from what
  /// the protocol does. A switch already in an episode is not drawn again.
  void schedule_episodes(util::Rng rng, sim::TimeMs horizon_ms) {
    std::vector<sim::TimeMs> busy_until(clients_.size(), 0);
    double at = static_cast<double>(kMinuteMs);
    while (true) {
      at += -kMeanGapMs * std::log(1.0 - rng.uniform());
      const auto onset = static_cast<sim::TimeMs>(at);
      if (onset >= horizon_ms) break;
      graph::NodeId node = 0;
      do node = static_cast<graph::NodeId>(rng.below(clients_.size()));
      while (busy_until[node] > onset);
      Episode ep;
      ep.node = node;
      ep.onset = onset;
      ep.level = rng.uniform(85.0, 95.0);
      ep.end = onset + static_cast<sim::TimeMs>(rng.uniform(3.0, 15.0) * kMinuteMs);
      busy_until[node] = ep.end;
      episodes_.push_back(ep);
    }
    for (std::size_t i = 0; i < episodes_.size(); ++i) {
      sim_.schedule_at(episodes_[i].onset, [this, i] { begin_episode(i); });
      sim_.schedule_at(episodes_[i].end, [this, i] { end_episode(i); });
    }
  }

  void begin_episode(std::size_t i) {
    Episode& ep = episodes_[i];
    episode_level_[ep.node] = ep.level;
    report_loads();
    pending_.push_back(i);
  }

  void end_episode(std::size_t i) {
    Episode& ep = episodes_[i];
    ep.ended = true;
    episode_level_[ep.node] = 0.0;
    report_loads();
    std::erase(pending_, i);
  }

  void note_relief() {
    if (pending_.empty()) return;
    const std::vector<core::ActiveOffload> offloads = manager_.active_offloads();
    std::erase_if(pending_, [&](std::size_t i) {
      Episode& ep = episodes_[i];
      for (const core::ActiveOffload& o : offloads)
        if (o.busy == ep.node && o.acknowledged) {
          ep.relief = sim_.now() - ep.onset;
          return true;
        }
      return false;
    });
  }

  util::Rng rng_;
  util::Rng walk_rng_;
  std::vector<double> walk_;
  std::vector<double> data_mb_;
  sim::Simulator sim_;
  sim::Transport transport_;
  core::DustManager manager_;
  std::vector<std::unique_ptr<core::DustClient>> clients_;
  std::unique_ptr<sim::PeriodicTask> walk_task_;
  std::vector<double> episode_level_;  ///< 0 = not in an episode
  std::vector<Episode> episodes_;
  std::vector<std::size_t> pending_;  ///< episodes not yet relieved or ended
  core::PlacementProblem problem_;
  core::PlacementResult result_;
  Tracer idle_tracer_;
  Tracer* tracer_ = &idle_tracer_;
  std::uint64_t events_ = 0;
};

/// Protocol counters, read after set-up and at the end of the horizon.
struct Counts {
  std::uint64_t sent = 0, delivered = 0, events = 0;
  std::size_t redirects = 0, releases = 0, keepalive_failures = 0;

  static Counts read(const Fleet& fleet) {
    Counts c;
    c.sent = fleet.transport().sent();
    c.delivered = fleet.transport().delivered();
    c.events = fleet.events();
    c.redirects = fleet.manager().redirects();
    c.releases = fleet.manager().releases();
    c.keepalive_failures = fleet.manager().keepalive_failures();
    return c;
  }
};

}  // namespace

void run_fleet_churn(const Options& options, Report& report) {
  const auto minutes = std::max<sim::TimeMs>(
      kMinMinutes, std::llround(options.seconds * kMinutesPerSecond));
  const sim::TimeMs horizon_ms = (1 + minutes) * kMinuteMs;
  Tracer tracer;
  Digest digest;
  std::size_t failed_cycles = 0;
  std::size_t cycles = 0;
  auto check = [&](const Fleet& fleet) {
    const std::string error = placement_error(fleet.problem(), fleet.result());
    report.check(error.empty(), "cycle " + std::to_string(cycles) + ": " + error);
    if (!error.empty()) ++failed_cycles;
    digest_result(digest, fleet.result());
  };

  // Set-up: build the fleet, let every client join and report, run the
  // cold first cycle at one sim-minute. It takes milliseconds, and on a
  // shared host its speed drifts over seconds, so the run sets up once
  // before the loop and kSetups - 1 more times spread through it, each a
  // fresh fleet that is timed and dropped.
  EndToEnd e2e;
  std::size_t created = 0;
  auto set_up = [&] {
    const std::int64_t start = now_ns();
    auto fresh = std::make_unique<Fleet>(options.seed, horizon_ms);
    fresh->run_minute();
    fresh->cycle(created);
    e2e.setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    return fresh;
  };
  const std::unique_ptr<Fleet> fleet = set_up();
  check(*fleet);
  const auto setup_every = static_cast<sim::TimeMs>(minutes / kSetups);
  fleet->set_tracer(&tracer);
  const Counts before = Counts::read(*fleet);

  const core::OptimizationEngine& engine = fleet->manager().engine();
  const std::size_t warm0 = engine.warm_solves(), cold0 = engine.cold_solves();
  const std::size_t dirty0 = engine.dirty_resolves();
  const net::ResponseTimeCacheStats cache0 = fleet->manager().trmin_cache_stats();

  // A step is one sim-minute: its protocol traffic, then the cycle ending
  // it. Traced runs trace every other step; the untraced ones price the
  // tracing.
  std::vector<double> step_ms[2];
  std::vector<double> cycle_ms;
  double pivots = 0.0, busy = 0.0, candidates = 0.0;
  std::size_t offloads_created = 0;
  for (sim::TimeMs minute = 1; minute <= minutes; ++minute) {
    if (minute % setup_every == 0 && e2e.setup_s.size() < kSetups) set_up();
    const bool traced = options.trace && minute % 2 == 1;
    tracer.set_active(traced);
    const double cpu = process_cpu_seconds();
    const std::int64_t start = now_ns();
    {
      Scope step(tracer, "bench.step");
      fleet->run_minute();
      cycle_ms.push_back(fleet->cycle(created));
    }
    step_ms[traced].push_back(static_cast<double>(now_ns() - start) / 1e6);
    e2e.cpu_s += process_cpu_seconds() - cpu;
    tracer.set_active(false);
    ++cycles;
    check(*fleet);
    offloads_created += created;
    pivots += static_cast<double>(fleet->result().solver_iterations);
    busy += static_cast<double>(fleet->problem().busy.size());
    candidates += static_cast<double>(fleet->problem().candidates.size());
  }
  const Counts after = Counts::read(*fleet);

  // Relief over the episodes that end inside the horizon.
  std::vector<double> relief_ms;
  std::size_t missed = 0, episodes = 0;
  for (const Episode& ep : fleet->episodes()) {
    if (ep.onset >= horizon_ms - kMaxEpisodeMin * kMinuteMs) continue;
    ++episodes;
    if (ep.relief >= 0) relief_ms.push_back(static_cast<double>(ep.relief));
    else if (ep.ended) ++missed;
    else report.check(false, "episode at " + std::to_string(ep.onset) + " ms unresolved");
  }
  report.attempt(cycles + 1 + episodes, failed_cycles + missed);

  // The protocol's sim-time outcomes: they repeat exactly for one seed and
  // --seconds, so they are printed for comparison, not timed.
  const double n = static_cast<double>(cycles);
  report.info("cycles", n);
  report.info("digest", Report::quoted(digest.hex()));
  report.info("episodes", static_cast<double>(episodes));
  report.info("episodes_missed", static_cast<double>(missed));
  report.info("relief_sim_ms_p50", percentile(relief_ms, 0.50));
  report.info("relief_sim_ms_p90", percentile(relief_ms, 0.90));
  report.info("control_msgs_per_node_min",
              static_cast<double>(after.sent - before.sent) /
                  (static_cast<double>(fleet->nodes()) * n));
  report.info("sim_resolution_ms", static_cast<double>(kStepMs));
  report.info("sim_minutes", n);

  if (!options.trace) {
    e2e.latency_ms = std::move(cycle_ms);
    e2e.steps = cycles;
    e2e.report(report);
    return;
  }

  const double solves = static_cast<double>(engine.warm_solves() + engine.cold_solves() -
                                            warm0 - cold0);
  const net::ResponseTimeCacheStats cache1 = fleet->manager().trmin_cache_stats();
  const double rows = static_cast<double>(cache1.hits + cache1.misses -
                                          cache0.hits - cache0.misses);
  Layers layers;
  layers.set("solver.pivots", pivots / n);
  layers.set("solver.warm_ratio", ratio(static_cast<double>(engine.warm_solves() - warm0), solves));
  layers.set("solver.dirty_resolve_ratio",
             ratio(static_cast<double>(engine.dirty_resolves() - dirty0), solves));
  layers.set("net.cache_hit_ratio", ratio(static_cast<double>(cache1.hits - cache0.hits), rows));
  layers.set("net.rows_recomputed", static_cast<double>(cache1.misses - cache0.misses) / n);
  layers.set("net.cache_invalidations",
             static_cast<double>(cache1.invalidations - cache0.invalidations) / n);
  layers.set("core.busy_nodes", busy / n);
  layers.set("core.candidate_nodes", candidates / n);
  layers.set("core.offloads_created", static_cast<double>(offloads_created));
  layers.set("core.redirects", static_cast<double>(after.redirects - before.redirects));
  layers.set("core.releases", static_cast<double>(after.releases - before.releases));
  layers.set("core.keepalive_failures",
             static_cast<double>(after.keepalive_failures - before.keepalive_failures));
  layers.set("core.relief_miss_ratio",
             ratio(static_cast<double>(missed), static_cast<double>(episodes)));
  layers.set("sim.msgs_sent", static_cast<double>(after.sent - before.sent));
  layers.set("sim.msgs_delivered", static_cast<double>(after.delivered - before.delivered));
  layers.set("sim.events", static_cast<double>(after.events - before.events));
  layers.report(report, tracer.spans(), step_ms);
  tracer.write(options.trace_out);
}

}  // namespace perfbench
