#include "fleet/fleet_sim.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "core/capgpu_controller.hpp"
#include "core/control_loop.hpp"
#include "core/rig.hpp"
#include "runner/thread_pool.hpp"
#include "telemetry/context.hpp"
#include "telemetry/metric_names.hpp"
#include "telemetry/runtime.hpp"
#include "workload/model_zoo.hpp"

namespace capgpu::fleet {

FleetConfig validated(FleetConfig config) {
  config.topology = faults::validated(config.topology);
  if (config.facility_budget_w == 0.0) {
    config.facility_budget_w =
        560.0 * static_cast<double>(config.topology.total_rigs());
  }
  CAPGPU_REQUIRE(config.facility_budget_w > 0.0,
                 "facility_budget_w must be positive");
  CAPGPU_REQUIRE(config.periods > 0, "periods must be positive");
  CAPGPU_REQUIRE(config.period_s > 0.0, "period_s must be positive");
  CAPGPU_REQUIRE(config.rebalance_every >= 1, "rebalance_every must be >= 1");
  CAPGPU_REQUIRE(config.offered_load >= 0.0 && config.offered_load <= 1.0,
                 "offered_load must be in [0, 1]");
  CAPGPU_REQUIRE(config.slo_s > 0.0, "slo_s must be positive");
  CAPGPU_REQUIRE(
      config.rig_bounds.min > 0.0 &&
          config.rig_bounds.max >= config.rig_bounds.min,
      "rig_bounds must satisfy 0 < min <= max");
  CAPGPU_REQUIRE(config.burn_weight_clamp >= 0.0,
                 "burn_weight_clamp must be >= 0");
  rack::RigHealthConfig health = config.health;
  health.enabled = true;
  (void)rack::validated(health);
  return config;
}

namespace {

/// One rig of a fleet or rack run: its private telemetry context (null
/// when the run is unscoped), the testbed, the hardened loop, and the
/// driver-side SLO and budget accounting.
struct FleetRig {
  std::unique_ptr<telemetry::Context> scope;
  std::unique_ptr<core::ServerRig> rig;
  std::unique_ptr<core::CapGpuController> controller;
  std::unique_ptr<core::ControlLoop> loop;
  std::unique_ptr<telemetry::SloBurnMonitor> monitor;
  double last_budget_w{0.0};
  double images{0.0};
  std::exception_ptr error;
};

double last_power(const core::ControlLoop& loop) {
  return loop.power_trace().empty() ? 0.0
                                    : loop.power_trace().values().back();
}

/// Builds and starts one rig. Must run with the rig's telemetry context
/// bound (sharded path) or in the caller's context (unscoped runs) so the
/// loop/monitor/ledger metric handles land in the right registry.
void build_rig(const FleetConfig& cfg, const faults::DomainTree& tree,
               std::size_t i, double initial_budget_w, FleetRig& out) {
  core::RigConfig rc;
  rc.models = {workload::resnet50_v100()};
  rc.seed = 100 + i;
  rc.faults = tree.rig_plan(i);
  if (cfg.offered_load > 0.0) rc.offered_load = {{0.0, cfg.offered_load}};
  out.rig = std::make_unique<core::ServerRig>(rc);
  out.controller = std::make_unique<core::CapGpuController>(
      core::CapGpuConfig{}, out.rig->device_ranges(),
      out.rig->analytic_power_model(), Watts{initial_budget_w},
      out.rig->latency_models());
  out.controller->set_slo(1, cfg.slo_s);
  core::ControlLoopConfig lc;
  lc.period = Seconds{cfg.period_s};
  lc.failsafe = core::FailSafeConfig{};
  auto* rig_ptr = out.rig.get();
  out.loop = std::make_unique<core::ControlLoop>(
      rig_ptr->engine(), rig_ptr->control_hal(), rig_ptr->rapl(),
      *out.controller, lc,
      [rig_ptr] { return rig_ptr->normalized_throughputs(); });
  out.monitor =
      std::make_unique<telemetry::SloBurnMonitor>(telemetry::SloBurnConfig{});
  out.last_budget_w = initial_budget_w;
  if (cfg.energy_attribution) rig_ptr->attribute_energy(out.controller->name());

  auto* mon = out.monitor.get();
  auto* ctl = out.controller.get();
  FleetRig* fr = &out;  // stable: the rigs vector never reallocates
  const double period_s = cfg.period_s;
  const double slo = cfg.slo_s;
  out.loop->on_period = [rig_ptr, mon, ctl, fr, period_s, slo](std::size_t) {
    const double now = rig_ptr->engine().now();
    auto& s = rig_ptr->stream(0);
    auto& lat = s.batch_latency();
    mon->record(now, lat.count(now, period_s), lat.misses(now, period_s, slo));
    fr->images += s.images_throughput().rate(now, period_s) * period_s;
    (void)s.take_stage_period_means();
    rig_ptr->end_period(ctl->set_point().value, period_s);
  };
  out.loop->start();
}

/// The coordinator endpoint for one rig: the signals the rack tier reads,
/// identical under fleet and rack scheduling.
rack::ServerEndpoint make_endpoint(const FleetConfig& cfg,
                                   const faults::DomainTree& tree,
                                   std::size_t i, FleetRig& r) {
  rack::ServerEndpoint ep;
  ep.name = tree.rig_path(i);
  auto* rig_ptr = r.rig.get();
  auto* ctl = r.controller.get();
  auto* loop = r.loop.get();
  auto* mon = r.monitor.get();
  FleetRig* fr = &r;
  ep.set_budget = [ctl, fr](Watts w) {
    fr->last_budget_w = w.value;
    ctl->set_set_point(w);
  };
  ep.measured_power = [loop] { return last_power(*loop); };
  ep.demand = [rig_ptr] { return rig_ptr->gpu_demand(); };
  ep.bounds = cfg.rig_bounds;
  ep.report_age = [loop, rig_ptr] {
    const auto* fs = loop->failsafe();
    return fs != nullptr ? fs->seconds_since_fresh(rig_ptr->engine().now())
                         : 0.0;
  };
  ep.failsafe_state = [loop] {
    const auto* fs = loop->failsafe();
    return fs != nullptr ? static_cast<int>(fs->state()) : -1;
  };
  // One-sided residual: only over-budget draw votes against the rig.
  ep.power_residual = [loop, fr] {
    const double p = last_power(*loop);
    return p > fr->last_budget_w ? p - fr->last_budget_w : 0.0;
  };
  ep.slo_burn = [mon] { return mon->fast_burn(); };
  return ep;
}

/// Fleet-scope instrumentation handles, resolved once per run.
struct FleetMetrics {
  telemetry::Counter* epochs{nullptr};
  telemetry::Counter* rig_periods{nullptr};
  telemetry::Counter* cascades{nullptr};
  telemetry::Gauge* deliverable{nullptr};
  telemetry::Gauge* oversubscribed{nullptr};
  std::vector<telemetry::Gauge*> row_budget;
  std::vector<telemetry::Gauge*> rack_budget;
  int tid{0};
};

FleetMetrics register_fleet_metrics(const faults::DomainTopology& topo) {
  namespace metric = telemetry::metric;
  auto& reg = telemetry::MetricsRegistry::current();
  FleetMetrics m;
  m.epochs =
      &reg.counter(metric::kFleetEpochs, "Fleet control epochs completed");
  m.rig_periods = &reg.counter(metric::kFleetRigPeriods,
                               "Rig control periods stepped by the fleet");
  m.cascades = &reg.counter(metric::kFleetCascades,
                            "Hierarchical budget cascades solved");
  m.deliverable =
      &reg.gauge(metric::kFleetDeliverableWatts,
                 "Facility watts deliverable after feed degradation");
  m.oversubscribed = &reg.gauge(
      metric::kFleetOversubscribedWatts,
      "Guaranteed-minimum watts the facility feed cannot cover");
  m.row_budget.reserve(topo.rows);
  for (std::size_t w = 0; w < topo.rows; ++w) {
    m.row_budget.push_back(
        &reg.gauge(metric::kFleetRowBudgetWatts, "Row budget grant",
                   {{"row", "row" + std::to_string(w)}}));
  }
  m.rack_budget.reserve(topo.total_racks());
  for (std::size_t w = 0; w < topo.rows; ++w) {
    for (std::size_t r = 0; r < topo.racks; ++r) {
      m.rack_budget.push_back(
          &reg.gauge(metric::kFleetRackBudgetWatts, "Rack budget grant",
                     {{"rack", rack_node(topo, w, r)}}));
    }
  }
  auto& tracer = telemetry::Tracer::current();
  tracer.begin_run("fleet");
  m.tid = tracer.register_track("fleet");
  return m;
}

/// One barrier-synchronized cascade: sample every rig's signals, solve the
/// facility → row → rack tiers, push per-rack feed bounds and budgets, and
/// let each RackCoordinator divide its grant. Runs on the epoch thread
/// with the fleet telemetry scope bound.
FleetDecisionRecord apply_cascade(
    const FleetConfig& cfg, const faults::DomainTree& tree,
    std::vector<FleetRig>& rigs,
    std::vector<std::unique_ptr<rack::RackCoordinator>>& coords,
    FleetMetrics& fm, double now) {
  const faults::DomainTopology& topo = tree.topology();
  const std::size_t n = rigs.size();
  const std::size_t rigs_per_rack = topo.pdus_per_rack * topo.rigs_per_pdu;

  CascadeConfig cc;
  cc.facility_budget_w = cfg.facility_budget_w;
  cc.rig_bounds = cfg.rig_bounds;
  cc.burn_weight_clamp = cfg.burn_weight_clamp;

  std::vector<RigSignals> signals(n);
  for (std::size_t i = 0; i < n; ++i) {
    signals[i].demand = rigs[i].rig->gpu_demand();
    signals[i].slo_burn = rigs[i].monitor->fast_burn();
    const rack::RigHealth h =
        coords[i / rigs_per_rack]->health(i % rigs_per_rack);
    signals[i].healthy =
        h != rack::RigHealth::kFailsafe && h != rack::RigHealth::kDead;
  }

  FleetDecisionRecord rec;
  rec.tiers = cascade_tiers(tree, cc, signals, now);
  const std::vector<rack::AllocationBounds> feed =
      rig_feed_bounds(tree, cc, now);
  rec.rig_w.reserve(n);
  for (std::size_t k = 0; k < coords.size(); ++k) {
    for (std::size_t j = 0; j < rigs_per_rack; ++j) {
      coords[k]->set_server_bounds(j, feed[k * rigs_per_rack + j]);
    }
    coords[k]->set_rack_budget(Watts{rec.tiers.rack_w[k]});
    const std::vector<double> grants = coords[k]->rebalance(now);
    rec.rig_w.insert(rec.rig_w.end(), grants.begin(), grants.end());
  }

  fm.cascades->inc();
  fm.deliverable->set(rec.tiers.deliverable_w);
  fm.oversubscribed->set(rec.tiers.oversubscribed_w);
  for (std::size_t w = 0; w < rec.tiers.row_w.size(); ++w) {
    fm.row_budget[w]->set(rec.tiers.row_w[w]);
  }
  for (std::size_t r = 0; r < rec.tiers.rack_w.size(); ++r) {
    fm.rack_budget[r]->set(rec.tiers.rack_w[r]);
  }
  telemetry::Tracer::current().instant(
      fm.tid, "fleet_cascade", "fleet",
      {{"deliverable_w", rec.tiers.deliverable_w},
       {"oversubscribed_w", rec.tiers.oversubscribed_w}});
  return rec;
}

FleetPeriodSnap take_snap(
    std::vector<FleetRig>& rigs,
    std::vector<std::unique_ptr<rack::RackCoordinator>>& coords, double now,
    double budget_w) {
  const std::size_t n = rigs.size();
  FleetPeriodSnap snap;
  snap.t = now;
  snap.budget_w = budget_w;
  for (const auto& c : coords) snap.fleet_power_w += c->total_power();
  snap.failsafe.reserve(n);
  snap.health.reserve(n);
  snap.checked.reserve(n);
  snap.missed.reserve(n);
  snap.engagements.reserve(n);
  const std::size_t rigs_per_rack = n / coords.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto* fs = rigs[i].loop->failsafe();
    snap.failsafe.push_back(fs != nullptr ? static_cast<int>(fs->state())
                                          : 0);
    snap.health.push_back(static_cast<int>(
        coords[i / rigs_per_rack]->health(i % rigs_per_rack)));
    snap.checked.push_back(rigs[i].monitor->checked_total());
    snap.missed.push_back(rigs[i].monitor->missed_total());
    snap.engagements.push_back(fs != nullptr ? fs->engagements() : 0);
  }
  return snap;
}

/// Ends one rig's run: stops its loop and settles the rig (deferred stage
/// stats flushed, energy ledger finalized into the current context).
void finish(FleetRig& fr) {
  fr.loop->stop();
  fr.rig->settle();
}

/// Run-wide tallies: rig counters summed in topology order, the
/// coordinators' health logs concatenated in rack order, and the mean
/// power over the snapshots.
void tally(const std::vector<FleetRig>& rigs,
           const std::vector<std::unique_ptr<rack::RackCoordinator>>& coords,
           FleetResult& result) {
  result.objective = rigs[0].monitor->config().objective;
  for (const FleetRig& fr : rigs) {
    result.images += fr.images;
    result.checked += fr.monitor->checked_total();
    result.missed += fr.monitor->missed_total();
    const auto* fs = fr.loop->failsafe();
    if (fs != nullptr) result.failsafe_engagements += fs->engagements();
  }
  for (const auto& c : coords) {
    const auto& log = c->health_log();
    result.health_log.insert(result.health_log.end(), log.begin(),
                             log.end());
  }
  if (!result.snaps.empty()) {
    double sum = 0.0;
    for (const auto& s : result.snaps) sum += s.fleet_power_w;
    result.mean_power_w = sum / static_cast<double>(result.snaps.size());
  }
}

/// The epoch driver shared by the sharded scenario and the serial
/// reference. `scoped` selects per-rig telemetry::Context isolation plus
/// (when jobs > 1) pool execution; unscoped runs serially in the caller's
/// telemetry, exactly as a hand-rolled loop over ServerRigs would.
FleetResult run_fleet(const FleetConfig& cfg, const faults::DomainTree& tree,
                      std::size_t shards, std::size_t jobs, bool scoped) {
  const faults::DomainTopology& topo = tree.topology();
  const std::size_t n = tree.rig_count();
  const std::size_t racks = topo.total_racks();
  const std::size_t rigs_per_rack = topo.pdus_per_rack * topo.rigs_per_pdu;

  // Merge target: the context current on the launching thread.
  telemetry::Context& parent = telemetry::Context::current();

  // Contiguous topology-order shard ranges.
  if (!scoped) shards = 1;
  shards = std::clamp<std::size_t>(shards, 1, n);
  struct Range {
    std::size_t begin{0};
    std::size_t end{0};
  };
  std::vector<Range> ranges;
  const std::size_t chunk = (n + shards - 1) / shards;
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    ranges.push_back({begin, std::min(n, begin + chunk)});
  }

  std::optional<runner::ThreadPool> pool;
  if (scoped && jobs > 1 && ranges.size() > 1) {
    pool.emplace(std::min(jobs, ranges.size()));
  }

  std::vector<FleetRig> rigs(n);
  double epoch_now = 0.0;
  std::unique_ptr<telemetry::Context> fleet_scope;
  if (scoped) {
    for (auto& fr : rigs) fr.scope = telemetry::Context::child_of(parent);
    fleet_scope = telemetry::Context::child_of(parent);
    // Cascade instants carry the epoch time. The serial reference leaves
    // the caller's clock alone; its instants read the caller's time
    // source, which at the barrier sits at the same epoch boundary.
    fleet_scope->tracer().set_clock([&epoch_now] { return epoch_now; });
  }

  auto for_each_shard = [&](const std::function<void(std::size_t)>& fn) {
    if (pool) {
      pool->parallel_for(ranges.size(), fn);
    } else {
      for (std::size_t s = 0; s < ranges.size(); ++s) fn(s);
    }
  };
  // One parallel phase: every shard walks its rigs in index order under
  // each rig's scope, stashing (not leaking) per-rig errors so the set of
  // rigs that executed never depends on completion timing.
  auto shard_pass =
      [&](const std::function<void(FleetRig&, std::size_t)>& per_rig) {
        for_each_shard([&](std::size_t s) {
          for (std::size_t i = ranges[s].begin; i < ranges[s].end; ++i) {
            FleetRig& fr = rigs[i];
            if (fr.error) continue;
            std::optional<telemetry::Context::Binding> bind;
            if (scoped) bind.emplace(*fr.scope);
            // This worker's thread-local log clock still points at
            // whichever rig it last *built*, possibly one another worker
            // is now advancing; re-point it at the rig in hand and clear
            // it afterwards so no stale engine is ever read.
            if (scoped && fr.rig) {
              telemetry::attach_time_source(
                  fr.rig.get(),
                  [eng = &fr.rig->engine()] { return eng->now(); });
            }
            try {
              per_rig(fr, i);
            } catch (...) {
              fr.error = std::current_exception();
            }
            if (scoped && fr.rig) {
              telemetry::detach_time_source(fr.rig.get());
            }
          }
        });
      };
  auto merge_all = [&](std::size_t count) {
    if (!scoped) return;
    for (std::size_t i = 0; i < count; ++i) rigs[i].scope->merge_into(parent);
    fleet_scope->merge_into(parent);
  };
  // Barrier epilogue: rethrow the lowest-index error, merging the rigs
  // below it first — the telemetry a serial run would have accumulated
  // before dying there.
  auto rethrow_first_error = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      if (rigs[i].error) {
        merge_all(i);
        std::rethrow_exception(rigs[i].error);
      }
    }
  };

  // Phase 0: rig construction is part of the sharded win — build and
  // start every rig inside its shard task.
  const double initial_budget_w =
      cfg.facility_budget_w / static_cast<double>(n);
  shard_pass([&](FleetRig& fr, std::size_t i) {
    build_rig(cfg, tree, i, initial_budget_w, fr);
  });
  rethrow_first_error();

  // Rack coordinators live in the fleet scope: their gauges, rebalance
  // counters and health transitions belong to the fleet process, merged
  // after every rig.
  std::vector<std::unique_ptr<rack::RackCoordinator>> coords;
  FleetMetrics fm;
  // The epoch thread owns the coordinators; stamp their logs (health
  // transitions, rebalance warnings) with the epoch clock so prefixes
  // are identical for any shard layout. Guarded so an exception cannot
  // leave the caller's thread-local clock pointing at a dead stack slot.
  struct EpochClockGuard {
    const void* owner{nullptr};
    ~EpochClockGuard() {
      if (owner != nullptr) telemetry::detach_time_source(owner);
    }
  } epoch_clock;
  auto attach_epoch_clock = [&] {
    if (!scoped) return;
    telemetry::attach_time_source(&epoch_now,
                                  [&epoch_now] { return epoch_now; });
    epoch_clock.owner = &epoch_now;
  };
  {
    std::optional<telemetry::Context::Binding> bind;
    if (scoped) bind.emplace(*fleet_scope);
    attach_epoch_clock();
    fm = register_fleet_metrics(topo);
    coords.reserve(racks);
    for (std::size_t k = 0; k < racks; ++k) {
      coords.push_back(std::make_unique<rack::RackCoordinator>(
          Watts{cfg.facility_budget_w / static_cast<double>(racks)},
          rack::RackPolicy::kDemandProportional));
      if (cfg.health.enabled) coords[k]->set_health_config(cfg.health);
      for (std::size_t j = 0; j < rigs_per_rack; ++j) {
        const std::size_t i = k * rigs_per_rack + j;
        coords[k]->add_server(make_endpoint(cfg, tree, i, rigs[i]));
      }
    }
  }

  FleetResult result;
  result.rigs = n;
  result.epochs = cfg.periods;
  result.shards = ranges.size();
  result.jobs = pool ? std::min(jobs, ranges.size()) : 1;
  result.decisions.reserve(cfg.periods / cfg.rebalance_every + 1);
  result.snaps.reserve(cfg.periods);

  // Lockstep epochs: parallel rig-step phase, barrier, then the cascade
  // and the snapshot on the epoch thread. Same clock arithmetic as
  // run_rack (now accumulates per rig; the cascade sees k * T).
  double budget_in_force = cfg.facility_budget_w;
  for (std::size_t k = 1; k <= cfg.periods; ++k) {
    shard_pass([&](FleetRig& fr, std::size_t) {
      fr.rig->engine().run_until(fr.rig->engine().now() + cfg.period_s);
    });
    rethrow_first_error();
    const double now = static_cast<double>(k) * cfg.period_s;
    epoch_now = now;
    {
      std::optional<telemetry::Context::Binding> bind;
      if (scoped) bind.emplace(*fleet_scope);
      // With no pool the step phase ran inline above and detached this
      // thread's clock; with a pool the attachment survived. Either way
      // the cascade runs under the epoch clock.
      attach_epoch_clock();
      fm.epochs->inc();
      fm.rig_periods->inc(static_cast<double>(n));
      if (k % cfg.rebalance_every == 0) {
        FleetDecisionRecord rec =
            apply_cascade(cfg, tree, rigs, coords, fm, now);
        budget_in_force = rec.tiers.deliverable_w;
        result.decisions.push_back(std::move(rec));
      }
      result.snaps.push_back(take_snap(rigs, coords, now, budget_in_force));
    }
  }

  // Final phase, still sharded and still under each rig's context: the
  // ledger finalizes into the rig's own EnergyRegistry, which merges in
  // topology order below.
  shard_pass([&](FleetRig& fr, std::size_t) { finish(fr); });
  rethrow_first_error();
  tally(rigs, coords, result);

  result.base_pid =
      (scoped ? parent.tracer().pid() : 0) + rigs[0].rig->trace_pid();
  merge_all(n);
  return result;
}

}  // namespace

FleetSim::FleetSim(FleetConfig config, FleetOptions options)
    : config_(validated(std::move(config))),
      options_(options),
      tree_(config_.topology, config_.seed) {}

void FleetSim::add_fault(const std::string& node, faults::DomainFault fault) {
  CAPGPU_REQUIRE(!ran_, "add_fault must precede run");
  tree_.add_fault(node, fault);
}

FleetResult FleetSim::run() {
  CAPGPU_REQUIRE(!ran_, "FleetSim::run may only be called once");
  ran_ = true;
  const std::size_t n = tree_.rig_count();
  const std::size_t jobs = options_.jobs == 0
                               ? runner::ThreadPool::hardware_jobs()
                               : options_.jobs;
  const std::size_t shards =
      options_.shards == 0 ? std::min(n, 4 * jobs) : options_.shards;
  return run_fleet(config_, tree_, shards, jobs, /*scoped=*/true);
}

FleetResult run_serial_reference(
    const FleetConfig& config,
    const std::vector<std::pair<std::string, faults::DomainFault>>&
        fault_list) {
  const FleetConfig cfg = validated(config);
  faults::DomainTree tree(cfg.topology, cfg.seed);
  for (const auto& f : fault_list) tree.add_fault(f.first, f.second);
  return run_fleet(cfg, tree, 1, 1, /*scoped=*/false);
}

FleetResult run_rack(const FleetConfig& config,
                     const faults::DomainTree& tree) {
  const FleetConfig cfg = validated(config);
  const std::size_t n = tree.rig_count();
  // The coordinator precedes the rigs, and each rig registers with it as
  // soon as it is built: that order fixes the metric export order and the
  // trace's pids and tracks.
  std::vector<std::unique_ptr<rack::RackCoordinator>> coords;
  coords.push_back(std::make_unique<rack::RackCoordinator>(
      Watts{cfg.facility_budget_w}, rack::RackPolicy::kDemandProportional));
  rack::RackCoordinator& coord = *coords.front();
  if (cfg.health.enabled) coord.set_health_config(cfg.health);
  std::vector<FleetRig> rigs(n);
  for (std::size_t i = 0; i < n; ++i) {
    build_rig(cfg, tree, i, cfg.facility_budget_w / static_cast<double>(n),
              rigs[i]);
    coord.add_server(make_endpoint(cfg, tree, i, rigs[i]));
  }

  FleetResult result;
  result.rigs = n;
  result.epochs = cfg.periods;
  result.snaps.reserve(cfg.periods);
  // Lockstep drive: advance every rig one control period, then rebalance
  // on the cadence with the sim clock (so the health watchdogs'
  // second-denominated deadlines mean what they say). Budget events scale
  // the whole rack budget at rebalance granularity.
  double budget_in_force = cfg.facility_budget_w;
  for (std::size_t k = 1; k <= cfg.periods; ++k) {
    for (FleetRig& fr : rigs) {
      fr.rig->engine().run_until(fr.rig->engine().now() + cfg.period_s);
    }
    const double now = static_cast<double>(k) * cfg.period_s;
    if (k % cfg.rebalance_every == 0) {
      budget_in_force = cfg.facility_budget_w * tree.budget_scale(now);
      coord.set_rack_budget(Watts{budget_in_force});
      coord.rebalance(now);
    }
    result.snaps.push_back(take_snap(rigs, coords, now, budget_in_force));
  }
  for (FleetRig& fr : rigs) finish(fr);
  tally(rigs, coords, result);
  result.base_pid = rigs[0].rig->trace_pid();
  return result;
}

}  // namespace capgpu::fleet
