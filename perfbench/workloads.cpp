#include "workloads.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "baselines/cpu_plus_gpu.hpp"
#include "baselines/gpu_only.hpp"
#include "baselines/safe_fixed_step.hpp"
#include "core/capgpu_controller.hpp"
#include "core/rig.hpp"
#include "faults/campaign.hpp"
#include "fleet/campaign.hpp"
#include "runner/scenario_runner.hpp"
#include "telemetry/energy.hpp"
#include "telemetry/resilience.hpp"
#include "telemetry/slo.hpp"
#include "workload/model_zoo.hpp"

namespace perfbench {

using namespace capgpu;

void SimOutcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

void SimOutcome::merge(const SimOutcome& o) {
  rig_periods += o.rig_periods;
  rig_seconds += o.rig_seconds;
  cap_err_sum_w += o.cap_err_sum_w;
  cap_err_periods += o.cap_err_periods;
  images += o.images;
  energy_j += o.energy_j;
  slo_checked += o.slo_checked;
  slo_missed += o.slo_missed;
  attempted += o.attempted;
  failed += o.failed;
  failures.insert(failures.end(), o.failures.begin(), o.failures.end());
}

namespace {

/// Derives every rig, sysid and campaign seed from the workload seed and a
/// salt (the splitmix64 finalizer).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr double kPeriodS = 4.0;  // core::ControlLoopConfig's default period
/// Periods skipped after a run starts and after every change of the cap in
/// force before a period counts as steady (the paper skips 20 of 100).
constexpr std::size_t kSettle = 20;

bool all_finite(std::initializer_list<double> xs) {
  for (double x : xs) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

/// The benchmark exports none of the records the library appends to the
/// process-wide SLO, energy and resilience sinks on every run; dropping
/// them keeps memory independent of the repetition count.
void clear_global_sinks() {
  telemetry::SloRegistry::global().clear();
  telemetry::EnergyRegistry::global().clear();
  telemetry::ResilienceRegistry::global().clear();
}

/// Adds |power - cap| over the steady periods of a per-period trace.
void add_cap_error(const std::vector<double>& power,
                   const std::vector<double>& cap, SimOutcome& out) {
  std::size_t since_change = 0;
  for (std::size_t k = 0; k < power.size(); ++k) {
    if (k > 0 && cap[k] != cap[k - 1]) since_change = 0;
    if (since_change >= kSettle) {
      out.cap_err_sum_w += std::abs(power[k] - cap[k]);
      out.cap_err_periods += 1.0;
    }
    ++since_change;
  }
}

/// Adds one rig run's periods, steady cap error, images and metered energy.
void account_run(const core::RunResult& res, SimOutcome& out) {
  const auto& power = res.power.values();
  add_cap_error(power, res.set_point.values(), out);
  for (double p : power) out.energy_j += p * kPeriodS;
  for (const auto& thr : res.gpu_throughput) {
    for (double rate : thr.values()) out.images += rate * kPeriodS;
  }
  out.rig_periods += static_cast<double>(res.periods);
  out.rig_seconds += static_cast<double>(res.periods) * kPeriodS;
}

/// ServerRig::run, wrapped in a "core.run" span with the policy behind the
/// timing decorator when traced, and the engine and monitors read after.
core::RunResult run_rig(core::ServerRig& rig,
                        baselines::IServerPowerController& policy,
                        const core::RunOptions& options, Trace* trace) {
  if (trace == nullptr) return rig.run(policy, options);
  TimedController timed(policy, *trace);
  core::RunResult res;
  {
    ScopedSpan span(trace, "core.run");
    res = rig.run(timed, options);
  }
  LayerCounts& c = trace->counts();
  c.rig_runs += 1.0;
  c.periods += static_cast<double>(options.periods);
  c.events += static_cast<double>(rig.engine().events_executed());
  const double now = rig.engine().now();
  const double all = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < rig.gpu_count(); ++i) {
    auto& s = rig.stream(i);
    c.monitor_live_samples +=
        static_cast<double>(s.batch_latency().count(now, all) +
                            s.queue_delay().count(now, all) +
                            s.preprocess_latency().count(now, all));
  }
  return res;
}

// ---------------------------------------------------------------- sweep

constexpr std::size_t kSweepPeriods = 150;  // past the monitors' 600 s trim
constexpr std::size_t kSetPoints = 7;  // 900..1200 W in 50 W steps
constexpr std::size_t kPolicyCount = 5;
constexpr const char* kPolicyNames[kPolicyCount] = {
    "safe-fixed-step", "gpu-only", "gpu+cpu-40", "gpu+cpu-60", "capgpu"};
/// Pole of every proportional baseline (the Fig 6 bench uses the same).
constexpr double kBaselinePole = 0.3;

std::unique_ptr<baselines::IServerPowerController> make_policy(
    std::size_t kind, const control::LinearPowerModel& model,
    core::ServerRig& rig, Watts set_point) {
  const auto devices = rig.device_ranges();
  switch (kind) {
    case 0: {
      const baselines::FixedStepConfig cfg;
      const double margin =
          baselines::SafeFixedStepController::estimate_margin(model, devices,
                                                              cfg);
      return std::make_unique<baselines::SafeFixedStepController>(
          cfg, devices, set_point, margin);
    }
    case 1:
      return std::make_unique<baselines::GpuOnlyController>(
          devices, model, kBaselinePole, set_point);
    case 2:
    case 3:
      return std::make_unique<baselines::CpuPlusGpuController>(
          devices, model, kBaselinePole, set_point, kind == 2 ? 0.4 : 0.6);
    default:
      return std::make_unique<core::CapGpuController>(
          core::CapGpuConfig{}, devices, model, set_point,
          rig.latency_models());
  }
}

/// Fig 6 grid on the 3xV100 testbed: every (set point, policy) cell is one
/// ScenarioRunner scenario on its own seeded rig.
class TestbedSweep final : public Workload {
 public:
  explicit TestbedSweep(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    // The paper's sysid sweep on a seeded testbed rig.
    core::RigConfig rc;
    rc.seed = derive_seed(seed_, 0);
    core::ServerRig rig(rc);
    model_ = rig.identify().model;
  }

  SimOutcome run(Trace* trace) override {
    struct Cell {
      SimOutcome sim;
      double mean_w{0.0};
      double std_w{0.0};
    };
    std::vector<Cell> cells;
    {
      ScopedSpan span(trace, "runner.map");
      runner::ScenarioRunner sr({1});
      cells = sr.map(kSetPoints * kPolicyCount, [&](std::size_t idx) {
        ScopedSpan scenario(trace, "runner.scenario");
        Cell cell;
        const std::size_t kind = idx % kPolicyCount;
        const double set_point = set_point_of(idx);
        const std::string what = std::string("scenario ") + kPolicyNames[kind] +
                                 " @ " + std::to_string(set_point) + " W";
        try {
          std::unique_ptr<core::ServerRig> rig;
          std::unique_ptr<baselines::IServerPowerController> policy;
          {
            ScopedSpan build(trace, "core.rig_build");
            core::RigConfig rc;
            rc.seed = derive_seed(seed_, 1 + idx);
            rig = std::make_unique<core::ServerRig>(rc);
            policy = make_policy(kind, model_, *rig, Watts{set_point});
          }
          core::RunOptions opt;
          opt.periods = kSweepPeriods;
          opt.set_point = Watts{set_point};
          const core::RunResult res = run_rig(*rig, *policy, opt, trace);
          account_run(res, cell.sim);
          const auto steady = res.steady_power(kSettle);
          cell.mean_w = steady.mean();
          cell.std_w = steady.stddev();
          cell.sim.check(all_finite({cell.mean_w, cell.std_w,
                                     cell.sim.cap_err_sum_w, cell.sim.images,
                                     cell.sim.energy_j}),
                         what + ": non-finite result");
        } catch (const std::exception& e) {
          cell.sim.check(false, what + ": " + e.what());
        }
        return cell;
      });
    }
    clear_global_sinks();

    SimOutcome out;
    struct Agg {
      double abs_err{0.0};
      double std_sum{0.0};
    };
    std::vector<Agg> agg(kPolicyCount);
    for (std::size_t idx = 0; idx < cells.size(); ++idx) {
      out.merge(cells[idx].sim);
      agg[idx % kPolicyCount].abs_err +=
          std::abs(cells[idx].mean_w - set_point_of(idx));
      agg[idx % kPolicyCount].std_sum += cells[idx].std_w;
    }
    // The Fig 6 shape checks, as bench_fig6_setpoint_sweep states them.
    const Agg& cap = agg[4];
    const double n = static_cast<double>(kSetPoints);
    const double tol = 2.0 * n;
    bool most_accurate = true;
    bool most_stable = true;
    for (std::size_t k = 0; k < 4; ++k) {
      most_accurate &= cap.abs_err <= agg[k].abs_err + tol;
      most_stable &= cap.std_sum <= agg[k].std_sum;
    }
    out.check(most_accurate, "fig6: CapGPU not the most accurate");
    out.check(most_stable, "fig6: CapGPU not the most stable");
    out.check(agg[2].abs_err / n > 25.0 && agg[3].abs_err / n > 25.0,
              "fig6: GPU+CPU converged");
    out.check(agg[0].abs_err >= agg[1].abs_err && agg[0].abs_err >= cap.abs_err,
              "fig6: Safe Fixed-Step not the least accurate");
    return out;
  }

 private:
  static double set_point_of(std::size_t idx) {
    return 900.0 + 50.0 * static_cast<double>(idx / kPolicyCount);
  }

  std::uint64_t seed_;
  control::LinearPowerModel model_{std::vector<double>{1.0}, 0.0};
};

// ---------------------------------------------------------- budget slash

constexpr std::size_t kSlashPeriods = 200;
constexpr std::size_t kSlashRigs = 4;
constexpr std::size_t kSlashGpus = 8;
constexpr double kHighCapW = 1800.0;
/// Below the 8-GPU rig's all-floor draw: every device rails at its floor.
constexpr double kSlashCapW = 650.0;

/// 8-GPU rigs (t1..t3 cycled) under CapGPU with the analytic power model;
/// the cap drops below the all-floor draw for the middle half of the run.
class BudgetSlash final : public Workload {
 public:
  explicit BudgetSlash(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    const auto zoo = workload::v100_testbed_models();
    config_ = core::RigConfig{};
    for (std::size_t i = 0; i < kSlashGpus; ++i) {
      config_.models.push_back(zoo[i % zoo.size()]);
    }
    config_.seed = derive_seed(seed_, 0);
    const core::ServerRig probe(config_);
    model_ = probe.analytic_power_model();
    latency_ = probe.latency_models();
    devices_ = probe.device_ranges();
  }

  SimOutcome run(Trace* trace) override {
    SimOutcome out;
    constexpr std::size_t slash_at = kSlashPeriods / 4;
    constexpr std::size_t restore_at = kSlashPeriods - kSlashPeriods / 4;
    for (std::size_t r = 0; r < kSlashRigs; ++r) {
      const std::string what = "budget slash rig " + std::to_string(r);
      SimOutcome part;
      try {
        std::unique_ptr<core::ServerRig> rig;
        std::unique_ptr<core::CapGpuController> ctl;
        {
          ScopedSpan build(trace, "core.rig_build");
          core::RigConfig rc = config_;
          rc.seed = derive_seed(seed_, 1 + r);
          rig = std::make_unique<core::ServerRig>(rc);
          ctl = std::make_unique<core::CapGpuController>(
              core::CapGpuConfig{}, devices_, model_, Watts{kHighCapW},
              latency_);
        }
        core::RunOptions opt;
        opt.periods = kSlashPeriods;
        opt.set_point = Watts{kHighCapW};
        opt.set_point_changes = {{slash_at, Watts{kSlashCapW}},
                                 {restore_at, Watts{kHighCapW}}};
        const core::RunResult res = run_rig(*rig, *ctl, opt, trace);
        account_run(res, part);
        // Power settles back under the restored cap: the steady tail of the
        // restored segment averages at or below it.
        const auto tail = res.power.stats_from(restore_at + kSettle);
        part.check(all_finite({part.cap_err_sum_w, part.images,
                               part.energy_j, tail.mean()}) &&
                       tail.count() > 0 && tail.mean() <= kHighCapW,
                   what + ": power did not settle under the restored cap");
      } catch (const std::exception& e) {
        part.check(false, what + ": " + e.what());
      }
      out.merge(part);
    }
    clear_global_sinks();
    return out;
  }

 private:
  std::uint64_t seed_;
  core::RigConfig config_;
  control::LinearPowerModel model_{std::vector<double>{1.0}, 0.0};
  std::map<std::size_t, control::LatencyModel> latency_;
  std::vector<control::DeviceRange> devices_;
};

// ------------------------------------------------------- fleet brownout

constexpr std::size_t kFleetEpochs = 150;
constexpr std::size_t kFleetJobs = 2;
/// The short rerun that, with the full campaign, splits wall time into a
/// build intercept and a per-epoch slope. Epoch cost grows while the
/// monitors fill toward their trim horizon, so a two-point fit over a
/// middle-length run would misplace the intercept; one cascade (two
/// epochs) keeps the short run almost all build.
constexpr std::size_t kShortEpochs = 2;
/// Rounds of the traced-only reruns.
constexpr int kExtraRounds = 2;

/// The row-PDU brownout of bench_chaos_campaigns on a 256-rig fleet, with
/// open-loop arrivals at 0.7 of each rig's peak.
faults::CampaignConfig fleet_campaign(std::uint64_t seed) {
  faults::CampaignConfig cc;
  cc.name = "fleet_row_pdu_brownout";
  cc.seed = seed;
  cc.topology.rows = 2;
  cc.topology.racks = 4;
  cc.topology.pdus_per_rack = 8;
  cc.topology.rigs_per_pdu = 4;
  cc.rack_budget_w = 17920.0;  // 32 rigs x 560 W per rack
  cc.periods = kFleetEpochs;
  cc.period_s = kPeriodS;
  cc.rebalance_every = 2;
  cc.offered_load = 0.7;
  cc.slo_s = 0.45;
  cc.bounds = {500.0, 650.0};
  cc.health.stale_report_s = 12.0;
  cc.health.dead_after_s = 60.0;
  cc.health.residual_anomaly_watts = 150.0;
  cc.health.reintegrate_rebalances = 3;
  faults::CampaignStage stage;
  stage.name = "row_pdu_brownout";
  stage.node = "row1/rack2/pdu5";
  stage.fault.kind = faults::DomainFaultKind::kBrownout;
  stage.fault.start_s = 24.0;
  stage.fault.duration_s = 40.0;
  stage.fault.magnitude = 0.3;
  cc.stages.push_back(stage);
  return cc;
}

/// The FleetConfig run_fleet_campaign derives from a campaign, for the
/// serial reference (which takes a FleetConfig, not a campaign).
fleet::FleetConfig fleet_config_of(const faults::CampaignConfig& cc) {
  fleet::FleetConfig fc;
  fc.name = cc.name;
  fc.topology = cc.topology;
  fc.seed = cc.seed;
  fc.facility_budget_w =
      cc.rack_budget_w * static_cast<double>(cc.topology.total_racks());
  fc.periods = cc.periods;
  fc.period_s = cc.period_s;
  fc.rebalance_every = cc.rebalance_every;
  fc.offered_load = cc.offered_load;
  fc.slo_s = cc.slo_s;
  fc.rig_bounds = cc.bounds;
  fc.health = cc.health;
  fc.health.enabled = true;
  return fc;
}

/// Adds a fleet run's rig-periods, cap error against the deliverable
/// budget, images, metered energy and SLO tallies.
void account_fleet(const fleet::FleetResult& fleet, SimOutcome& out) {
  std::vector<double> power;
  std::vector<double> budget;
  for (const auto& s : fleet.snaps) {
    power.push_back(s.fleet_power_w);
    budget.push_back(s.budget_w);
    out.energy_j += s.fleet_power_w * kPeriodS;
  }
  add_cap_error(power, budget, out);
  const double rigs = static_cast<double>(fleet.rigs);
  const double epochs = static_cast<double>(fleet.epochs);
  out.rig_periods += rigs * epochs;
  out.rig_seconds += rigs * epochs * kPeriodS;
  out.images += fleet.images;
  out.slo_checked += static_cast<double>(fleet.checked);
  out.slo_missed += static_cast<double>(fleet.missed);
}

class FleetBrownout final : public Workload {
 public:
  explicit FleetBrownout(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    // Campaign validation and the fault-domain topology build.
    campaign_ = faults::validated(fleet_campaign(derive_seed(seed_, 0)));
    faults::DomainTree tree(campaign_.topology, campaign_.seed);
    for (const auto& stage : campaign_.stages) {
      tree.add_fault(stage.node, stage.fault);
    }
  }

  [[nodiscard]] std::size_t threads() const override { return kFleetJobs; }

  /// Memory-bound, the fleet slows less than the cache-resident probe: on
  /// the reference machine its rate followed the probe's speed to a power
  /// between 0.4 and 1.0, and 0.6 left the least spread between runs.
  [[nodiscard]] double probe_exponent() const override { return 0.6; }

  SimOutcome run(Trace* trace) override {
    return campaign(trace, "fleet.campaign", campaign_, kFleetJobs, nullptr);
  }

  void trace_extras(Trace& trace, const SimOutcome& reference,
                    SimOutcome& checks) override {
    faults::CampaignConfig short_cc = campaign_;
    short_cc.periods = kShortEpochs;
    trace.counts().fleet_full_epochs = static_cast<double>(kFleetEpochs);
    trace.counts().fleet_short_epochs = static_cast<double>(kShortEpochs);

    std::vector<std::pair<std::string, faults::DomainFault>> faults_list;
    for (const auto& stage : campaign_.stages) {
      faults_list.emplace_back(stage.node, stage.fault);
    }
    // Interleaved rounds, so the short/full, 1-worker/2-worker and
    // 1-worker/serial ratios compare runs made in the same machine phase;
    // main.cpp takes each span's median.
    for (int round = 0; round < kExtraRounds; ++round) {
      checks.merge(campaign(&trace, "fleet.campaign_short", short_cc,
                            kFleetJobs, nullptr));

      const SimOutcome two = campaign(&trace, "fleet.campaign_2worker",
                                      campaign_, kFleetJobs, nullptr);
      checks.merge(two);
      checks.check(same_sim(two, reference),
                   "fleet: 2-worker rerun differs from the timed run");

      fleet::FleetResult one_worker;
      const SimOutcome single = campaign(&trace, "fleet.campaign_1worker",
                                         campaign_, 1, &one_worker);
      checks.merge(single);
      checks.check(same_sim(single, reference),
                   "fleet: 1-worker outcome differs from the 2-worker run");

      fleet::FleetResult serial;
      {
        ScopedSpan span(&trace, "fleet.serial_reference");
        serial = fleet::run_serial_reference(fleet_config_of(campaign_),
                                             faults_list);
      }
      clear_global_sinks();
      SimOutcome serial_sim;
      account_fleet(serial, serial_sim);
      SimOutcome one_sim;
      account_fleet(one_worker, one_sim);
      checks.check(serial.decisions == one_worker.decisions &&
                       same_sim(serial_sim, one_sim),
                   "fleet: serial reference differs from FleetSim");
    }
  }

 private:
  /// Simulated quantities equal bit for bit (operation tallies aside).
  static bool same_sim(const SimOutcome& a, const SimOutcome& b) {
    SimOutcome x = a;
    SimOutcome y = b;
    x.attempted = y.attempted = 0;
    x.failed = y.failed = 0;
    x.failures.clear();
    y.failures.clear();
    return x == y;
  }

  /// One run_fleet_campaign call in a span named `span_name`, scored and
  /// checked: when the run outlasts the fault, the scorer must have
  /// detected the brownout and seen the fleet recover; a shorter run is
  /// only checked for finite results. `keep` receives the raw fleet result
  /// when non-null.
  SimOutcome campaign(Trace* trace, const char* span_name,
                      const faults::CampaignConfig& cc, std::size_t jobs,
                      fleet::FleetResult* keep) {
    SimOutcome out;
    try {
      fleet::FleetCampaignResult res;
      {
        ScopedSpan span(trace, span_name);
        res = fleet::run_fleet_campaign(cc, {0, jobs});
      }
      account_fleet(res.fleet, out);
      const bool scored = static_cast<double>(cc.periods) * cc.period_s >
                          cc.stages.front().fault.end_s();
      const bool finite =
          all_finite({out.cap_err_sum_w, out.images, out.energy_j});
      const bool detected =
          !scored || (!res.stages.empty() && res.stages[0].detected_at_s >= 0.0);
      const bool recovered =
          !scored || (!res.stages.empty() && res.stages[0].mttr_s >= 0.0);
      out.check(finite && detected && recovered,
                std::string(span_name) + ":" +
                    (finite ? "" : " non-finite result;") +
                    (detected ? "" : " brownout not detected;") +
                    (recovered ? "" : " no recovery"));
      if (keep != nullptr) *keep = std::move(res.fleet);
    } catch (const std::exception& e) {
      out.check(false, std::string(span_name) + ": " + e.what());
    }
    clear_global_sinks();
    return out;
  }

  std::uint64_t seed_;
  faults::CampaignConfig campaign_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "testbed-sweep", "budget-slash-8gpu", "fleet-brownout-256"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "testbed-sweep") return std::make_unique<TestbedSweep>(seed);
  if (name == "budget-slash-8gpu") return std::make_unique<BudgetSlash>(seed);
  if (name == "fleet-brownout-256") {
    return std::make_unique<FleetBrownout>(seed);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
