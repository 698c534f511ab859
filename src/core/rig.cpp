#include "core/rig.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/metric_names.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/runtime.hpp"
#include "telemetry/trace.hpp"
#include "workload/latency_law.hpp"

namespace capgpu::core {

namespace {
RigConfig with_defaults(RigConfig config) {
  if (config.models.empty()) {
    config.models = workload::v100_testbed_models();
  }
  const std::size_t preproc =
      config.models.size() * config.preprocess_workers_per_stream;
  if (config.cpu_task_cores == 0) {
    CAPGPU_REQUIRE(config.total_cores > preproc + config.controller_cores,
                   "no cores left for the CPU workload");
    config.cpu_task_cores =
        config.total_cores - preproc - config.controller_cores;
  }
  return config;
}
}  // namespace

telemetry::RunningStats RunResult::steady_power(std::size_t skip) const {
  return power.stats_from(skip);
}

ServerRig::ServerRig(RigConfig config)
    : config_(with_defaults(std::move(config))),
      server_(hw::ServerModel::v100_testbed(config_.models.size())),
      rapl_(server_.cpu()),
      host_load_(server_.cpu(), config_.total_cores) {
  // Every rig is one trace "process" and, while alive, the virtual-time
  // source for log prefixes and trace timestamps. Must precede HAL and
  // stream construction so their tracks land under this rig's pid.
  telemetry::attach_time_source(this, [eng = &engine_] { return eng->now(); });
  trace_pid_ = telemetry::Tracer::current().begin_run("server_rig");
  Rng rng(config_.seed);
  hal_ = std::make_unique<hal::ServerHal>(engine_, server_, config_.meter,
                                          rng.split());
  if (config_.faults) {
    // Constructed after the inner HAL so the fault layer's mirror capture
    // fires after each inner meter sample (engine FIFO at equal times).
    faulty_ = std::make_unique<hal::FaultyServerHal>(engine_, *hal_,
                                                     *config_.faults);
  }

  // Always-busy cores: controller + the feature-selection job.
  host_load_.add_always_busy_cores(config_.controller_cores +
                                   config_.cpu_task_cores);

  workload::CpuTaskParams task_params;
  task_params.cores = config_.cpu_task_cores;
  task_params.subset_s_ghz = config_.cpu_task_subset_s_ghz;
  cpu_task_ = std::make_unique<workload::CpuTaskSim>(engine_, server_.cpu(),
                                                     task_params, rng.split());
  cpu_task_->start();

  streams_.reserve(config_.models.size());
  for (std::size_t i = 0; i < config_.models.size(); ++i) {
    workload::StreamParams sp;
    sp.model = config_.models[i];
    sp.n_preprocess_workers = config_.preprocess_workers_per_stream;
    sp.open_loop = !config_.offered_load.empty();
    sp.per_image_monitors = false;  // no rig reader sees them
    auto stream = std::make_unique<workload::InferenceStream>(
        engine_, server_, i, sp, rng.split());
    stream->on_worker_compute_change = [this](int delta) {
      host_load_.worker_compute_delta(delta);
    };
    if (!config_.throttle_preprocess_cores) {
      const Megahertz pinned = server_.cpu().freqs().max();
      stream->preprocess_frequency = [pinned] { return pinned; };
    }
    stream->start();

    if (sp.open_loop) {
      // Scale the fractional offered-load schedule by this stream's peak
      // throughput to get its absolute arrival rate.
      std::vector<workload::RatePoint> schedule = config_.offered_load;
      const double peak = stream->max_images_per_s();
      for (auto& pt : schedule) pt.rate_per_s *= peak;
      auto arrivals = std::make_unique<workload::ArrivalProcess>(
          engine_, rng.split(), std::move(schedule));
      auto* stream_ptr = stream.get();
      arrivals->on_arrivals = [stream_ptr](const double* times, std::size_t n) {
        stream_ptr->submit_arrivals(times, n);
      };
      arrivals->start();
      arrivals_.push_back(std::move(arrivals));
    }
    streams_.push_back(std::move(stream));
  }
}

ServerRig::~ServerRig() { telemetry::detach_time_source(this); }

hal::IServerHal& ServerRig::control_hal() {
  return faulty_ ? static_cast<hal::IServerHal&>(*faulty_) : *hal_;
}

workload::InferenceStream& ServerRig::stream(std::size_t i) {
  CAPGPU_REQUIRE(i < streams_.size(), "stream index out of range");
  return *streams_[i];
}

std::vector<control::DeviceRange> ServerRig::device_ranges() const {
  std::vector<control::DeviceRange> out;
  out.reserve(server_.device_count());
  {
    control::DeviceRange d;
    d.kind = DeviceKind::kCpu;
    d.f_min_mhz = server_.cpu().freqs().min().value;
    d.f_max_mhz = server_.cpu().freqs().max().value;
    out.push_back(d);
  }
  for (std::size_t i = 0; i < server_.gpu_count(); ++i) {
    control::DeviceRange d;
    d.kind = DeviceKind::kGpu;
    d.f_min_mhz = server_.gpu(i).freqs().min().value;
    d.f_max_mhz = server_.gpu(i).freqs().max().value;
    out.push_back(d);
  }
  return out;
}

std::vector<double> ServerRig::normalized_throughputs() const {
  const double now = engine_.now();
  const double window = config_.throughput_window.value;
  std::vector<double> out;
  out.reserve(1 + streams_.size());
  out.push_back(cpu_task_->throughput().normalized_rate(now, window));
  for (const auto& s : streams_) {
    out.push_back(s->images_throughput().normalized_rate(now, window));
  }
  return out;
}

double ServerRig::gpu_demand() const {
  const double now = engine_.now();
  const double window = config_.throughput_window.value;
  double total = 0.0;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const auto& s = *streams_[i];
    const auto& m = s.model();
    // Occupancy: achieved rate vs the capacity at the *current* clock.
    const Megahertz f = server_.gpu(i).core_clock();
    const double capacity =
        static_cast<double>(m.batch_size) /
        workload::latency_at(m.e_min_batch_s, m.gpu_f_max, f, m.gamma);
    const double occupancy = std::min(
        1.0, s.images_throughput().rate(now, window) / capacity);
    // Headroom: how much clock range is left to buy with extra watts.
    const auto& table = server_.gpu(i).freqs();
    const double headroom = (table.max().value - f.value) /
                            (table.max().value - table.min().value);
    total += occupancy * headroom;
  }
  return streams_.empty() ? 0.0 : total / static_cast<double>(streams_.size());
}

std::map<std::size_t, control::LatencyModel> ServerRig::latency_models()
    const {
  std::map<std::size_t, control::LatencyModel> out;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const auto& m = streams_[i]->model();
    out.emplace(i + 1,
                control::LatencyModel(m.e_min_batch_s, m.gpu_f_max, m.gamma));
  }
  return out;
}

control::IdentifiedModel ServerRig::identify(IdentifyOptions options) {
  // The sweep runs for minutes without a control period; trim between its
  // steps as end_period() would for a measure-long period.
  const double period_s = options.measure.value;
  return run_system_identification(
      engine_, *hal_, options, [this, period_s] { trim_monitors(period_s); });
}

control::LinearPowerModel ServerRig::analytic_power_model() const {
  // Gains at full utilization; offset collects everything
  // frequency-independent (chassis + idle terms + pinned memory clocks).
  std::vector<double> gains;
  gains.push_back(server_.cpu().params().watts_per_mhz);
  double offset = server_.static_power().value +
                  server_.cpu().params().idle_watts;
  for (std::size_t i = 0; i < server_.gpu_count(); ++i) {
    const auto& p = server_.gpu(i).params();
    gains.push_back(p.watts_per_mhz);
    offset += p.idle_watts + p.memory_watts;
  }
  return control::LinearPowerModel(std::move(gains), offset);
}

RunResult ServerRig::run(baselines::IServerPowerController& policy,
                         const RunOptions& options) {
  CAPGPU_REQUIRE(!ran_, "this rig already executed a run; build a fresh one");
  ran_ = true;
  CAPGPU_REQUIRE(options.periods > 0, "need at least one period");

  policy.set_set_point(options.set_point);

  ControlLoop loop(engine_, control_hal(), rapl_, policy, options.loop,
                   [this] { return normalized_throughputs(); });

  RunResult result;
  const std::size_t n_dev = server_.device_count();
  for (std::size_t j = 0; j < n_dev; ++j) {
    result.device_freqs.emplace_back("f_" + std::to_string(j), "MHz");
  }
  std::vector<double> active_slo(streams_.size(), 0.0);
  std::vector<telemetry::Counter*> slo_checked_metrics;
  std::vector<telemetry::Counter*> slo_missed_metrics;
  std::vector<telemetry::SloBurnMonitor> burn_monitors;
  std::vector<std::vector<telemetry::SloAlertEpisode>> burn_episodes(
      streams_.size());
  std::vector<telemetry::Gauge*> burn_fast_gauges;
  std::vector<telemetry::Gauge*> burn_slow_gauges;
  std::vector<telemetry::Gauge*> burn_active_gauges;
  std::vector<telemetry::Gauge*> budget_gauges;
  std::vector<telemetry::Counter*> burn_alert_counters;
  auto& registry = telemetry::MetricsRegistry::current();
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const auto& name = streams_[i]->model().name;
    result.gpu_latency.emplace_back(name + "_latency", "s");
    result.gpu_slo.emplace_back(name + "_slo", "s");
    result.gpu_throughput.emplace_back(name + "_thr", "img/s");
    result.gpu_stage_latency.emplace_back();
    for (std::size_t s = 0; s < workload::kStageCount; ++s) {
      result.gpu_stage_latency.back().emplace_back(
          name + "_" + workload::kStageNames[s], "s");
    }
    result.slo_misses.emplace_back();
    result.gpu_latency_dist.emplace_back();
    slo_checked_metrics.push_back(&registry.counter(
        telemetry::metric::kSloChecks,
        "Batches checked against an active SLO", {{"model", name}}));
    slo_missed_metrics.push_back(&registry.counter(
        telemetry::metric::kSloMisses,
        "Batches whose execution latency exceeded the active SLO",
        {{"model", name}}));
    burn_monitors.emplace_back(options.slo_burn);
    burn_fast_gauges.push_back(&registry.gauge(
        telemetry::metric::kSloBurnRate,
        "Error-budget burn rate over the alerting window",
        {{"model", name}, {"window", "fast"}}));
    burn_slow_gauges.push_back(&registry.gauge(
        telemetry::metric::kSloBurnRate,
        "Error-budget burn rate over the alerting window",
        {{"model", name}, {"window", "slow"}}));
    burn_active_gauges.push_back(&registry.gauge(
        telemetry::metric::kSloBurnAlertActive,
        "1 while a burn-rate alert is firing", {{"model", name}}));
    budget_gauges.push_back(&registry.gauge(
        telemetry::metric::kSloBudgetConsumed,
        "Fraction of the lifetime SLO error budget consumed",
        {{"model", name}}));
    burn_alert_counters.push_back(&registry.counter(
        telemetry::metric::kSloBurnAlerts,
        "Burn-rate alerts fired", {{"model", name}}));
  }

  // Schedule: initial SLOs, SLO changes, set-point changes.
  for (const auto& [device, slo] : options.initial_slos) {
    loop.at_period(0, [&policy, &active_slo, device, slo] {
      policy.set_slo(device, slo);
      active_slo.at(device - 1) = slo;
    });
  }
  for (const auto& [period, device, slo] : options.slo_changes) {
    loop.at_period(period, [&policy, &active_slo, device, slo] {
      policy.set_slo(device, slo);
      active_slo.at(device - 1) = slo;
    });
  }
  for (const auto& [period, sp] : options.set_point_changes) {
    loop.at_period(period, [&policy, sp] { policy.set_set_point(sp); });
  }

  const double period_s = options.loop.period.value;

  if (options.energy_attribution) attribute_energy(policy.name());

  auto& tracer = telemetry::Tracer::current();
  loop.on_period = [&](std::size_t index) {
    const double now = engine_.now();
    // Late annotation of the period's flight record: the realized mean
    // batch latency per device (index 0 is the CPU, which has none).
    telemetry::FlightRecord* flight =
        telemetry::FlightRecorder::current().pending();
    if (flight != nullptr && flight->period == index &&
        flight->pid == trace_pid_) {
      flight->realized_latency_s.assign(n_dev, 0.0);
    } else {
      flight = nullptr;
    }
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      auto& s = *streams_[i];
      auto& lat = s.batch_latency();
      const double mean_latency = lat.mean(now, period_s);
      if (flight != nullptr) flight->realized_latency_s[i + 1] = mean_latency;
      result.gpu_latency[i].add(now, mean_latency);
      if (index >= options.percentile_skip) {
        lat.visit(now, period_s, [&result, i](double sample) {
          result.gpu_latency_dist[i].add(sample);
        });
      }
      result.gpu_slo[i].add(now, active_slo[i]);
      result.gpu_throughput[i].add(
          now, s.images_throughput().rate(now, period_s));
      const auto stage_means = s.take_stage_period_means();
      for (std::size_t st = 0; st < workload::kStageCount; ++st) {
        result.gpu_stage_latency[i][st].add(now, stage_means[st]);
      }
      if (tracer.enabled()) {
        tracer.counter(
            s.trace_tid(), "stage_latency_s/" + s.model().name, "workload",
            {{workload::kStageNames[0], stage_means[0]},
             {workload::kStageNames[1], stage_means[1]},
             {workload::kStageNames[2], stage_means[2]},
             {workload::kStageNames[3], stage_means[3]}});
      }
      if (active_slo[i] > 0.0) {
        const std::size_t cnt = lat.count(now, period_s);
        const std::size_t misses = lat.misses(now, period_s, active_slo[i]);
        for (std::size_t k = 0; k < cnt; ++k) {
          result.slo_misses[i].add(k < misses);
        }
        slo_checked_metrics[i]->inc(static_cast<double>(cnt));
        slo_missed_metrics[i]->inc(static_cast<double>(misses));

        auto& monitor = burn_monitors[i];
        const auto transition = monitor.record(now, cnt, misses);
        burn_fast_gauges[i]->set(monitor.fast_burn());
        burn_slow_gauges[i]->set(monitor.slow_burn());
        burn_active_gauges[i]->set(monitor.alerting() ? 1.0 : 0.0);
        budget_gauges[i]->set(monitor.budget_consumed());
        if (transition == telemetry::SloBurnMonitor::Transition::kFired) {
          burn_alert_counters[i]->inc();
          burn_episodes[i].push_back({now, 0.0, false});
          tracer.instant(s.trace_tid(), "slo_burn_alert", "slo",
                         {{"model", s.model().name},
                          {"fast_burn", monitor.fast_burn()},
                          {"slow_burn", monitor.slow_burn()}});
        } else if (transition ==
                   telemetry::SloBurnMonitor::Transition::kCleared) {
          auto& episode = burn_episodes[i].back();
          episode.cleared_at_s = now;
          episode.cleared = true;
          tracer.instant(s.trace_tid(), "slo_burn_clear", "slo",
                         {{"model", s.model().name},
                          {"fast_burn", monitor.fast_burn()},
                          {"slow_burn", monitor.slow_burn()}});
        }
      }
    }
    result.cpu_throughput.add(now, cpu_task_->throughput().rate(now, period_s));
    result.cpu_latency.add(now, cpu_task_->subset_latency().mean(now, period_s));
    end_period(policy.set_point().value, period_s);
  };

  loop.start();
  const double t_end =
      engine_.now() + static_cast<double>(options.periods) * period_s + 1e-3;
  engine_.run_until(t_end);
  loop.stop();
  settle();

  CAPGPU_ASSERT(loop.periods_elapsed() == options.periods);
  result.power = loop.power_trace();
  result.set_point = loop.set_point_trace();
  for (std::size_t j = 0; j < n_dev; ++j) {
    result.device_freqs[j] = loop.freq_trace(j);
  }
  result.periods = options.periods;
  result.held_periods = loop.held_periods();
  result.skipped_periods = loop.skipped_periods();
  result.actuation_retries = loop.actuation_retries();
  result.actuation_failures = loop.actuation_failures();
  result.readback_mismatches = loop.readback_mismatches();
  if (const auto* fs = loop.failsafe()) {
    result.failsafe_engagements = fs->engagements();
    result.failsafe_releases = fs->releases();
  }

  // Final burn accounting: one SloRegistry entry per stream that had SLO
  // traffic (--slo-report-out renders these).
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const auto& monitor = burn_monitors[i];
    if (monitor.checked_total() == 0) continue;
    telemetry::SloEntry entry;
    entry.pid = trace_pid_;
    entry.policy = policy.name();
    entry.model = streams_[i]->model().name;
    entry.objective = monitor.config().objective;
    entry.slo_seconds = active_slo[i];
    entry.checked = monitor.checked_total();
    entry.missed = monitor.missed_total();
    entry.budget_consumed = monitor.budget_consumed();
    entry.final_fast_burn = monitor.fast_burn();
    entry.final_slow_burn = monitor.slow_burn();
    entry.alerts = monitor.alerts_fired();
    entry.episodes = std::move(burn_episodes[i]);
    telemetry::SloRegistry::current().add(std::move(entry));
  }
  return result;
}

void ServerRig::attribute_energy(const std::string& policy) {
  std::vector<std::string> names;
  names.reserve(streams_.size());
  for (const auto& s : streams_) names.push_back(s->model().name);
  ledger_.emplace(policy, trace_pid_, streams_.size(), std::move(names));
  for (auto& s : streams_) s->set_energy_recording(true);
}

void ServerRig::end_period(double set_point_w, double period_s) {
  if (ledger_) {
    double avg_w = last_meter_w_;
    try {
      avg_w = hal_->power_meter().average(Seconds{period_s}).value;
    } catch (const HalError&) {
    }
    last_meter_w_ = avg_w;
    ledger_->begin_period(set_point_w, avg_w, period_s);
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      auto& batches = streams_[i]->energy_batches();
      ledger_->add_batches(i, batches.data(), batches.size());
      batches.clear();
    }
    ledger_->end_period();
  }
  trim_monitors(period_s);
}

void ServerRig::trim_monitors(double period_s) {
  const double now = engine_.now();
  const double horizon = std::max(period_s, config_.throughput_window.value);
  for (auto& s : streams_) s->trim_monitors(now, horizon);
  cpu_task_->trim_monitors(now, horizon);
}

void ServerRig::settle() {
  for (auto& s : streams_) s->flush_stage_stats();
  if (!ledger_) return;
  for (auto& s : streams_) {
    s->set_energy_recording(false);
    s->energy_batches().clear();
  }
  ledger_->finalize(telemetry::EnergyRegistry::current());
}

}  // namespace capgpu::core
