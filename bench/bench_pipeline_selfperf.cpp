// Workload hot-path microbenchmark: the pooled SoA request pipeline vs the
// pre-overhaul value-passing pipeline, measured in requests completed per
// wall-clock second.
//
// The old pipeline is embedded below (legacy::LegacyStream) so the
// comparison stays honest after the rewrite: requests travel as 48-byte
// RequestTimeline values copied through a std::deque, producers block by
// registering std::function callbacks on the queue, every batch pop
// allocates a fresh vector, and open-loop arrivals arrive one engine event
// (and one std::function) at a time. The current pipeline moves 32-bit
// pool ids through a fixed ring, parks blocked/idle workers as plain
// indices, and takes Poisson arrivals in 64-gap chunks.
//
// Both sides run identical simulations (stage_stats off, zero jitter, the
// same arrival RNG) on the same engine kernel; only the workload layer
// differs. Results append to a JSON report (default BENCH_pipeline.json,
// override with --out <path>) which scripts/run_perf.sh merges into
// BENCH_perf.json; docs/performance.md describes the format. The pooled
// pipeline's speedup floor and the flight-recorder and energy-ledger
// overhead budgets print PASS/FAIL, and the bench exits 1 when one fails.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "core/capgpu_controller.hpp"
#include "core/rig.hpp"
#include "hw/server_model.hpp"
#include "sim/engine.hpp"
#include "telemetry/context.hpp"
#include "telemetry/energy.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/metric_names.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/table.hpp"
#include "telemetry/trace.hpp"
#include "workload/arrivals.hpp"
#include "workload/latency_law.hpp"
#include "workload/pipeline.hpp"
#include "workload/request_timeline.hpp"

using namespace capgpu;

namespace legacy {

// The pre-overhaul monitors, verbatim: every record() pushes a 16-byte
// sample into a std::deque, and the periodic trim pops (and eventually
// frees) chunks from the front, so the rolling window keeps walking into
// cold pages. The current SampleRing-backed monitors recycle one flat
// allocation instead.
class LegacyThroughputMonitor {
 public:
  explicit LegacyThroughputMonitor(double max_rate) : max_rate_(max_rate) {
    CAPGPU_REQUIRE(max_rate > 0.0, "max_rate must be positive");
  }

  void record(sim::SimTime now, double count = 1.0) {
    events_.push_back(Event{now, count});
    total_ += count;
  }

  [[nodiscard]] double rate(sim::SimTime now, double window) const {
    const double cutoff = now - window;
    double sum = 0.0;
    for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
      if (it->time <= cutoff) break;
      sum += it->count;
    }
    return sum / window;
  }

  void trim(sim::SimTime now, double horizon = 600.0) {
    const double cutoff = now - horizon;
    while (!events_.empty() && events_.front().time <= cutoff) {
      events_.pop_front();
    }
  }

 private:
  struct Event {
    sim::SimTime time;
    double count;
  };
  double max_rate_;
  double total_{0.0};
  std::deque<Event> events_;
};

class LegacyLatencyMonitor {
 public:
  void record(sim::SimTime now, double latency_s) {
    samples_.push_back(Sample{now, latency_s});
    lifetime_.add(latency_s);
  }

  [[nodiscard]] double mean(sim::SimTime now, double window) const {
    const double cutoff = now - window;
    double sum = 0.0;
    std::size_t n = 0;
    for (auto it = samples_.rbegin(); it != samples_.rend(); ++it) {
      if (it->time <= cutoff) break;
      sum += it->latency;
      ++n;
    }
    return n ? sum / static_cast<double>(n) : 0.0;
  }

  void trim(sim::SimTime now, double horizon = 600.0) {
    const double cutoff = now - horizon;
    while (!samples_.empty() && samples_.front().time <= cutoff) {
      samples_.pop_front();
    }
  }

 private:
  struct Sample {
    sim::SimTime time;
    double latency;
  };
  std::deque<Sample> samples_;
  telemetry::RunningStats lifetime_;
};

// The pre-overhaul queue, verbatim: a deque of timeline values with
// std::function block/notify hooks.
class LegacyQueue {
 public:
  explicit LegacyQueue(std::size_t capacity) : capacity_(capacity) {
    CAPGPU_REQUIRE(capacity > 0, "queue capacity must be positive");
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool full() const { return items_.size() >= capacity_; }

  bool try_push(workload::RequestTimeline item, sim::SimTime now) {
    if (full()) return false;
    item.enqueued = now;
    items_.push_back(item);
    notify_consumer();
    return true;
  }

  void wait_for_space(std::function<void()> cb) {
    blocked_producers_.push_back(std::move(cb));
  }

  void wait_for_items(std::size_t n, std::function<void()> cb) {
    consumer_threshold_ = n;
    consumer_cb_ = std::move(cb);
    notify_consumer();
  }

  [[nodiscard]] std::vector<workload::RequestTimeline> pop(std::size_t n) {
    std::vector<workload::RequestTimeline> items(
        items_.begin(), items_.begin() + static_cast<long>(n));
    items_.erase(items_.begin(), items_.begin() + static_cast<long>(n));
    notify_producers();
    return items;
  }

 private:
  void notify_consumer() {
    if (consumer_cb_ && items_.size() >= consumer_threshold_) {
      auto cb = std::exchange(consumer_cb_, nullptr);
      consumer_threshold_ = 0;
      cb();
    }
  }

  void notify_producers() {
    while (!full() && !blocked_producers_.empty()) {
      auto cb = std::move(blocked_producers_.back());
      blocked_producers_.pop_back();
      cb();
    }
  }

  std::size_t capacity_;
  std::deque<workload::RequestTimeline> items_;
  std::vector<std::function<void()>> blocked_producers_;
  std::size_t consumer_threshold_{0};
  std::function<void()> consumer_cb_;
};

// The pre-overhaul stream hot path, verbatim modulo the request-attribution
// block (stage_stats is off on both sides of this bench, so that code never
// ran). Requests are RequestTimeline values copied into the queue and again
// into the per-batch vector; blocking re-registers a std::function per
// stall.
class LegacyStream {
 public:
  LegacyStream(sim::Engine& engine, hw::ServerModel& server,
               std::size_t gpu_index, workload::StreamParams params, Rng rng)
      : engine_(&engine),
        server_(&server),
        gpu_index_(gpu_index),
        params_(std::move(params)),
        rng_(rng),
        queue_(params_.queue_capacity ? params_.queue_capacity
                                      : 2 * params_.model.batch_size),
        workers_(params_.n_preprocess_workers),
        batch_size_(params_.model.batch_size),
        images_(params_.model.batch_size / params_.model.e_min_batch_s) {
    auto& registry = telemetry::MetricsRegistry::current();
    const telemetry::Labels by_model{{"model", params_.model.name}};
    images_metric_ = &registry.counter(telemetry::metric::kImagesCompleted,
                                       "Images completed by the GPU stage",
                                       by_model);
    batches_metric_ = &registry.counter(telemetry::metric::kBatchesCompleted,
                                        "Batches executed by the GPU stage",
                                        by_model);
    telemetry::HistogramSpec latency_spec;
    latency_spec.min_bound = 1e-3;
    latency_spec.decades = 6;
    latency_metric_ = &registry.histogram(
        telemetry::metric::kBatchLatencySeconds,
        "GPU batch execution latency (the quantity under SLO)", latency_spec,
        by_model);
    trace_tid_ = telemetry::Tracer::current().register_track(
        "gpu" + std::to_string(gpu_index_) + ":" + params_.model.name);
  }

  void start() {
    for (std::size_t w = 0; w < workers_.size(); ++w) worker_start_image(w);
    consumer_try_start();
  }

  void submit_requests(std::size_t n_images) {
    const sim::SimTime now = engine_->now();
    for (std::size_t i = 0; i < n_images; ++i) pending_arrivals_.push_back(now);
    while (!idle_workers_.empty() && !pending_arrivals_.empty()) {
      const std::size_t w = idle_workers_.back();
      idle_workers_.pop_back();
      worker_start_image(w);
    }
  }

  [[nodiscard]] std::uint64_t images_completed() const {
    return images_completed_;
  }

  // Present in the pre-overhaul stream (HostCpuLoad aggregation hook);
  // unset here, as in production runs without a host-load model, but the
  // per-image callable check it implies is part of the legacy cost.
  std::function<void(int)> on_worker_compute_change;

  // The rig trims every monitor each control period (core::ServerRig);
  // the bench mirrors that so monitor memory cycles as in production.
  void trim_monitors(sim::SimTime now) {
    images_.trim(now);
    batch_latency_.trim(now);
    queue_delay_.trim(now);
    preprocess_latency_.trim(now);
    preprocess_compute_.trim(now);
  }

 private:
  struct Worker {
    bool computing{false};
    workload::RequestTimeline timeline;
  };

  void set_worker_computing(std::size_t w, bool computing) {
    if (workers_[w].computing == computing) return;
    workers_[w].computing = computing;
    if (on_worker_compute_change) {
      on_worker_compute_change(computing ? +1 : -1);
    }
  }

  double preprocess_duration() {
    const double f_ghz = server_->cpu().frequency().value / 1000.0;
    const double base = params_.model.preprocess_s_ghz / f_ghz;
    const double j = params_.model.jitter_frac;
    return base * rng_.uniform(1.0 - j, 1.0 + j);
  }

  double batch_duration() {
    const auto& gpu = server_->gpu(gpu_index_);
    const double base =
        workload::latency_at(params_.model.e_min_for_batch(batch_size_),
                             params_.model.gpu_f_max, gpu.core_clock(),
                             params_.model.gamma) *
        gpu.memory_slowdown();
    const double j = params_.model.jitter_frac;
    return base * rng_.uniform(1.0 - j, 1.0 + j);
  }

  void worker_start_image(std::size_t w) {
    const sim::SimTime now = engine_->now();
    sim::SimTime arrival = now;
    if (params_.open_loop) {
      if (pending_arrivals_.empty()) {
        idle_workers_.push_back(w);
        return;
      }
      arrival = pending_arrivals_.front();
      pending_arrivals_.pop_front();
    }
    workload::RequestTimeline& timeline = workers_[w].timeline;
    timeline = workload::RequestTimeline{};
    timeline.arrival = arrival;
    timeline.preprocess_start = now;
    set_worker_computing(w, true);
    const double compute = preprocess_duration();
    engine_->schedule_after(
        compute, [this, w, compute] { worker_finish_image(w, compute); });
  }

  void worker_finish_image(std::size_t w, double compute) {
    set_worker_computing(w, false);
    workers_[w].timeline.preprocess_done = engine_->now();
    preprocess_compute_.record(engine_->now(), compute);
    worker_try_push(w);
  }

  void worker_try_push(std::size_t w) {
    if (queue_.try_push(workers_[w].timeline, engine_->now())) {
      preprocess_latency_.record(
          engine_->now(),
          engine_->now() - workers_[w].timeline.preprocess_start);
      worker_start_image(w);
    } else {
      queue_.wait_for_space([this, w] { worker_try_push(w); });
    }
  }

  void consumer_try_start() {
    const std::size_t batch = batch_size_;
    if (queue_.size() >= batch) {
      auto items = queue_.pop(batch);
      const sim::SimTime now = engine_->now();
      gpu_busy_ = true;
      server_->gpu(gpu_index_).set_utilization(params_.model.gpu_busy_util);
      for (auto& item : items) {
        item.batch_start = now;
        queue_delay_.record(now, now - item.enqueued);
      }
      batch_span_ = telemetry::Tracer::current().begin_span(trace_tid_,
                                                            "batch",
                                                            "workload");
      const double exec = batch_duration();
      engine_->schedule_after(exec, [this, exec,
                                     items = std::move(items)]() mutable {
        consumer_finish_batch(exec, items);
      });
    } else {
      queue_.wait_for_items(batch, [this] { consumer_try_start(); });
    }
  }

  void consumer_finish_batch(double exec_latency,
                             std::vector<workload::RequestTimeline>& items) {
    const sim::SimTime now = engine_->now();
    gpu_busy_ = false;
    server_->gpu(gpu_index_).set_utilization(0.0);
    batch_latency_.record(now, exec_latency);
    images_.record(now, static_cast<double>(items.size()));
    images_completed_ += items.size();
    ++batches_completed_;
    latency_metric_->observe(exec_latency);
    images_metric_->inc(static_cast<double>(items.size()));
    batches_metric_->inc();
    for (auto& item : items) item.completed = now;
    if (batch_span_ != 0) {
      telemetry::Tracer::current().end_span(
          batch_span_, {{"images", static_cast<double>(items.size())},
                        {"exec_s", exec_latency}});
      batch_span_ = 0;
    }
    consumer_try_start();
  }

  sim::Engine* engine_;
  hw::ServerModel* server_;
  std::size_t gpu_index_;
  workload::StreamParams params_;
  Rng rng_;
  LegacyQueue queue_;
  std::vector<Worker> workers_;
  bool gpu_busy_{false};
  std::size_t batch_size_{0};
  std::deque<sim::SimTime> pending_arrivals_;
  std::vector<std::size_t> idle_workers_;
  LegacyThroughputMonitor images_;
  LegacyLatencyMonitor batch_latency_;
  LegacyLatencyMonitor queue_delay_;
  LegacyLatencyMonitor preprocess_latency_;
  LegacyLatencyMonitor preprocess_compute_;
  std::uint64_t images_completed_{0};
  std::uint64_t batches_completed_{0};
  telemetry::Counter* images_metric_{nullptr};
  telemetry::Counter* batches_metric_{nullptr};
  telemetry::LogLinearHistogram* latency_metric_{nullptr};
  int trace_tid_{0};
  std::uint64_t batch_span_{0};
};

}  // namespace legacy

namespace {

// Sim horizons: ~3.2M images closed-loop, ~1.9M images (and ~3M arrivals)
// open-loop per run. The open-loop horizon is shorter: the surge backlog
// grows for the whole run, and a longer horizon would mostly measure DRAM
// traffic on the multi-megabyte pending queue instead of the request path.
constexpr double kHorizonS = 20000.0;
constexpr double kOpenHorizonS = 4000.0;
// Monitor-trim cadence, matching the rig's control period (the rig trims
// every stream monitor once per period; an untrimmed monitor would grow
// without bound and the bench would mostly measure cold deque pages).
constexpr double kTrimPeriodS = 4.0;
// Monitor retention of both sides: the legacy monitors' 600-s trim, so the
// A/B compares equal working sets.
constexpr double kTrimHorizonS = 600.0;

workload::StreamParams bench_params(bool open_loop) {
  workload::StreamParams p;
  p.model.name = "pipeperf";
  p.model.batch_size = 8;
  p.model.e_min_batch_s = 0.05;  // peak 160 img/s
  p.model.gamma = 0.91;
  p.model.gpu_f_max = 1350_MHz;
  p.model.preprocess_s_ghz = 0.005;
  p.model.gpu_busy_util = 0.9;
  p.model.jitter_frac = 0.0;
  p.n_preprocess_workers = 2;
  p.open_loop = open_loop;
  p.stage_stats = false;  // hot path only; the attribution overhead has its
                          // own guard in bench_engine_selfperf
  return p;
}

// The open-loop load workload is the paper's Table 1 regime: a fast GPU
// starved by CPU-side preprocessing. Two workers supply 960 img/s against
// a 1600 img/s GPU peak, so the preprocess stage is the bottleneck and
// arrivals outrun service for the whole run.
workload::StreamParams open_load_params() {
  workload::StreamParams p = bench_params(true);
  p.model.batch_size = 32;
  p.model.e_min_batch_s = 0.02;  // peak 1600 img/s; workers cap at 960
  return p;
}

void setup_server(hw::ServerModel& server) {
  server.cpu().set_frequency(2.4_GHz);
  server.gpu(0).set_core_clock(1350_MHz);
}

struct Measurement {
  double requests_per_s{0.0};
  std::uint64_t requests{0};
};

// Saturated closed-loop pipeline: the paper's experiment configuration.
// Exercises queue traffic, producer blocking, and batch recycling.
template <bool kLegacy>
Measurement run_closed_loop() {
  sim::Engine engine;
  hw::ServerModel server = hw::ServerModel::v100_testbed(1);
  setup_server(server);
  const workload::StreamParams p = bench_params(false);
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t done = 0;
  if constexpr (kLegacy) {
    legacy::LegacyStream stream(engine, server, 0, p, Rng(1));
    stream.start();
    engine.schedule_periodic(kTrimPeriodS,
                             [&] { stream.trim_monitors(engine.now()); });
    engine.run_until(kHorizonS);
    done = stream.images_completed();
  } else {
    workload::InferenceStream stream(engine, server, 0, p, Rng(1));
    stream.start();
    engine.schedule_periodic(kTrimPeriodS, [&] {
      stream.trim_monitors(engine.now(), kTrimHorizonS);
    });
    engine.run_until(kHorizonS);
    done = stream.images_completed();
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return Measurement{secs > 0.0 ? static_cast<double>(done) / secs : 0.0,
                     done};
}

// Open-loop Poisson load sustained above preprocess supply (a demand
// surge, the regime where the high-throughput hot path matters: arrivals
// always pending, workers never idle). The legacy side takes one engine
// event (plus a std::function and a deque push) per arrival; the current
// side draws chunks of 64 gaps per generation event and hands pending
// arrivals to workers at preprocess completion, with no per-arrival events
// at all. Below saturation both sides converge — each arrival then needs
// one timed wakeup regardless of how it was generated.
template <bool kLegacy>
Measurement run_open_loop() {
  sim::Engine engine;
  hw::ServerModel server = hw::ServerModel::v100_testbed(1);
  setup_server(server);
  const workload::StreamParams p = open_load_params();
  // A demand surge at 1.2x -> 1.9x of the 960 img/s preprocess supply; the
  // mid-run rate change also exercises the generation loop's boundary
  // re-draw.
  const std::vector<workload::RatePoint> schedule{
      {0.0, 1.2 * 960.0}, {kOpenHorizonS / 2, 1.9 * 960.0}};
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t done = 0;
  if constexpr (kLegacy) {
    legacy::LegacyStream stream(engine, server, 0, p, Rng(1));
    stream.start();
    engine.schedule_periodic(kTrimPeriodS,
                             [&] { stream.trim_monitors(engine.now()); });
    workload::ArrivalProcess arrivals(engine, Rng(7), schedule);
    arrivals.on_arrival = [&stream] { stream.submit_requests(1); };
    arrivals.start();
    engine.run_until(kOpenHorizonS);
    done = stream.images_completed();
  } else {
    workload::InferenceStream stream(engine, server, 0, p, Rng(1));
    stream.start();
    engine.schedule_periodic(kTrimPeriodS, [&] {
      stream.trim_monitors(engine.now(), kTrimHorizonS);
    });
    workload::ArrivalProcess arrivals(engine, Rng(7), schedule);
    arrivals.on_arrivals = [&stream](const double* t, std::size_t n) {
      stream.submit_arrivals(t, n);
    };
    arrivals.start();
    engine.run_until(kOpenHorizonS);
    done = stream.images_completed();
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return Measurement{secs > 0.0 ? static_cast<double>(done) / secs : 0.0,
                     done};
}

struct Row {
  std::string name;
  Measurement legacy_m;
  Measurement pooled_m;
  [[nodiscard]] double speedup() const {
    return legacy_m.requests_per_s > 0.0
               ? pooled_m.requests_per_s / legacy_m.requests_per_s
               : 0.0;
  }
};

// Flight-recorder / energy-ledger overhead: one closed-loop CapGPU run
// (the analytic power model skips the sysid sweep) with the feature off vs
// on, under private telemetry instances so reps don't accumulate state.
// The recorder adds a struct copy plus health bookkeeping per control
// period; the energy ledger adds one meter average plus batch-drain
// accounting per period and one struct append per completed batch. The
// guards keep each within the repo's 5% observability budget on a full run.
double run_control_loop_seconds(bool flight_on, bool energy_on = false) {
  telemetry::Context context;
  context.flight().set_enabled(flight_on);
  telemetry::Context::Binding bind(context);
  core::ServerRig rig;
  core::CapGpuController ctl(core::CapGpuConfig{}, rig.device_ranges(),
                             rig.analytic_power_model(), 900_W,
                             rig.latency_models());
  core::RunOptions opt;
  opt.periods = 1200;  // long enough (~75 ms) that scheduler jitter stays
                       // well under the 5% overhead budget being measured
  opt.set_point = 900_W;
  opt.energy_attribution = energy_on;
  const auto t0 = std::chrono::steady_clock::now();
  (void)rig.run(ctl, opt);
  const auto t1 = std::chrono::steady_clock::now();
  context.flight().finish();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct FeatureOverhead {
  double baseline_s{0.0};
  double feature_s{0.0};
  [[nodiscard]] double overhead_frac() const {
    return baseline_s > 0.0 ? feature_s / baseline_s - 1.0 : 0.0;
  }
};

template <typename BaselineRun, typename FeatureRun>
FeatureOverhead measure_overhead(int reps, BaselineRun&& baseline_run,
                                 FeatureRun&& feature_run) {
  // A single control-loop run is ~25 ms, so extra reps are cheap; triple
  // the request to keep the min-of-reps estimate stable against transient
  // machine noise (the gate compares against a 5% budget, and a single
  // slow feature rep in a min-of-3 can fake a budget overrun).
  const int overhead_reps = 3 * reps;
  FeatureOverhead m{1e300, 1e300};
  for (int r = 0; r < overhead_reps; ++r) {
    m.baseline_s = std::min(m.baseline_s, baseline_run());
    m.feature_s = std::min(m.feature_s, feature_run());
  }
  return m;
}

// Reps alternate legacy/pooled so both pipelines sample the same machine
// conditions; best-of keeps the least-perturbed rep of each (noise only
// ever slows a run down).
template <typename LegacyRun, typename PooledRun>
Row measure_pair(const std::string& name, LegacyRun&& legacy_run,
                 PooledRun&& pooled_run, int reps) {
  Row row{name, {}, {}};
  for (int r = 0; r < reps; ++r) {
    const Measurement lm = legacy_run();
    if (lm.requests_per_s > row.legacy_m.requests_per_s) row.legacy_m = lm;
    const Measurement pm = pooled_run();
    if (pm.requests_per_s > row.pooled_m.requests_per_s) row.pooled_m = pm;
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  std::string out_path = "BENCH_pipeline.json";
  int reps = 9;
  try {
    const auto flags = extract_flags(argc, argv, {"out", "reps"});
    if (auto it = flags.find("out"); it != flags.end()) out_path = it->second;
    if (auto it = flags.find("reps"); it != flags.end()) {
      reps = std::stoi(it->second);
      CAPGPU_REQUIRE(reps > 0, "--reps must be positive");
    }
  } catch (const InvalidArgument& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
  bench::print_banner(
      "Pipeline self-perf: pooled SoA requests vs value-passing pipeline",
      "requests/sec through one inference stream");

  std::vector<Row> rows;
  rows.push_back(measure_pair(
      "closed-loop-saturated", [] { return run_closed_loop<true>(); },
      [] { return run_closed_loop<false>(); }, reps));
  rows.push_back(measure_pair(
      "open-loop-load", [] { return run_open_loop<true>(); },
      [] { return run_open_loop<false>(); }, reps));

  telemetry::Table t("requests/sec, best of " + std::to_string(reps));
  t.set_header({"workload", "requests", "legacy req/s", "pooled req/s",
                "speedup"});
  double worst_speedup = 1e9;
  for (const Row& r : rows) {
    t.add_row({r.name, std::to_string(r.pooled_m.requests),
               telemetry::fmt(r.legacy_m.requests_per_s / 1e6, 2) + "M",
               telemetry::fmt(r.pooled_m.requests_per_s / 1e6, 2) + "M",
               telemetry::fmt(r.speedup(), 2) + "x"});
    worst_speedup = std::min(worst_speedup, r.speedup());
  }
  t.print();
  // The pooled pipeline must not fall behind the legacy one anywhere; the
  // 2x open-loop target is reported, not gated.
  const bool speedup_pass = worst_speedup >= 1.0;
  std::printf(
      "\n  worst-case speedup: %.2fx (floor 1.0x, target >= 2.0x on "
      "open-loop): %s\n",
      worst_speedup, speedup_pass ? "PASS" : "FAIL");

  constexpr double kOverheadBudget = 0.05;
  const FeatureOverhead flight = measure_overhead(
      reps, [] { return run_control_loop_seconds(false); },
      [] { return run_control_loop_seconds(true); });
  const bool flight_pass = flight.overhead_frac() <= kOverheadBudget;
  std::printf(
      "  flight recorder: baseline %.3f s, recording %.3f s -> %+.1f%% "
      "(budget %.0f%%): %s\n",
      flight.baseline_s, flight.feature_s, flight.overhead_frac() * 100.0,
      kOverheadBudget * 100.0, flight_pass ? "PASS" : "FAIL");

  const FeatureOverhead energy = measure_overhead(
      reps, [] { return run_control_loop_seconds(false, false); },
      [] { return run_control_loop_seconds(false, true); });
  const bool energy_pass = energy.overhead_frac() <= kOverheadBudget;
  std::printf(
      "  energy ledger:   baseline %.3f s, attributing %.3f s -> %+.1f%% "
      "(budget %.0f%%): %s\n",
      energy.baseline_s, energy.feature_s, energy.overhead_frac() * 100.0,
      kOverheadBudget * 100.0, energy_pass ? "PASS" : "FAIL");

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"pipeline_selfperf\": {\n    \"reps\": " << reps
      << ",\n    \"workloads\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "      {\"name\": \"%s\", \"requests\": %llu, "
                  "\"legacy_requests_per_s\": %.0f, "
                  "\"pooled_requests_per_s\": %.0f, \"speedup\": %.3f}%s\n",
                  r.name.c_str(),
                  static_cast<unsigned long long>(r.pooled_m.requests),
                  r.legacy_m.requests_per_s, r.pooled_m.requests_per_s,
                  r.speedup(), i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  char tail[640];
  std::snprintf(tail, sizeof(tail),
                "    ],\n    \"worst_speedup\": %.3f\n  },\n"
                "  \"flight_overhead\": {\n"
                "    \"baseline_s\": %.6f,\n"
                "    \"flight_s\": %.6f,\n"
                "    \"overhead_frac\": %.4f,\n"
                "    \"budget_frac\": %.2f\n  },\n"
                "  \"energy_overhead\": {\n"
                "    \"baseline_s\": %.6f,\n"
                "    \"energy_s\": %.6f,\n"
                "    \"overhead_frac\": %.4f,\n"
                "    \"budget_frac\": %.2f\n  }\n}\n",
                worst_speedup, flight.baseline_s, flight.feature_s,
                flight.overhead_frac(), kOverheadBudget, energy.baseline_s,
                energy.feature_s, energy.overhead_frac(), kOverheadBudget);
  out << tail;
  std::printf("  [perf] %s\n", out_path.c_str());
  return speedup_pass && flight_pass && energy_pass ? 0 : 1;
}
