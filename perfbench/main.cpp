// End-to-end benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>]
//
// Untraced (--trace 0): after an untimed warm-up repetition, repeats
// set-up and one timed repetition of the workload until --seconds have
// passed and reports the end-to-end metrics: medians of the host-time ones,
// the simulated ones from the warm-up (every repetition must reproduce them
// bit for bit).
//
// Traced (--trace 1): alternates untraced and traced repetitions for
// --seconds, then runs the workload's traced-only reruns, and reports the
// per-layer metrics plus trace_overhead_frac. Spans go to --spans-out.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/metric_names.hpp"
#include "telemetry/metrics.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Clock;
using perfbench::seconds_between;
using perfbench::SimOutcome;
using perfbench::Trace;
namespace metric = capgpu::telemetry::metric;

/// Set-ups timed per repetition, at least kSetupRepeats and until they add
/// up to kSetupSeconds (tiny set-ups get many samples); setup_s is the
/// median of all of them.
constexpr std::size_t kSetupRepeats = 5;
constexpr double kSetupSeconds = 0.02;

struct Args {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0.0};
  bool trace{false};
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <path>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + key);
    if (!flags.emplace(key.substr(2), argv[i + 1]).second) {
      usage("duplicate flag " + key);
    }
  }
  Args a;
  try {
    for (const auto& [key, value] : flags) {
      std::size_t used = 0;
      if (key == "workload") {
        a.workload = value;
      } else if (key == "seed") {
        a.seed = std::stoull(value, &used);
      } else if (key == "seconds") {
        a.seconds = std::stod(value, &used);
      } else if (key == "trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (key == "spans-out") {
        a.spans_out = value;
      } else {
        usage("unknown flag --" + key);
      }
      if (used != 0 && used != value.size()) usage("bad value for --" + key);
    }
  } catch (const std::logic_error&) {
    usage("bad numeric value");
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Host speed probe. On a shared VM, machine speed drifts by up to ~1.5x
/// in phases lasting from seconds to minutes, and neither a run's median
/// nor back-to-back repetition cancels a phase that spans the whole run.
/// Every timed section is therefore bracketed by this fixed work, which
/// shares no code with the library: binary-heap operations (branchy, like
/// the event queue) and a small dense matrix product (floating-point bound,
/// like the QP), about equal in time. Returns its host seconds.
double probe_work_s() {
  const Clock::time_point t0 = Clock::now();
  std::vector<double> heap;
  heap.reserve(8192);
  std::uint64_t x = 88172645463325252ULL;
  double acc = 0.0;
  for (int i = 0; i < 200000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.push_back(static_cast<double>(x >> 11) * 0x1.0p-53 + acc * 1e-12);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    if (heap.size() > 4096) {
      acc += std::sqrt(heap.front() + 1.0);
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      heap.pop_back();
    }
  }
  constexpr int n = 40;
  std::vector<double> a(n * n);
  std::vector<double> b(n * n);
  std::vector<double> c(n * n, 0.0);
  for (int i = 0; i < n * n; ++i) {
    a[i] = 1.0 + (i % 7) * 0.01 + acc * 1e-15;
    b[i] = 1.0 - (i % 5) * 0.01;
  }
  for (int rep = 0; rep < 800; ++rep) {
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < n; ++k) {
        const double aik = a[i * n + k];
        for (int j = 0; j < n; ++j) c[i * n + j] += aik * b[k * n + j];
      }
    }
    a[rep % (n * n)] += c[(rep * 7) % (n * n)] * 1e-12;
  }
  volatile double sink = c[5];
  (void)sink;
  return seconds_between(t0, Clock::now());
}

/// The probe on as many threads as the workload runs (the fleet's workers
/// occupy two CPUs): the mean of the threads' probe seconds.
double probe_s(std::size_t threads) {
  std::vector<double> secs(threads, 0.0);
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) {
    pool.emplace_back([&secs, t] { secs[t] = probe_work_s(); });
  }
  secs[0] = probe_work_s();
  for (std::thread& th : pool) th.join();
  double sum = 0.0;
  for (double x : secs) sum += x;
  return sum / static_cast<double>(threads);
}

/// Probe seconds on the reference machine in its fast phase. Host times
/// are reported at that speed.
constexpr double kProbeRefS = 0.0190;

/// Host speed relative to the reference during a section bracketed by
/// probes taking `before` and `after` seconds, raised to `exponent` (how
/// closely the section follows the probe). A section's host seconds times
/// this are its seconds at the reference speed.
double speed_of(double before, double after, double exponent) {
  return std::pow(kProbeRefS / (0.5 * (before + after)), exponent);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Sum over every series of a counter family in the global registry.
double counter_total(const char* name) {
  double sum = 0.0;
  for (const auto* family :
       capgpu::telemetry::MetricsRegistry::global().families()) {
    if (family->name != name) continue;
    for (const auto& [key, inst] : family->series) {
      (void)key;
      sum += inst->counter.value();
    }
  }
  return sum;
}

/// Registry counters the traced run differences around each repetition.
constexpr const char* kCounters[] = {
    metric::kImagesCompleted, metric::kHalClockCommands,
    metric::kRackRebalances,  metric::kRackHealthTransitions,
    metric::kFaultInjections, metric::kFleetCascades};
constexpr std::size_t kCounterCount = std::size(kCounters);

std::vector<double> read_counters() {
  std::vector<double> out;
  for (const char* name : kCounters) out.push_back(counter_total(name));
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  SimOutcome ops;  ///< read for its operation tallies and failure lines
};

/// Tallies a repetition after the warm-up: its operations, plus one more
/// that it reproduced the warm-up bit for bit. Its failure lines would
/// repeat the warm-up's, so only the tallies are kept.
void count_repeat(const SimOutcome& rep, const SimOutcome& first,
                  const char* what, SimOutcome& ops) {
  ops.attempted += rep.attempted;
  ops.failed += rep.failed;
  ops.check(rep == first, what);
}

void add_sim_metrics(const SimOutcome& sim, Report& r) {
  r.metrics.push_back({"cap_err_w", sim.cap_err_w(), "W"});
  r.metrics.push_back({"sim_images_per_s", sim.sim_images_per_s(), "img/s"});
  r.metrics.push_back({"joules_per_image", sim.joules_per_image(), "J"});
}

/// One repetition timed between two probes: its outcome, its rig-periods
/// per host second (raw) and per reference-speed second. `probe` carries
/// the previous probe reading in and this one's out, so back-to-back
/// repetitions can share a probe.
struct TimedRep {
  SimOutcome sim;
  double rate;
  double raw_rate;
  double speed;  ///< host speed relative to the reference
};

TimedRep timed_rep(perfbench::Workload& w, Trace* trace, double& probe) {
  const Clock::time_point t0 = Clock::now();
  TimedRep rep{w.run(trace), 0.0, 0.0, 0.0};
  const double wall = seconds_between(t0, Clock::now());
  const double after = probe_s(w.threads());
  rep.speed = speed_of(probe, after, w.probe_exponent());
  probe = after;
  rep.raw_rate = rep.sim.rig_periods / wall;
  rep.rate = rep.raw_rate / rep.speed;
  return rep;
}

Report run_untraced(perfbench::Workload& w, double seconds) {
  std::vector<double> setups;
  std::vector<double> rates;
  std::vector<double> raw_rates;
  std::vector<double> speeds;
  Report r;
  // An untimed warm-up: the first repetition pays heap growth and
  // first-touch page faults that later ones reuse, and the first probe
  // pays its own thread start-up.
  w.setup();
  const SimOutcome first = w.run(nullptr);
  r.ops.merge(first);
  (void)probe_s(w.threads());
  const Clock::time_point start = Clock::now();
  do {
    // Set-up is small single-threaded work, like the probe itself, so it is
    // bracketed by one-thread probes and scaled at exponent 1 whatever the
    // workload's threads and exponent (on the fleet, the two-thread probe
    // left its set-up times spread three times wider).
    const double setup_before = probe_s(1);
    std::vector<double> rep_setups;
    double setup_total = 0.0;
    while (rep_setups.size() < kSetupRepeats || setup_total < kSetupSeconds) {
      const Clock::time_point t0 = Clock::now();
      w.setup();
      rep_setups.push_back(seconds_between(t0, Clock::now()));
      setup_total += rep_setups.back();
    }
    const double setup_after = probe_s(1);
    const double setup_speed = speed_of(setup_before, setup_after, 1.0);
    for (double s : rep_setups) setups.push_back(s * setup_speed);
    double probe = w.threads() == 1 ? setup_after : probe_s(w.threads());
    const TimedRep rep = timed_rep(w, nullptr, probe);
    rates.push_back(rep.rate);
    raw_rates.push_back(rep.raw_rate);
    speeds.push_back(rep.speed);
    count_repeat(rep.sim, first, "repetition differs from the warm-up",
                 r.ops);
  } while (seconds_between(start, Clock::now()) < seconds);

  std::printf("untraced: %zu repetitions in %.2f s\n", rates.size(),
              seconds_between(start, Clock::now()));
  std::printf("  per rep: raw rig-periods/s, host speed vs reference\n");
  for (std::size_t i = 0; i < rates.size(); ++i) {
    std::printf("    %10.1f  %6.3f\n", raw_rates[i], speeds[i]);
  }
  std::printf("  raw median %.1f rig-periods/s at median speed %.3f\n",
              median(raw_rates), median(speeds));

  r.metrics.push_back({"rig_periods_per_s", median(rates), "1/s"});
  r.metrics.push_back({"setup_s", median(setups), "s"});
  r.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  add_sim_metrics(first, r);
  return r;
}

Report run_traced(perfbench::Workload& w, double seconds,
                  const std::string& spans_out) {
  Trace trace;
  std::vector<double> traced_rates;
  std::vector<double> pair_ratios;  ///< untraced / traced rate, per pair
  std::vector<double> raw_rates;
  std::vector<double> speeds;
  std::vector<double> deltas(kCounterCount, 0.0);
  SimOutcome traced_sim;  ///< quantities summed over traced repetitions
  Report r;

  {
    perfbench::ScopedSpan span(&trace, "setup");
    w.setup();
  }
  // Untimed warm-up, as in run_untraced.
  const SimOutcome first = w.run(nullptr);
  r.ops.merge(first);
  (void)probe_s(w.threads());
  const Clock::time_point start = Clock::now();
  double probe = probe_s(w.threads());
  do {
    const TimedRep plain = timed_rep(w, nullptr, probe);
    raw_rates.push_back(plain.raw_rate);
    speeds.push_back(plain.speed);
    count_repeat(plain.sim, first,
                 "untraced repetition differs from the warm-up", r.ops);

    const std::vector<double> before = read_counters();
    const TimedRep traced = timed_rep(w, &trace, probe);
    const std::vector<double> after = read_counters();
    traced_rates.push_back(traced.rate);
    pair_ratios.push_back(plain.rate / traced.rate);
    speeds.push_back(traced.speed);
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      deltas[i] += after[i] - before[i];
    }
    traced_sim.merge(traced.sim);
    count_repeat(traced.sim, first,
                 "traced repetition differs from the untraced warm-up", r.ops);
  } while (seconds_between(start, Clock::now()) < seconds);
  w.trace_extras(trace, first, r.ops);

  const double reps = static_cast<double>(traced_rates.size());
  const perfbench::LayerCounts& c = trace.counts();
  const double run_s = trace.total("core.run");
  const double control_s = trace.total("control.step");
  const std::vector<double> steps = trace.durations("control.step");
  const double map_s = trace.total("runner.map");
  // The fleet's figures come from its interleaved reruns only, so each
  // ratio compares runs made in the same machine phase.
  const double full_s = median(trace.durations("fleet.campaign_2worker"));
  const double short_s = median(trace.durations("fleet.campaign_short"));
  const double one_worker_s =
      median(trace.durations("fleet.campaign_1worker"));
  const double serial_s = median(trace.durations("fleet.serial_reference"));
  const double epoch_s =
      ratio(full_s - short_s, c.fleet_full_epochs - c.fleet_short_epochs);

  auto& m = r.metrics;
  m.push_back({"sim.events_per_period", ratio(c.events, c.periods), "count"});
  m.push_back({"sim.events_per_s", ratio(c.events, run_s), "1/s"});
  m.push_back({"core.rig_build_ms",
               1e3 * ratio(trace.total("core.rig_build"),
                           static_cast<double>(
                               trace.durations("core.rig_build").size())),
               "ms"});
  m.push_back({"core.plant_us_per_period",
               1e6 * ratio(run_s - control_s, c.periods), "us"});
  m.push_back({"workload.images_per_period",
               ratio(deltas[0], traced_sim.rig_periods), "count"});
  m.push_back({"workload.monitor_live_samples",
               ratio(c.monitor_live_samples, c.rig_runs), "count"});
  m.push_back({"workload.slo_miss_frac",
               ratio(traced_sim.slo_missed, traced_sim.slo_checked), "ratio"});
  m.push_back({"control.step_us_p50", 1e6 * percentile(steps, 0.5), "us"});
  m.push_back({"control.step_us_p99", 1e6 * percentile(steps, 0.99), "us"});
  m.push_back({"control.step_samples", static_cast<double>(steps.size()),
               "count"});
  m.push_back({"control.time_frac", ratio(control_s, run_s), "ratio"});
  m.push_back({"control.qp_iters_per_step",
               ratio(c.qp_iterations, c.capgpu_steps), "count"});
  m.push_back({"control.qp_nonconverged_frac",
               ratio(c.qp_nonconverged, c.capgpu_steps), "ratio"});
  m.push_back({"control.fast_path_frac",
               ratio(c.fast_path_hits, c.capgpu_steps), "ratio"});
  m.push_back({"hal.clock_commands_per_period",
               ratio(deltas[1], traced_sim.rig_periods), "count"});
  m.push_back({"runner.overhead_frac",
               ratio(map_s - trace.total("runner.scenario"), map_s), "ratio"});
  m.push_back({"telemetry.series",
               static_cast<double>(capgpu::telemetry::MetricsRegistry::global()
                                       .series_count()),
               "count"});
  m.push_back({"fleet.build_s",
               epoch_s > 0.0 ? full_s - c.fleet_full_epochs * epoch_s : 0.0,
               "s"});
  m.push_back({"fleet.epoch_ms", 1e3 * epoch_s, "ms"});
  m.push_back({"fleet.parallel_speedup", ratio(one_worker_s, full_s), "ratio"});
  m.push_back({"fleet.scope_overhead_frac",
               serial_s > 0.0 ? one_worker_s / serial_s - 1.0 : 0.0, "ratio"});
  m.push_back({"rack.rebalances", ratio(deltas[2], reps), "count"});
  m.push_back({"rack.health_transitions", ratio(deltas[3], reps), "count"});
  m.push_back({"faults.injections", ratio(deltas[4], reps), "count"});
  m.push_back({"fleet.cascades", ratio(deltas[5], reps), "count"});
  // Each traced repetition against the untraced one just before it.
  m.push_back({"trace_overhead_frac", median(pair_ratios) - 1.0, "ratio"});
  m.push_back({"host.raw_rig_periods_per_s", median(raw_rates), "1/s"});
  m.push_back({"host.speed_factor", median(speeds), "ratio"});

  std::printf("traced: %zu untraced + %zu traced repetitions\n",
              raw_rates.size(), traced_rates.size());
  std::printf("self time by span (s):\n");
  for (const auto& [name, self] : trace.self_seconds()) {
    std::printf("  %-26s %10.4f\n", name.c_str(), self);
  }
  if (!spans_out.empty()) {
    trace.write_jsonl(spans_out);
    std::printf("spans: %s (%zu)\n", spans_out.c_str(), trace.spans().size());
  }
  return r;
}

void print_result(const Report& r) {
  for (const std::string& f : r.ops.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  bool finite = true;
  for (const Metric& m : r.metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    finite &= std::isfinite(m.value);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              r.ops.failed == 0 && finite ? "true" : "false", r.ops.attempted,
              r.ops.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::unique_ptr<perfbench::Workload> w;
  try {
    w = perfbench::make_workload(args.workload, args.seed);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  try {
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    const Report r = args.trace ? run_traced(*w, args.seconds, args.spans_out)
                                : run_untraced(*w, args.seconds);
    print_result(r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
