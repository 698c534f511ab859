// Control-solve self-perf: the analytic fast path vs the plain dense
// active-set solver, measured in control periods solved per wall-clock
// second across paper-sized through fleet-sized horizons.
//
// Two modes run the same closed-loop regime (cap reachable mid-range,
// measurement noise keeping the error alive, so every period is a genuine
// interior solve):
//   base — qp_fast_path off: every period runs the dense active-set
//          iteration (two KKT factorisations).
//   fast — the default controller: persistent-factorisation analytic step,
//          certify-or-fallback, bitwise equal to base.
//
// A railed phase per shape runs the default controller against a cap at
// half the all-floor draw and one at twice the all-ceiling draw (the
// cap-unreachable regime) and counts QP convergence and iterations.
//
// Shape checks (PASS/FAIL, build-independent): fast is bit-identical to
// base on every lockstep period and hits >= 90% of interior periods, every
// railed period converges, the constrained sweep forces fallback without
// changing bits, and the fleet-sized P=32 config shows >= 2x fast-tier
// speedup (both sides share the build, so the asymptotic advantage holds
// in Debug too). Results
// append to a JSON report (default BENCH_control.json, override with
// --out <path>) which scripts/run_perf.sh merges into BENCH_perf.json;
// docs/performance.md describes the format.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "control/mpc.hpp"
#include "control/power_model.hpp"
#include "telemetry/table.hpp"

using namespace capgpu;
using control::DeviceRange;
using control::LinearPowerModel;
using control::MpcConfig;
using control::MpcController;
using control::MpcDecision;

namespace {

struct BenchShape {
  const char* name;
  std::size_t devices;
  std::size_t m;  // control horizon
  std::size_t p;  // prediction horizon
};

// Paper size first, then fleet-representative shapes (dim = devices * M
// decision variables).
constexpr BenchShape kShapes[] = {
    {"paper", 4, 2, 8},        // dim 8, the testbed configuration
    {"p32", 4, 2, 32},         // long horizon, small fleet
    {"p32-rack", 8, 4, 32},    // dim 32
    {"p32-fleet", 16, 4, 32},  // dim 64, the acceptance gate
    {"p64-fleet", 16, 8, 64},  // dim 128
};

enum class Mode { kBase, kFast };

std::vector<DeviceRange> make_devices(std::size_t n) {
  return std::vector<DeviceRange>(n,
                                  DeviceRange{DeviceKind::kGpu, 800.0, 1900.0});
}

LinearPowerModel make_plant(std::size_t n) {
  std::vector<double> gains(n);
  for (std::size_t j = 0; j < n; ++j)
    gains[j] = 0.08 + 0.01 * static_cast<double>(j % 7);
  return LinearPowerModel(gains, 300.0);
}

// Cap reachable mid-range: interior steady state for every shape.
Watts interior_cap(const LinearPowerModel& plant, std::size_t n) {
  std::vector<double> mid(n, 1350.0);
  return plant.predict(mid);
}

MpcConfig make_config(const BenchShape& s, Mode mode) {
  MpcConfig cfg;
  cfg.prediction_horizon = s.p;
  cfg.control_horizon = s.m;
  cfg.qp_fast_path = mode == Mode::kFast;
  return cfg;
}

struct LockstepResult {
  bool fast_bitwise{true};
  double fast_hit_rate{0.0};
};

// Drives both controllers from the base controller's trajectory with
// measurement noise, so per-period disagreement is exactly the fast
// path's doing. Fast must match base bit for bit.
LockstepResult run_lockstep(const BenchShape& s, int periods) {
  const auto devices = make_devices(s.devices);
  const LinearPowerModel plant = make_plant(s.devices);
  const Watts cap = interior_cap(plant, s.devices);
  MpcController base(make_config(s, Mode::kBase), devices, plant, cap);
  MpcController fast(make_config(s, Mode::kFast), devices, plant, cap);
  Rng noise(1234);
  std::vector<double> f(s.devices, 1000.0);
  LockstepResult res;
  std::size_t fast_hits = 0;
  for (int k = 0; k < periods; ++k) {
    const Watts power{plant.predict(f).value + noise.uniform(-15.0, 15.0)};
    const MpcDecision& b = base.step(power, f);
    const std::vector<double> targets = b.target_freqs_mhz;
    const MpcDecision& ft = fast.step(power, f);
    if (ft.fast_path_hit) ++fast_hits;
    for (std::size_t j = 0; j < s.devices; ++j) {
      if (ft.target_freqs_mhz[j] != targets[j]) res.fast_bitwise = false;
    }
    f = targets;
  }
  res.fast_hit_rate =
      static_cast<double>(fast_hits) / static_cast<double>(periods);
  return res;
}

// Constrained sweep: frequency floors near f_max with the cap far below
// the floor power — every period rails, the fast path may not certify, and
// the commands must stay bit-identical to the plain solver.
bool run_constrained_sweep() {
  const BenchShape s{"constrained", 4, 2, 8};
  const auto devices = make_devices(s.devices);
  const LinearPowerModel plant = make_plant(s.devices);
  const Watts cap{600.0};  // floor power ~300 + 0.38*1880 >> 600
  MpcController base(make_config(s, Mode::kBase), devices, plant, cap);
  MpcController fast(make_config(s, Mode::kFast), devices, plant, cap);
  for (std::size_t j = 0; j < s.devices; ++j) {
    if (!base.set_min_frequency_override(j, 1880.0)) return false;
    if (!fast.set_min_frequency_override(j, 1880.0)) return false;
  }
  Rng noise(77);
  std::vector<double> f(s.devices, 1900.0);
  bool ok = true;
  for (int k = 0; k < 60; ++k) {
    const Watts power{plant.predict(f).value + noise.uniform(-15.0, 15.0)};
    const MpcDecision& b = base.step(power, f);
    const std::vector<double> targets = b.target_freqs_mhz;
    const MpcDecision& ft = fast.step(power, f);
    if (ft.fast_path_hit) ok = false;
    for (std::size_t j = 0; j < s.devices; ++j) {
      if (ft.target_freqs_mhz[j] != targets[j]) ok = false;
    }
    f = targets;
  }
  return ok;
}

struct RailedResult {
  std::size_t periods{0};
  std::size_t converged{0};
  std::size_t iterations{0};
  [[nodiscard]] double converged_frac() const {
    return periods > 0 ? static_cast<double>(converged) /
                             static_cast<double>(periods)
                       : 0.0;
  }
  [[nodiscard]] double iters_per_step() const {
    return periods > 0 ? static_cast<double>(iterations) /
                             static_cast<double>(periods)
                       : 0.0;
  }
};

// Cap-unreachable regime (paper Sec 4.4): the default controller against a
// cap at half the all-floor draw, then at twice the all-ceiling draw. The
// clocks rail at their floors, then at their ceilings, and every railed
// period's optimum is the start vertex with large multipliers on the rows
// that hold it — the solves that used to run out their iteration budget.
RailedResult run_railed(const BenchShape& s, int periods) {
  const auto devices = make_devices(s.devices);
  const LinearPowerModel plant = make_plant(s.devices);
  const double floor_w =
      plant.predict(std::vector<double>(s.devices, devices[0].f_min_mhz)).value;
  const double ceiling_w =
      plant.predict(std::vector<double>(s.devices, devices[0].f_max_mhz)).value;
  RailedResult res;
  Rng noise(4242);
  for (const Watts cap : {Watts{0.5 * floor_w}, Watts{2.0 * ceiling_w}}) {
    MpcController ctl(make_config(s, Mode::kFast), devices, plant, cap);
    std::vector<double> f(s.devices, 1350.0);
    for (int k = 0; k < periods; ++k) {
      const Watts power{plant.predict(f).value + noise.uniform(-15.0, 15.0)};
      const MpcDecision& d = ctl.step(power, f);
      ++res.periods;
      if (d.qp_converged) ++res.converged;
      res.iterations += d.qp_iterations;
      f = d.target_freqs_mhz;
    }
  }
  return res;
}

// One timed closed-loop run: `steps` control periods through a persistent
// controller (warm buffers, persistent factorisations — the steady state
// the tiers are built for). Returns periods per second.
double run_timed(const BenchShape& s, Mode mode, int steps) {
  const auto devices = make_devices(s.devices);
  const LinearPowerModel plant = make_plant(s.devices);
  const Watts cap = interior_cap(plant, s.devices);
  MpcController ctl(make_config(s, mode), devices, plant, cap);
  Rng noise(999);
  std::vector<double> f(s.devices, 1000.0);
  // Warm-up period: first-step allocations and factorisations are not the
  // steady state being measured.
  f = ctl.step(plant.predict(f), f).target_freqs_mhz;
  double sink = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int k = 0; k < steps; ++k) {
    const Watts power{plant.predict(f).value + noise.uniform(-15.0, 15.0)};
    const MpcDecision& d = ctl.step(power, f);
    sink += d.deltas_mhz[0];
    f = d.target_freqs_mhz;
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (sink == 12345.678) std::fprintf(stderr, "?");  // keep the loop live
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return secs > 0.0 ? static_cast<double>(steps) / secs : 0.0;
}

struct Row {
  const BenchShape* shape{nullptr};
  double base_sps{0.0};
  double fast_sps{0.0};
  LockstepResult lockstep;
  RailedResult railed;
  [[nodiscard]] double fast_speedup() const {
    return base_sps > 0.0 ? fast_sps / base_sps : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  std::string out_path = "BENCH_control.json";
  int reps = 7;
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
      "Control self-perf: analytic fast path vs dense active-set solve",
      "control periods solved per second, paper (N=4, M=2, P=8) to fleet "
      "sizes");

  const int kTimedSteps = 400;
  std::vector<Row> rows;
  for (const BenchShape& s : kShapes) {
    Row row;
    row.shape = &s;
    row.lockstep = run_lockstep(s, 300);
    row.railed = run_railed(s, 60);
    // Reps alternate the two modes so they sample the same machine
    // conditions; best-of keeps the least-perturbed rep (noise only ever
    // slows a run down).
    for (int r = 0; r < reps; ++r) {
      row.base_sps = std::max(row.base_sps, run_timed(s, Mode::kBase,
                                                      kTimedSteps));
      row.fast_sps = std::max(row.fast_sps, run_timed(s, Mode::kFast,
                                                      kTimedSteps));
    }
    rows.push_back(row);
  }

  telemetry::Table t("periods/sec, best of " + std::to_string(reps) +
                     " (dim = devices x M)");
  t.set_header({"config", "dim", "base/s", "fast/s", "fast x", "hit fast",
                "railed conv", "railed it"});
  for (const Row& r : rows) {
    t.add_row({r.shape->name,
               std::to_string(r.shape->devices * r.shape->m),
               telemetry::fmt(r.base_sps / 1e3, 1) + "k",
               telemetry::fmt(r.fast_sps / 1e3, 1) + "k",
               telemetry::fmt(r.fast_speedup(), 2) + "x",
               telemetry::fmt(r.lockstep.fast_hit_rate, 2),
               telemetry::fmt(r.railed.converged_frac(), 2),
               telemetry::fmt(r.railed.iters_per_step(), 1)});
  }
  t.print();

  // Shape checks: correctness and tier engagement are build-independent;
  // the one speedup gate compares two runs of the same build, so the
  // structural advantage (one back-solve vs two cubic factorisations)
  // carries it in Debug as well.
  bool all_ok = true;
  double worst_fast_speedup = 1e300;
  double p32_fleet_speedup = 0.0;
  RailedResult railed_all;  // pooled over every shape
  for (const Row& r : rows) {
    worst_fast_speedup = std::min(worst_fast_speedup, r.fast_speedup());
    if (std::string(r.shape->name) == "p32-fleet") {
      p32_fleet_speedup = r.fast_speedup();
    }
    const bool bitwise = r.lockstep.fast_bitwise;
    const bool hits = r.lockstep.fast_hit_rate >= 0.9;
    std::printf("  [%s] %s: fast bitwise-identical to base\n",
                bitwise ? "PASS" : "FAIL", r.shape->name);
    std::printf("  [%s] %s: interior fast hit rate %.2f (target >= 0.90)\n",
                hits ? "PASS" : "FAIL", r.shape->name,
                r.lockstep.fast_hit_rate);
    const bool railed = r.railed.converged_frac() == 1.0;
    std::printf(
        "  [%s] %s: railed periods converge (%.2f, %.1f iterations/step)\n",
        railed ? "PASS" : "FAIL", r.shape->name, r.railed.converged_frac(),
        r.railed.iters_per_step());
    all_ok = all_ok && bitwise && hits && railed;
    railed_all.periods += r.railed.periods;
    railed_all.converged += r.railed.converged;
    railed_all.iterations += r.railed.iterations;
  }
  const bool constrained_ok = run_constrained_sweep();
  std::printf(
      "  [%s] constrained sweep: fast path falls back, commands "
      "bit-identical\n",
      constrained_ok ? "PASS" : "FAIL");
  const bool fleet_ok = p32_fleet_speedup >= 2.0;
  std::printf("  [%s] p32-fleet fast-tier speedup %.2fx (target >= 2.0x)\n",
              fleet_ok ? "PASS" : "FAIL", p32_fleet_speedup);
  all_ok = all_ok && constrained_ok && fleet_ok;

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"control_selfperf\": {\n    \"reps\": " << reps
      << ",\n    \"configs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "      {\"name\": \"%s\", \"devices\": %zu, "
        "\"control_horizon\": %zu, \"prediction_horizon\": %zu, "
        "\"dim\": %zu, \"base_steps_per_s\": %.0f, "
        "\"fast_steps_per_s\": %.0f, \"fast_speedup\": %.3f, "
        "\"fast_hit_rate\": %.3f, "
        "\"railed_converged_frac\": %.6f, \"railed_iters_per_step\": %.3f}"
        "%s\n",
        r.shape->name, r.shape->devices, r.shape->m, r.shape->p,
        r.shape->devices * r.shape->m, r.base_sps, r.fast_sps,
        r.fast_speedup(), r.lockstep.fast_hit_rate,
        r.railed.converged_frac(), r.railed.iters_per_step(),
        i + 1 < std::size(rows) ? "," : "");
    out << buf;
  }
  char tail[256];
  std::snprintf(tail, sizeof(tail),
                "    ],\n    \"worst_speedup\": %.3f,\n"
                "    \"p32_fleet_speedup\": %.3f,\n"
                "    \"railed_converged_frac\": %.6f,\n"
                "    \"railed_iters_per_step\": %.3f\n  }\n}\n",
                worst_fast_speedup, p32_fleet_speedup,
                railed_all.converged_frac(), railed_all.iters_per_step());
  out << tail;
  std::printf("  [perf] %s\n", out_path.c_str());
  return all_ok ? 0 : 1;
}
