// Control-solve self-perf: MPC control periods solved per wall-clock second
// across paper-sized through fleet-sized horizons, in two regimes:
//   interior — cap reachable mid-range, measurement noise keeping the error
//              alive, so every period is a genuine solve whose optimum
//              mostly lies inside the frequency box;
//   railed   — cap at half the all-floor draw, then at twice the
//              all-ceiling draw (the cap-unreachable regime of paper
//              Sec 4.4): the clocks rail, and every period's optimum is a
//              vertex held by one active row per decision variable.
//
// Shape checks (PASS/FAIL, build-independent): every period of every phase
// converges and passes the QP's KKT certificate (control::certify: primal
// feasibility, stationarity, multiplier signs, complementarity). Results
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
    {"p32-fleet", 16, 4, 32},  // dim 64
    {"p64-fleet", 16, 8, 64},  // dim 128
};

enum class Regime { kInterior, kRailed };

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

/// The caps a regime runs against, one controller each.
std::vector<Watts> caps_for(Regime regime, const LinearPowerModel& plant,
                            const std::vector<DeviceRange>& devices) {
  const std::size_t n = devices.size();
  if (regime == Regime::kInterior) {
    return {plant.predict(std::vector<double>(n, 1350.0))};
  }
  const double floor_w =
      plant.predict(std::vector<double>(n, devices[0].f_min_mhz)).value;
  const double ceiling_w =
      plant.predict(std::vector<double>(n, devices[0].f_max_mhz)).value;
  return {Watts{0.5 * floor_w}, Watts{2.0 * ceiling_w}};
}

struct PhaseStats {
  std::size_t periods{0};
  std::size_t converged{0};
  std::size_t certified{0};
  std::size_t iterations{0};
  std::size_t fast{0};
  [[nodiscard]] double frac(std::size_t count) const {
    return periods > 0 ? static_cast<double>(count) /
                             static_cast<double>(periods)
                       : 0.0;
  }
  [[nodiscard]] bool all_certified() const {
    return periods > 0 && converged == periods && certified == periods;
  }
};

/// Drives `periods` closed-loop control periods per cap of `regime`, each
/// cap through one persistent controller, and returns periods per second of
/// wall time. The first period per cap (buffer sizing) is untimed. With
/// `stats`, every period's solve is also checked against the certificate,
/// and the rate then includes that cost.
double drive(const BenchShape& s, Regime regime, int periods,
             PhaseStats* stats) {
  const auto devices = make_devices(s.devices);
  const LinearPowerModel plant = make_plant(s.devices);
  MpcConfig cfg;
  cfg.prediction_horizon = s.p;
  cfg.control_horizon = s.m;
  Rng noise(regime == Regime::kInterior ? 999 : 4242);
  double secs = 0.0;
  double sink = 0.0;
  std::size_t timed = 0;
  for (const Watts cap : caps_for(regime, plant, devices)) {
    MpcController ctl(cfg, devices, plant, cap);
    std::vector<double> f(s.devices, regime == Regime::kInterior ? 1000.0
                                                                 : 1350.0);
    f = ctl.step(plant.predict(f), f).target_freqs_mhz;
    const auto t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < periods; ++k) {
      const Watts power{plant.predict(f).value + noise.uniform(-15.0, 15.0)};
      const MpcDecision& d = ctl.step(power, f);
      sink += d.deltas_mhz[0];
      f = d.target_freqs_mhz;
      if (stats == nullptr) continue;
      ++stats->periods;
      if (d.qp_converged) ++stats->converged;
      if (d.fast_path_hit) ++stats->fast;
      stats->iterations += d.qp_iterations;
      const control::QpWorkspace& ws = ctl.last_solve();
      if (control::certify(ctl.last_qp(), ws.x(), ws.multipliers()).holds()) {
        ++stats->certified;
      }
    }
    secs += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
    timed += static_cast<std::size_t>(periods);
  }
  if (sink == 12345.678) std::fprintf(stderr, "?");  // keep the loop live
  return secs > 0.0 ? static_cast<double>(timed) / secs : 0.0;
}

struct Row {
  const BenchShape* shape{nullptr};
  double interior_sps{0.0};
  double railed_sps{0.0};
  PhaseStats interior;
  PhaseStats railed;
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
      "Control self-perf: MPC periods solved per second, interior and railed",
      "Goldfarb-Idnani dual QP, paper (N=4, M=2, P=8) to fleet sizes; every "
      "period KKT-certified");

  const int kCheckedPeriods = 300;
  const int kTimedSteps = 400;
  std::vector<Row> rows;
  for (const BenchShape& s : kShapes) {
    Row row;
    row.shape = &s;
    (void)drive(s, Regime::kInterior, kCheckedPeriods, &row.interior);
    (void)drive(s, Regime::kRailed, kCheckedPeriods / 2, &row.railed);
    // Reps alternate the two regimes so they sample the same machine
    // conditions; best-of keeps the least-perturbed rep (noise only ever
    // slows a run down).
    for (int r = 0; r < reps; ++r) {
      row.interior_sps = std::max(
          row.interior_sps, drive(s, Regime::kInterior, kTimedSteps, nullptr));
      row.railed_sps = std::max(
          row.railed_sps, drive(s, Regime::kRailed, kTimedSteps / 2, nullptr));
    }
    rows.push_back(row);
  }

  telemetry::Table t("periods/sec, best of " + std::to_string(reps) +
                     " (dim = devices x M)");
  t.set_header({"config", "dim", "interior/s", "railed/s", "fast frac",
                "interior it", "railed conv", "railed it"});
  for (const Row& r : rows) {
    t.add_row({r.shape->name, std::to_string(r.shape->devices * r.shape->m),
               telemetry::fmt(r.interior_sps / 1e3, 1) + "k",
               telemetry::fmt(r.railed_sps / 1e3, 1) + "k",
               telemetry::fmt(r.interior.frac(r.interior.fast), 2),
               telemetry::fmt(r.interior.frac(r.interior.iterations), 1),
               telemetry::fmt(r.railed.frac(r.railed.converged), 2),
               telemetry::fmt(r.railed.frac(r.railed.iterations), 1)});
  }
  t.print();

  bool all_ok = true;
  PhaseStats railed_all;  // pooled over every shape
  for (const Row& r : rows) {
    const bool certified = r.interior.all_certified() &&
                           r.railed.all_certified();
    std::printf(
        "  [%s] %s: every period converges and passes the KKT certificate "
        "(interior %zu/%zu, railed %zu/%zu)\n",
        certified ? "PASS" : "FAIL", r.shape->name, r.interior.certified,
        r.interior.periods, r.railed.certified, r.railed.periods);
    all_ok = all_ok && certified;
    railed_all.periods += r.railed.periods;
    railed_all.converged += r.railed.converged;
    railed_all.iterations += r.railed.iterations;
  }

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
        "\"dim\": %zu, \"interior_steps_per_s\": %.0f, "
        "\"railed_steps_per_s\": %.0f, \"interior_fast_frac\": %.3f, "
        "\"interior_iters_per_step\": %.3f, "
        "\"railed_converged_frac\": %.6f, \"railed_iters_per_step\": %.3f, "
        "\"kkt_certified\": %s}%s\n",
        r.shape->name, r.shape->devices, r.shape->m, r.shape->p,
        r.shape->devices * r.shape->m, r.interior_sps, r.railed_sps,
        r.interior.frac(r.interior.fast),
        r.interior.frac(r.interior.iterations),
        r.railed.frac(r.railed.converged), r.railed.frac(r.railed.iterations),
        r.interior.all_certified() && r.railed.all_certified() ? "true"
                                                               : "false",
        i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  char tail[256];
  std::snprintf(tail, sizeof(tail),
                "    ],\n    \"railed_converged_frac\": %.6f,\n"
                "    \"railed_iters_per_step\": %.3f\n  }\n}\n",
                railed_all.frac(railed_all.converged),
                railed_all.frac(railed_all.iterations));
  out << tail;
  std::printf("  [perf] %s\n", out_path.c_str());
  return all_ok ? 0 : 1;
}
