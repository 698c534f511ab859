// capgpu_ctl_replay: deterministic re-execution of a flight-recorder log.
//
//   capgpu_ctl_replay <flight.jsonl> [--counterfactual cap=X]
//                     [--counterfactual horizon=N] [--verbose]
//
// Every record with MPC replay state is self-contained: the identified
// model, the control weights, the effective frequency bounds and the exact
// power sample the solver saw. The tool rebuilds a fresh MpcController per
// record from that state, re-solves the period, and asserts the resulting
// caps are bit-identical to the recorded decision (doubles serialize at
// %.17g, so the round trip is exact; the active-set solver is
// deterministic).
//
// Solver-tier attribution: periods are counted by the tier that decided
// them (warm / fast / cold). Every fast-path and warm-start period is
// additionally re-solved with the fast path disabled and without a warm
// seed, and asserted bit-identical to that pure active-set solve — the
// recorded run is the proof that the tiers change cost, never bits.
//
// --counterfactual re-solves every period under a modified configuration
// (a different power cap, a different prediction horizon) and reports how
// the decisions would have moved — together with the recorded
// prediction-error residuals and binding-constraint fractions this
// attributes SLO burn to model error vs constraint pressure.
//
// Exit status: 0 all replayed periods match, 1 any mismatch, 2 usage or
// input errors.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "control/mpc.hpp"
#include "telemetry/flight.hpp"

namespace {

using capgpu::Watts;
using capgpu::telemetry::FlightMpcState;
using capgpu::telemetry::FlightRecord;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <flight.jsonl> [--counterfactual cap=X]"
               " [--counterfactual horizon=N] [--verbose]\n",
               argv0);
  return 2;
}

std::vector<FlightRecord> load_flight_log(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw capgpu::Error("cannot open flight log: " + path);
  std::vector<FlightRecord> records;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(file, line)) {
    ++line_no;
    if (line.empty()) continue;
    try {
      records.push_back(FlightRecord::from_json(capgpu::json::parse(line)));
    } catch (const std::exception& e) {
      throw capgpu::Error(path + ":" + std::to_string(line_no) + ": " +
                          e.what());
    }
  }
  return records;
}

/// Rebuilds the recorded controller and re-solves the period. `cap` /
/// `horizon` override the recorded configuration for counterfactuals.
/// `pure_active_set` disables the fast path to produce the reference
/// active-set solution for cross-checks (a fresh controller has no warm
/// seed either way).
capgpu::control::MpcDecision resolve(const FlightRecord& rec,
                                     std::optional<double> cap,
                                     std::optional<std::size_t> horizon,
                                     bool pure_active_set = false) {
  const FlightMpcState& m = rec.mpc;
  const std::size_t n = m.gains_w_per_mhz.size();
  capgpu::control::MpcConfig cfg;
  cfg.prediction_horizon = horizon.value_or(m.prediction_horizon);
  cfg.control_horizon = m.control_horizon;
  cfg.tracking_weight = m.tracking_weight;
  cfg.reference_decay = m.reference_decay;
  cfg.violation_decay = m.violation_decay;
  cfg.regularization = m.regularization;
  cfg.qp_fast_path = !pure_active_set;
  std::vector<capgpu::control::DeviceRange> devices(n);
  for (std::size_t j = 0; j < n; ++j) {
    devices[j].kind = m.device_kinds[j] == 0 ? capgpu::DeviceKind::kCpu
                                             : capgpu::DeviceKind::kGpu;
    devices[j].f_min_mhz = m.f_lo_mhz[j];
    devices[j].f_max_mhz = m.f_hi_mhz[j];
  }
  capgpu::control::MpcController ctl(
      cfg, std::move(devices),
      capgpu::control::LinearPowerModel(m.gains_w_per_mhz, m.offset_w),
      Watts{cap.value_or(rec.set_point_w)});
  // Thermal ceilings first: set_max_frequency_override pushes a floor down
  // when they cross, so applying the recorded effective bounds in this
  // order reproduces the solve-time box exactly.
  for (std::size_t j = 0; j < n; ++j) {
    if (m.f_max_mhz[j] < m.f_hi_mhz[j]) {
      ctl.set_max_frequency_override(j, m.f_max_mhz[j]);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (m.f_min_mhz[j] > m.f_lo_mhz[j]) {
      ctl.set_min_frequency_override(j, m.f_min_mhz[j]);
    }
  }
  if (!m.weights.empty()) ctl.set_control_weights(m.weights);
  // Counterfactual caps shift the measurement-vs-set-point error; feed the
  // recorded measurement either way — only the target changes.
  return ctl.step(Watts{m.fed_power_w}, rec.freqs_mhz);
}

bool bit_identical(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

struct ReplayStats {
  std::size_t replayed{0};
  std::size_t exact{0};
  std::size_t mismatches{0};
  /// Periods by deciding tier: warm / fast / cold.
  std::size_t by_tier[3]{};
  /// Warm/fast periods proven bit-identical to a pure active-set re-solve.
  std::size_t shortcut_crosschecked{0};
};

/// 0 warm, 1 fast, 2 cold — mirrors the capgpu_ctl_solver_path_total label
/// order.
std::size_t tier_of(const FlightMpcState& m) {
  if (m.warm_start_hit) return 0;
  if (m.fast_path_hit) return 1;
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::vector<std::string> counterfactuals;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--counterfactual") {
      if (i + 1 >= argc) return usage(argv[0]);
      counterfactuals.emplace_back(argv[++i]);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);

  try {
    const std::vector<FlightRecord> records = load_flight_log(path);
    std::size_t mpc_present = 0;
    for (const FlightRecord& rec : records) {
      if (rec.mpc.present) ++mpc_present;
    }
    std::printf("[replay] %s: %zu records, %zu with MPC replay state\n",
                path.c_str(), records.size(), mpc_present);
    if (records.empty()) {
      std::fprintf(stderr, "[replay] empty flight log\n");
      return 2;
    }

    ReplayStats stats;
    for (const FlightRecord& rec : records) {
      if (!rec.mpc.present) continue;
      const capgpu::control::MpcDecision d = resolve(rec, {}, {});
      ++stats.replayed;
      bool ok = d.target_freqs_mhz.size() == rec.targets_mhz.size();
      double worst = 0.0;
      for (std::size_t j = 0; ok && j < rec.targets_mhz.size(); ++j) {
        const double got = d.target_freqs_mhz[j];
        const double want = rec.targets_mhz[j];
        worst = std::max(worst, std::abs(got - want));
        if (!bit_identical(got, want)) ok = false;
      }
      if (ok) ++stats.exact;
      const std::size_t tier = tier_of(rec.mpc);
      ++stats.by_tier[tier];
      if (tier != 2) {
        // Warm-start and fast-path hits claim bitwise identity with the
        // active-set solve they replaced; prove it by re-solving without
        // either shortcut.
        const capgpu::control::MpcDecision ref = resolve(rec, {}, {}, true);
        bool same = ref.target_freqs_mhz.size() == rec.targets_mhz.size();
        for (std::size_t j = 0; same && j < rec.targets_mhz.size(); ++j) {
          same = bit_identical(ref.target_freqs_mhz[j], rec.targets_mhz[j]);
        }
        if (same) {
          ++stats.shortcut_crosschecked;
        } else {
          ok = false;
          std::fprintf(stderr,
                       "[replay] MISMATCH pid=%d period=%zu: %s tier "
                       "diverged from the pure active-set re-solve\n",
                       rec.pid, rec.period, tier == 0 ? "warm" : "fast");
        }
      }
      if (!ok) {
        ++stats.mismatches;
        if (stats.mismatches <= 5 || verbose) {
          std::fprintf(stderr,
                       "[replay] MISMATCH pid=%d period=%zu policy=%s "
                       "worst drift %.9g MHz\n",
                       rec.pid, rec.period, rec.policy.c_str(), worst);
          if (verbose) {
            for (std::size_t j = 0; j < rec.targets_mhz.size(); ++j) {
              std::fprintf(stderr, "  device %zu: recorded %.17g got %.17g\n",
                           j, rec.targets_mhz[j],
                           j < d.target_freqs_mhz.size()
                               ? d.target_freqs_mhz[j]
                               : std::nan(""));
            }
          }
        }
      }
    }
    std::printf(
        "[replay] re-solved %zu periods: %zu bit-identical, %zu mismatches\n",
        stats.replayed, stats.exact, stats.mismatches);
    std::printf("[solver] periods by tier: warm=%zu fast=%zu cold=%zu\n",
                stats.by_tier[0], stats.by_tier[1], stats.by_tier[2]);
    if (stats.by_tier[0] + stats.by_tier[1] > 0) {
      std::printf(
          "[solver] cross-checked against pure active-set re-solves: "
          "%zu/%zu warm+fast periods bit-identical\n",
          stats.shortcut_crosschecked, stats.by_tier[0] + stats.by_tier[1]);
    }

    // Attribution summary: prediction-error residuals measure how wrong the
    // model was; binding fractions measure how often the constraint box —
    // SLO floors, thermal ceilings — shaped the decision instead.
    std::size_t resid_n = 0;
    double resid_sum = 0.0;
    std::size_t acted = 0;
    std::size_t floor_bound = 0;
    std::size_t ceil_bound = 0;
    for (const FlightRecord& rec : records) {
      if (rec.outcome_filled && rec.mpc.present) {
        resid_sum += std::abs(rec.power_residual_w);
        ++resid_n;
      }
      if (!rec.mpc.present) continue;
      ++acted;
      bool fb = false;
      bool cb = false;
      for (const int b : rec.mpc.floor_binding) fb = fb || b != 0;
      for (const int b : rec.mpc.ceiling_binding) cb = cb || b != 0;
      if (fb) ++floor_bound;
      if (cb) ++ceil_bound;
    }
    if (acted > 0) {
      std::printf(
          "[attribution] mean |power residual| %.3f W over %zu periods; "
          "floor binding %.1f%%, ceiling binding %.1f%% of %zu acted "
          "periods\n",
          resid_n > 0 ? resid_sum / static_cast<double>(resid_n) : 0.0,
          resid_n,
          100.0 * static_cast<double>(floor_bound) /
              static_cast<double>(acted),
          100.0 * static_cast<double>(ceil_bound) /
              static_cast<double>(acted),
          acted);
    }

    // Fail-safe attribution: count governor engagements (transitions into
    // state 1) per recorded cause, scanning each pid's records in order.
    {
      std::map<int, int> prev_state;
      std::map<std::string, std::size_t> by_cause;
      for (const FlightRecord& rec : records) {
        auto [it, inserted] = prev_state.emplace(rec.pid, 0);
        if (rec.failsafe_state == 1 && it->second != 1) {
          by_cause[rec.failsafe_cause.empty() ? "unknown"
                                              : rec.failsafe_cause]++;
        }
        it->second = rec.failsafe_state;
      }
      if (!by_cause.empty()) {
        std::printf("[failsafe] engagements by cause:");
        for (const auto& [cause, count] : by_cause) {
          std::printf(" %s=%zu", cause.c_str(), count);
        }
        std::printf("\n");
      }
    }

    for (const std::string& spec : counterfactuals) {
      std::optional<double> cap;
      std::optional<std::size_t> horizon;
      if (spec.rfind("cap=", 0) == 0) {
        cap = std::stod(spec.substr(4));
      } else if (spec.rfind("horizon=", 0) == 0) {
        const long n = std::stol(spec.substr(8));
        if (n < 1) return usage(argv[0]);
        horizon = static_cast<std::size_t>(n);
      } else {
        return usage(argv[0]);
      }
      double d_target = 0.0;   // mean per-device cap shift vs recorded
      double d_power = 0.0;    // mean shift in p(k+1|k)
      std::size_t floor_cf = 0;
      std::size_t solved = 0;
      for (const FlightRecord& rec : records) {
        if (!rec.mpc.present) continue;
        const capgpu::control::MpcDecision d = resolve(rec, cap, horizon);
        ++solved;
        const std::size_t n = rec.targets_mhz.size();
        double shift = 0.0;
        for (std::size_t j = 0; j < n && j < d.target_freqs_mhz.size();
             ++j) {
          shift += d.target_freqs_mhz[j] - rec.targets_mhz[j];
        }
        d_target += n > 0 ? shift / static_cast<double>(n) : 0.0;
        d_power += d.predicted_power_watts - rec.mpc.predicted_power_w;
        bool fb = false;
        for (const int b : d.floor_binding) fb = fb || b != 0;
        if (fb) ++floor_cf;
      }
      if (solved == 0) continue;
      std::printf(
          "[counterfactual] %s over %zu periods: mean cap shift %+.2f MHz, "
          "mean p(k+1|k) shift %+.2f W, floor binding %.1f%% (recorded "
          "%.1f%%)\n",
          spec.c_str(), solved, d_target / static_cast<double>(solved),
          d_power / static_cast<double>(solved),
          100.0 * static_cast<double>(floor_cf) /
              static_cast<double>(solved),
          acted > 0 ? 100.0 * static_cast<double>(floor_bound) /
                          static_cast<double>(acted)
                    : 0.0);
    }

    if (stats.mismatches > 0) {
      std::printf("[replay] FAIL: %zu of %zu periods drifted\n",
                  stats.mismatches, stats.replayed);
      return 1;
    }
    std::printf("[replay] PASS: every re-solved period reproduced the "
                "recorded caps\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
}
