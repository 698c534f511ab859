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
// %.17g, so the round trip is exact; the controller carries no solver
// state between periods and the QP solver is deterministic). A period
// recorded by a different solver build replays as a mismatch.
//
// Independently of the recorded bits, every re-solve must pass the QP's
// KKT certificate (control::certify: primal feasibility, stationarity,
// multiplier signs, complementarity), so a replay proves the decisions
// optimal, not just reproducible. Periods are also counted by solver path:
// fast (the unconstrained minimiser was feasible) or cold (dual steps).
//
// --counterfactual re-solves every period under a modified configuration
// (a different power cap, a different prediction horizon) and reports how
// the decisions would have moved — together with the recorded
// prediction-error residuals and binding-constraint fractions this
// attributes SLO burn to model error vs constraint pressure.
//
// Exit status: 0 every replayed period matches and passes the certificate,
// 1 any mismatch or failed certificate, 2 usage or input errors (a line
// that is not a flight record is reported as <path>:<line>), 3 nothing
// re-solved because no record carries MPC state (a log of a baseline
// policy, say).
#include <algorithm>
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
/// `cert`, when given, receives the KKT certificate of the re-solve.
capgpu::control::MpcDecision resolve(
    const FlightRecord& rec, std::optional<double> cap,
    std::optional<std::size_t> horizon,
    capgpu::control::QpCertificate* cert = nullptr) {
  const FlightMpcState& m = rec.mpc;
  const std::size_t n = m.gains_w_per_mhz.size();
  capgpu::control::MpcConfig cfg;
  cfg.prediction_horizon = horizon.value_or(m.prediction_horizon);
  cfg.control_horizon = m.control_horizon;
  cfg.tracking_weight = m.tracking_weight;
  cfg.reference_decay = m.reference_decay;
  cfg.violation_decay = m.violation_decay;
  cfg.regularization = m.regularization;
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
  const capgpu::control::MpcDecision d =
      ctl.step(Watts{m.fed_power_w}, rec.freqs_mhz);
  if (cert != nullptr) {
    *cert = capgpu::control::certify(ctl.last_qp(), ctl.last_solve().x(),
                                      ctl.last_solve().multipliers());
  }
  return d;
}

bool bit_identical(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

struct ReplayStats {
  std::size_t replayed{0};
  std::size_t exact{0};
  std::size_t mismatches{0};
  std::size_t certified{0};
  /// Largest residual of any re-solve's certificate.
  double worst_residual{0.0};
  /// Periods by recorded solver path: fast / cold.
  std::size_t fast{0};
  std::size_t cold{0};
};

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
    if (mpc_present == 0) {
      std::printf("[replay] nothing re-solved: no record carries MPC "
                  "state\n");
      return 3;
    }

    ReplayStats stats;
    for (const FlightRecord& rec : records) {
      if (!rec.mpc.present) continue;
      capgpu::control::QpCertificate cert;
      const capgpu::control::MpcDecision d = resolve(rec, {}, {}, &cert);
      ++stats.replayed;
      if (rec.mpc.fast_path_hit) {
        ++stats.fast;
      } else {
        ++stats.cold;
      }
      bool ok = d.target_freqs_mhz.size() == rec.targets_mhz.size();
      double worst = 0.0;
      for (std::size_t j = 0; ok && j < rec.targets_mhz.size(); ++j) {
        const double got = d.target_freqs_mhz[j];
        const double want = rec.targets_mhz[j];
        worst = std::max(worst, std::abs(got - want));
        if (!bit_identical(got, want)) ok = false;
      }
      if (ok) ++stats.exact;
      stats.worst_residual =
          std::max({stats.worst_residual, cert.primal, cert.stationarity,
                    cert.dual, cert.complementarity});
      if (cert.holds()) {
        ++stats.certified;
      } else {
        ok = false;
        std::fprintf(stderr,
                     "[replay] CERTIFICATE pid=%d period=%zu: primal %.3g "
                     "stationarity %.3g dual %.3g complementarity %.3g\n",
                     rec.pid, rec.period, cert.primal, cert.stationarity,
                     cert.dual, cert.complementarity);
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
        stats.replayed, stats.exact, stats.replayed - stats.exact);
    std::printf(
        "[certificate] %zu/%zu re-solved periods pass the KKT certificate "
        "(worst scaled residual %.3g)\n",
        stats.certified, stats.replayed, stats.worst_residual);
    std::printf("[solver] periods by path: fast=%zu cold=%zu\n", stats.fast,
                stats.cold);

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
      std::printf("[replay] FAIL: %zu of %zu periods drifted or failed the "
                  "certificate\n",
                  stats.mismatches, stats.replayed);
      return 1;
    }
    std::printf("[replay] PASS: every re-solved period reproduced the "
                "recorded caps and passed the certificate\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
}
