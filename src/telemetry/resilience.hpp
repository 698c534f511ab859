// Resilience scorecards for chaos campaigns.
//
// A chaos campaign injects a scripted fault (PDU brownout, budget slash,
// meter firmware bug, blackout) into a rack of rigs and asks: how fast did
// the system notice, how much SLO error budget burned while it reacted,
// and did recovery overshoot? One ResilienceEntry answers those questions
// for one campaign stage; the registry accumulates entries across
// scenarios and, like every sink of a telemetry::Context, merges
// deterministically in scenario order, so --resilience-out is
// byte-identical for any --jobs count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace capgpu::telemetry {

/// Scorecard for one fault stage of one campaign run. Times are virtual
/// seconds; -1 marks "never happened" (no detection / no recovery).
struct ResilienceEntry {
  int pid{0};              ///< trace pid of the producing run
  std::string campaign;    ///< campaign name (or bench name)
  std::string variant;     ///< e.g. "hardened" / "baseline"
  std::string stage;       ///< stage name from the campaign timeline
  std::string fault_kind;  ///< brownout / budget_slash / meter_bug / blackout
  std::string domain;      ///< faulted node path, e.g. "rack0/pdu0"
  double fault_start_s{0.0};
  double fault_end_s{0.0};
  /// When the health layer first demoted an affected rig (-1 = never).
  double detected_at_s{-1.0};
  /// When service was restored after the fault cleared (-1 = never).
  double recovered_at_s{-1.0};
  /// Mean time to recover: recovered_at_s - fault_end_s (-1 = never).
  double mttr_s{-1.0};
  /// Error-budget fractions burned across all streams, split at fault end.
  double slo_burn_during{0.0};
  double slo_burn_after{0.0};
  /// Peak rack power above the budget while recovering (W, 0 = none).
  double recovery_overshoot_w{0.0};
  /// Total rig-seconds spent in fail-safe degradation.
  double failsafe_dwell_s{0.0};
  std::uint64_t failsafe_entries{0};    ///< governor engagements observed
  std::uint64_t health_transitions{0};  ///< coordinator health-state changes
};

/// Accumulates ResilienceEntry records across runs; same scoping contract
/// as SloRegistry (one sink of a telemetry::Context + ordered merge).
class ResilienceRegistry {
 public:
  ResilienceRegistry() = default;
  ResilienceRegistry(const ResilienceRegistry&) = delete;
  ResilienceRegistry& operator=(const ResilienceRegistry&) = delete;

  void add(ResilienceEntry entry);

  [[nodiscard]] const std::vector<ResilienceEntry>& entries() const {
    return entries_;
  }
  void clear() { entries_.clear(); }

  /// Appends another registry's entries, shifting their pids by
  /// `pid_offset` (the parent tracer's pid captured before its merge).
  void merge_from(const ResilienceRegistry& other, int pid_offset);

  /// Context::global().resilience() / Context::current().resilience().
  static ResilienceRegistry& global();
  static ResilienceRegistry& current();

 private:
  std::vector<ResilienceEntry> entries_;
};

/// Renders the resilience report JSON ({"campaigns": [...]}) — one object
/// per entry, registry order. Deterministic byte-for-byte.
void write_resilience_report(const ResilienceRegistry& registry,
                             std::ostream& out);
std::string to_resilience_report(const ResilienceRegistry& registry);
void save_resilience_report(const ResilienceRegistry& registry,
                            const std::string& path);

}  // namespace capgpu::telemetry
