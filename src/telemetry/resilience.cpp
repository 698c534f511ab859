#include "telemetry/resilience.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "telemetry/context.hpp"

namespace capgpu::telemetry {

void ResilienceRegistry::add(ResilienceEntry entry) {
  entries_.push_back(std::move(entry));
}

void ResilienceRegistry::merge_from(const ResilienceRegistry& other,
                                    int pid_offset) {
  append_shifted(entries_, other.entries_, pid_offset);
}

void write_resilience_report(const ResilienceRegistry& registry,
                             std::ostream& out) {
  out << "{\n  \"campaigns\": [";
  bool first = true;
  for (const ResilienceEntry& e : registry.entries()) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    out << "{\"pid\":" << e.pid << ",\"campaign\":\""
        << json::escape(e.campaign) << "\",\"variant\":\""
        << json::escape(e.variant) << "\",\"stage\":\""
        << json::escape(e.stage) << "\",\"fault_kind\":\""
        << json::escape(e.fault_kind)
        << "\",\"domain\":\"" << json::escape(e.domain)
        << "\",\"fault_start_s\":" << json::render_number(e.fault_start_s)
        << ",\"fault_end_s\":" << json::render_number(e.fault_end_s)
        << ",\"detected_at_s\":" << json::render_number(e.detected_at_s)
        << ",\"recovered_at_s\":" << json::render_number(e.recovered_at_s)
        << ",\"mttr_s\":" << json::render_number(e.mttr_s)
        << ",\"slo_burn_during\":" << json::render_number(e.slo_burn_during)
        << ",\"slo_burn_after\":" << json::render_number(e.slo_burn_after)
        << ",\"recovery_overshoot_w\":"
        << json::render_number(e.recovery_overshoot_w)
        << ",\"failsafe_dwell_s\":" << json::render_number(e.failsafe_dwell_s)
        << ",\"failsafe_entries\":" << e.failsafe_entries
        << ",\"health_transitions\":" << e.health_transitions << '}';
  }
  out << "\n  ]\n}\n";
}

std::string to_resilience_report(const ResilienceRegistry& registry) {
  std::ostringstream out;
  write_resilience_report(registry, out);
  return out.str();
}

void save_resilience_report(const ResilienceRegistry& registry,
                            const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw Error("cannot write resilience report file: " + path);
  write_resilience_report(registry, out);
}

}  // namespace capgpu::telemetry
