// Canonical metric names for the observability registry.
//
// Every metric the library registers is named here — one constant per
// series family — so instrumentation sites cannot drift apart on spelling
// and scripts/check_metrics_docs.sh can verify each name is documented in
// docs/observability.md. Naming follows the Prometheus conventions:
// `capgpu_<subsystem>_<quantity>_<unit>`, `_total` suffix on counters.
#pragma once

namespace capgpu::telemetry::metric {

// --- control loop (core::ControlLoop) ---
inline constexpr const char* kLoopPeriods = "capgpu_loop_periods_total";
inline constexpr const char* kLoopSkippedPeriods =
    "capgpu_loop_skipped_periods_total";
inline constexpr const char* kLoopDeadbandPeriods =
    "capgpu_loop_deadband_periods_total";
inline constexpr const char* kLoopLevelTransitions =
    "capgpu_loop_level_transitions_total";
inline constexpr const char* kServerPowerWatts = "capgpu_server_power_watts";
inline constexpr const char* kPowerErrorWatts =
    "capgpu_loop_power_error_watts";
inline constexpr const char* kDeviceFrequencyMhz =
    "capgpu_device_frequency_mhz";

// --- inference pipeline (workload::InferenceStream) ---
inline constexpr const char* kBatchLatencySeconds =
    "capgpu_gpu_batch_latency_seconds";
inline constexpr const char* kImagesCompleted =
    "capgpu_gpu_images_completed_total";
inline constexpr const char* kBatchesCompleted = "capgpu_gpu_batches_total";

// --- request-level latency attribution (workload::InferenceStream) ---
inline constexpr const char* kStageLatencySeconds =
    "capgpu_request_stage_latency_seconds";
inline constexpr const char* kRequestLatencySeconds =
    "capgpu_request_latency_seconds";

// --- SLO accounting (core::ServerRig) ---
inline constexpr const char* kSloChecks = "capgpu_slo_checked_batches_total";
inline constexpr const char* kSloMisses = "capgpu_slo_missed_batches_total";

// --- SLO error budget / burn-rate alerting (telemetry::SloBurnMonitor) ---
inline constexpr const char* kSloBurnRate = "capgpu_slo_burn_rate";
inline constexpr const char* kSloBurnAlertActive =
    "capgpu_slo_burn_alert_active";
inline constexpr const char* kSloBurnAlerts = "capgpu_slo_burn_alerts_total";
inline constexpr const char* kSloBudgetConsumed =
    "capgpu_slo_error_budget_consumed_ratio";

// --- protection governors (core::emergency / core::thermal_governor) ---
inline constexpr const char* kEmergencyEngagements =
    "capgpu_emergency_engagements_total";
inline constexpr const char* kEmergencyReleases =
    "capgpu_emergency_releases_total";
inline constexpr const char* kEmergencyThrottledBoards =
    "capgpu_emergency_throttled_boards";
inline constexpr const char* kThermalCeilingMhz = "capgpu_thermal_ceiling_mhz";
inline constexpr const char* kThermalBindingPeriods =
    "capgpu_thermal_binding_periods_total";

// --- rack coordination (rack::RackCoordinator) ---
inline constexpr const char* kRackRebalances = "capgpu_rack_rebalances_total";
inline constexpr const char* kRackServerBudgetWatts =
    "capgpu_rack_server_budget_watts";
inline constexpr const char* kRackServerDemand = "capgpu_rack_server_demand";
inline constexpr const char* kRackRigHealth = "capgpu_rack_rig_health";
inline constexpr const char* kRackHealthTransitions =
    "capgpu_rack_rig_health_transitions_total";
inline constexpr const char* kRackQuarantinedBudgetWatts =
    "capgpu_rack_quarantined_budget_watts";

// --- fleet simulation (fleet::FleetSim hierarchical budget cascade) ---
inline constexpr const char* kFleetEpochs = "capgpu_fleet_epochs_total";
inline constexpr const char* kFleetRigPeriods =
    "capgpu_fleet_rig_periods_total";
inline constexpr const char* kFleetCascades = "capgpu_fleet_cascades_total";
inline constexpr const char* kFleetRowBudgetWatts =
    "capgpu_fleet_row_budget_watts";
inline constexpr const char* kFleetRackBudgetWatts =
    "capgpu_fleet_rack_budget_watts";
inline constexpr const char* kFleetDeliverableWatts =
    "capgpu_fleet_deliverable_watts";
inline constexpr const char* kFleetOversubscribedWatts =
    "capgpu_fleet_oversubscribed_watts";

// --- fail-safe hardening (core::FailSafeGovernor / core::ControlLoop) ---
inline constexpr const char* kLoopHeldPeriods =
    "capgpu_loop_held_periods_total";
inline constexpr const char* kSamplesRejected =
    "capgpu_loop_samples_rejected_total";
inline constexpr const char* kSampleHoldovers =
    "capgpu_loop_sample_holdover_periods_total";
inline constexpr const char* kActuationRetries =
    "capgpu_loop_actuation_retries_total";
inline constexpr const char* kActuationFailures =
    "capgpu_loop_actuation_failures_total";
inline constexpr const char* kReadbackMismatches =
    "capgpu_loop_readback_mismatches_total";
inline constexpr const char* kFailsafeEngagements =
    "capgpu_failsafe_engagements_total";
inline constexpr const char* kFailsafeReleases =
    "capgpu_failsafe_releases_total";
inline constexpr const char* kFailsafeState = "capgpu_failsafe_state";

// --- controller flight recorder (telemetry::FlightRecorder) ---
inline constexpr const char* kCtlFlightRecords =
    "capgpu_ctl_flight_records_total";
inline constexpr const char* kCtlFlightDroppedRecords =
    "capgpu_ctl_flight_dropped_records_total";
inline constexpr const char* kCtlPowerPredictionErrorEwma =
    "capgpu_ctl_power_prediction_error_ewma_watts";
inline constexpr const char* kCtlLatencyPredictionErrorEwma =
    "capgpu_ctl_latency_prediction_error_ewma_seconds";
inline constexpr const char* kCtlPowerPredictionError =
    "capgpu_ctl_power_prediction_error_watts";
inline constexpr const char* kCtlBindingPeriods =
    "capgpu_ctl_binding_periods_total";
inline constexpr const char* kCtlBindingFraction =
    "capgpu_ctl_binding_fraction_ratio";
inline constexpr const char* kCtlQpIterations = "capgpu_ctl_qp_iterations";
inline constexpr const char* kCtlSolverPath =
    "capgpu_ctl_solver_path_total";
inline constexpr const char* kCtlQpNonconverged =
    "capgpu_ctl_qp_nonconverged_total";
inline constexpr const char* kCtlFallbackTransitions =
    "capgpu_ctl_fallback_transitions_total";

// --- energy attribution (telemetry::EnergyLedger) ---
inline constexpr const char* kEnergyJoules = "capgpu_energy_joules_total";
inline constexpr const char* kEnergyIdleJoules =
    "capgpu_energy_idle_joules_total";
inline constexpr const char* kRequestEnergyJoules =
    "capgpu_request_energy_joules";

// --- fault injection (hal::FaultyServerHal) ---
inline constexpr const char* kFaultInjections =
    "capgpu_fault_injections_total";

// --- HAL (hal::AcpiPowerMeter / hal::NvmlSim) ---
inline constexpr const char* kMeterSamples = "capgpu_meter_samples_total";
inline constexpr const char* kMeterPowerWatts = "capgpu_meter_power_watts";
inline constexpr const char* kHalClockCommands =
    "capgpu_hal_clock_commands_total";

}  // namespace capgpu::telemetry::metric
