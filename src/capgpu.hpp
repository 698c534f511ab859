// Umbrella header: the CapGPU public API in one include.
//
//   #include "capgpu.hpp"
//
// Brings in the controller stack (CapGPU + baselines), the experiment rig,
// the governors, rack coordination, and telemetry. HAL backends and the
// simulation substrate are included so quickstart-style programs need
// nothing else; fine-grained consumers can include individual headers.
#pragma once

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "common/version.hpp"

#include "linalg/cholesky.hpp"
#include "linalg/eig.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"

#include "control/delta_sigma.hpp"
#include "control/latency_model.hpp"
#include "control/mpc.hpp"
#include "control/power_model.hpp"
#include "control/rls.hpp"
#include "control/stability.hpp"
#include "control/sysid.hpp"
#include "control/weights.hpp"

#include "baselines/controller_iface.hpp"
#include "baselines/cpu_only.hpp"
#include "baselines/cpu_plus_gpu.hpp"
#include "baselines/fixed_step.hpp"
#include "baselines/gpu_only.hpp"
#include "baselines/safe_fixed_step.hpp"

#include "core/batching.hpp"
#include "core/capgpu_controller.hpp"
#include "core/control_loop.hpp"
#include "core/emergency.hpp"
#include "core/identify.hpp"
#include "core/motivation.hpp"
#include "core/rig.hpp"
#include "core/thermal_governor.hpp"

#include "rack/coordinator.hpp"

#include "telemetry/audit.hpp"
#include "telemetry/csv.hpp"
#include "telemetry/stats.hpp"
#include "telemetry/table.hpp"
#include "telemetry/timeseries.hpp"

#include "workload/arrivals.hpp"
#include "workload/model_zoo.hpp"
#include "workload/pipeline.hpp"
