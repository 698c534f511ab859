#include "workload/cpu_load.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace capgpu::workload {

HostCpuLoad::HostCpuLoad(hw::CpuModel& cpu, std::size_t total_cores)
    : cpu_(&cpu), total_cores_(total_cores) {
  CAPGPU_REQUIRE(total_cores > 0, "total_cores must be positive");
  push_utilization();
}

void HostCpuLoad::add_always_busy_cores(std::size_t n) {
  always_busy_ += n;
  CAPGPU_REQUIRE(always_busy_ <= total_cores_,
                 "more busy cores than the package has");
  push_utilization();
}

void HostCpuLoad::worker_compute_delta(int delta) {
  computing_workers_ += delta;
  CAPGPU_ASSERT(computing_workers_ >= 0);
  push_utilization();
}

double HostCpuLoad::utilization() const {
  const double busy = static_cast<double>(always_busy_) +
                      static_cast<double>(computing_workers_);
  return std::min(1.0, busy / static_cast<double>(total_cores_));
}

void HostCpuLoad::push_utilization() { cpu_->set_utilization(utilization()); }

CpuTaskSim::CpuTaskSim(sim::Engine& engine, hw::CpuModel& cpu,
                       CpuTaskParams params, Rng rng)
    : LazyChain(engine),
      engine_(&engine),
      cpu_(&cpu),
      params_(params),
      rng_(rng),
      throughput_(static_cast<double>(params.cores) *
                  (cpu.freqs().max().value / 1000.0) / params.subset_s_ghz) {
  CAPGPU_REQUIRE(params_.cores > 0, "need at least one core");
  CAPGPU_REQUIRE(params_.subset_s_ghz > 0.0, "subset cost must be positive");
}

void CpuTaskSim::start() {
  CAPGPU_REQUIRE(!started_, "task already started");
  started_ = true;
  run_round();
}

void CpuTaskSim::run_round() {
  const double f_ghz = cpu_->frequency().value / 1000.0;
  const double j = params_.jitter_frac;
  round_time_ = params_.subset_s_ghz / f_ghz * rng_.uniform(1.0 - j, 1.0 + j);
  set_next(engine_->now() + round_time_, draw_seq());
}

void CpuTaskSim::fire() {
  // One round: every core finished one subset evaluation.
  subsets_ += params_.cores;
  throughput_.record(engine_->now(), static_cast<double>(params_.cores));
  subset_latency_.record(engine_->now(), round_time_);
  run_round();
}

}  // namespace capgpu::workload
