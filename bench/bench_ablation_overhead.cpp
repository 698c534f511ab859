// Ablation: controller computational overhead (google-benchmark).
//
// The paper states the MPC completes "in just a few milliseconds when a
// server has about 4 to 8 GPUs". This bench times one MPC control period
// (QP assembly + active-set solve) as the GPU count scales, plus the raw QP
// solver and the delta-sigma modulator for reference.
#include <benchmark/benchmark.h>

#include "common.hpp"
#include "common/rng.hpp"
#include "control/delta_sigma.hpp"
#include "control/mpc.hpp"
#include "control/qp.hpp"

using namespace capgpu;

namespace {

control::MpcController make_mpc(std::size_t n_gpus) {
  std::vector<control::DeviceRange> devices;
  devices.push_back({DeviceKind::kCpu, 1000.0, 2400.0});
  std::vector<double> gains{0.05};
  for (std::size_t g = 0; g < n_gpus; ++g) {
    devices.push_back({DeviceKind::kGpu, 435.0, 1350.0});
    gains.push_back(0.19);
  }
  return control::MpcController(
      control::MpcConfig{}, std::move(devices),
      control::LinearPowerModel(std::move(gains), 300.0), 900_W);
}

void BM_MpcStep(benchmark::State& state) {
  const auto n_gpus = static_cast<std::size_t>(state.range(0));
  control::MpcController mpc = make_mpc(n_gpus);
  std::vector<double> freqs(1 + n_gpus, 800.0);
  freqs[0] = 1600.0;
  Rng rng(7);
  for (auto _ : state) {
    // Vary the measured power so the active set changes across calls.
    const Watts p{rng.uniform(700.0, 1100.0)};
    benchmark::DoNotOptimize(mpc.step(p, freqs));
  }
  state.SetLabel(std::to_string(n_gpus) + " GPUs");
}
BENCHMARK(BM_MpcStep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

void BM_MpcStepSaturated(benchmark::State& state) {
  // Worst case for the active-set method: every device pinned at a bound.
  const auto n_gpus = static_cast<std::size_t>(state.range(0));
  control::MpcController mpc = make_mpc(n_gpus);
  std::vector<double> freqs(1 + n_gpus, 435.0);
  freqs[0] = 1000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mpc.step(Watts{1500.0}, freqs));
  }
  state.SetLabel(std::to_string(n_gpus) + " GPUs, all railed");
}
BENCHMARK(BM_MpcStepSaturated)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_QpSolveBox(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  linalg::Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.uniform(-1.0, 1.0);
  control::QpProblem p;
  p.h = b * b.transposed();
  for (std::size_t i = 0; i < n; ++i) p.h(i, i) += 1.0;
  p.g = linalg::Vector(n);
  for (std::size_t i = 0; i < n; ++i) p.g[i] = rng.uniform(-5.0, 5.0);
  p.c = linalg::Matrix(2 * n, n);
  p.b = linalg::Vector(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    p.c(2 * i, i) = 1.0;
    p.b[2 * i] = 1.0;
    p.c(2 * i + 1, i) = -1.0;
    p.b[2 * i + 1] = 1.0;
  }
  control::QpSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(p));
  }
}
BENCHMARK(BM_QpSolveBox)->Arg(4)->Arg(9)->Arg(17)->Arg(33)
    ->Unit(benchmark::kMicrosecond);

void BM_DeltaSigmaStep(benchmark::State& state) {
  const auto table = hw::FrequencyTable::v100_core();
  control::DeltaSigmaModulator mod;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mod.step(Megahertz{871.3}, table));
  }
}
BENCHMARK(BM_DeltaSigmaStep)->Unit(benchmark::kNanosecond);

}  // namespace

// Expanded BENCHMARK_MAIN so bench::init can consume the observability
// flags before google-benchmark rejects them as unknown.
int main(int argc, char** argv) {
  capgpu::bench::init(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
