// Scenario: rack-level power oversubscription across three GPU servers.
//
// Data centers cap whole racks, not just servers (the paper's motivation;
// cf. Meta's Dynamo). This example builds three CapGPU-controlled servers
// with different model mixes and puts a rack::RackCoordinator on top:
// every five control periods it re-divides the 2700 W rack budget using
// the demand-proportional policy, so servers whose accelerators are
// starving for watts receive more of the shared budget.
//
// It also demonstrates the lower-level API: instead of ServerRig::run(),
// the example drives each server's ControlLoop and discrete-event engine
// directly and interleaves them in lockstep.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/capgpu_controller.hpp"
#include "core/control_loop.hpp"
#include "core/rig.hpp"
#include "rack/coordinator.hpp"

using namespace capgpu;

namespace {

struct Server {
  std::string name;
  std::unique_ptr<core::ServerRig> rig;
  std::unique_ptr<core::CapGpuController> controller;
  std::unique_ptr<core::ControlLoop> loop;
};

}  // namespace

int main() {
  constexpr double kRackBudget = 2700.0;
  constexpr std::size_t kPeriods = 90;
  constexpr double kPeriodSeconds = 4.0;

  // Three servers with different inference mixes.
  std::vector<std::vector<workload::ModelSpec>> mixes{
      {workload::resnet50_v100(), workload::resnet50_v100(),
       workload::resnet50_v100()},
      workload::v100_testbed_models(),
      {workload::swin_t_v100(), workload::swin_t_v100(),
       workload::swin_t_v100()},
  };

  std::vector<Server> servers;
  rack::RackCoordinator coordinator(Watts{kRackBudget},
                                    rack::RackPolicy::kDemandProportional);

  for (std::size_t s = 0; s < mixes.size(); ++s) {
    Server srv;
    srv.name = "server-" + std::to_string(s);
    core::RigConfig cfg;
    cfg.models = mixes[s];
    cfg.seed = 100 + s;
    srv.rig = std::make_unique<core::ServerRig>(cfg);
    const control::IdentifiedModel identified = srv.rig->identify();
    srv.controller = std::make_unique<core::CapGpuController>(
        core::CapGpuConfig{}, srv.rig->device_ranges(), identified.model,
        Watts{kRackBudget / 3.0}, srv.rig->latency_models());
    auto* rig_ptr = srv.rig.get();
    srv.loop = std::make_unique<core::ControlLoop>(
        srv.rig->engine(), srv.rig->hal(), srv.rig->rapl(), *srv.controller,
        core::ControlLoopConfig{},
        [rig_ptr] { return rig_ptr->normalized_throughputs(); });
    srv.loop->start();

    rack::ServerEndpoint endpoint;
    endpoint.name = srv.name;
    auto* ctl_ptr = srv.controller.get();
    auto* loop_ptr = srv.loop.get();
    endpoint.set_budget = [ctl_ptr](Watts w) { ctl_ptr->set_set_point(w); };
    endpoint.measured_power = [loop_ptr] {
      return loop_ptr->power_trace().empty()
                 ? 0.0
                 : loop_ptr->power_trace().values().back();
    };
    endpoint.demand = [rig_ptr] { return rig_ptr->gpu_demand(); };
    endpoint.bounds = {700.0, 1200.0};
    coordinator.add_server(std::move(endpoint));

    servers.push_back(std::move(srv));
  }

  std::printf("rack budget %.0f W across %zu servers; demand-proportional "
              "rebalance every 5 periods\n\n",
              kRackBudget, servers.size());
  std::printf("period | rack W  |");
  for (const auto& s : servers) std::printf(" %s W (budget) |", s.name.c_str());
  std::printf("\n");

  telemetry::TimeSeries rack_power("rack", "W");
  for (std::size_t k = 1; k <= kPeriods; ++k) {
    for (auto& s : servers) {
      s.rig->engine().run_until(s.rig->engine().now() + kPeriodSeconds);
    }
    if (k % 5 == 0) coordinator.rebalance();

    rack_power.add(static_cast<double>(k), coordinator.total_power());
    if (k % 10 == 0) {
      std::printf("%6zu | %7.1f |", k, rack_power.values().back());
      for (std::size_t i = 0; i < servers.size(); ++i) {
        const double budget =
            coordinator.budgets().empty() ? kRackBudget / 3.0
                                          : coordinator.budgets()[i];
        std::printf("   %7.1f (%5.0f)  |",
                    servers[i].loop->power_trace().values().back(), budget);
      }
      std::printf("\n");
    }
  }

  const auto steady = rack_power.stats_from(kPeriods / 2);
  std::printf("\nsteady rack power: %.1f W of a %.0f W budget (std %.1f)\n",
              steady.mean(), kRackBudget, steady.stddev());
  std::printf("budgets ended unequal (demand-driven):");
  for (const double b : coordinator.budgets()) std::printf(" %.0f", b);
  std::printf(" W\n");
  for (auto& s : servers) s.loop->stop();
  return 0;
}
