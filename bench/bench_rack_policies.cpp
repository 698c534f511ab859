// Extension bench: rack-level budget division policies.
//
// Three CapGPU-capped servers with asymmetric demand (heavy ResNet50
// server, mixed server, light Swin server) share a 2700 W rack budget
// under each rack::RackPolicy. Reported: rack power tracking, per-server
// budgets, and total GPU throughput — demand-aware division buys rack
// throughput over a static equal split, and priority-aware division
// protects the designated production server.
#include <cstdio>
#include <memory>
#include <vector>

#include "common.hpp"
#include "core/control_loop.hpp"
#include "rack/coordinator.hpp"
#include "runner/scenario_runner.hpp"
#include "telemetry/table.hpp"

using namespace capgpu;

namespace {

struct Server {
  std::unique_ptr<core::ServerRig> rig;
  std::unique_ptr<core::CapGpuController> controller;
  std::unique_ptr<core::ControlLoop> loop;
};

struct RackOutcome {
  double rack_power_mean{0.0};
  double rack_throughput{0.0};
  std::vector<double> budgets;
  std::vector<double> throughputs;
};

RackOutcome run_policy(rack::RackPolicy policy) {
  constexpr double kRackBudget = 2700.0;
  std::vector<std::vector<workload::ModelSpec>> mixes{
      {workload::resnet50_v100(), workload::resnet50_v100(),
       workload::resnet50_v100()},
      workload::v100_testbed_models(),
      {workload::swin_t_v100(), workload::swin_t_v100(),
       workload::swin_t_v100()},
  };

  std::vector<Server> servers;
  rack::RackCoordinator coordinator(Watts{kRackBudget}, policy);
  for (std::size_t s = 0; s < mixes.size(); ++s) {
    Server srv;
    core::RigConfig cfg;
    cfg.models = mixes[s];
    cfg.seed = 100 + s;
    if (s == 2) {
      // The swin server runs open-loop at 35% offered load: plenty of
      // idle GPU time, so extra budget buys it almost nothing.
      cfg.offered_load = {{0.0, 0.35}};
    }
    srv.rig = std::make_unique<core::ServerRig>(cfg);
    srv.controller = std::make_unique<core::CapGpuController>(
        core::CapGpuConfig{}, srv.rig->device_ranges(),
        bench::testbed_model().model, Watts{kRackBudget / 3.0},
        srv.rig->latency_models());
    auto* rig_ptr = srv.rig.get();
    srv.loop = std::make_unique<core::ControlLoop>(
        srv.rig->engine(), srv.rig->hal(), srv.rig->rapl(), *srv.controller,
        core::ControlLoopConfig{},
        [rig_ptr] { return rig_ptr->normalized_throughputs(); });
    srv.loop->start();

    rack::ServerEndpoint ep;
    ep.name = "server-" + std::to_string(s);
    auto* ctl = srv.controller.get();
    auto* loop = srv.loop.get();
    ep.set_budget = [ctl](Watts w) { ctl->set_set_point(w); };
    ep.measured_power = [loop] {
      return loop->power_trace().empty()
                 ? 0.0
                 : loop->power_trace().values().back();
    };
    ep.demand = [rig_ptr] { return rig_ptr->gpu_demand(); };
    ep.priority = (s == 0) ? 3.0 : 1.0;  // server 0 is "production"
    ep.bounds = {700.0, 1200.0};
    coordinator.add_server(std::move(ep));
    servers.push_back(std::move(srv));
  }

  constexpr std::size_t kPeriods = 80;
  telemetry::RunningStats rack_power;
  for (std::size_t k = 1; k <= kPeriods; ++k) {
    for (auto& s : servers) {
      s.rig->engine().run_until(s.rig->engine().now() + 4.0);
    }
    if (k % 5 == 0) coordinator.rebalance();
    if (k > kPeriods / 2) rack_power.add(coordinator.total_power());
  }

  RackOutcome out;
  out.rack_power_mean = rack_power.mean();
  out.budgets = coordinator.budgets();
  for (auto& s : servers) {
    double thr = 0.0;
    const double now = s.rig->engine().now();
    for (std::size_t i = 0; i < s.rig->gpu_count(); ++i) {
      thr += s.rig->stream(i).images_throughput().rate(now, 40.0);
    }
    out.throughputs.push_back(thr);
    out.rack_throughput += thr;
    s.loop->stop();
  }
  return out;
}

const char* policy_name(rack::RackPolicy p) {
  switch (p) {
    case rack::RackPolicy::kEqual: return "equal";
    case rack::RackPolicy::kDemandProportional: return "demand-proportional";
    case rack::RackPolicy::kPriorityAware: return "priority-aware";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  capgpu::bench::init(argc, argv);
  bench::print_banner("Extension: rack budget policies over CapGPU servers",
                      "rack-scope power oversubscription (cf. Dynamo)");
  (void)bench::testbed_model();

  std::vector<rack::RackPolicy> policies{
      rack::RackPolicy::kEqual, rack::RackPolicy::kDemandProportional,
      rack::RackPolicy::kPriorityAware};

  telemetry::Table t(
      "2700 W rack: resnet-heavy + mixed (saturated) / swin (35% load)");
  t.set_header({"Policy", "rack W", "budgets W", "per-server img/s",
                "rack img/s"});
  // Each policy's three-server rack is an independent scenario.
  runner::ScenarioRunner sr({bench::jobs()});
  const std::vector<RackOutcome> outcomes = sr.map(
      policies.size(), [&](std::size_t idx) { return run_policy(policies[idx]); });
  for (std::size_t k = 0; k < policies.size(); ++k) {
    const auto& o = outcomes[k];
    std::string budgets;
    std::string thr;
    for (std::size_t i = 0; i < o.budgets.size(); ++i) {
      if (i > 0) {
        budgets += '/';
        thr += '/';
      }
      budgets += telemetry::fmt(o.budgets[i], 0);
      thr += telemetry::fmt(o.throughputs[i], 0);
    }
    t.add_row({policy_name(policies[k]), telemetry::fmt(o.rack_power_mean, 1),
               budgets, thr, telemetry::fmt(o.rack_throughput, 1)});
  }
  t.print();

  std::printf("\nShape checks:\n");
  // The lightly-loaded swin server cannot absorb its equal share, so the
  // rack draws under budget for kEqual; the demand policy reallocates that
  // headroom to the saturated servers.
  std::printf("  demand-aware moves budget to saturated servers: %s\n",
              (outcomes[1].budgets[0] > outcomes[1].budgets[2] + 100.0 &&
               outcomes[1].budgets[1] > outcomes[1].budgets[2] + 100.0)
                  ? "PASS"
                  : "FAIL");
  std::printf("  demand-aware beats the equal split on rack throughput: %s\n",
              outcomes[1].rack_throughput > outcomes[0].rack_throughput + 2.0
                  ? "PASS"
                  : "FAIL");
  std::printf("  demand-aware uses more of the rack budget:      %s\n",
              outcomes[1].rack_power_mean > outcomes[0].rack_power_mean + 10.0
                  ? "PASS"
                  : "FAIL");
  std::printf("  priority-aware favours the production server:   %s\n",
              outcomes[2].budgets[0] > outcomes[2].budgets[1] + 100.0
                  ? "PASS"
                  : "FAIL");
  return 0;
}
