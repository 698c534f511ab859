// Tracing must not change what is simulated. For every workload, a traced
// repetition must reproduce the untraced one's SimOutcome bit for bit and
// pass every output check, and so must the traced-only reruns: the fleet's
// 2-worker, 1-worker and serial-reference runs must all equal the untraced
// 2-worker campaign.
//
//   cmake --build <build> --target perfbench_transparency_test
//   ctest --test-dir <build>
#include <cstdio>
#include <string>

#include "workloads.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s: %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void print_failures(const perfbench::SimOutcome& sim) {
  for (const std::string& f : sim.failures) {
    std::printf("  check failed: %s\n", f.c_str());
  }
}

}  // namespace

int main() {
  using perfbench::SimOutcome;
  constexpr std::uint64_t kSeed = 20260;

  for (const std::string& name : perfbench::workload_names()) {
    auto w = perfbench::make_workload(name, kSeed);
    w->setup();
    const SimOutcome plain = w->run(nullptr);
    perfbench::Trace trace;
    const SimOutcome traced = w->run(&trace);
    SimOutcome checks;
    w->trace_extras(trace, plain, checks);
    print_failures(plain);
    print_failures(checks);
    expect(plain.attempted > 0 && plain.failed == 0,
           name + ": every output check passes");
    expect(plain == traced, name + ": traced outcome equals untraced");
    expect(checks.failed == 0,
           name + ": traced-only reruns equal the untraced run");
    expect(!trace.spans().empty(), name + ": traced run recorded spans");
  }

  std::printf("%s\n", g_failures == 0 ? "PASS" : "FAIL");
  return g_failures == 0 ? 0 : 1;
}
