// The sketch's bucket-key table is built on first use and then shared by
// every sketch of its spec on every thread. Fleet workers construct their
// rigs' sketches concurrently, so first use may race: this test starts it
// from four threads at once (it runs under ThreadSanitizer with the runner
// suite, scripts/run_tsan.sh) and checks every thread's keys against the
// libm reference.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "sketch_reference.hpp"
#include "telemetry/sketch.hpp"

namespace capgpu::telemetry {
namespace {

TEST(QuantileSketchTable, ConcurrentFirstUseSharesOneExactTable) {
  // A spec nothing else in this binary uses, so its table is built here.
  const QuantileSketchSpec spec{0.0173, 2e-6};
  constexpr int kThreads = 4;
  std::atomic<int> arrived{0};
  std::vector<int> mismatched(kThreads, 0);
  std::vector<int> quantiles_off(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      QuantileSketch s(spec);
      ReferenceSketch ref(spec);
      Rng rng(100 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 20000; ++i) {
        // Log-uniform over the table range and a binade past each end.
        const double x = std::exp(rng.uniform(std::log(1e-6), std::log(1e4)));
        if (s.bucket_key(x) != ref.key(x)) ++mismatched[t];
        s.observe(x);
        ref.observe_many(x, 1);
      }
      for (int i = 0; i <= 100; ++i) {
        if (s.quantile(i / 100.0) != ref.quantile(i / 100.0)) {
          ++quantiles_off[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatched[t], 0) << "thread " << t;
    EXPECT_EQ(quantiles_off[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace capgpu::telemetry
