#include "workload/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "workload/cpu_load.hpp"
#include "workload/latency_law.hpp"

namespace capgpu::workload {
namespace {

/// Harness: one stream on a 1-GPU testbed with controllable frequencies.
struct PipelineHarness {
  sim::Engine engine;
  hw::ServerModel server = hw::ServerModel::v100_testbed(1);
  std::unique_ptr<InferenceStream> stream;

  explicit PipelineHarness(StreamParams params, std::uint64_t seed = 1) {
    stream = std::make_unique<InferenceStream>(engine, server, 0, params,
                                               Rng(seed));
  }

  void run(double seconds) { engine.run_until(engine.now() + seconds); }
};

StreamParams fast_model(std::size_t workers = 1) {
  StreamParams p;
  p.model.name = "test";
  p.model.batch_size = 10;
  p.model.e_min_batch_s = 0.2;
  p.model.gamma = 0.91;
  p.model.gpu_f_max = 1350_MHz;
  p.model.preprocess_s_ghz = 0.02;
  p.model.gpu_busy_util = 0.9;
  p.model.jitter_frac = 0.0;  // deterministic timing for analytic checks
  p.n_preprocess_workers = workers;
  return p;
}

TEST(Pipeline, GpuBoundThroughputMatchesCapacity) {
  // CPU fast (supply >> demand), GPU at max: throughput == batch/e_min.
  PipelineHarness h(fast_model(2));
  h.server.cpu().set_frequency(2.4_GHz);     // supply 2*120 img/s
  h.server.gpu(0).set_core_clock(1350_MHz);  // capacity 50 img/s
  h.stream->start();
  h.run(100.0);
  const double rate = h.stream->images_throughput().rate(100.0, 50.0);
  EXPECT_NEAR(rate, 50.0, 2.5);
}

TEST(Pipeline, CpuBoundThroughputMatchesSupply) {
  // One slow worker: supply = f_ghz / preprocess_s_ghz = 1.0/0.02 = 50,
  // GPU capacity 50 at max clock... make CPU clearly the bottleneck.
  StreamParams p = fast_model(1);
  p.model.preprocess_s_ghz = 0.05;  // supply at 1 GHz = 20 img/s
  PipelineHarness h(p);
  h.server.cpu().set_frequency(1_GHz);
  h.server.gpu(0).set_core_clock(1350_MHz);  // capacity 50 img/s
  h.stream->start();
  h.run(100.0);
  const double rate = h.stream->images_throughput().rate(100.0, 50.0);
  EXPECT_NEAR(rate, 20.0, 1.5);
}

TEST(Pipeline, ThroughputIsMinOfSupplyAndCapacity) {
  StreamParams p = fast_model(1);
  p.model.preprocess_s_ghz = 0.04;  // supply at 2 GHz = 50 img/s
  PipelineHarness h(p);
  h.server.cpu().set_frequency(2_GHz);
  h.server.gpu(0).set_core_clock(675_MHz);  // capacity ~ 10/0.2/(2)^.91 ~ 26.6
  h.stream->start();
  h.run(100.0);
  const double capacity =
      10.0 / latency_at(0.2, 1350_MHz, 675_MHz, 0.91);
  const double rate = h.stream->images_throughput().rate(100.0, 50.0);
  EXPECT_NEAR(rate, capacity, 2.0);
}

TEST(Pipeline, BatchLatencyFollowsLatencyLaw) {
  PipelineHarness h(fast_model(2));
  h.server.cpu().set_frequency(2.4_GHz);
  h.server.gpu(0).set_core_clock(675_MHz);
  h.stream->start();
  h.run(60.0);
  const double expected = latency_at(0.2, 1350_MHz, 675_MHz, 0.91);
  EXPECT_NEAR(h.stream->batch_latency().mean(60.0, 30.0), expected, 1e-9);
}

TEST(Pipeline, PreprocessComputeLatencyScalesWithCpuFrequency) {
  PipelineHarness h(fast_model(1));
  h.server.cpu().set_frequency(1_GHz);
  h.server.gpu(0).set_core_clock(1350_MHz);
  h.stream->start();
  h.run(30.0);
  EXPECT_NEAR(h.stream->preprocess_compute_latency().mean(30.0, 10.0),
              0.02 / 1.0, 1e-9);
}

TEST(Pipeline, BlockedProducersInflateTotalPreprocessLatency) {
  // GPU far too slow: queue backs up, workers block.
  StreamParams p = fast_model(4);
  p.model.e_min_batch_s = 5.0;  // capacity 2 img/s << supply
  PipelineHarness h(p);
  h.server.cpu().set_frequency(2.4_GHz);
  h.server.gpu(0).set_core_clock(1350_MHz);
  h.stream->start();
  h.run(200.0);
  const double compute =
      h.stream->preprocess_compute_latency().mean(200.0, 100.0);
  const double total = h.stream->preprocess_latency().mean(200.0, 100.0);
  EXPECT_GT(total, 5.0 * compute);  // dominated by blocking
}

TEST(Pipeline, QueueDelayPositiveAndBounded) {
  PipelineHarness h(fast_model(2));
  h.server.cpu().set_frequency(2.4_GHz);
  h.server.gpu(0).set_core_clock(1350_MHz);
  h.stream->start();
  h.run(60.0);
  const double qd = h.stream->queue_delay().mean(60.0, 30.0);
  EXPECT_GT(qd, 0.0);
  // Bounded by (queue capacity / throughput): 20 / 50 = 0.4 s plus a batch.
  EXPECT_LT(qd, 1.0);
}

TEST(Pipeline, GpuUtilizationReflectsBusyFraction) {
  // GPU-bound: utilization should sit at the model's busy level.
  PipelineHarness h(fast_model(2));
  h.server.cpu().set_frequency(2.4_GHz);
  h.server.gpu(0).set_core_clock(1350_MHz);
  h.stream->start();
  h.run(10.0);
  // At some instant mid-run the GPU is either busy (0.9) or idle (0.0).
  const double u = h.server.gpu(0).utilization();
  EXPECT_TRUE(u == 0.0 || u == 0.9);
}

TEST(Pipeline, WorkerComputeCallbackBalances) {
  PipelineHarness h(fast_model(3));
  long delta_sum = 0;
  long max_seen = 0;
  h.stream->on_worker_compute_change = [&](int d) {
    delta_sum += d;
    max_seen = std::max(max_seen, delta_sum);
  };
  h.server.cpu().set_frequency(2.4_GHz);
  h.server.gpu(0).set_core_clock(1350_MHz);
  h.stream->start();
  h.run(20.0);
  EXPECT_GE(delta_sum, 0);
  EXPECT_LE(delta_sum, 3);
  EXPECT_EQ(max_seen, 3);  // all three workers were computing at once
}

TEST(Pipeline, WorkerComputeCallbackFiresOnlyWhenAWorkerStops) {
  // A worker that finishes an image and starts the next one inside the same
  // event reports nothing; it reports -1 only when it blocks on a full
  // queue or idles with no arrival due, and +1 when it starts again.
  {
    // CPU-bound single worker: it never blocks, so the initial start is its
    // only report.
    StreamParams p = fast_model(1);
    p.model.preprocess_s_ghz = 0.05;
    PipelineHarness h(p);
    std::vector<int> calls;
    h.stream->on_worker_compute_change = [&](int d) { calls.push_back(d); };
    h.server.cpu().set_frequency(1_GHz);
    h.server.gpu(0).set_core_clock(1350_MHz);
    h.stream->start();
    h.run(50.0);
    EXPECT_GT(h.stream->images_completed(), 900u);
    EXPECT_EQ(calls, std::vector<int>{+1});
  }
  {
    // GPU-bound: a worker blocks on the full queue at most once per batch
    // and is woken when that batch starts.
    constexpr std::size_t kWorkers = 2;
    PipelineHarness h(fast_model(kWorkers));
    std::size_t calls = 0;
    long sum = 0;
    long lo = 0;
    long hi = 0;
    h.stream->on_worker_compute_change = [&](int d) {
      ++calls;
      sum += d;
      lo = std::min(lo, sum);
      hi = std::max(hi, sum);
    };
    h.server.cpu().set_frequency(2.4_GHz);
    h.server.gpu(0).set_core_clock(1350_MHz);
    h.stream->start();
    h.run(50.0);
    const std::uint64_t batches = h.stream->batches_completed();
    EXPECT_GT(batches, 200u);
    EXPECT_LE(calls, 2 * kWorkers * (batches + 1) + kWorkers);
    EXPECT_GE(lo, 0);
    EXPECT_LE(hi, static_cast<long>(kWorkers));
  }
  {
    // Open loop: bursts of one batch each, far enough apart that the queue
    // never fills. Both workers wake on a burst (+1) and idle once it is
    // drained (-1); finishing an image mid-burst reports nothing.
    constexpr int kBursts = 20;
    StreamParams p = fast_model(2);
    p.open_loop = true;
    PipelineHarness h(p);
    int starts = 0;
    int stops = 0;
    h.stream->on_worker_compute_change = [&](int d) {
      if (d > 0) {
        ++starts;
        return;
      }
      ++stops;
      EXPECT_EQ(h.stream->pending_requests(), 0u) << "stopped at t = "
                                                  << h.engine.now();
      EXPECT_FALSE(h.stream->queue().full());
    };
    h.server.cpu().set_frequency(2.4_GHz);
    h.server.gpu(0).set_core_clock(1350_MHz);
    h.stream->start();
    for (int k = 0; k < kBursts; ++k) {
      h.engine.schedule_at(0.5 + k, [&] { h.stream->submit_requests(10); });
    }
    h.run(kBursts + 1.0);
    EXPECT_EQ(h.stream->images_completed(), 10u * kBursts);
    EXPECT_EQ(starts, 2 * kBursts);
    EXPECT_EQ(stops, 2 * kBursts);
  }
}

TEST(Pipeline, DeterministicWithSameSeed) {
  auto run_once = [](std::uint64_t seed) {
    StreamParams p = fast_model(2);
    p.model.jitter_frac = 0.05;
    PipelineHarness h(p, seed);
    h.server.cpu().set_frequency(2.4_GHz);
    h.server.gpu(0).set_core_clock(900_MHz);
    h.stream->start();
    h.run(50.0);
    return h.stream->images_completed();
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43) + 1000000);  // sanity
}

TEST(Pipeline, CountersTrackCompletions) {
  PipelineHarness h(fast_model(2));
  h.server.cpu().set_frequency(2.4_GHz);
  h.server.gpu(0).set_core_clock(1350_MHz);
  h.stream->start();
  h.run(30.0);
  EXPECT_EQ(h.stream->images_completed(),
            h.stream->batches_completed() * 10);
  EXPECT_GT(h.stream->batches_completed(), 100u);
}

TEST(Pipeline, FrequencyChangeMidRunShiftsThroughput) {
  PipelineHarness h(fast_model(2));
  h.server.cpu().set_frequency(2.4_GHz);
  h.server.gpu(0).set_core_clock(1350_MHz);
  h.stream->start();
  h.run(50.0);
  const double fast_rate = h.stream->images_throughput().rate(50.0, 20.0);
  h.server.gpu(0).set_core_clock(435_MHz);
  h.run(50.0);
  const double slow_rate = h.stream->images_throughput().rate(100.0, 20.0);
  EXPECT_LT(slow_rate, 0.6 * fast_rate);
}

TEST(Pipeline, InvalidConfigurationsThrow) {
  sim::Engine engine;
  hw::ServerModel server = hw::ServerModel::v100_testbed(1);
  StreamParams p = fast_model();
  EXPECT_THROW(InferenceStream(engine, server, 1, p, Rng(1)),
               capgpu::InvalidArgument);  // gpu index out of range
  StreamParams no_workers = fast_model(1);
  no_workers.n_preprocess_workers = 0;
  EXPECT_THROW(InferenceStream(engine, server, 0, no_workers, Rng(1)),
               capgpu::InvalidArgument);
  StreamParams tiny_queue = fast_model();
  tiny_queue.queue_capacity = 5;  // < batch_size 10
  EXPECT_THROW(InferenceStream(engine, server, 0, tiny_queue, Rng(1)),
               capgpu::InvalidArgument);
}

TEST(Pipeline, DoubleStartThrows) {
  PipelineHarness h(fast_model());
  h.stream->start();
  EXPECT_THROW(h.stream->start(), capgpu::InvalidArgument);
}

TEST(Pipeline, PinnedPreprocessFrequencyDecouplesFromCpu) {
  // With the provider pinned at 2.4 GHz, lowering the package frequency
  // must not slow preprocessing (paper Sec 6.3 core-domain split).
  StreamParams p = fast_model(1);
  PipelineHarness h(p);
  h.stream->preprocess_frequency = [] { return 2.4_GHz; };
  h.server.cpu().set_frequency(1_GHz);
  h.server.gpu(0).set_core_clock(1350_MHz);
  h.stream->start();
  h.run(30.0);
  EXPECT_NEAR(h.stream->preprocess_compute_latency().mean(30.0, 10.0),
              0.02 / 2.4, 1e-9);
}

/// Everything the lazy worker chain can influence in one run, doubles kept
/// as bit patterns where the comparison must be exact.
struct LazyRunRecord {
  std::vector<std::vector<std::uint64_t>> monitors;  ///< time, value, ...
  std::vector<std::pair<double, double>> util_readings;    ///< (t, util)
  std::vector<std::pair<double, double>> compute_samples;  ///< (end, dur)
  std::uint64_t images{0};
  std::uint64_t batches{0};
  std::uint64_t heap_events{0};
  std::size_t zero_queue_delays{0};
  double blocked_s{0.0};  ///< push latency beyond compute, summed
};

LazyRunRecord run_lazy_worker_scenario(bool dense_catch_up) {
  // Closed loop, 3 workers, preprocessing throttled with the package: the
  // heap events below move the stream between GPU-bound phases (consumer
  // busy, workers blocking on a full queue: completions on the chain) and
  // CPU-bound ones (consumer waiting on pushes: completions in the heap).
  StreamParams p = fast_model(3);
  p.model.preprocess_s_ghz = 0.1;
  p.model.jitter_frac = 0.05;
  PipelineHarness h(p, 21);
  HostCpuLoad load(h.server.cpu(), 8);
  h.stream->on_worker_compute_change = [&](int d) {
    load.worker_compute_delta(d);
  };
  h.server.cpu().set_frequency(2.4_GHz);
  h.server.gpu(0).set_core_clock(1350_MHz);
  h.stream->start();
  auto& cpu = h.server.cpu();
  auto& gpu = h.server.gpu(0);
  auto& stream = *h.stream;
  auto& e = h.engine;
  e.schedule_at(5.37, [&] { cpu.set_frequency(1.0_GHz); });
  e.schedule_at(11.83, [&] { gpu.set_core_clock(800_MHz); });
  e.schedule_at(13.1, [&] { stream.set_batch_size(20); });
  e.schedule_at(17.29, [&] { cpu.set_frequency(2.4_GHz); });
  e.schedule_at(23.61, [&] { stream.set_batch_size(5); });
  e.schedule_at(27.77, [&] {
    cpu.set_frequency(1.4_GHz);
    gpu.set_core_clock(1350_MHz);
  });
  e.schedule_at(33.05, [&] { stream.set_batch_size(10); });
  LazyRunRecord r;
  e.schedule_periodic(1.0, [&] {
    r.util_readings.emplace_back(e.now(), load.utilization());
  });
  if (dense_catch_up) e.schedule_periodic(0.001, [] {});
  h.run(40.0);

  const auto keep = [&r](const SampleRing& ring) {
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < ring.size(); ++i) {
      out.push_back(std::bit_cast<std::uint64_t>(ring[i].time));
      out.push_back(std::bit_cast<std::uint64_t>(ring[i].value));
    }
    r.monitors.push_back(std::move(out));
  };
  keep(stream.images_throughput().samples());
  keep(stream.batch_latency().samples());
  keep(stream.queue_delay().samples());
  keep(stream.preprocess_latency().samples());
  keep(stream.preprocess_compute_latency().samples());
  const SampleRing& compute = stream.preprocess_compute_latency().samples();
  double compute_s = 0.0;
  for (std::size_t i = 0; i < compute.size(); ++i) {
    r.compute_samples.emplace_back(compute[i].time, compute[i].value);
    compute_s += compute[i].value;
  }
  const SampleRing& pushed = stream.preprocess_latency().samples();
  double pushed_s = 0.0;
  for (std::size_t i = 0; i < pushed.size(); ++i) pushed_s += pushed[i].value;
  r.blocked_s = pushed_s - compute_s;
  const SampleRing& delays = stream.queue_delay().samples();
  for (std::size_t i = 0; i < delays.size(); ++i) {
    if (delays[i].value == 0.0) ++r.zero_queue_delays;
  }
  r.images = stream.images_completed();
  r.batches = stream.batches_completed();
  r.heap_events = e.events_executed();
  return r;
}

TEST(Pipeline, LazyWorkersMatchEveryObserver) {
  const LazyRunRecord r = run_lazy_worker_scenario(false);
  // The run crosses both phases: pushes that started a waiting consumer
  // (zero queue delay) and workers blocked on a full queue.
  EXPECT_GT(r.zero_queue_delays, 20u);
  EXPECT_GT(r.blocked_s, 1.0);
  // Most completions stayed off the heap.
  EXPECT_LT(r.heap_events, r.images / 2);

  // Utilization oracle: every reading counts exactly the workers whose
  // compute interval (end - duration, end] covers that instant. Readings
  // stop a second before the horizon, so every covering image completed.
  ASSERT_EQ(r.util_readings.size(), 40u);
  for (std::size_t k = 0; k + 1 < r.util_readings.size(); ++k) {
    const auto [t, util] = r.util_readings[k];
    int computing = 0;
    for (const auto& [end, dur] : r.compute_samples) {
      if (end - dur < t && t < end) ++computing;
    }
    EXPECT_EQ(util, computing / 8.0) << "t = " << t;
  }

  // Catch-up density oracle: a 1-ms no-op heap event makes the chain catch
  // up a thousand times a second instead of only at the events that
  // interact; every observable must stay bitwise the same.
  const LazyRunRecord dense = run_lazy_worker_scenario(true);
  ASSERT_EQ(dense.monitors.size(), r.monitors.size());
  for (std::size_t m = 0; m < r.monitors.size(); ++m) {
    EXPECT_EQ(dense.monitors[m], r.monitors[m]) << "monitor " << m;
  }
  EXPECT_EQ(dense.util_readings, r.util_readings);
  EXPECT_EQ(dense.images, r.images);
  EXPECT_EQ(dense.batches, r.batches);
}

}  // namespace
}  // namespace capgpu::workload
