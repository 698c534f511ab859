// Engine hot-path microbenchmark: the pooled-slot sim::Engine's events/s
// on the event patterns the simulations actually generate.
//
// Results print as a table and are written to a JSON report (default
// BENCH_engine.json, override with --out <path>) which scripts/run_perf.sh
// merges into BENCH_perf.json; docs/performance.md describes the format.
// The request-timeline overhead guards below print PASS/FAIL, and the
// bench exits 1 when one fails.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "hw/server_model.hpp"
#include "sim/engine.hpp"
#include "telemetry/table.hpp"
#include "workload/pipeline.hpp"

using namespace capgpu;

namespace {

// The workloads mirror what a rig run schedules: a bank of periodic
// timers (meters, control loops, stream monitors), one-shot chains
// (batch completion scheduling the next batch), and cancel churn
// (re-armed watchdogs and deadline timers that almost never fire).
// Captures are sized like the real call sites — pipeline callbacks grab
// `this` plus two or three values (24-40 bytes), past std::function's
// inline buffer.

struct MonitorState {
  std::uint64_t* acc;
  double gain;
  double offset;
  double last;
};

void workload_periodic(sim::Engine& e) {
  std::uint64_t acc = 0;
  for (int i = 0; i < 64; ++i) {
    MonitorState st{&acc, 1.0 + 0.01 * i, 0.5 * i, 0.0};
    e.schedule_periodic(1.0 + 0.01 * i, [st]() mutable {
      st.last = st.gain * st.last + st.offset;
      ++*st.acc;
    });
  }
  e.run_until(16000.0);
}

// Self-propagating chain: each completion schedules the next batch with a
// fresh callable, exactly like the pipeline's consumer_finish_batch
// (captures object pointer, accumulator, and the batch latency).
struct ChainEvent {
  sim::Engine* e;
  std::uint64_t* acc;
  double exec;
  void operator()() const {
    ++*acc;
    if (e->now() < 16000.0) e->schedule_after(exec, ChainEvent{*this});
  }
};

void workload_chains(sim::Engine& e) {
  std::uint64_t acc = 0;
  for (int c = 0; c < 32; ++c) {
    e.schedule_after(0.5 + 0.01 * c,
                     ChainEvent{&e, &acc, 1.0 + 0.001 * c});
  }
  e.run_until(17000.0);
}

void workload_cancel_heavy(sim::Engine& e) {
  // Watchdog pattern: arm a deadline, cancel and re-arm before it fires.
  std::uint64_t acc = 0;
  e.schedule_periodic(1.0, [&acc] { ++acc; });
  sim::EventId watchdog{};
  for (int round = 0; round < 200000; ++round) {
    if (round != 0) e.cancel(watchdog);
    MonitorState st{&acc, 1000.0, double(round), 0.0};
    watchdog = e.schedule_after(100.0, [st]() mutable {
      st.last = st.offset;
      *st.acc += std::uint64_t(st.gain);
    });
    e.run_until(e.now() + 0.01);
  }
}

void workload_mixed(sim::Engine& e) {
  std::uint64_t acc = 0;
  for (int i = 0; i < 16; ++i) {
    MonitorState st{&acc, 0.9, 0.05 * i, 0.0};
    e.schedule_periodic(0.9 + 0.05 * i, [st]() mutable {
      st.last += st.gain;
      ++*st.acc;
    });
  }
  auto chain = std::make_shared<std::function<void()>>();
  *chain = [&e, chain, &acc] {
    ++acc;
    if (e.now() < 9000.0) {
      e.schedule_after(0.7, *chain);
      // A deadline that is always cancelled before firing.
      const auto t = e.schedule_after(50.0, [&acc] { acc += 1000; });
      e.schedule_after(0.5, [&e, t] { e.cancel(t); });
    }
  };
  e.schedule_after(0.1, *chain);
  e.run_until(9100.0);
  *chain = nullptr;  // the callback holds `chain`: break the cycle
}

struct Measurement {
  double events_per_s{0.0};
  std::uint64_t events{0};
};

struct Row {
  const char* name;
  void (*workload)(sim::Engine&);
  Measurement best;
};

// Best-of keeps the least-perturbed rep: external noise only ever slows a
// run down, so the maximum converges on the undisturbed speed.
void measure(Row& row, int reps) {
  for (int r = 0; r < reps; ++r) {
    sim::Engine e;
    const auto t0 = std::chrono::steady_clock::now();
    row.workload(e);
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    const Measurement m{
        secs > 0.0 ? static_cast<double>(e.events_executed()) / secs : 0.0,
        e.events_executed()};
    if (m.events_per_s > row.best.events_per_s) row.best = m;
  }
}

// --- Request-timeline overhead guard -------------------------------------
//
// The per-request latency attribution (RequestTimeline stamps + per-stage
// sketches) runs inside the pipeline's hot callbacks. With tracing
// disabled — the default for every simulation that does not ask for
// --trace-out/--events-out — it must stay within budget of the
// pre-attribution fast path (StreamParams::stage_stats = false). Two
// streams are guarded:
//   - jitter-free: every batch repeats the last one, so the batch
//     fingerprint always matches and attribution is a counted replay —
//     the best case, held to 5%;
//   - jittered: the model zoo's default ±3% latency jitter, as every rig
//     stream runs, so no batch matches and every batch pays the full
//     sketch path — held to 15%.
struct GuardedStream {
  const char* name;
  double jitter_frac;
  double budget_frac;
};
constexpr GuardedStream kGuardedStreams[] = {
    {"jitter-free", 0.0, 0.05},
    {"jittered", 0.03, 0.15},
};

// The guard's rate is images completed per host second. Engine events are
// no measure of the stream's speed: a busy stream's preprocess completions
// run on a lazy chain, outside the engine's event count.
struct StreamRate {
  double images_per_s{0.0};
};

StreamRate run_pipeline_once(bool stage_stats, double jitter_frac) {
  sim::Engine engine;
  hw::ServerModel server = hw::ServerModel::v100_testbed(1);
  server.cpu().set_frequency(2.4_GHz);
  server.gpu(0).set_core_clock(1350_MHz);
  workload::StreamParams p;
  p.model.name = "selfperf";
  p.model.batch_size = 8;
  p.model.e_min_batch_s = 0.05;
  p.model.gamma = 0.91;
  p.model.gpu_f_max = 1350_MHz;
  p.model.preprocess_s_ghz = 0.005;
  p.model.gpu_busy_util = 0.9;
  p.model.jitter_frac = jitter_frac;
  p.n_preprocess_workers = 2;
  p.stage_stats = stage_stats;
  workload::InferenceStream stream(engine, server, 0, p, Rng(1));
  stream.start();
  const auto t0 = std::chrono::steady_clock::now();
  engine.run_until(64000.0);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const auto images = static_cast<double>(stream.images_completed());
  return StreamRate{secs > 0.0 ? images / secs : 0.0};
}

struct OverheadResult {
  StreamRate baseline;  // stage_stats off
  StreamRate timeline;  // stage_stats on
  [[nodiscard]] double overhead_frac() const {
    return baseline.images_per_s > 0.0
               ? 1.0 - timeline.images_per_s / baseline.images_per_s
               : 0.0;
  }
};

OverheadResult measure_timeline_overhead(const GuardedStream& stream,
                                         int reps) {
  // Off/on reps alternate so both configurations sample the same machine
  // conditions, and best-of keeps the least-perturbed rep of each, as in
  // measure() above.
  OverheadResult best;
  for (int i = 0; i < reps; ++i) {
    const StreamRate off = run_pipeline_once(false, stream.jitter_frac);
    if (off.images_per_s > best.baseline.images_per_s) best.baseline = off;
    const StreamRate on = run_pipeline_once(true, stream.jitter_frac);
    if (on.images_per_s > best.timeline.images_per_s) best.timeline = on;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  std::string out_path = "BENCH_engine.json";
  try {
    const auto flags = extract_flags(argc, argv, {"out"});
    if (auto it = flags.find("out"); it != flags.end()) out_path = it->second;
  } catch (const InvalidArgument& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
  bench::print_banner("Engine self-perf: pooled-slot kernel",
                      "events/sec on simulation-shaped workloads");

  constexpr int kReps = 7;
  Row rows[] = {{"periodic-timers", workload_periodic, {}},
                {"oneshot-chains", workload_chains, {}},
                {"cancel-heavy", workload_cancel_heavy, {}},
                {"mixed", workload_mixed, {}}};
  telemetry::Table t("events/sec, best of " + std::to_string(kReps));
  t.set_header({"workload", "events", "pooled ev/s"});
  for (Row& r : rows) {
    measure(r, kReps);
    t.add_row({r.name, std::to_string(r.best.events),
               telemetry::fmt(r.best.events_per_s / 1e6, 2) + "M"});
  }
  t.print();

  // More reps than the engine table: the guard compares two nearly equal
  // speeds, so the best-of maxima need more samples to converge under
  // machine noise.
  constexpr int kOverheadReps = 15;
  std::printf(
      "\n  request-timeline overhead (tracing disabled, best of %d "
      "alternating reps):\n",
      kOverheadReps);
  std::vector<OverheadResult> overheads;
  bool guards_pass = true;
  for (const GuardedStream& g : kGuardedStreams) {
    const OverheadResult& o =
        overheads.emplace_back(measure_timeline_overhead(g, kOverheadReps));
    const bool pass = o.overhead_frac() < g.budget_frac;
    guards_pass = guards_pass && pass;
    std::printf(
        "    %-11s (jitter %.2f): attribution off %.2fM img/s, on %.2fM "
        "img/s -> %.2f%% overhead (target < %.0f%%): %s\n",
        g.name, g.jitter_frac, o.baseline.images_per_s / 1e6,
        o.timeline.images_per_s / 1e6, o.overhead_frac() * 100.0,
        g.budget_frac * 100.0, pass ? "PASS" : "FAIL");
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"engine_selfperf\": {\n    \"reps\": " << kReps
      << ",\n    \"workloads\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const Row& r = rows[i];
    std::snprintf(buf, sizeof(buf),
                  "      {\"name\": \"%s\", \"events\": %llu, "
                  "\"pooled_events_per_s\": %.0f}%s\n",
                  r.name, static_cast<unsigned long long>(r.best.events),
                  r.best.events_per_s, i + 1 < std::size(rows) ? "," : "");
    out << buf;
  }
  std::snprintf(buf, sizeof(buf),
                "    ]\n  },\n"
                "  \"timeline_overhead\": {\n    \"reps\": %d,\n"
                "    \"streams\": [\n",
                kOverheadReps);
  out << buf;
  for (std::size_t i = 0; i < overheads.size(); ++i) {
    const GuardedStream& g = kGuardedStreams[i];
    const OverheadResult& o = overheads[i];
    std::snprintf(buf, sizeof(buf),
                  "      {\"name\": \"%s\", \"jitter_frac\": %.2f, "
                  "\"baseline_images_per_s\": %.0f, "
                  "\"stage_stats_images_per_s\": %.0f, "
                  "\"overhead_frac\": %.4f, \"budget_frac\": %.2f}%s\n",
                  g.name, g.jitter_frac, o.baseline.images_per_s,
                  o.timeline.images_per_s, o.overhead_frac(), g.budget_frac,
                  i + 1 < overheads.size() ? "," : "");
    out << buf;
  }
  out << "    ]\n  }\n}\n";
  std::printf("  [perf] %s\n", out_path.c_str());
  return guards_pass ? 0 : 1;
}
