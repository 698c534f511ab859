// Engine hot-path microbenchmark: the pooled-slot sim::Engine vs the
// pre-overhaul map-based kernel, on the event patterns the simulations
// actually generate.
//
// The old engine is embedded below (LegacyEngine) so the comparison stays
// honest after the rewrite: both kernels compile with the same flags into
// the same binary and run the same workloads. Results print as a table and
// are written to a JSON report (default BENCH_engine.json, override with
// --out <path>) which scripts/run_perf.sh merges into BENCH_perf.json;
// docs/performance.md describes the format. The request-timeline overhead
// guards below print PASS/FAIL, and the bench exits 1 when one fails.
#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
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

namespace legacy {

// The pre-overhaul kernel, verbatim: std::function callbacks, a
// priority_queue of nodes, and an unordered_map of live events consulted
// on every fire.
using SimTime = double;
using EventId = std::uint64_t;

class LegacyEngine {
 public:
  using Callback = std::function<void()>;

  [[nodiscard]] SimTime now() const { return now_; }

  EventId schedule_at(SimTime at, Callback cb) {
    CAPGPU_REQUIRE(at >= now_, "cannot schedule an event in the past");
    CAPGPU_REQUIRE(static_cast<bool>(cb), "cannot schedule a null callback");
    const EventId id = next_id_++;
    live_.emplace(id, State{std::move(cb), false, 0.0});
    queue_.push(Node{at, next_seq_++, id});
    return id;
  }

  EventId schedule_after(SimTime delay, Callback cb) {
    CAPGPU_REQUIRE(delay >= 0.0, "negative delay");
    return schedule_at(now_ + delay, std::move(cb));
  }

  EventId schedule_periodic(SimTime period, Callback cb) {
    CAPGPU_REQUIRE(period > 0.0, "periodic events need a positive period");
    CAPGPU_REQUIRE(static_cast<bool>(cb), "cannot schedule a null callback");
    const EventId id = next_id_++;
    live_.emplace(id, State{std::move(cb), true, period});
    queue_.push(Node{now_ + period, next_seq_++, id});
    return id;
  }

  void cancel(EventId id) { live_.erase(id); }

  bool step() {
    while (!queue_.empty()) {
      const Node node = queue_.top();
      queue_.pop();
      auto it = live_.find(node.id);
      if (it == live_.end()) continue;
      now_ = node.time;
      ++executed_;
      if (it->second.periodic) {
        queue_.push(Node{node.time + it->second.period, next_seq_++, node.id});
        Callback cb = it->second.cb;
        cb();
      } else {
        Callback cb = std::move(it->second.cb);
        live_.erase(it);
        cb();
      }
      return true;
    }
    return false;
  }

  void run_until(SimTime until) {
    CAPGPU_REQUIRE(until >= now_, "run_until target is in the past");
    for (;;) {
      while (!queue_.empty() && !live_.contains(queue_.top().id)) queue_.pop();
      if (queue_.empty() || queue_.top().time > until) break;
      step();
    }
    now_ = until;
  }

  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

 private:
  struct State {
    Callback cb;
    bool periodic{false};
    SimTime period{0.0};
  };
  struct Node {
    SimTime time;
    std::uint64_t seq;
    EventId id;
  };
  struct Later {
    bool operator()(const Node& a, const Node& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  SimTime now_{0.0};
  std::uint64_t next_seq_{0};
  EventId next_id_{1};
  std::uint64_t executed_{0};
  std::priority_queue<Node, std::vector<Node>, Later> queue_;
  std::unordered_map<EventId, State> live_;
};

}  // namespace legacy

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

template <typename EngineT>
void workload_periodic(EngineT& e) {
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
template <typename EngineT>
struct ChainEvent {
  EngineT* e;
  std::uint64_t* acc;
  double exec;
  void operator()() const {
    ++*acc;
    if (e->now() < 16000.0) e->schedule_after(exec, ChainEvent{*this});
  }
};

template <typename EngineT>
void workload_chains(EngineT& e) {
  std::uint64_t acc = 0;
  for (int c = 0; c < 32; ++c) {
    e.schedule_after(0.5 + 0.01 * c,
                     ChainEvent<EngineT>{&e, &acc, 1.0 + 0.001 * c});
  }
  e.run_until(17000.0);
}

template <typename EngineT>
void workload_cancel_heavy(EngineT& e) {
  // Watchdog pattern: arm a deadline, cancel and re-arm before it fires.
  std::uint64_t acc = 0;
  e.schedule_periodic(1.0, [&acc] { ++acc; });
  auto watchdog = decltype(e.schedule_at(0.0, [] {})){};
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

template <typename EngineT>
void workload_mixed(EngineT& e) {
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
}

struct Measurement {
  double events_per_s{0.0};
  std::uint64_t events{0};
};

template <typename EngineT, typename Workload>
Measurement run_once(Workload&& workload) {
  EngineT e;
  const auto t0 = std::chrono::steady_clock::now();
  workload(e);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return Measurement{
      secs > 0.0 ? static_cast<double>(e.events_executed()) / secs : 0.0,
      e.events_executed()};
}

struct Row {
  std::string name;
  Measurement legacy_m;
  Measurement current_m;
  [[nodiscard]] double speedup() const {
    return legacy_m.events_per_s > 0.0
               ? current_m.events_per_s / legacy_m.events_per_s
               : 0.0;
  }
};

// Reps alternate legacy/pooled so both kernels sample the same machine
// conditions — back-to-back blocks would fold timing drift into the ratio.
// Best-of keeps the least-perturbed rep of each.
template <typename Workload>
Row measure_pair(const std::string& name, Workload&& workload, int reps) {
  Row row{name, {}, {}};
  for (int r = 0; r < reps; ++r) {
    const Measurement lm = run_once<legacy::LegacyEngine>(workload);
    if (lm.events_per_s > row.legacy_m.events_per_s) row.legacy_m = lm;
    const Measurement cm = run_once<sim::Engine>(workload);
    if (cm.events_per_s > row.current_m.events_per_s) row.current_m = cm;
  }
  return row;
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
  // Same protocol as measure_pair above: off/on reps alternate so both
  // configurations sample the same machine conditions, and best-of keeps
  // the least-perturbed rep of each — external noise only ever slows a
  // run down, so the maxima converge on the undisturbed speeds.
  OverheadResult best;
  for (int i = 0; i < reps; ++i) {
    const StreamRate off = run_pipeline_once(false, stream.jitter_frac);
    if (off.images_per_s > best.baseline.images_per_s) best.baseline = off;
    const StreamRate on = run_pipeline_once(true, stream.jitter_frac);
    if (on.images_per_s > best.timeline.images_per_s) best.timeline = on;
    if (std::getenv("CAPGPU_SELFPERF_DEBUG")) {
      std::fprintf(stderr, "  %s rep %d: off %.2fM on %.2fM img/s\n",
                   stream.name, i, off.images_per_s / 1e6,
                   on.images_per_s / 1e6);
    }
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
  bench::print_banner("Engine self-perf: pooled-slot kernel vs legacy kernel",
                      "events/sec on simulation-shaped workloads");

  constexpr int kReps = 7;
  std::vector<Row> rows;
  rows.push_back(measure_pair(
      "periodic-timers", [](auto& e) { workload_periodic(e); }, kReps));
  rows.push_back(measure_pair(
      "oneshot-chains", [](auto& e) { workload_chains(e); }, kReps));
  rows.push_back(measure_pair(
      "cancel-heavy", [](auto& e) { workload_cancel_heavy(e); }, kReps));
  rows.push_back(
      measure_pair("mixed", [](auto& e) { workload_mixed(e); }, kReps));

  telemetry::Table t("events/sec, best of " + std::to_string(kReps));
  t.set_header({"workload", "events", "legacy ev/s", "pooled ev/s", "speedup"});
  double worst_speedup = 1e9;
  for (const Row& r : rows) {
    t.add_row({r.name, std::to_string(r.current_m.events),
               telemetry::fmt(r.legacy_m.events_per_s / 1e6, 2) + "M",
               telemetry::fmt(r.current_m.events_per_s / 1e6, 2) + "M",
               telemetry::fmt(r.speedup(), 2) + "x"});
    worst_speedup = std::min(worst_speedup, r.speedup());
  }
  t.print();
  std::printf("\n  worst-case speedup: %.2fx (target >= 1.5x)\n",
              worst_speedup);

  // More reps than the engine table: the guard compares two nearly equal
  // speeds, so the best-of maxima need more samples to converge under
  // machine noise than a 2x-apart engine comparison does.
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
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "      {\"name\": \"%s\", \"events\": %llu, "
                  "\"legacy_events_per_s\": %.0f, "
                  "\"pooled_events_per_s\": %.0f, \"speedup\": %.3f}%s\n",
                  r.name.c_str(),
                  static_cast<unsigned long long>(r.current_m.events),
                  r.legacy_m.events_per_s, r.current_m.events_per_s,
                  r.speedup(), i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    ],\n    \"worst_speedup\": %.3f\n  },\n"
                "  \"timeline_overhead\": {\n    \"reps\": %d,\n"
                "    \"streams\": [\n",
                worst_speedup, kOverheadReps);
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
