// Control-loop tracing against simulated time.
//
// Records span ('X'), instant ('i') and counter ('C') events with
// timestamps taken from a registered clock (the sim::Engine of the active
// rig — see telemetry/runtime.hpp) and exports them as Chrome trace-event
// JSON (loadable in Perfetto / chrome://tracing) or as a JSONL structured
// event stream, which replaces ad-hoc log forensics on the control path.
//
// Recording is off by default: every emit call is a cheap early-return
// until a bench enables it via --trace-out. Tracks model the subsystems
// (control loop, per-GPU pipelines, governors, rack) as named threads;
// each ServerRig opens a new "process" so sequential runs inside one bench
// binary do not overlap on the timeline.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

namespace capgpu::telemetry {

/// One key/value pair attached to an event. Numbers are kept unquoted in
/// the JSON output so Perfetto can plot counter tracks.
struct TraceArg {
  TraceArg(std::string k, double v);
  TraceArg(std::string k, std::string v);
  TraceArg(std::string k, const char* v) : TraceArg(std::move(k), std::string(v)) {}

  std::string key;
  std::string value;  ///< pre-rendered
  bool is_number{false};
};

/// One recorded event (Chrome trace-event fields).
struct TraceEvent {
  char phase{'i'};      ///< 'X' span, 'i' instant, 'C' counter, 'M' metadata
  std::string name;
  std::string category;
  int pid{0};
  int tid{0};
  double ts_us{0.0};
  double dur_us{0.0};   ///< 'X' only
  std::vector<TraceArg> args;
};

/// The recorder. Thread-compatible (the DES is single-threaded).
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer, Context::global().tracer().
  static Tracer& global();
  /// The tracer instrumentation on this thread writes to: that of the
  /// thread's bound telemetry::Context (see context.hpp).
  static Tracer& current();

  /// Appends another tracer's events, shifting their pids past this
  /// tracer's so runs stay distinct on the timeline. Merging scenario
  /// tracers in scenario order reproduces the sequential export byte for
  /// byte. The source is drained.
  void merge_from(Tracer&& other);

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Hard cap on recorded events; further emits are counted as dropped.
  void set_max_events(std::size_t max) { max_events_ = max; }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

  /// Virtual-time source in seconds (null clears). Without a clock all
  /// timestamps are 0.
  void set_clock(std::function<double()> now_seconds);
  [[nodiscard]] double now_seconds() const;

  /// Opens a new trace process (one per rig/run): bumps the pid, resets
  /// track numbering and emits process_name metadata. Returns the pid.
  int begin_run(const std::string& name);

  /// Pid of the most recent begin_run (0 before the first). merge_from
  /// shifts incoming pids past this value, so it doubles as the offset
  /// sibling registries (telemetry::SloRegistry) need to stay aligned.
  [[nodiscard]] int pid() const noexcept { return pid_; }

  /// Registers a named track (thread) under the current pid.
  int register_track(const std::string& name);

  /// Complete span over [t0_s, t1_s] (virtual seconds).
  void complete(int tid, const std::string& name, const std::string& category,
                double t0_s, double t1_s, std::vector<TraceArg> args = {});
  /// Instant event at the current clock.
  void instant(int tid, const std::string& name, const std::string& category,
               std::vector<TraceArg> args = {});
  /// Counter sample at the current clock (args are the plotted values).
  void counter(int tid, const std::string& name, const std::string& category,
               std::vector<TraceArg> args);

  /// Open-span API for work that spans multiple DES events (e.g. a GPU
  /// batch): begin stamps the clock, end emits the 'X' event. Returns 0
  /// while disabled; end_span(0) is a no-op.
  std::uint64_t begin_span(int tid, const std::string& name,
                           const std::string& category);
  void end_span(std::uint64_t span, std::vector<TraceArg> args = {});

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  void clear();

  /// Chrome trace-event JSON ({"traceEvents": [...]}); open in Perfetto.
  void write_chrome_json(std::ostream& out) const;
  /// One JSON object per line (structured event stream).
  void write_jsonl(std::ostream& out) const;
  void save_chrome_json(const std::string& path) const;
  void save_jsonl(const std::string& path) const;

 private:
  struct OpenSpan {
    int tid{0};
    std::string name;
    std::string category;
    double t0_s{0.0};
  };

  void push(TraceEvent event);

  bool enabled_{false};
  std::function<double()> clock_;
  std::size_t max_events_{2'000'000};
  std::size_t dropped_{0};
  int pid_{0};
  int next_tid_{1};
  std::uint64_t next_span_{1};
  std::vector<TraceEvent> events_;
  std::unordered_map<std::uint64_t, OpenSpan> open_spans_;
};

}  // namespace capgpu::telemetry
