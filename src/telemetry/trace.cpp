#include "telemetry/trace.hpp"

#include <fstream>
#include <ostream>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"

namespace capgpu::telemetry {

namespace {

void write_args(std::ostream& out, const std::vector<TraceArg>& args) {
  out << '{';
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i) out << ',';
    out << '"' << json::escape(args[i].key) << "\":";
    if (args[i].is_number) {
      out << args[i].value;
    } else {
      out << '"' << json::escape(args[i].value) << '"';
    }
  }
  out << '}';
}

void write_event(std::ostream& out, const TraceEvent& e) {
  out << "{\"name\":\"" << json::escape(e.name) << "\",\"cat\":\""
      << json::escape(e.category) << "\",\"ph\":\"" << e.phase
      << "\",\"pid\":" << e.pid << ",\"tid\":" << e.tid
      << ",\"ts\":" << json::render_number(e.ts_us);
  if (e.phase == 'X') out << ",\"dur\":" << json::render_number(e.dur_us);
  if (e.phase == 'i') out << ",\"s\":\"t\"";
  if (!e.args.empty() || e.phase == 'C') {
    out << ",\"args\":";
    write_args(out, e.args);
  }
  out << '}';
}

}  // namespace

TraceArg::TraceArg(std::string k, double v)
    : key(std::move(k)), value(json::render_number(v)), is_number(true) {}

TraceArg::TraceArg(std::string k, std::string v)
    : key(std::move(k)), value(std::move(v)) {}

void Tracer::merge_from(Tracer&& other) {
  const int pid_base = pid_;
  for (TraceEvent& e : other.events_) {
    e.pid += pid_base;
    push(std::move(e));
  }
  pid_ += other.pid_;
  dropped_ += other.dropped_;
  other.clear();
  other.pid_ = 0;
  other.next_tid_ = 1;
}

void Tracer::set_clock(std::function<double()> now_seconds) {
  clock_ = std::move(now_seconds);
}

double Tracer::now_seconds() const { return clock_ ? clock_() : 0.0; }

void Tracer::push(TraceEvent event) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

int Tracer::begin_run(const std::string& name) {
  ++pid_;
  next_tid_ = 1;
  if (enabled_) {
    TraceEvent e;
    e.phase = 'M';
    e.name = "process_name";
    e.category = "__metadata";
    e.pid = pid_;
    e.tid = 0;
    e.args.emplace_back("name", name);
    push(std::move(e));
  }
  return pid_;
}

int Tracer::register_track(const std::string& name) {
  const int tid = next_tid_++;
  if (enabled_) {
    TraceEvent e;
    e.phase = 'M';
    e.name = "thread_name";
    e.category = "__metadata";
    e.pid = pid_;
    e.tid = tid;
    e.args.emplace_back("name", name);
    push(std::move(e));
  }
  return tid;
}

void Tracer::complete(int tid, const std::string& name,
                      const std::string& category, double t0_s, double t1_s,
                      std::vector<TraceArg> args) {
  if (!enabled_) return;
  TraceEvent e;
  e.phase = 'X';
  e.name = name;
  e.category = category;
  e.pid = pid_;
  e.tid = tid;
  e.ts_us = t0_s * 1e6;
  e.dur_us = (t1_s - t0_s) * 1e6;
  e.args = std::move(args);
  push(std::move(e));
}

void Tracer::instant(int tid, const std::string& name,
                     const std::string& category,
                     std::vector<TraceArg> args) {
  if (!enabled_) return;
  TraceEvent e;
  e.phase = 'i';
  e.name = name;
  e.category = category;
  e.pid = pid_;
  e.tid = tid;
  e.ts_us = now_seconds() * 1e6;
  e.args = std::move(args);
  push(std::move(e));
}

void Tracer::counter(int tid, const std::string& name,
                     const std::string& category,
                     std::vector<TraceArg> args) {
  if (!enabled_) return;
  TraceEvent e;
  e.phase = 'C';
  e.name = name;
  e.category = category;
  e.pid = pid_;
  e.tid = tid;
  e.ts_us = now_seconds() * 1e6;
  e.args = std::move(args);
  push(std::move(e));
}

std::uint64_t Tracer::begin_span(int tid, const std::string& name,
                                 const std::string& category) {
  if (!enabled_) return 0;
  const std::uint64_t id = next_span_++;
  open_spans_.emplace(id, OpenSpan{tid, name, category, now_seconds()});
  return id;
}

void Tracer::end_span(std::uint64_t span, std::vector<TraceArg> args) {
  if (span == 0) return;
  auto it = open_spans_.find(span);
  if (it == open_spans_.end()) return;
  const OpenSpan open = std::move(it->second);
  open_spans_.erase(it);
  complete(open.tid, open.name, open.category, open.t0_s, now_seconds(),
           std::move(args));
}

void Tracer::clear() {
  events_.clear();
  open_spans_.clear();
  dropped_ = 0;
}

void Tracer::write_chrome_json(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out << (i ? ",\n" : "\n");
    write_event(out, events_[i]);
  }
  out << "\n]}\n";
}

void Tracer::write_jsonl(std::ostream& out) const {
  for (const auto& e : events_) {
    write_event(out, e);
    out << '\n';
  }
}

void Tracer::save_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw Error("cannot write trace file: " + path);
  write_chrome_json(out);
}

void Tracer::save_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw Error("cannot write event stream file: " + path);
  write_jsonl(out);
}

}  // namespace capgpu::telemetry
