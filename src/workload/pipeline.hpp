// The ML inference pipeline the paper's servers run (Sec 3.2 / Sec 5):
//
//   CPU preprocessing workers -> bounded shared queue -> batch assembly ->
//   GPU execution (latency law Eq. 8) -> completion metrics
//
// One InferenceStream binds one model to one GPU, with a configurable number
// of dedicated CPU preprocessing workers. Preprocessing speed follows the
// host CPU's current frequency; GPU batch latency follows the current core
// clock. Starvation (slow CPU) and backpressure (slow GPU) emerge naturally,
// reproducing the coordination effects that motivate CapGPU (Table 1).
//
// Hot-path layout: requests are ids into a pooled struct-of-arrays store
// (workload/request_pool.hpp), the queue moves ids through a fixed ring, and
// producer blocking / consumer waiting are plain index lists on the stream —
// the steady-state request path performs no heap allocations and copies no
// per-request structs. Event and RNG order are bit-for-bit those of the
// historical value-passing pipeline (the bench byte-identity contract).
//
// Worker completions of a closed-loop stream run on the stream's lazy chain
// (sim::Engine::LazyChain) while a batch is in flight: no push can start
// the busy consumer then, so nothing outside the stream sees a completion
// before the next heap event, and the engine catches the chain up before
// each one. When a batch ends and the consumer must wait for pushes, the
// pending chain completions move into the heap with their original seqs,
// so every push that might start it fires in exact order. Open-loop
// workers always use the heap: one going idle arms an arrival wakeup.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "hw/server_model.hpp"
#include "sim/engine.hpp"
#include "telemetry/energy.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sketch.hpp"
#include "workload/model_zoo.hpp"
#include "workload/monitors.hpp"
#include "workload/queue.hpp"
#include "workload/request_pool.hpp"
#include "workload/request_timeline.hpp"
#include "workload/ring.hpp"

namespace capgpu::workload {

/// Configuration of one inference stream.
struct StreamParams {
  ModelSpec model;
  std::size_t n_preprocess_workers{1};
  /// Queue capacity in images; defaults to 2 batches when 0.
  std::size_t queue_capacity{0};
  /// Closed loop (default): workers always have input — the saturated
  /// pipeline of the paper's experiments. Open loop: workers only process
  /// requests submitted via submit_requests()/submit_arrivals() (wire an
  /// ArrivalProcess).
  bool open_loop{false};
  /// Request-level latency attribution: per-stage quantile sketches,
  /// per-batch stage spans on the trace timeline and the per-period stage
  /// means behind take_stage_period_means(). Off = the pre-attribution
  /// fast path (the baseline of the selfperf overhead guard).
  bool stage_stats{true};
  /// The three per-image latency monitors: queue_delay(),
  /// preprocess_latency() and preprocess_compute_latency(), one sample per
  /// image each. Table 1's motivation study reads them on a bare stream.
  /// Off = they stay empty and the stream stamps no enqueue time (only
  /// queue_delay() reads it); no event, seq or RNG draw moves.
  /// core::ServerRig builds every stream with it off: its loop reads only
  /// batch latency and throughput (paper Sec 3.1, step 2).
  bool per_image_monitors{true};
};

/// One model pinned to one GPU, fed by dedicated CPU preprocessing workers.
class InferenceStream : private sim::Engine::LazyChain {
 public:
  /// `gpu_index` selects the GPU inside `server`. All references must
  /// outlive the stream. Call start() to begin producing work.
  InferenceStream(sim::Engine& engine, hw::ServerModel& server,
                  std::size_t gpu_index, StreamParams params, Rng rng);

  InferenceStream(const InferenceStream&) = delete;
  InferenceStream& operator=(const InferenceStream&) = delete;

  /// Kicks off the preprocessing workers and the GPU consumer.
  void start();

  [[nodiscard]] const ModelSpec& model() const { return params_.model; }
  [[nodiscard]] std::size_t gpu_index() const { return gpu_index_; }

  /// Changes how hard batches drive the GPU while executing — models a
  /// workload-intensity shift at runtime (e.g. a different input mix).
  /// Takes effect from the next batch; shifts the plant's effective power
  /// gain, which is what the adaptive controller has to track.
  void set_gpu_busy_util(double util);

  /// Open-loop mode only: enqueues `n_images` requests (arriving now) for
  /// preprocessing. Idle workers wake immediately.
  void submit_requests(std::size_t n_images);
  /// Open-loop mode only: delivers a block of arrival timestamps (ascending,
  /// all >= now) from a bulk arrival generator. Requests whose arrival time
  /// is still in the future stay pending until it comes; the stream arms a
  /// wakeup for the head arrival when workers idle.
  void submit_arrivals(const double* times_s, std::size_t n);
  /// Requests submitted but not yet started by a worker (in bulk-arrival
  /// mode this includes arrivals scheduled for future times).
  [[nodiscard]] std::uint64_t pending_requests() const {
    return pending_arrivals_.size();
  }

  /// Changes the GPU batch size at runtime (coordinated batching + DVFS,
  /// cf. Nabavinejad et al.). Takes effect from the next batch assembly;
  /// latency scales per ModelSpec::e_min_for_batch. Clamped into
  /// [1, queue capacity].
  void set_batch_size(std::size_t batch);
  [[nodiscard]] std::size_t batch_size() const { return batch_size_; }

  /// Peak images/second of the GPU stage (batch_size / e_min): the
  /// normalization denominator for this stream's throughput.
  [[nodiscard]] double max_images_per_s() const;

  /// Called with -1 when a preprocessing worker stops computing (it blocks
  /// on a full queue, or idles with no arrival due) and with +1 when it
  /// starts again; used by HostCpuLoad to aggregate package utilization.
  /// A worker that finishes an image and starts the next one inside the
  /// same event reports nothing: no other event could see it stopped.
  std::function<void(int)> on_worker_compute_change;

  /// Frequency governing preprocessing speed. Defaults to the host CPU's
  /// package frequency (whole-package DVFS, as in the motivation
  /// experiment). The paper's Sec 6 testbed instead pins the data-copy
  /// cores at their maximum P-state and only throttles the CPU-workload
  /// cores — model that by supplying a constant provider.
  std::function<Megahertz()> preprocess_frequency;

  // --- Monitors (read by the controller and by benches) ---
  [[nodiscard]] ThroughputMonitor& images_throughput() { return images_; }
  [[nodiscard]] const ThroughputMonitor& images_throughput() const { return images_; }
  /// GPU batch execution latency e_i (the quantity under SLO, Eq. 10c).
  [[nodiscard]] LatencyMonitor& batch_latency() { return batch_latency_; }
  [[nodiscard]] const LatencyMonitor& batch_latency() const { return batch_latency_; }
  /// Per-image queue delay (enqueue -> dequeue into a batch). This and the
  /// next two stay empty unless StreamParams::per_image_monitors is on.
  [[nodiscard]] LatencyMonitor& queue_delay() { return queue_delay_; }
  [[nodiscard]] const LatencyMonitor& queue_delay() const { return queue_delay_; }
  /// Per-image preprocessing latency, including time blocked on a full queue.
  [[nodiscard]] LatencyMonitor& preprocess_latency() { return preprocess_latency_; }
  [[nodiscard]] const LatencyMonitor& preprocess_latency() const { return preprocess_latency_; }
  /// Pure preprocessing compute time (excludes queue blocking) — the
  /// "preprocessing latency" metric Table 1 reports.
  [[nodiscard]] LatencyMonitor& preprocess_compute_latency() { return preprocess_compute_; }
  [[nodiscard]] const LatencyMonitor& preprocess_compute_latency() const { return preprocess_compute_; }
  /// Trims every monitor above to `horizon` seconds before `now`; queries
  /// may then reach back at most `horizon` seconds from `now`.
  void trim_monitors(sim::SimTime now, double horizon);

  [[nodiscard]] std::uint64_t images_completed() const { return images_completed_; }
  [[nodiscard]] std::uint64_t batches_completed() const { return batches_completed_; }
  [[nodiscard]] const ImageQueue& queue() const { return queue_; }

  // --- Request-level latency attribution (StreamParams::stage_stats) ---
  /// Per-stage request-latency sketch ({model, stage} series), nullptr when
  /// attribution is off. Flushes deferred batches first.
  [[nodiscard]] const telemetry::QuantileSketch* stage_sketch(Stage stage) {
    flush_stage_stats();
    return stage_sketch_[static_cast<std::size_t>(stage)];
  }
  /// End-to-end (arrival -> completed) request-latency sketch. Flushes
  /// deferred batches first.
  [[nodiscard]] const telemetry::QuantileSketch* request_sketch() {
    flush_stage_stats();
    return request_sketch_;
  }
  /// Pushes deferred batch attribution into the sketches. The hot path
  /// fingerprints each batch against the previous distinct one and only
  /// counts replays; anything reading the sketches through the metrics
  /// registry (exporters, summary/SLO writers) must be preceded by a flush.
  /// core::ServerRig flushes every control period and after the run; call
  /// this directly when driving a bare stream.
  void flush_stage_stats();
  /// Mean stage latency over the requests completed since the last call
  /// (0 for stages with no samples); resets the accumulators. Feeds the
  /// per-period stage series and the stage_latency_s trace counters.
  [[nodiscard]] std::array<double, kStageCount> take_stage_period_means();
  /// Track id of this stream on the trace timeline (counter emission).
  [[nodiscard]] int trace_tid() const { return trace_tid_; }

  // --- Energy attribution (telemetry::EnergyLedger) ---
  /// Enables per-batch energy capture: each completed batch appends one
  /// telemetry::EnergyBatch (exec interval + summed quantized stage
  /// residencies, reusing the fingerprint records — no extra per-request
  /// work). Requires stage_stats; the ledger owner must drain
  /// energy_batches() every control period or the buffer grows unbounded.
  void set_energy_recording(bool on) {
    energy_recording_ = on && params_.stage_stats;
  }
  /// Batches captured since the last drain. The consumer (core::ServerRig's
  /// ledger loop) reads and clear()s this each period.
  [[nodiscard]] std::vector<telemetry::EnergyBatch>& energy_batches() {
    return energy_batches_;
  }

 private:
  struct Worker {
    bool computing{false};
    bool on_chain{false};    ///< completion pending on the lazy chain
    RequestId req{0};        ///< pool id of the image currently held
    double compute{0.0};     ///< preprocess duration of the current image
    sim::EventId event{0};   ///< completion heap event of the current image
    sim::SimTime due{0.0};   ///< completion time while on the chain
    std::uint64_t seq{0};    ///< its FIFO seq, drawn when it was armed
  };

  void worker_start_image(std::size_t w);
  void worker_finish_image(std::size_t w);
  /// Runs the earliest chain completion (the lazy chain's event).
  void fire() override;
  /// Points the chain at its earliest pending completion, or disarms it.
  void refresh_chain();
  /// Moves every pending chain completion into the heap, keeping its seq.
  void move_chain_to_heap();
  void worker_try_push(std::size_t w);
  void consumer_try_start();
  void consumer_finish_batch(double exec_latency);
  void record_stage_stats(double exec_latency, const RequestId* ids,
                          std::size_t count, sim::SimTime completed);
  [[nodiscard]] double preprocess_duration();
  [[nodiscard]] double batch_duration();
  void set_worker_computing(std::size_t w, bool computing);
  /// Starts idle workers on every pending arrival whose time has come,
  /// newest-parked worker first (the historical wake order).
  void wake_ready_arrivals();
  /// Schedules a wakeup at the head pending arrival when workers idle ahead
  /// of the arrivals (bulk mode delivers future timestamps).
  void maybe_arm_arrival_wakeup();

  sim::Engine* engine_;
  hw::ServerModel* server_;
  std::size_t gpu_index_;
  StreamParams params_;
  Rng rng_;
  RequestPool pool_;
  ImageQueue queue_;
  std::vector<Worker> workers_;
  std::size_t chain_worker_{0};  ///< worker of the chain's next completion
  bool gpu_busy_{false};
  bool started_{false};
  std::size_t batch_size_{0};  // current (dynamic) batch size

  // Block/notify bookkeeping (moved here from the queue): producers parked
  // on a full queue (woken LIFO), and the one consumer waiting for its
  // batch threshold.
  std::vector<std::size_t> blocked_workers_;
  bool consumer_waiting_{false};
  std::size_t consumer_threshold_{0};

  /// The batch currently executing on the GPU (ids popped from the queue;
  /// at most one batch is in flight per stream).
  std::vector<RequestId> batch_ids_;
  std::size_t in_flight_{0};
  sim::EventId batch_event_{0};  ///< completion event of the in-flight batch
  double batch_exec_{0.0};       ///< execution latency of the in-flight batch

  /// Open-loop arrival stamps of requests not yet picked up by a worker
  /// (FIFO, so pending_requests() == size()).
  Ring<sim::SimTime> pending_arrivals_;
  std::vector<std::size_t> idle_workers_;
  sim::EventId arrival_wakeup_{0};

  ThroughputMonitor images_;
  LatencyMonitor batch_latency_;
  LatencyMonitor queue_delay_;
  LatencyMonitor preprocess_latency_;
  LatencyMonitor preprocess_compute_;
  std::uint64_t images_completed_{0};
  std::uint64_t batches_completed_{0};

  // Observability: batch latency histogram + completion counters, labeled
  // {model=...}; each in-flight batch is a trace span on this stream's
  // track.
  telemetry::Counter* images_metric_{nullptr};
  telemetry::Counter* batches_metric_{nullptr};
  telemetry::LogLinearHistogram* latency_metric_{nullptr};
  int trace_tid_{0};
  std::uint64_t batch_span_{0};

  // Request-level attribution state (null/zero when stage_stats is off).
  std::array<telemetry::QuantileSketch*, kStageCount> stage_sketch_{};
  telemetry::QuantileSketch* request_sketch_{nullptr};
  std::array<int, kStageCount> stage_tid_{};
  std::array<double, kStageCount> stage_sum_{};
  std::array<std::uint64_t, kStageCount> stage_count_{};
  /// Reused staging buffer for the span lanes (fingerprint-miss path).
  std::vector<double> stage_scratch_;
  /// Batch fingerprint: span records of the last distinct batch, one per
  /// sketch series. A batch whose quantized stage durations match is only
  /// counted (pending_batches_) and flushed as record replays later.
  telemetry::SpanRecord rec_cpu_;
  telemetry::SpanRecord rec_bq_;
  telemetry::SpanRecord rec_total_;
  telemetry::SpanRecord rec_pq_;
  telemetry::SpanRecord rec_exec_;
  std::uint64_t pending_batches_{0};
  bool rec_valid_{false};

  // Energy capture (off unless a ledger is attached).
  bool energy_recording_{false};
  std::vector<telemetry::EnergyBatch> energy_batches_;
};

}  // namespace capgpu::workload
