#include "workload/pipeline.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "telemetry/metric_names.hpp"
#include "telemetry/trace.hpp"
#include "workload/latency_law.hpp"

namespace capgpu::workload {

namespace {
std::size_t default_queue_capacity(const StreamParams& p) {
  return p.queue_capacity ? p.queue_capacity : 2 * p.model.batch_size;
}
}  // namespace

InferenceStream::InferenceStream(sim::Engine& engine, hw::ServerModel& server,
                                 std::size_t gpu_index, StreamParams params,
                                 Rng rng)
    : LazyChain(engine),
      engine_(&engine),
      server_(&server),
      gpu_index_(gpu_index),
      params_(std::move(params)),
      rng_(rng),
      queue_(default_queue_capacity(params_)),
      workers_(params_.n_preprocess_workers),
      batch_size_(params_.model.batch_size),
      images_(params_.model.batch_size / params_.model.e_min_batch_s) {
  CAPGPU_REQUIRE(gpu_index < server.gpu_count(), "gpu_index out of range");
  CAPGPU_REQUIRE(params_.n_preprocess_workers > 0,
                 "need at least one preprocessing worker");
  CAPGPU_REQUIRE(params_.model.batch_size > 0, "batch size must be positive");
  CAPGPU_REQUIRE(queue_.capacity() >= params_.model.batch_size,
                 "queue must hold at least one batch");

  // Worst-case live requests: one per worker, a full queue, and one batch
  // executing on the GPU. Reserving it up front keeps acquire()/release()
  // off the allocator for the whole run.
  pool_.reserve(workers_.size() + 2 * queue_.capacity());
  batch_ids_.resize(queue_.capacity());
  blocked_workers_.reserve(workers_.size());
  idle_workers_.reserve(workers_.size());
  pending_arrivals_.reserve(256);
  if (params_.stage_stats) {
    stage_scratch_.reserve(4 * queue_.capacity());
  }

  auto& registry = telemetry::MetricsRegistry::current();
  const telemetry::Labels by_model{{"model", params_.model.name}};
  images_metric_ = &registry.counter(telemetry::metric::kImagesCompleted,
                                     "Images completed by the GPU stage",
                                     by_model);
  batches_metric_ = &registry.counter(telemetry::metric::kBatchesCompleted,
                                      "Batches executed by the GPU stage",
                                      by_model);
  telemetry::HistogramSpec latency_spec;
  latency_spec.min_bound = 1e-3;  // 1 ms .. 1000 s of batch execution
  latency_spec.decades = 6;
  latency_metric_ = &registry.histogram(
      telemetry::metric::kBatchLatencySeconds,
      "GPU batch execution latency (the quantity under SLO)", latency_spec,
      by_model);
  auto& tracer = telemetry::Tracer::current();
  const std::string track_name =
      "gpu" + std::to_string(gpu_index_) + ":" + params_.model.name;
  trace_tid_ = tracer.register_track(track_name);
  if (params_.stage_stats) {
    for (std::size_t s = 0; s < kStageCount; ++s) {
      stage_sketch_[s] = &registry.sketch(
          telemetry::metric::kStageLatencySeconds,
          "Per-request latency by pipeline stage",
          {{"model", params_.model.name}, {"stage", kStageNames[s]}});
      stage_tid_[s] = tracer.register_track(track_name + "/" + kStageNames[s]);
    }
    request_sketch_ = &registry.sketch(
        telemetry::metric::kRequestLatencySeconds,
        "End-to-end request latency (arrival to batch completion)", by_model);
  }
}

void InferenceStream::set_gpu_busy_util(double util) {
  CAPGPU_REQUIRE(util >= 0.0 && util <= 1.0, "utilization must be in [0,1]");
  params_.model.gpu_busy_util = util;
  if (gpu_busy_) {
    server_->gpu(gpu_index_).set_utilization(util);
  }
}

void InferenceStream::start() {
  CAPGPU_REQUIRE(!started_, "stream already started");
  started_ = true;
  for (std::size_t w = 0; w < workers_.size(); ++w) worker_start_image(w);
  consumer_try_start();
}

double InferenceStream::max_images_per_s() const {
  return static_cast<double>(params_.model.batch_size) /
         params_.model.e_min_batch_s;
}

double InferenceStream::preprocess_duration() {
  const Megahertz f = preprocess_frequency ? preprocess_frequency()
                                           : server_->cpu().frequency();
  const double f_ghz = f.value / 1000.0;
  const double base = params_.model.preprocess_s_ghz / f_ghz;
  const double j = params_.model.jitter_frac;
  return base * rng_.uniform(1.0 - j, 1.0 + j);
}

double InferenceStream::batch_duration() {
  const auto& gpu = server_->gpu(gpu_index_);
  const double base =
      latency_at(params_.model.e_min_for_batch(batch_size_),
                 params_.model.gpu_f_max, gpu.core_clock(),
                 params_.model.gamma) *
      gpu.memory_slowdown();
  const double j = params_.model.jitter_frac;
  return base * rng_.uniform(1.0 - j, 1.0 + j);
}

void InferenceStream::trim_monitors(sim::SimTime now, double horizon) {
  images_.trim(now, horizon);
  batch_latency_.trim(now, horizon);
  queue_delay_.trim(now, horizon);
  preprocess_latency_.trim(now, horizon);
  preprocess_compute_.trim(now, horizon);
}

void InferenceStream::set_batch_size(std::size_t batch) {
  batch_size_ = std::clamp<std::size_t>(batch, 1, queue_.capacity());
  // A consumer parked on the old threshold must not stall behind it; move
  // the threshold (fires immediately if the queue already suffices).
  if (consumer_waiting_) {
    consumer_threshold_ = batch_size_;
    if (queue_.size() >= consumer_threshold_) {
      consumer_waiting_ = false;
      consumer_try_start();
    }
  }
}

void InferenceStream::set_worker_computing(std::size_t w, bool computing) {
  if (workers_[w].computing == computing) return;
  workers_[w].computing = computing;
  if (on_worker_compute_change) {
    on_worker_compute_change(computing ? +1 : -1);
  }
}

void InferenceStream::worker_start_image(std::size_t w) {
  const sim::SimTime now = engine_->now();
  sim::SimTime arrival = now;  // closed loop: requests materialise on demand
  if (params_.open_loop) {
    if (pending_arrivals_.empty() || pending_arrivals_.front() > now) {
      // Nothing has arrived yet; submit/wakeup re-starts us.
      set_worker_computing(w, false);
      idle_workers_.push_back(w);
      maybe_arm_arrival_wakeup();
      return;
    }
    arrival = pending_arrivals_.front();
    pending_arrivals_.pop_front();
  }
  const RequestId id = pool_.acquire();
  workers_[w].req = id;
  pool_.arrival[id] = arrival;
  pool_.preprocess_start[id] = now;
  set_worker_computing(w, true);
  const double compute = preprocess_duration();
  workers_[w].compute = compute;
  // A closed-loop worker of a stream with a batch in flight arms its
  // completion on the stream's lazy chain: until the batch ends, no push
  // can start the consumer, so no event outside the stream sees it.
  if (!params_.open_loop && in_flight_ > 0) {
    Worker& worker = workers_[w];
    worker.due = now + compute;
    worker.seq = draw_seq();
    worker.on_chain = true;
    refresh_chain();
    return;
  }
  // Otherwise workers are self-perpetuating heap event chains: in the
  // common case this start runs inside the worker's own completion
  // callback, so the fired event re-arms in place (no slot recycle, no
  // callback rebuild, one sift-down). When the start comes from another
  // event — initial start, a blocked worker woken by the consumer, an
  // arrival wakeup — the stored id is not the firing event and we fall
  // back to a fresh schedule.
  if (!engine_->try_reschedule_firing(workers_[w].event, compute)) {
    workers_[w].event = engine_->schedule_after(
        compute, [this, w] { worker_finish_image(w); });
  }
}

void InferenceStream::fire() {
  const std::size_t w = chain_worker_;
  workers_[w].on_chain = false;
  worker_finish_image(w);
  // A worker that started its next image re-armed the chain already.
  if (!workers_[w].on_chain) refresh_chain();
}

void InferenceStream::refresh_chain() {
  const Worker* next = nullptr;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const Worker& worker = workers_[w];
    if (!worker.on_chain) continue;
    if (next == nullptr || worker.due < next->due ||
        (worker.due == next->due && worker.seq < next->seq)) {
      next = &worker;
      chain_worker_ = w;
    }
  }
  if (next == nullptr) {
    disarm();
  } else {
    set_next(next->due, next->seq);
  }
}

void InferenceStream::move_chain_to_heap() {
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    Worker& worker = workers_[w];
    if (!worker.on_chain) continue;
    worker.on_chain = false;
    worker.event = move_to_heap(worker.due, worker.seq,
                                [this, w] { worker_finish_image(w); });
  }
  disarm();
}

void InferenceStream::submit_requests(std::size_t n_images) {
  CAPGPU_REQUIRE(params_.open_loop,
                 "submit_requests is only valid in open-loop mode");
  const sim::SimTime now = engine_->now();
  for (std::size_t i = 0; i < n_images; ++i) pending_arrivals_.push_back(now);
  wake_ready_arrivals();
}

void InferenceStream::submit_arrivals(const double* times_s, std::size_t n) {
  CAPGPU_REQUIRE(params_.open_loop,
                 "submit_arrivals is only valid in open-loop mode");
  pending_arrivals_.append(times_s, n);
  wake_ready_arrivals();
}

void InferenceStream::wake_ready_arrivals() {
  const sim::SimTime now = engine_->now();
  while (!idle_workers_.empty() && !pending_arrivals_.empty() &&
         pending_arrivals_.front() <= now) {
    const std::size_t w = idle_workers_.back();
    idle_workers_.pop_back();
    worker_start_image(w);
  }
  maybe_arm_arrival_wakeup();
}

void InferenceStream::maybe_arm_arrival_wakeup() {
  // Only needed when workers idle ahead of a future arrival (bulk mode);
  // busy workers re-check the pending ring the moment they free up.
  if (arrival_wakeup_ != 0 || idle_workers_.empty() ||
      pending_arrivals_.empty()) {
    return;
  }
  arrival_wakeup_ = engine_->schedule_at(pending_arrivals_.front(), [this] {
    arrival_wakeup_ = 0;
    wake_ready_arrivals();
  });
}

void InferenceStream::worker_finish_image(std::size_t w) {
  // Compute is done, but the worker only reports that it stopped when it
  // blocks on a full queue or idles: one that starts its next image inside
  // this event was never seen idle by any other event.
  pool_.preprocess_done[workers_[w].req] = engine_->now();
  if (params_.per_image_monitors) {
    preprocess_compute_.record(engine_->now(), workers_[w].compute);
  }
  worker_try_push(w);
}

void InferenceStream::worker_try_push(std::size_t w) {
  if (!queue_.full()) {
    const RequestId id = workers_[w].req;
    const bool per_image = params_.per_image_monitors;
    if (per_image) pool_.enqueued[id] = engine_->now();
    queue_.push(id);
    // The push that reaches the batch threshold starts the consumer
    // synchronously (it may pop this very id into a batch; the pool lanes
    // stay valid either way).
    if (consumer_waiting_ && queue_.size() >= consumer_threshold_) {
      consumer_waiting_ = false;
      consumer_try_start();
    }
    if (per_image) {
      preprocess_latency_.record(engine_->now(),
                                 engine_->now() - pool_.preprocess_start[id]);
    }
    worker_start_image(w);
  } else {
    set_worker_computing(w, false);
    blocked_workers_.push_back(w);  // consumer_try_start wakes us LIFO
  }
}

void InferenceStream::consumer_try_start() {
  const std::size_t batch = batch_size_;
  if (queue_.size() >= batch) {
    queue_.pop_into(batch_ids_.data(), batch);
    in_flight_ = batch;
    // Wake blocked producers newest-first until the freed space is gone —
    // before the batch stamps, matching the historical queue's pop order.
    while (!queue_.full() && !blocked_workers_.empty()) {
      const std::size_t w = blocked_workers_.back();
      blocked_workers_.pop_back();
      worker_try_push(w);
    }
    const sim::SimTime now = engine_->now();
    gpu_busy_ = true;
    server_->gpu(gpu_index_).set_utilization(params_.model.gpu_busy_util);
    for (std::size_t i = 0; i < batch; ++i) {
      const RequestId id = batch_ids_[i];
      pool_.batch_start[id] = now;
      if (params_.per_image_monitors) {
        queue_delay_.record(now, now - pool_.enqueued[id]);
      }
    }
    batch_span_ = telemetry::Tracer::current().begin_span(trace_tid_, "batch",
                                                         "workload");
    const double exec = batch_duration();
    batch_exec_ = exec;
    // Saturated streams chain batch after batch from inside the previous
    // completion: reuse the fired event like the workers do.
    if (!engine_->try_reschedule_firing(batch_event_, exec)) {
      batch_event_ = engine_->schedule_after(
          exec, [this] { consumer_finish_batch(batch_exec_); });
    }
  } else {
    consumer_waiting_ = true;
    consumer_threshold_ = batch;
    // From here a push may start the consumer, so every completion must
    // fire in its exact place among the heap events.
    move_chain_to_heap();
  }
}

void InferenceStream::consumer_finish_batch(double exec_latency) {
  const sim::SimTime now = engine_->now();
  const std::size_t count = in_flight_;
  gpu_busy_ = false;
  server_->gpu(gpu_index_).set_utilization(0.0);
  batch_latency_.record(now, exec_latency);
  images_.record(now, static_cast<double>(count));
  images_completed_ += count;
  ++batches_completed_;
  latency_metric_->observe(exec_latency);
  images_metric_->inc(static_cast<double>(count));
  batches_metric_->inc();
  // Completion is batch-wide: `now` is every request's completed stamp,
  // passed straight into the attribution fan-out instead of written per id.
  if (params_.stage_stats) {
    record_stage_stats(exec_latency, batch_ids_.data(), count, now);
  }
  if (batch_span_ != 0) {
    telemetry::Tracer::current().end_span(
        batch_span_, {{"images", static_cast<double>(count)},
                      {"exec_s", exec_latency}});
    batch_span_ = 0;
  }
  for (std::size_t i = 0; i < count; ++i) pool_.release(batch_ids_[i]);
  in_flight_ = 0;
  consumer_try_start();
}

void InferenceStream::record_stage_stats(double exec_latency,
                                         const RequestId* ids,
                                         std::size_t count,
                                         sim::SimTime completed) {
  const auto n = static_cast<std::uint64_t>(count);
  constexpr auto kPq = static_cast<std::size_t>(Stage::kPreprocessQueue);
  constexpr auto kCpu = static_cast<std::size_t>(Stage::kCpuPreprocess);
  constexpr auto kBq = static_cast<std::size_t>(Stage::kGpuBatchQueue);
  constexpr auto kExec = static_cast<std::size_t>(Stage::kGpuExec);
  const bool open = params_.open_loop;
  using telemetry::QuantileSketch;
  const sim::SimTime* arrival = pool_.arrival.data();
  const sim::SimTime* pre_start = pool_.preprocess_start.data();
  const sim::SimTime* pre_done = pool_.preprocess_done.data();
  const sim::SimTime* bstart = pool_.batch_start.data();
  // Fingerprint: a deterministic pipeline in steady state produces the
  // same per-batch stage durations every batch (to within ULP jiggle, which
  // the sketch quantization absorbs), so a batch whose quantized durations
  // match the last distinct batch's span records is deferred as a pending
  // replay and touches no sketch. Jittered streams (every zoo model) never
  // repeat; the compare tries the exec latency first and stops at the first
  // value that differs, so a miss costs about one compare.
  const auto repeats_last_batch = [&] {
    if (!rec_valid_ || rec_cpu_.n != n ||
        QuantileSketch::quantized_bits(exec_latency) != rec_exec_.quant[0]) {
      return false;
    }
    const std::uint64_t* qc = rec_cpu_.quant.data();
    const std::uint64_t* qb = rec_bq_.quant.data();
    const std::uint64_t* qt = rec_total_.quant.data();
    const std::uint64_t* qp = open ? rec_pq_.quant.data() : nullptr;
    for (std::size_t i = 0; i < count; ++i) {
      const RequestId id = ids[i];
      if (QuantileSketch::quantized_bits(pre_done[id] - pre_start[id]) !=
              qc[i] ||
          QuantileSketch::quantized_bits(bstart[id] - pre_done[id]) != qb[i] ||
          QuantileSketch::quantized_bits(completed - arrival[id]) != qt[i] ||
          (open && QuantileSketch::quantized_bits(pre_start[id] -
                                                  arrival[id]) != qp[i])) {
        return false;
      }
    }
    return true;
  };
  if (repeats_last_batch()) {
    ++pending_batches_;
    stage_sum_[kCpu] += rec_cpu_.quant_sum;
    stage_sum_[kBq] += rec_bq_.quant_sum;
    stage_sum_[kExec] += rec_exec_.quant_sum * static_cast<double>(n);
    if (open) stage_sum_[kPq] += rec_pq_.quant_sum;
  } else {
    // Fingerprint miss: flush the deferred batches against the old
    // records, then observe this batch, one sketch pass per lane, while
    // rebuilding them.
    flush_stage_stats();
    stage_scratch_.resize((open ? 4 : 3) * count);
    double* cpu_lane = stage_scratch_.data();
    double* queue_lane = cpu_lane + count;
    double* total_lane = queue_lane + count;
    double* pq_lane = total_lane + count;
    for (std::size_t i = 0; i < count; ++i) {
      const RequestId id = ids[i];
      cpu_lane[i] = pre_done[id] - pre_start[id];
      queue_lane[i] = bstart[id] - pre_done[id];
      total_lane[i] = completed - arrival[id];
      if (open) pq_lane[i] = pre_start[id] - arrival[id];
    }
    if (open) {
      stage_sum_[kPq] +=
          stage_sketch_[kPq]->observe_span_record(pq_lane, count, rec_pq_);
    } else {
      // Closed loop: arrival == preprocess_start by construction, so the
      // preprocess-queue stage is identically zero.
      stage_sketch_[kPq]->observe_many(0.0, n);
    }
    stage_sum_[kCpu] +=
        stage_sketch_[kCpu]->observe_span_record(cpu_lane, count, rec_cpu_);
    stage_sum_[kBq] +=
        stage_sketch_[kBq]->observe_span_record(queue_lane, count, rec_bq_);
    request_sketch_->observe_span_record(total_lane, count, rec_total_);
    // GPU execution is shared by the whole batch: record a 1-element span
    // and multiply it out, so replays stay quantization-consistent.
    stage_sketch_[kExec]->observe_span_record(&exec_latency, 1, rec_exec_);
    if (n > 1) stage_sketch_[kExec]->apply_record(rec_exec_, n - 1);
    stage_sum_[kExec] += rec_exec_.quant_sum * static_cast<double>(n);
    rec_valid_ = true;
  }
  for (std::size_t s = 0; s < kStageCount; ++s) stage_count_[s] += n;

  static_assert(telemetry::kEnergyStageCount == kStageCount,
                "energy ledger stage layout must mirror the pipeline's");
  if (energy_recording_) {
    // Both branches above leave rec_* describing this batch (the hit path
    // matched them, the miss path rebuilt them), so the quantized stage
    // sums come for free.
    telemetry::EnergyBatch b;
    b.start_s = completed - exec_latency;
    b.end_s = completed;
    b.images = static_cast<std::uint32_t>(n);
    b.stage_s[kPq] = open ? rec_pq_.quant_sum : 0.0;
    b.stage_s[kCpu] = rec_cpu_.quant_sum;
    b.stage_s[kBq] = rec_bq_.quant_sum;
    b.stage_s[kExec] = rec_exec_.quant_sum * static_cast<double>(n);
    energy_batches_.push_back(b);
  }

  auto& tracer = telemetry::Tracer::current();
  if (!tracer.enabled()) return;
  // One aggregated span per stage per batch (min start to max end across
  // the batch's requests) keeps the trace volume proportional to batches,
  // not images, while still showing where the batch's time went.
  for (std::size_t s = 0; s < kStageCount; ++s) {
    double t0 = 0.0;
    double t1 = 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      const RequestId id = ids[i];
      double end = 0.0;
      double dur = 0.0;
      switch (static_cast<Stage>(s)) {
        case Stage::kPreprocessQueue:
          end = pre_start[id];
          dur = pre_start[id] - arrival[id];
          break;
        case Stage::kCpuPreprocess:
          end = pre_done[id];
          dur = pre_done[id] - pre_start[id];
          break;
        case Stage::kGpuBatchQueue:
          end = bstart[id];
          dur = bstart[id] - pre_done[id];
          break;
        case Stage::kGpuExec:
          end = completed;
          dur = completed - bstart[id];
          break;
      }
      const double start = end - dur;
      if (i == 0 || start < t0) t0 = start;
      if (i == 0 || end > t1) t1 = end;
      sum += dur;
    }
    tracer.complete(stage_tid_[s], kStageNames[s], "workload", t0, t1,
                    {{"images", static_cast<double>(n)},
                     {"mean_s", sum / static_cast<double>(n)}});
  }
}

void InferenceStream::flush_stage_stats() {
  if (pending_batches_ == 0) return;
  const std::uint64_t k = pending_batches_;
  pending_batches_ = 0;
  const std::uint64_t n = rec_cpu_.n;
  constexpr auto kPq = static_cast<std::size_t>(Stage::kPreprocessQueue);
  constexpr auto kCpu = static_cast<std::size_t>(Stage::kCpuPreprocess);
  constexpr auto kBq = static_cast<std::size_t>(Stage::kGpuBatchQueue);
  constexpr auto kExec = static_cast<std::size_t>(Stage::kGpuExec);
  if (params_.open_loop) {
    stage_sketch_[kPq]->apply_record(rec_pq_, k);
  } else {
    stage_sketch_[kPq]->observe_many(0.0, k * n);
  }
  stage_sketch_[kCpu]->apply_record(rec_cpu_, k);
  stage_sketch_[kBq]->apply_record(rec_bq_, k);
  request_sketch_->apply_record(rec_total_, k);
  stage_sketch_[kExec]->apply_record(rec_exec_, k * n);
}

std::array<double, kStageCount> InferenceStream::take_stage_period_means() {
  flush_stage_stats();
  std::array<double, kStageCount> means{};
  for (std::size_t s = 0; s < kStageCount; ++s) {
    means[s] = stage_count_[s]
                   ? stage_sum_[s] / static_cast<double>(stage_count_[s])
                   : 0.0;
    stage_sum_[s] = 0.0;
    stage_count_[s] = 0;
  }
  return means;
}

}  // namespace capgpu::workload
