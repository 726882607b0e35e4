#include "server/server.h"

#include <chrono>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "common/build_info.h"
#include "common/check.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "obs/json.h"

namespace nc::server {

namespace {

// The build section shared by /healthz and /varz: which binary is this,
// and since when has it been up.
void WriteBuildSection(obs::JsonWriter* w, uint64_t start_unix_us) {
  w->Key("build").BeginObject();
  w->Key("version").String(BuildVersion());
  w->Key("flavor").String(BuildFlavor());
  w->Key("sanitized").Bool(BuildSanitized());
  if (start_unix_us > 0) {
    w->Key("start_unix_s").UInt(start_unix_us / 1000000);
    const uint64_t now = obs::UnixTimeUs();
    w->Key("uptime_s")
        .UInt(now > start_unix_us ? (now - start_unix_us) / 1000000 : 0);
  }
  w->EndObject();
}

// The drain clamp: a budget that refuses the next access the moment any
// cost at all has accrued. denorm_min (not 0, which means "unlimited")
// keeps the clamp active while never refusing a query that has not yet
// been billed anything.
QueryBudget DrainClamp(QueryBudget original) {
  original.max_cost = std::numeric_limits<double>::denorm_min();
  original.deadline = std::numeric_limits<double>::denorm_min();
  return original;
}

// SplitMix64: mints well-mixed trace ids from (nonce ^ request id).
uint64_t MixTraceId(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x = x ^ (x >> 31);
  return x != 0 ? x : 1;  // 0 means "no context" on the wire.
}

// Shared latency bucket ladder (microseconds) for the queue-wait and
// service histograms.
const std::vector<double>& LatencyBucketsUs() {
  static const std::vector<double> kBuckets = {
      100.0, 500.0, 1000.0, 5000.0, 10000.0, 50000.0, 100000.0, 500000.0,
      1e6,   5e6};
  return kBuckets;
}

}  // namespace

Status ServerConfig::Validate() const {
  if (num_workers == 0) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  if (queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  if (stats_port > 65535) {
    return Status::InvalidArgument("stats_port must be <= 65535");
  }
  if (watchdog) {
    NC_RETURN_IF_ERROR(watchdog_options.Validate());
  }
  if (enable_cache) {
    NC_RETURN_IF_ERROR(cache.Validate());
  }
  return Status::OK();
}

const char* ServeOutcomeName(ServeOutcome outcome) {
  switch (outcome) {
    case ServeOutcome::kCompleted:
      return "completed";
    case ServeOutcome::kDrained:
      return "drained";
    case ServeOutcome::kRejected:
      return "rejected";
    case ServeOutcome::kError:
      return "error";
  }
  return "unknown";
}

QueryServer::QueryServer(const ScoringFunction* scoring, ServerConfig config,
                         WorkerStackFactory factory)
    : scoring_(scoring),
      config_(std::move(config)),
      factory_(std::move(factory)) {
  NC_CHECK(scoring_ != nullptr);
  NC_CHECK(factory_ != nullptr);
}

QueryServer::~QueryServer() { Shutdown(/*finish_queued=*/false); }

Status QueryServer::Start() {
  NC_RETURN_IF_ERROR(config_.Validate());
  const std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (running_) {
      return Status::FailedPrecondition("server is already running");
    }
  }

  // Warm start: load what the previous process learned about the fleet.
  // A missing file is an ordinary cold start; a corrupt one fails Start
  // loudly - silently discarding the operational history the snapshot
  // exists to preserve would mask exactly the regressions the watchdog
  // is meant to catch.
  bool warm = false;
  if (!config_.hub_snapshot_path.empty()) {
    const std::ifstream probe(config_.hub_snapshot_path);
    if (probe.good()) {
      NC_RETURN_IF_ERROR(hub_.LoadFromFile(config_.hub_snapshot_path));
      // The baseline keeps the loaded snapshot verbatim (the round-trip
      // is byte-exact); hub_ itself keeps learning and would drift.
      NC_RETURN_IF_ERROR(baseline_hub_.Deserialize(hub_.Serialize()));
      warm = true;
    }
  }
  std::unique_ptr<obs::AnomalyWatchdog> watchdog;
  if (config_.watchdog && warm) {
    watchdog = std::make_unique<obs::AnomalyWatchdog>(
        &hub_, &baseline_hub_, config_.watchdog_options, &metrics_,
        config_.trace_sink);
  }

  epoch_ns_.store(obs::MonotonicTimeNs(), std::memory_order_release);
  start_unix_us_.store(obs::UnixTimeUs(), std::memory_order_release);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    running_ = true;
    accepting_ = true;
    stopping_ = false;
    finish_queued_ = true;
    warm_started_ = warm;
    trace_nonce_ = MixTraceId(obs::UnixTimeUs());
    meters_.clear();
    for (size_t i = 0; i < config_.num_workers; ++i) {
      meters_.push_back(std::make_unique<WorkerMeter>());
    }
    watchdog_ = std::move(watchdog);
  }
  draining_.store(false, std::memory_order_release);

  // The shared cross-query cache is created once, before the stats
  // endpoint can serve /varz, and kept across Start/Shutdown cycles so a
  // restarted server keeps its warm streams.
  if (config_.enable_cache && cache_ == nullptr) {
    cache_ = std::make_unique<cache::AccessCache>(config_.cache);
    cache_->AttachMetrics(&metrics_);
  }

  // The introspection endpoint comes up before the workers so a
  // supervisor can probe /readyz from the first instant.
  if (config_.stats_port >= 0) {
    stats_server_.Handle("/metrics", [this] {
      HttpResponse response;
      response.content_type = "text/plain; version=0.0.4; charset=utf-8";
      std::ostringstream text;
      metrics_.WritePrometheusText(&text);
      response.body = text.str();
      return response;
    });
    stats_server_.Handle("/healthz", [this] {
      HttpResponse response;
      response.content_type = "application/json";
      const bool up = running();
      if (!up) response.status = 503;
      std::ostringstream out;
      obs::JsonWriter w(&out);
      w.BeginObject();
      w.Key("status").String(up ? "ok" : "stopped");
      WriteBuildSection(&w,
                        start_unix_us_.load(std::memory_order_acquire));
      w.EndObject();
      response.body = out.str();
      response.body += "\n";
      return response;
    });
    stats_server_.Handle("/readyz", [this] {
      HttpResponse response;
      const std::lock_guard<std::mutex> lock(mu_);
      if (running_ && accepting_) {
        response.body = "ready\n";
      } else {
        response.status = 503;
        response.body = stopping_ ? "draining\n" : "not accepting\n";
      }
      return response;
    });
    stats_server_.Handle("/varz", [this] {
      HttpResponse response;
      response.content_type = "application/json";
      response.body = VarzJson();
      return response;
    });
    stats_server_.Handle("/profilez", [this] {
      HttpResponse response;
      response.content_type = "application/json";
      response.body = ProfilezJson();
      return response;
    });
    const Status status =
        stats_server_.Start(static_cast<uint16_t>(config_.stats_port));
    if (!status.ok()) {
      const std::lock_guard<std::mutex> lock(mu_);
      running_ = false;
      accepting_ = false;
      return status;
    }
  }
  if (watchdog_ != nullptr) {
    const Status status = watchdog_->Start();
    if (!status.ok()) {
      stats_server_.Stop();
      const std::lock_guard<std::mutex> lock(mu_);
      running_ = false;
      accepting_ = false;
      return status;
    }
  }

  workers_.reserve(config_.num_workers);
  for (size_t i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerMain(i); });
  }
  return Status::OK();
}

Status QueryServer::Submit(QueryRequest request,
                           std::future<QueryResponse>* response) {
  NC_CHECK(response != nullptr);
  if (request.k == 0) {
    return Status::InvalidArgument("k must be >= 1");
  }
  std::promise<QueryResponse> promise;
  std::future<QueryResponse> future = promise.get_future();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!running_ || !accepting_) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable("server is not accepting queries");
    }
    if (queue_.size() >= config_.queue_capacity) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "admission queue is full (capacity " +
          std::to_string(config_.queue_capacity) + ")");
    }
    Pending pending;
    pending.request = std::move(request);
    pending.promise = std::move(promise);
    // Trace identity minted at admission: the request id is the
    // admission sequence number, the trace id mixes in the per-Start
    // nonce so ids from different server runs do not collide.
    pending.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    pending.trace_id = MixTraceId(trace_nonce_ ^ pending.request_id);
    pending.admit_us = EpochNowUs();
    queue_.push_back(std::move(pending));
    submitted_.fetch_add(1, std::memory_order_relaxed);
    if (queue_.size() > peak_queue_depth_) peak_queue_depth_ = queue_.size();
  }
  cv_.notify_one();
  *response = std::move(future);
  return Status::OK();
}

void QueryServer::Shutdown(bool finish_queued) {
  const std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    accepting_ = false;
    stopping_ = true;
    finish_queued_ = finish_queued;
  }
  if (!finish_queued) {
    // Reaches workers that are mid-query (their next access hook
    // checkpoints and clamps); the cv below reaches the idle ones.
    draining_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  std::deque<Pending> leftovers;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    leftovers.swap(queue_);
    running_ = false;
    stopping_ = false;
  }
  draining_.store(false, std::memory_order_release);
  // Fulfilled outside the lock: promise continuations must not run
  // under mu_.
  for (Pending& pending : leftovers) {
    flushed_.fetch_add(1, std::memory_order_relaxed);
    pending.promise.set_value(Rejected(
        Status::Unavailable("server shut down before the query started")));
  }
  // The watchdog stops before the final snapshot so no check races the
  // save; the stats server stops last so /metrics stays scrapeable
  // through the drain itself.
  if (watchdog_ != nullptr) watchdog_->Stop();
  SyncTracerDropMetric();
  if (!config_.hub_snapshot_path.empty()) {
    const Status saved = hub_.SaveToFile(config_.hub_snapshot_path);
    if (!saved.ok()) {
      metrics_.counter("nc_server_hub_snapshot_errors_total").Increment();
    }
  }
  stats_server_.Stop();
}

bool QueryServer::running() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

ServerStats QueryServer::stats() const {
  ServerStats out;
  out.submitted = submitted_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.completed = completed_.load(std::memory_order_relaxed);
  out.drained = drained_.load(std::memory_order_relaxed);
  out.errors = errors_.load(std::memory_order_relaxed);
  out.flushed = flushed_.load(std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out.peak_queue_depth = peak_queue_depth_;
  }
  return out;
}

QueryResponse QueryServer::Rejected(Status status) {
  QueryResponse response;
  response.status = std::move(status);
  response.outcome = ServeOutcome::kRejected;
  return response;
}

void QueryServer::WorkerMain(size_t index) {
  // Built on this thread, used only by this thread, destroyed on this
  // thread: the whole mutable access stack is confined here. Only the
  // shared hub (handed to the session) crosses threads.
  std::unique_ptr<WorkerStack> stack = factory_(index);
  NC_CHECK(stack != nullptr);
  // The ONE exception to confinement on the access path: the shared
  // cache (internally synchronized; see cache/cache.h for why sharing
  // is sound and how cache-served accesses are billed).
  if (cache_ != nullptr) {
    stack->sources().set_access_cache(cache_.get());
  }
  // The worker's confined tracer shares the server's monotonic epoch (so
  // wall_us from different workers is directly comparable) and streams
  // through the shared synchronized sink; without a sink it is disabled
  // and the stack runs untraced, paying only the ShouldTrace test.
  obs::QueryTracer tracer;
  tracer.set_epoch_ns(epoch_ns_.load(std::memory_order_acquire));
  QuerySession session(scoring_, config_.planner, &hub_);
  if (config_.trace_sink != nullptr) {
    tracer.set_streaming_sink(config_.trace_sink);
    session.set_tracer(&tracer);
  } else {
    tracer.Disable();
  }
  // The worker's confined profiler, attached exactly like the tracer.
  // Serve owns its per-request lifecycle (Clear, externals, report).
  obs::Profiler profiler;
  if (config_.enable_profiler) {
    if (config_.trace_sink != nullptr) profiler.set_tracer(&tracer);
    session.set_profiler(&profiler);
  } else {
    profiler.Disable();
  }
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // A fast drain leaves queued entries for Shutdown's flush; a
      // finish-queued stop keeps serving until the backlog is empty.
      if (stopping_ && (!finish_queued_ || queue_.empty())) return;
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    Serve(index, session, stack->sources(), tracer,
          config_.enable_profiler ? &profiler : nullptr,
          std::move(pending));
  }
}

void QueryServer::Serve(size_t index, QuerySession& session,
                        SourceSet& sources, obs::QueryTracer& tracer,
                        obs::Profiler* profiler, Pending pending) {
  const uint64_t start_us = EpochNowUs();
  const bool tracing = obs::ShouldTrace(&tracer);
  if (tracing) {
    obs::TraceContext ctx;
    ctx.trace_id = pending.trace_id;
    ctx.request_id = pending.request_id;
    ctx.worker = static_cast<uint32_t>(index);
    tracer.set_context(ctx);
    // The queue wait was measured by the admission thread; the span is
    // emitted whole by the serving worker, already under the request's
    // context.
    tracer.RecordSpan("queue_wait", pending.admit_us, start_us);
  }

  QueryResponse response;
  response.worker = index;

  // Fresh per-query state; the session re-warms fleet health from the
  // shared hub inside Query, so the rewind loses no cross-query signal.
  sources.Reset();
  const Status budget_status = sources.set_budget(pending.request.budget);
  if (!budget_status.ok()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    metrics_.counter("nc_server_queries_total", {{"outcome", "rejected"}})
        .Increment();
    response.status = budget_status;
    response.outcome = ServeOutcome::kRejected;
    if (tracing) {
      tracer.RecordSpan("serve", start_us, EpochNowUs());
      tracer.clear_context();
      tracer.Clear();
    }
    pending.promise.set_value(std::move(response));
    return;
  }

  bool drained = false;
  size_t accesses_seen = 0;
  const std::chrono::microseconds stall(config_.simulated_access_stall_us);
  QueryHooks hooks;
  hooks.on_access = [this, &drained, &accesses_seen, &response, &sources,
                     &pending, profiler, stall](NCEngine& engine,
                                                size_t accesses) {
    accesses_seen = accesses;
    if (stall.count() > 0) std::this_thread::sleep_for(stall);
    if (!drained && draining_.load(std::memory_order_acquire)) {
      NC_PROFILE_SCOPE(profiler, kServerDrain);
      {
        NC_PROFILE_SCOPE(profiler, kCheckpointSerialize);
        // Checkpoint BEFORE clamping: the snapshot must describe the run
        // under its original budget, so resuming it on an identically
        // configured stack replays the uninterrupted query bit-for-bit.
        response.drain_checkpoint =
            SerializeCheckpoint(engine.Checkpoint());
      }
      // Same thread as the engine loop, between accesses - the one
      // place mutating the budget mid-run is legal. The engine answers
      // the refused next access with a certified anytime answer.
      NC_CHECK(sources.set_budget(DrainClamp(pending.request.budget)).ok());
      drained = true;
    }
  };

  // The profiler's lifecycle is per request: the session only attaches
  // it, the server resets it here and reads it back after the run.
  if (profiler != nullptr) profiler->Clear();

  const auto start = std::chrono::steady_clock::now();
  response.status = session.Query(&sources, pending.request.k, hooks,
                                  &response.result);
  response.wall_micros =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start)
          .count();
  response.accesses = accesses_seen;
  response.accrued_cost = sources.accrued_cost();
  response.query_outcome = session.last_query_outcome();
  if (drained) {
    response.outcome = ServeOutcome::kDrained;
    drained_.fetch_add(1, std::memory_order_relaxed);
  } else if (response.status.ok()) {
    response.outcome = ServeOutcome::kCompleted;
    completed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    response.outcome = ServeOutcome::kError;
    errors_.fetch_add(1, std::memory_order_relaxed);
  }

  const uint64_t end_us = EpochNowUs();
  if (tracing) {
    tracer.RecordSpan("serve", start_us, end_us);
    tracer.clear_context();
    // Every event already streamed through the sink; dropping the
    // buffered copies bounds the long-lived worker tracer's memory.
    tracer.Clear();
  }

  // Queue wait is off-thread time the scoped timers never saw: fold it
  // in as an external center so the profile covers admission to answer.
  if (profiler != nullptr) {
    profiler->AddExternal(obs::CostCenter::kServerQueue,
                          (start_us - pending.admit_us) * 1000);
  }
  // One report of this query feeds /metrics (its access series, cost
  // audit and profile), the hub and the /varz and /profilez mirrors.
  obs::RunReport report = obs::BuildRunReport(
      sources, /*tracer=*/nullptr, "server", pending.request.k,
      /*prediction=*/nullptr, profiler);
  report.cost_audit = session.last_cost_audit();
  metrics_
      .counter("nc_server_queries_total",
               {{"outcome", ServeOutcomeName(response.outcome)}})
      .Increment();
  metrics_.histogram("nc_server_queue_wait_us", LatencyBucketsUs())
      .Observe(static_cast<double>(start_us - pending.admit_us));
  metrics_.histogram("nc_server_service_us", LatencyBucketsUs())
      .Observe(response.wall_micros);
  obs::RecordRunMetrics(&metrics_, report);
  if (report.cost_audit.valid) {
    const std::lock_guard<std::mutex> lock(audit_mu_);
    last_audit_ = std::move(report.cost_audit);
    last_audit_request_ = pending.request_id;
  }
  if (profiler != nullptr) {
    hub_.ObserveProfile(report.profile);
    const std::lock_guard<std::mutex> lock(profile_mu_);
    last_profile_ = std::move(report.profile);
    last_profile_request_ = pending.request_id;
  }
  SyncTracerDropMetric();
  WorkerMeter& meter = *meters_[index];
  meter.busy_us.fetch_add(end_us - start_us, std::memory_order_relaxed);
  meter.queries.fetch_add(1, std::memory_order_relaxed);

  pending.promise.set_value(std::move(response));
}

void QueryServer::SyncTracerDropMetric() {
  if (config_.trace_sink == nullptr) return;
  // The sink's drop count is cumulative; counters are monotonic, so fold
  // in only the delta since the last sync. Racing syncs may both read
  // the same count, but the exchange ensures each drop is billed once.
  const uint64_t now =
      static_cast<uint64_t>(config_.trace_sink->lines_dropped());
  const uint64_t prev =
      tracer_drops_synced_.exchange(now, std::memory_order_acq_rel);
  if (now > prev) {
    metrics_.counter("nc_tracer_dropped_lines")
        .Increment(static_cast<double>(now - prev));
  }
}

uint64_t QueryServer::EpochNowUs() const {
  const uint64_t epoch = epoch_ns_.load(std::memory_order_acquire);
  const uint64_t now = obs::MonotonicTimeNs();
  return now > epoch ? (now - epoch) / 1000 : 0;
}

uint16_t QueryServer::stats_port() const {
  return stats_server_.running() ? stats_server_.port() : 0;
}

bool QueryServer::warm_started() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return warm_started_;
}

std::string QueryServer::VarzJson() const {
  const ServerStats totals = stats();
  std::ostringstream out;
  obs::JsonWriter w(&out);
  w.BeginObject();
  WriteBuildSection(&w, start_unix_us_.load(std::memory_order_acquire));
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const uint64_t uptime_us = running_ ? EpochNowUs() : 0;
    w.Key("server").BeginObject();
    w.Key("running").Bool(running_);
    w.Key("accepting").Bool(accepting_);
    w.Key("draining").Bool(draining_.load(std::memory_order_acquire));
    w.Key("warm_started").Bool(warm_started_);
    w.Key("num_workers").UInt(config_.num_workers);
    w.Key("queue_depth").UInt(queue_.size());
    w.Key("queue_capacity").UInt(config_.queue_capacity);
    w.Key("peak_queue_depth").UInt(totals.peak_queue_depth);
    w.Key("uptime_us").UInt(uptime_us);
    w.EndObject();

    w.Key("stats").BeginObject();
    w.Key("submitted").UInt(totals.submitted);
    w.Key("rejected").UInt(totals.rejected);
    w.Key("completed").UInt(totals.completed);
    w.Key("drained").UInt(totals.drained);
    w.Key("errors").UInt(totals.errors);
    w.Key("flushed").UInt(totals.flushed);
    w.EndObject();

    w.Key("workers").BeginArray();
    for (size_t i = 0; i < meters_.size(); ++i) {
      const WorkerMeter& meter = *meters_[i];
      const uint64_t busy = meter.busy_us.load(std::memory_order_relaxed);
      w.BeginObject();
      w.Key("worker").UInt(i);
      w.Key("queries").UInt(meter.queries.load(std::memory_order_relaxed));
      w.Key("busy_us").UInt(busy);
      w.Key("utilization")
          .Number(uptime_us > 0
                      ? static_cast<double>(busy) /
                            static_cast<double>(uptime_us)
                      : 0.0);
      w.EndObject();
    }
    w.EndArray();

    w.Key("watchdog").BeginObject();
    w.Key("enabled").Bool(watchdog_ != nullptr);
    if (watchdog_ != nullptr) {
      w.Key("checks_run").UInt(watchdog_->checks_run());
      w.Key("anomalies").BeginArray();
      for (const obs::Anomaly& a : watchdog_->last_anomalies()) {
        w.BeginObject();
        w.Key("kind").String(a.kind);
        w.Key("predicate").UInt(a.predicate);
        w.Key("replica").UInt(a.replica);
        w.Key("type").String(a.type == AccessType::kRandom ? "random"
                                                           : "sorted");
        w.Key("baseline").Number(a.baseline);
        w.Key("live").Number(a.live);
        w.Key("ratio").Number(a.ratio);
        w.EndObject();
      }
      w.EndArray();
    }
    w.EndObject();
  }

  const obs::HubSnapshot snap = hub_.Snapshot();
  w.Key("hub").BeginObject();
  w.Key("queries_observed").UInt(snap.queries_observed);
  const auto quantile_rows = [&w](const char* key,
                                  const std::vector<obs::SlotQuantiles>& rows,
                                  bool with_replica) {
    w.Key(key).BeginArray();
    for (const obs::SlotQuantiles& row : rows) {
      w.BeginObject();
      w.Key("predicate").UInt(row.predicate);
      if (with_replica) w.Key("replica").UInt(row.replica);
      w.Key("count").UInt(row.count);
      w.Key("p50").Number(row.p50);
      w.Key("p90").Number(row.p90);
      w.Key("p95").Number(row.p95);
      w.Key("p99").Number(row.p99);
      w.EndObject();
    }
    w.EndArray();
  };
  quantile_rows("service", snap.service, /*with_replica=*/true);
  quantile_rows("completion", snap.completion, /*with_replica=*/false);
  quantile_rows("prediction_error", snap.prediction_error,
                /*with_replica=*/false);
  w.Key("cost").BeginArray();
  for (const obs::CostCell& cell : snap.cost) {
    w.BeginObject();
    w.Key("predicate").UInt(cell.predicate);
    w.Key("type").String(cell.type == AccessType::kRandom ? "random"
                                                          : "sorted");
    w.Key("ewma").Number(cell.ewma);
    w.EndObject();
  }
  w.EndArray();
  w.Key("fleet_health").BeginArray();
  for (const obs::ReplicaHealth& slot : snap.health) {
    w.BeginObject();
    w.Key("predicate").UInt(slot.predicate);
    w.Key("replica").UInt(slot.replica);
    w.Key("dead").Bool(slot.dead);
    w.Key("breaker_open").Bool(slot.breaker_open);
    w.Key("cooldown_remaining").Number(slot.cooldown_remaining);
    w.Key("breaker_consecutive").UInt(slot.breaker_consecutive);
    if (slot.has_ewma) w.Key("ewma_latency").Number(slot.ewma_latency);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  w.Key("cache").BeginObject();
  w.Key("enabled").Bool(cache_ != nullptr);
  if (cache_ != nullptr) {
    const cache::CacheStatsSnapshot cs = cache_->Snapshot();
    w.Key("generation").UInt(cache_->generation());
    w.Key("entries").UInt(cs.random_entries + cs.stream_entries);
    w.Key("random_entries").UInt(cs.random_entries);
    w.Key("stream_entries").UInt(cs.stream_entries);
    w.Key("bytes").UInt(cs.bytes);
    w.Key("hits").UInt(cs.hits());
    w.Key("misses").UInt(cs.misses());
    w.Key("hit_rate").Number(cs.hit_rate());
    w.Key("inflight_merges").UInt(cs.inflight_merges);
    w.Key("evictions").UInt(cs.evictions);
    w.Key("expirations").UInt(cs.expirations);
    w.Key("invalidations").UInt(cs.invalidations);
    w.Key("streams").BeginArray();
    for (const auto& depth : cs.stream_depths) {
      w.BeginObject();
      w.Key("predicate").UInt(depth.first);
      w.Key("depth").UInt(depth.second);
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();

  {
    const std::lock_guard<std::mutex> lock(audit_mu_);
    w.Key("cost_audit").BeginObject();
    w.Key("valid").Bool(last_audit_.valid);
    if (last_audit_.valid) {
      w.Key("request").UInt(last_audit_request_);
      w.Key("predicted_total").Number(last_audit_.predicted_total);
      w.Key("actual_total").Number(last_audit_.actual_total);
      w.Key("total_error").Number(last_audit_.total_error);
      w.Key("total_relative_error").Number(last_audit_.total_relative_error);
    }
    w.EndObject();
  }

  w.Key("tracer").BeginObject();
  w.Key("enabled").Bool(config_.trace_sink != nullptr);
  if (config_.trace_sink != nullptr) {
    w.Key("lines_written").UInt(config_.trace_sink->lines_written());
    w.Key("lines_dropped").UInt(config_.trace_sink->lines_dropped());
  }
  w.EndObject();
  w.EndObject();
  return out.str();
}

std::string QueryServer::ProfilezJson() const {
  std::ostringstream out;
  obs::JsonWriter w(&out);
  w.BeginObject();
  w.Key("enabled").Bool(config_.enable_profiler);
  w.Key("alloc_accounting").Bool(obs::AllocAccountingActive());
  {
    const std::lock_guard<std::mutex> lock(profile_mu_);
    w.Key("last").BeginObject();
    w.Key("valid").Bool(!last_profile_.empty());
    if (!last_profile_.empty()) {
      w.Key("request").UInt(last_profile_request_);
      w.Key("report").Raw(last_profile_.ToJson());
    }
    w.EndObject();
  }
  // Cross-query per-center self-time quantiles (microseconds), from the
  // hub's P2 sketches.
  const obs::HubSnapshot snap = hub_.Snapshot();
  w.Key("cross_query").BeginArray();
  for (const obs::ProfileQuantiles& row : snap.profile) {
    w.BeginObject();
    w.Key("center").String(obs::CostCenterName(row.center));
    w.Key("count").UInt(row.count);
    w.Key("p50_us").Number(row.p50);
    w.Key("p90_us").Number(row.p90);
    w.Key("p95_us").Number(row.p95);
    w.Key("p99_us").Number(row.p99);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return out.str();
}

}  // namespace nc::server
