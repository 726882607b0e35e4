// Query-level tracing: a typed event log of everything a run did.
//
// The paper's cost argument (Eq. 1) is about *where access cost goes*;
// QueryTracer makes that visible per run. Three event families cover the
// engine stack:
//
//   * kAccess / kAccessAttempt - one record per performed access and per
//     failed attempt (transient error, timeout, abandonment, source
//     death), carrying the predicate, access type, the cost charged, and
//     the accrued-cost clock. Emitted by SourceSet.
//   * kIteration - one record per engine loop iteration: the chosen
//     target, the width of its necessary-choice set, the current ceiling
//     threshold theta = F(last-seen bounds), the k-th heap bound, and the
//     heap size. Emitted by NCEngine (and, per completion epoch, by the
//     parallel executor).
//   * kPhaseBegin / kPhaseEnd - spans bracketing plan, probe (run),
//     extend, and baseline executions.
//
// Cost model of the tracer itself: a detached (nullptr) or disabled
// tracer is one pointer/bool test on the hot path - no event is
// constructed, nothing allocates. Instrumented layers must guard with
// ShouldTrace(tracer) so a production run pays nothing.
//
// Two exporters serialize the buffer: ExportJsonl (one JSON object per
// line, full fidelity, trivially greppable) and ExportChromeTrace (the
// Chrome trace_event array format: phase spans become duration events,
// accesses become instants, and theta / k-th bound / heap size become
// counter tracks, so a run opens directly in chrome://tracing or
// Perfetto).
//
// Timestamps: wall_us is microseconds from a monotonic clock anchored at
// construction (set_epoch_ns lets an embedder share one anchor across
// many tracers, so multi-worker timelines are comparable); unix_us is the
// system_clock epoch time of the same instant, for aligning traces across
// processes and restarts. Tests (and any embedder that wants
// deterministic output) may install a manual clock with
// set_clock_for_testing, which zeroes unix_us for reproducibility.
//
// Request-scoped tracing: a server mints a TraceContext per admitted
// request and installs it with set_context; every event recorded until
// clear_context carries the trace/request/worker ids, so JSONL lines from
// many workers stitch back into per-request timelines. RecordSpan emits
// explicit duration spans (queue-wait, serve) that Chrome trace renders
// as complete ("X") slices on the worker's track.

#ifndef NC_OBS_TRACER_H_
#define NC_OBS_TRACER_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "access/access.h"
#include "common/score.h"

namespace nc::obs {

// Monotonic (steady_clock) nanoseconds; the tracers' shared timebase.
uint64_t MonotonicTimeNs();

// system_clock microseconds since the unix epoch.
uint64_t UnixTimeUs();

// Identity of one server request, stamped onto every event recorded
// while it is installed. trace_id == 0 means "no context" (events from
// plain single-query embedders stay exactly as before).
struct TraceContext {
  uint64_t trace_id = 0;    // Random 64-bit id; 0 = unset.
  uint64_t request_id = 0;  // Admission sequence number.
  uint32_t worker = 0;      // Serving worker index.
};

// A synchronized line sink for streaming JSONL from many tracers into
// one stream: each WriteLine appends exactly one complete line and
// flushes under a mutex, so concurrent workers never interleave or tear
// lines. The stream must outlive the sink.
class JsonlSink {
 public:
  explicit JsonlSink(std::ostream* out);
  JsonlSink(const JsonlSink&) = delete;
  JsonlSink& operator=(const JsonlSink&) = delete;

  // `line` must be one complete JSON object without the trailing '\n'.
  void WriteLine(const std::string& line);

  size_t lines_written() const;

  // Lines whose write or flush left the stream in a failed state (disk
  // full, closed pipe, ...). A streaming trace is best-effort by design;
  // this makes the loss visible (nc_tracer_dropped_lines, /varz) instead
  // of silent. The stream's error state is cleared after counting so one
  // bad write does not condemn every later line.
  size_t lines_dropped() const;

 private:
  std::ostream* out_;
  mutable std::mutex mu_;
  size_t lines_ = 0;
  size_t dropped_ = 0;
};

enum class TraceEventKind {
  kAccess,         // A performed (successful) access.
  kAccessAttempt,  // A failed attempt: retried, abandoned, or fatal.
  kIteration,      // One engine scheduling iteration.
  kPhaseBegin,
  kPhaseEnd,
  kCertificate,    // An early-terminated run emitted a certified answer.
  kReplica,        // A replica-fleet event: failover, hedge, death, ...
  kTelemetry,      // A cross-query telemetry datum: cost-audit rows, ...
  kSpan,           // An explicit duration span (queue-wait, serve, ...).
  kCache,          // A cross-query cache event: hit, merge, ...
  kProfile,        // A closed profiler scope (obs/profiler.h).
};

const char* TraceEventKindName(TraceEventKind kind);

// Resolution of one access attempt, mirroring access/fault.h outcomes.
enum class AccessOutcome {
  kOk,         // The attempt succeeded (kAccess events only).
  kTransient,  // Failed fast; a retry followed or attempts ran out.
  kTimeout,    // Failed after a full timeout.
  kAbandoned,  // RetryPolicy::max_attempts exhausted; access given up.
  kSourceDown  // The source died permanently on this attempt.
};

const char* AccessOutcomeName(AccessOutcome outcome);

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kAccess;
  // Microseconds since the tracer's (monotonic) epoch.
  uint64_t wall_us = 0;
  // system_clock microseconds since the unix epoch at the same instant;
  // 0 under a test clock (and omitted from JSONL then), so deterministic
  // goldens stay deterministic while real runs can be aligned across
  // processes and restarts.
  uint64_t unix_us = 0;
  // The request identity stamped by set_context; ctx.trace_id == 0 for
  // events recorded outside any request scope.
  TraceContext ctx;
  // The emitting SourceSet's accrued cost after the event (the paper's
  // cost clock); iterations snapshot it too, so convergence can be
  // plotted against cost rather than wall time.
  double cost_clock = 0.0;

  // kAccess / kAccessAttempt fields.
  AccessType access_type = AccessType::kSorted;
  PredicateId predicate = 0;
  ObjectId object = 0;  // Random-access target; 0 for sorted.
  AccessOutcome outcome = AccessOutcome::kOk;
  // Cost charged by this event alone (unit cost, page charge, or the
  // retry fraction of a failed attempt).
  double charged = 0.0;

  // kIteration fields.
  ObjectId target = 0;  // kUnseenObject for the virtual sentinel.
  uint32_t choice_width = 0;
  // Ceiling threshold theta = F(last-seen): the maximal-possible score
  // of anything unseen. Monotonically non-increasing over a run.
  double threshold = 0.0;
  // Bound of the k-th entry of the current top-k (upper bound).
  double kth_bound = 0.0;
  uint64_t heap_size = 0;

  // kPhaseBegin / kPhaseEnd: a static string ("plan", "probe", ...).
  // kCertificate reuses it for the termination reason ("CostBudget", ...).
  const char* phase = nullptr;

  // kCertificate: the proven precision bound (may be +inf) and, in
  // `threshold`, the excluded ceiling it was derived from.
  double epsilon = 0.0;

  // kReplica: the replica the event is about and, for failovers and
  // hedges, the replica traffic moved to / was hedged on. The event name
  // ("replica_failover", "hedge_issued", "hedge_won", "hedge_lost",
  // "replica_down", "replica_restored") rides in `phase`.
  uint32_t replica = 0;
  uint32_t replica_to = 0;

  // kTelemetry: a predicted-vs-actual pair (the cost audit's rows); the
  // datum name ("cost_audit" per predicate, "cost_audit_total") rides in
  // `phase`, the subject predicate in `predicate`.
  double predicted = 0.0;
  double actual = 0.0;

  // kSpan: the span's length; its name rides in `phase` and its start in
  // `wall_us`.
  uint64_t duration_us = 0;
};

class QueryTracer {
 public:
  // Constructed enabled: attaching a tracer expresses intent to trace.
  // Disable()/Enable() toggle recording without dropping the buffer.
  QueryTracer();

  bool enabled() const { return enabled_; }
  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }

  // Drops all recorded events (the epoch is unchanged).
  void Clear() { events_.clear(); }

  const std::vector<TraceEvent>& events() const { return events_; }

  // --- Recording (no-ops when disabled) --------------------------------
  void RecordAccess(AccessType type, PredicateId predicate, ObjectId object,
                    double charged, double cost_clock);
  void RecordAttempt(AccessType type, PredicateId predicate, ObjectId object,
                     AccessOutcome outcome, double charged,
                     double cost_clock);
  void RecordIteration(ObjectId target, uint32_t choice_width,
                       double threshold, double kth_bound, uint64_t heap_size,
                       double cost_clock);
  // `phase` must be a literal or otherwise outlive the tracer.
  void BeginPhase(const char* phase);
  void EndPhase(const char* phase);
  // An early-terminated run certified its answer: `reason` is a static
  // TerminationReasonName string, `epsilon` the proven bound (may be
  // +inf), `excluded_ceiling` the largest possible excluded score.
  void RecordCertificate(const char* reason, double epsilon,
                         double excluded_ceiling, double cost_clock);
  // A replica-fleet event on `predicate`; `what` must be a literal (see
  // TraceEvent::replica for the names). `from` == `to` for events about
  // a single replica (deaths, restores).
  void RecordReplicaEvent(const char* what, PredicateId predicate,
                          uint32_t from, uint32_t to, double cost_clock);
  // A cross-query cache event: `what` must be a literal ("sorted_hit",
  // "sorted_merge", "random_hit", "random_merge"); `charged` is the
  // cache-hit cost billed for the served access.
  void RecordCacheEvent(const char* what, PredicateId predicate,
                        ObjectId object, double charged, double cost_clock);
  // A cross-query telemetry datum: `what` must be a literal (e.g.
  // "cost_audit"); predicted/actual are the audited pair.
  void RecordTelemetry(const char* what, PredicateId predicate,
                       double predicted, double actual, double cost_clock);
  // An explicit duration span: `name` must be a literal; begin_us/end_us
  // are wall_us instants on this tracer's clock (begin_us <= end_us).
  // Unlike phase pairs, a span is one event, so a queue-wait measured by
  // the admission thread can be emitted whole by the serving worker.
  void RecordSpan(const char* name, uint64_t begin_us, uint64_t end_us);
  // A closed profiler scope: `center` must be a literal (a
  // CostCenterName string); begin_us/end_us as in RecordSpan. Scopes
  // nest by construction, so the Chrome exporter's slices stack.
  void RecordProfile(const char* center, uint64_t begin_us, uint64_t end_us);

  // --- Request scoping -------------------------------------------------
  // Stamps `ctx` onto every subsequently recorded event until
  // clear_context(). ctx.trace_id must be nonzero.
  void set_context(const TraceContext& ctx);
  void clear_context() { ctx_ = TraceContext{}; }
  const TraceContext& context() const { return ctx_; }

  // Replaces the monotonic anchor (MonotonicTimeNs() units). A server
  // hands every worker's tracer the same epoch so wall_us timestamps
  // from different workers are directly comparable.
  void set_epoch_ns(uint64_t epoch_ns) { epoch_ns_ = epoch_ns; }
  uint64_t epoch_ns() const { return epoch_ns_; }

  // wall_us "now" on this tracer's clock (test clock honored).
  uint64_t now_us() const { return Now(); }

  // --- Streaming sink --------------------------------------------------
  // Mirrors every subsequently recorded event to the sink immediately as
  // one JSONL line, flushed per event, so abnormal termination (a kill or
  // crash mid-query, an unwound exception) still leaves every event up
  // to the failure point readable on disk. The sink may be shared by
  // many tracers (the server's per-worker tracers all streaming into one
  // file): each event becomes one atomic WriteLine, so concurrent
  // workers cannot interleave characters. nullptr detaches; the
  // buffering exporters below are unaffected. The sink must outlive the
  // tracer (or be detached first).
  void set_streaming_sink(JsonlSink* sink) { sink_ = sink; }

  // --- Exporters -------------------------------------------------------
  // One JSON object per event per line.
  void ExportJsonl(std::ostream* out) const;
  // Chrome trace_event JSON ({"traceEvents": [...]}); opens in
  // chrome://tracing and Perfetto.
  void ExportChromeTrace(std::ostream* out) const;

  // Replaces the wall clock (microseconds) for deterministic output.
  void set_clock_for_testing(std::function<uint64_t()> clock);

 private:
  uint64_t Now() const;
  // unix_us for the event being recorded: 0 under a test clock.
  uint64_t NowUnix() const;
  // Stamps the clocks and context shared by every event kind.
  void Stamp(TraceEvent* e) const;
  // Buffers the event and, with a streaming sink attached, writes and
  // flushes its JSONL line immediately.
  void Emit(const TraceEvent& e);
  // Serializes one event as a single JSONL object (no newline).
  void WriteJsonlEvent(const TraceEvent& e, std::ostream* out) const;

  bool enabled_ = true;
  std::vector<TraceEvent> events_;
  std::function<uint64_t()> clock_;
  JsonlSink* sink_ = nullptr;
  TraceContext ctx_;
  // Monotonic anchor for the default clock.
  uint64_t epoch_ns_ = 0;
};

// The hot-path guard every instrumented layer uses.
inline bool ShouldTrace(const QueryTracer* tracer) {
  return tracer != nullptr && tracer->enabled();
}

}  // namespace nc::obs

#endif  // NC_OBS_TRACER_H_
