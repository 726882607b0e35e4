#include "obs/tracer.h"

#include <chrono>
#include <sstream>

#include "common/check.h"
#include "obs/json.h"

namespace nc::obs {

namespace {

// 16-digit lowercase hex, the conventional wire form of a trace id.
std::string TraceIdHex(uint64_t id) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (size_t i = 0; i < 16; ++i) {
    out[15 - i] = kDigits[(id >> (4 * i)) & 0xF];
  }
  return out;
}

}  // namespace

uint64_t MonotonicTimeNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t UnixTimeUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

JsonlSink::JsonlSink(std::ostream* out) : out_(out) {
  NC_CHECK(out_ != nullptr);
}

void JsonlSink::WriteLine(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mu_);
  (*out_) << line << '\n';
  out_->flush();
  if (out_->good()) {
    ++lines_;
  } else {
    // The line may be partially on disk; count it lost either way and
    // clear the stream so the next line gets a fresh attempt.
    ++dropped_;
    out_->clear();
  }
}

size_t JsonlSink::lines_written() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return lines_;
}

size_t JsonlSink::lines_dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kAccess:
      return "access";
    case TraceEventKind::kAccessAttempt:
      return "attempt";
    case TraceEventKind::kIteration:
      return "iteration";
    case TraceEventKind::kPhaseBegin:
      return "phase_begin";
    case TraceEventKind::kPhaseEnd:
      return "phase_end";
    case TraceEventKind::kCertificate:
      return "certificate";
    case TraceEventKind::kReplica:
      return "replica";
    case TraceEventKind::kTelemetry:
      return "telemetry";
    case TraceEventKind::kSpan:
      return "span";
    case TraceEventKind::kCache:
      return "cache";
    case TraceEventKind::kProfile:
      return "profile";
  }
  return "unknown";
}

const char* AccessOutcomeName(AccessOutcome outcome) {
  switch (outcome) {
    case AccessOutcome::kOk:
      return "ok";
    case AccessOutcome::kTransient:
      return "transient";
    case AccessOutcome::kTimeout:
      return "timeout";
    case AccessOutcome::kAbandoned:
      return "abandoned";
    case AccessOutcome::kSourceDown:
      return "source_down";
  }
  return "unknown";
}

QueryTracer::QueryTracer() : epoch_ns_(MonotonicTimeNs()) {}

uint64_t QueryTracer::Now() const {
  if (clock_) return clock_();
  return (MonotonicTimeNs() - epoch_ns_) / 1000;
}

uint64_t QueryTracer::NowUnix() const {
  // Deterministic goldens stay deterministic: a test clock zeroes the
  // system-clock timestamp (and JSONL omits the zero).
  if (clock_) return 0;
  return UnixTimeUs();
}

void QueryTracer::Stamp(TraceEvent* e) const {
  e->wall_us = Now();
  e->unix_us = NowUnix();
  e->ctx = ctx_;
}

void QueryTracer::set_context(const TraceContext& ctx) {
  NC_CHECK(ctx.trace_id != 0);
  ctx_ = ctx;
}

void QueryTracer::set_clock_for_testing(std::function<uint64_t()> clock) {
  clock_ = std::move(clock);
}

void QueryTracer::RecordAccess(AccessType type, PredicateId predicate,
                               ObjectId object, double charged,
                               double cost_clock) {
  if (!enabled_) return;
  TraceEvent e;
  e.kind = TraceEventKind::kAccess;
  Stamp(&e);
  e.cost_clock = cost_clock;
  e.access_type = type;
  e.predicate = predicate;
  e.object = object;
  e.outcome = AccessOutcome::kOk;
  e.charged = charged;
  Emit(e);
}

void QueryTracer::RecordAttempt(AccessType type, PredicateId predicate,
                                ObjectId object, AccessOutcome outcome,
                                double charged, double cost_clock) {
  if (!enabled_) return;
  NC_CHECK(outcome != AccessOutcome::kOk);
  TraceEvent e;
  e.kind = TraceEventKind::kAccessAttempt;
  Stamp(&e);
  e.cost_clock = cost_clock;
  e.access_type = type;
  e.predicate = predicate;
  e.object = object;
  e.outcome = outcome;
  e.charged = charged;
  Emit(e);
}

void QueryTracer::RecordIteration(ObjectId target, uint32_t choice_width,
                                  double threshold, double kth_bound,
                                  uint64_t heap_size, double cost_clock) {
  if (!enabled_) return;
  TraceEvent e;
  e.kind = TraceEventKind::kIteration;
  Stamp(&e);
  e.cost_clock = cost_clock;
  e.target = target;
  e.choice_width = choice_width;
  e.threshold = threshold;
  e.kth_bound = kth_bound;
  e.heap_size = heap_size;
  Emit(e);
}

void QueryTracer::BeginPhase(const char* phase) {
  if (!enabled_) return;
  NC_CHECK(phase != nullptr);
  TraceEvent e;
  e.kind = TraceEventKind::kPhaseBegin;
  Stamp(&e);
  e.phase = phase;
  Emit(e);
}

void QueryTracer::EndPhase(const char* phase) {
  if (!enabled_) return;
  NC_CHECK(phase != nullptr);
  TraceEvent e;
  e.kind = TraceEventKind::kPhaseEnd;
  Stamp(&e);
  e.phase = phase;
  Emit(e);
}

void QueryTracer::RecordCertificate(const char* reason, double epsilon,
                                    double excluded_ceiling,
                                    double cost_clock) {
  if (!enabled_) return;
  NC_CHECK(reason != nullptr);
  TraceEvent e;
  e.kind = TraceEventKind::kCertificate;
  Stamp(&e);
  e.cost_clock = cost_clock;
  e.phase = reason;
  e.epsilon = epsilon;
  e.threshold = excluded_ceiling;
  Emit(e);
}

void QueryTracer::RecordReplicaEvent(const char* what, PredicateId predicate,
                                     uint32_t from, uint32_t to,
                                     double cost_clock) {
  if (!enabled_) return;
  NC_CHECK(what != nullptr);
  TraceEvent e;
  e.kind = TraceEventKind::kReplica;
  Stamp(&e);
  e.cost_clock = cost_clock;
  e.predicate = predicate;
  e.phase = what;
  e.replica = from;
  e.replica_to = to;
  Emit(e);
}

void QueryTracer::RecordCacheEvent(const char* what, PredicateId predicate,
                                   ObjectId object, double charged,
                                   double cost_clock) {
  if (!enabled_) return;
  NC_CHECK(what != nullptr);
  TraceEvent e;
  e.kind = TraceEventKind::kCache;
  Stamp(&e);
  e.cost_clock = cost_clock;
  e.predicate = predicate;
  e.object = object;
  e.charged = charged;
  e.phase = what;
  Emit(e);
}

void QueryTracer::RecordTelemetry(const char* what, PredicateId predicate,
                                  double predicted, double actual,
                                  double cost_clock) {
  if (!enabled_) return;
  NC_CHECK(what != nullptr);
  TraceEvent e;
  e.kind = TraceEventKind::kTelemetry;
  Stamp(&e);
  e.cost_clock = cost_clock;
  e.predicate = predicate;
  e.phase = what;
  e.predicted = predicted;
  e.actual = actual;
  Emit(e);
}

void QueryTracer::RecordSpan(const char* name, uint64_t begin_us,
                             uint64_t end_us) {
  if (!enabled_) return;
  NC_CHECK(name != nullptr);
  NC_CHECK(begin_us <= end_us);
  TraceEvent e;
  e.kind = TraceEventKind::kSpan;
  Stamp(&e);
  e.wall_us = begin_us;
  e.phase = name;
  e.duration_us = end_us - begin_us;
  Emit(e);
}

void QueryTracer::RecordProfile(const char* center, uint64_t begin_us,
                                uint64_t end_us) {
  if (!enabled_) return;
  NC_CHECK(center != nullptr);
  NC_CHECK(begin_us <= end_us);
  TraceEvent e;
  e.kind = TraceEventKind::kProfile;
  Stamp(&e);
  e.wall_us = begin_us;
  e.phase = center;
  e.duration_us = end_us - begin_us;
  Emit(e);
}

void QueryTracer::Emit(const TraceEvent& e) {
  events_.push_back(e);
  if (sink_ != nullptr) {
    // The whole line is built locally, then handed to the synchronized
    // sink as one atomic write: concurrent tracers sharing the sink can
    // neither interleave nor tear lines.
    std::ostringstream line;
    WriteJsonlEvent(e, &line);
    sink_->WriteLine(line.str());
  }
}

void QueryTracer::ExportJsonl(std::ostream* out) const {
  NC_CHECK(out != nullptr);
  for (const TraceEvent& e : events_) {
    WriteJsonlEvent(e, out);
    (*out) << '\n';
  }
}

void QueryTracer::WriteJsonlEvent(const TraceEvent& e,
                                  std::ostream* out) const {
  {
    JsonWriter w(out);
    w.BeginObject();
    w.Key("kind").String(TraceEventKindName(e.kind));
    w.Key("wall_us").UInt(e.wall_us);
    // Emitted only when present, so pre-existing readers (and the golden
    // tests pinning the deterministic test-clock output) see the exact
    // same lines as before.
    if (e.unix_us != 0) w.Key("unix_us").UInt(e.unix_us);
    if (e.ctx.trace_id != 0) {
      w.Key("trace").String(TraceIdHex(e.ctx.trace_id));
      w.Key("request").UInt(e.ctx.request_id);
      w.Key("worker").UInt(e.ctx.worker);
    }
    switch (e.kind) {
      case TraceEventKind::kAccess:
      case TraceEventKind::kAccessAttempt:
        w.Key("cost_clock").Number(e.cost_clock);
        w.Key("type").String(e.access_type == AccessType::kSorted ? "sorted"
                                                                  : "random");
        w.Key("predicate").UInt(e.predicate);
        if (e.access_type == AccessType::kRandom) {
          w.Key("object").UInt(e.object);
        }
        w.Key("outcome").String(AccessOutcomeName(e.outcome));
        w.Key("charged").Number(e.charged);
        break;
      case TraceEventKind::kIteration:
        w.Key("cost_clock").Number(e.cost_clock);
        if (e.target == kUnseenObject) {
          w.Key("target").String("unseen");
        } else {
          w.Key("target").UInt(e.target);
        }
        w.Key("choice_width").UInt(e.choice_width);
        w.Key("threshold").Number(e.threshold);
        w.Key("kth_bound").Number(e.kth_bound);
        w.Key("heap_size").UInt(e.heap_size);
        break;
      case TraceEventKind::kPhaseBegin:
      case TraceEventKind::kPhaseEnd:
        w.Key("phase").String(e.phase);
        break;
      case TraceEventKind::kCertificate:
        w.Key("cost_clock").Number(e.cost_clock);
        w.Key("reason").String(e.phase);
        // +inf serializes as null (JsonNumber); readers treat a null
        // epsilon as "no multiplicative guarantee".
        w.Key("epsilon").Number(e.epsilon);
        w.Key("excluded_ceiling").Number(e.threshold);
        break;
      case TraceEventKind::kReplica:
        w.Key("cost_clock").Number(e.cost_clock);
        w.Key("event").String(e.phase);
        w.Key("predicate").UInt(e.predicate);
        w.Key("replica").UInt(e.replica);
        w.Key("replica_to").UInt(e.replica_to);
        break;
      case TraceEventKind::kTelemetry:
        w.Key("cost_clock").Number(e.cost_clock);
        w.Key("what").String(e.phase);
        w.Key("predicate").UInt(e.predicate);
        w.Key("predicted").Number(e.predicted);
        w.Key("actual").Number(e.actual);
        break;
      case TraceEventKind::kSpan:
        w.Key("name").String(e.phase);
        w.Key("duration_us").UInt(e.duration_us);
        break;
      case TraceEventKind::kProfile:
        w.Key("center").String(e.phase);
        w.Key("duration_us").UInt(e.duration_us);
        break;
      case TraceEventKind::kCache:
        w.Key("cost_clock").Number(e.cost_clock);
        w.Key("event").String(e.phase);
        w.Key("predicate").UInt(e.predicate);
        w.Key("object").UInt(e.object);
        w.Key("charged").Number(e.charged);
        break;
    }
    w.EndObject();
  }
}

void QueryTracer::ExportChromeTrace(std::ostream* out) const {
  NC_CHECK(out != nullptr);
  JsonWriter w(out);
  w.BeginObject();
  w.Key("displayTimeUnit").String("ms");
  w.Key("traceEvents").BeginArray();
  const auto common = [&w](const TraceEvent& e, const char* name,
                           const char* ph) {
    w.BeginObject();
    w.Key("name").String(name);
    w.Key("ph").String(ph);
    w.Key("ts").UInt(e.wall_us);
    w.Key("pid").Int(1);
    // Request-scoped events land on their serving worker's track, so a
    // multi-worker server renders as parallel per-worker timelines.
    w.Key("tid").Int(e.ctx.trace_id != 0
                         ? static_cast<int64_t>(e.ctx.worker) + 1
                         : 1);
  };
  // args entries shared by every context-stamped event.
  const auto context_args = [&w](const TraceEvent& e) {
    if (e.ctx.trace_id == 0) return;
    w.Key("trace").String(TraceIdHex(e.ctx.trace_id));
    w.Key("request").UInt(e.ctx.request_id);
  };
  for (const TraceEvent& e : events_) {
    switch (e.kind) {
      case TraceEventKind::kAccess:
      case TraceEventKind::kAccessAttempt: {
        const std::string name =
            std::string(e.access_type == AccessType::kSorted ? "sa_" : "ra_") +
            std::to_string(e.predicate);
        common(e, name.c_str(), "i");
        w.Key("s").String("t");
        w.Key("args").BeginObject();
        w.Key("outcome").String(AccessOutcomeName(e.outcome));
        w.Key("charged").Number(e.charged);
        w.Key("cost_clock").Number(e.cost_clock);
        if (e.access_type == AccessType::kRandom) {
          w.Key("object").UInt(e.object);
        }
        context_args(e);
        w.EndObject();
        w.EndObject();
        break;
      }
      case TraceEventKind::kIteration: {
        // Counter tracks: Perfetto plots each args key as a series.
        common(e, "theta", "C");
        w.Key("args").BeginObject();
        w.Key("threshold").Number(e.threshold);
        w.Key("kth_bound").Number(e.kth_bound);
        w.EndObject();
        w.EndObject();
        common(e, "heap_size", "C");
        w.Key("args").BeginObject();
        w.Key("size").UInt(e.heap_size);
        w.EndObject();
        w.EndObject();
        break;
      }
      case TraceEventKind::kPhaseBegin:
        common(e, e.phase, "B");
        w.EndObject();
        break;
      case TraceEventKind::kPhaseEnd:
        common(e, e.phase, "E");
        w.EndObject();
        break;
      case TraceEventKind::kCertificate:
        common(e, "certificate", "i");
        w.Key("s").String("t");
        w.Key("args").BeginObject();
        w.Key("reason").String(e.phase);
        w.Key("epsilon").Number(e.epsilon);
        w.Key("excluded_ceiling").Number(e.threshold);
        w.Key("cost_clock").Number(e.cost_clock);
        context_args(e);
        w.EndObject();
        w.EndObject();
        break;
      case TraceEventKind::kReplica:
        common(e, e.phase, "i");
        w.Key("s").String("t");
        w.Key("args").BeginObject();
        w.Key("predicate").UInt(e.predicate);
        w.Key("replica").UInt(e.replica);
        w.Key("replica_to").UInt(e.replica_to);
        w.Key("cost_clock").Number(e.cost_clock);
        context_args(e);
        w.EndObject();
        w.EndObject();
        break;
      case TraceEventKind::kTelemetry:
        common(e, e.phase, "i");
        w.Key("s").String("t");
        w.Key("args").BeginObject();
        w.Key("predicate").UInt(e.predicate);
        w.Key("predicted").Number(e.predicted);
        w.Key("actual").Number(e.actual);
        w.Key("cost_clock").Number(e.cost_clock);
        context_args(e);
        w.EndObject();
        w.EndObject();
        break;
      case TraceEventKind::kSpan:
        // A complete ("X") slice: begin + duration in one event.
        common(e, e.phase, "X");
        w.Key("dur").UInt(e.duration_us);
        w.Key("args").BeginObject();
        context_args(e);
        w.EndObject();
        w.EndObject();
        break;
      case TraceEventKind::kProfile:
        // Profiler scopes nest by stack discipline, so their "X" slices
        // render as a flame graph under the serve span.
        common(e, e.phase, "X");
        w.Key("dur").UInt(e.duration_us);
        w.Key("args").BeginObject();
        context_args(e);
        w.EndObject();
        w.EndObject();
        break;
      case TraceEventKind::kCache:
        common(e, e.phase, "i");
        w.Key("s").String("t");
        w.Key("args").BeginObject();
        w.Key("predicate").UInt(e.predicate);
        w.Key("object").UInt(e.object);
        w.Key("charged").Number(e.charged);
        w.Key("cost_clock").Number(e.cost_clock);
        context_args(e);
        w.EndObject();
        w.EndObject();
        break;
    }
  }
  w.EndArray();
  w.EndObject();
}

}  // namespace nc::obs
