#include "obs/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "common/check.h"
#include "common/record_codec.h"

namespace nc::obs {

namespace {

double QuietNaN() { return std::numeric_limits<double>::quiet_NaN(); }

uint64_t CostKey(PredicateId i, AccessType type) {
  return (static_cast<uint64_t>(i) << 1) |
         (type == AccessType::kRandom ? 1u : 0u);
}

template <typename Map>
std::vector<typename Map::key_type> SortedKeys(const Map& map) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(map.size());
  for (const auto& [key, value] : map) {
    (void)value;
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// One P2 sketch: count, then the 5 heights / positions / desired marker
// vectors. q is NOT serialized - it is fixed by the field's position in
// the sketch line (0.5 / 0.9 / 0.95 / 0.99) - and the increments vector
// is a pure function of q, rebuilt by the P2Quantile constructor.
void PutP2(RecordWriter* w, const P2Quantile& p) {
  const P2QuantileState st = p.state();
  w->UInt(st.count);
  for (const double h : st.heights) w->Hex(h);
  for (const double n : st.positions) w->Hex(n);
  for (const double d : st.desired) w->Hex(d);
}

P2Quantile TakeP2(Record* f, double q) {
  P2QuantileState st;
  st.q = q;
  st.count = static_cast<size_t>(f->TakeUInt());
  for (double& h : st.heights) h = f->TakeHex();
  for (double& n : st.positions) n = f->TakeHex();
  for (double& d : st.desired) d = f->TakeHex();
  return P2Quantile::FromState(st);
}

}  // namespace

double TelemetryHub::ServiceSketch::At(double q) const {
  if (q == 0.5) return p50.value();
  if (q == 0.9) return p90.value();
  if (q == 0.95) return p95.value();
  if (q == 0.99) return p99.value();
  NC_CHECK(false);  // Only the tracked quantiles are streamed.
  return QuietNaN();
}

void TelemetryHub::HedgeWindow::Add(double v) {
  if (samples.size() < kTelemetryHedgeWindow) {
    samples.push_back(v);
  } else {
    samples[next] = v;
  }
  next = (next + 1) % kTelemetryHedgeWindow;
  ++count;
}

double TelemetryHub::HedgeWindow::ExactQuantile(double q) const {
  return Percentile(samples, q);
}

TelemetryHub::TelemetryHub() = default;

void TelemetryHub::Clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  queries_observed_.store(0, std::memory_order_relaxed);
  service_.clear();
  hedge_window_.clear();
  completion_.clear();
  cost_.clear();
  prediction_error_.clear();
  health_.clear();
  profile_.clear();
}

void TelemetryHub::ObserveReplicaService(PredicateId i, size_t r,
                                         double latency) {
  if (!enabled()) return;
  const uint64_t key = SlotKey(i, r);
  const std::lock_guard<std::mutex> lock(mu_);
  service_[key].Add(latency);
  hedge_window_[key].Add(latency);
}

void TelemetryHub::ObserveCompletion(PredicateId i, double latency) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  completion_[i].Add(latency);
}

void TelemetryHub::ObserveAccessCost(PredicateId i, AccessType type,
                                     double charged) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  CostEwma& cell = cost_[CostKey(i, type)];
  if (!cell.seeded) {
    cell.seeded = true;
    cell.value = charged;
  } else {
    cell.value += kTelemetryCostEwmaAlpha * (charged - cell.value);
  }
}

void TelemetryHub::ObservePredictionError(PredicateId i,
                                          double relative_error) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  prediction_error_[i].Add(relative_error);
}

void TelemetryHub::ObserveProfile(const ProfileReport& report) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const ProfileReport::FlatRow& row : report.flat) {
    // Self time in microseconds: the same unit as the latency sketches,
    // and small enough that P2's double arithmetic stays well-scaled.
    profile_[static_cast<uint32_t>(row.center)].Add(
        static_cast<double>(row.self_ns) / 1000.0);
  }
}

size_t TelemetryHub::replica_service_count(PredicateId i, size_t r) const {
  const uint64_t key = SlotKey(i, r);
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = service_.find(key);
  return it == service_.end() ? 0 : it->second.count;
}

double TelemetryHub::ReplicaServiceQuantile(PredicateId i, size_t r,
                                            double q) const {
  const uint64_t key = SlotKey(i, r);
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = service_.find(key);
  if (it == service_.end()) return QuietNaN();
  return it->second.At(q);
}

double TelemetryHub::CompletionQuantile(PredicateId i, double q) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = completion_.find(i);
  if (it == completion_.end()) return QuietNaN();
  return it->second.At(q);
}

double TelemetryHub::AccessCostEwma(PredicateId i, AccessType type) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = cost_.find(CostKey(i, type));
  if (it == cost_.end() || !it->second.seeded) return QuietNaN();
  return it->second.value;
}

double TelemetryHub::PredictionErrorQuantile(PredicateId i, double q) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = prediction_error_.find(i);
  if (it == prediction_error_.end()) return QuietNaN();
  return it->second.At(q);
}

size_t TelemetryHub::prediction_error_count(PredicateId i) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = prediction_error_.find(i);
  return it == prediction_error_.end() ? 0 : it->second.count;
}

double TelemetryHub::ProfileQuantile(CostCenter center, double q) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = profile_.find(static_cast<uint32_t>(center));
  if (it == profile_.end()) return QuietNaN();
  return it->second.At(q);
}

size_t TelemetryHub::profile_sample_count(CostCenter center) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = profile_.find(static_cast<uint32_t>(center));
  return it == profile_.end() ? 0 : it->second.count;
}

double TelemetryHub::AdaptiveHedgeDelay(PredicateId i, size_t r) const {
  const uint64_t key = SlotKey(i, r);
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = hedge_window_.find(key);
  if (it == hedge_window_.end() || it->second.count < kTelemetryMinSamples) {
    return QuietNaN();
  }
  // Exact windowed p90, not a P2 marker and not p95: see the header
  // comment - at a ~5% straggler fraction the 0.95 quantile is ambiguous
  // across the bulk/tail gap and P2 markers drift into it, hedging far
  // too late.
  return it->second.ExactQuantile(0.9);
}

void TelemetryHub::CaptureFleetHealth(const ReplicaFleet& fleet, double now) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  const size_t bound = fleet.max_configured_predicates();
  for (PredicateId i = 0; i < bound; ++i) {
    if (!fleet.configured(i)) continue;
    for (size_t r = 0; r < fleet.num_replicas(i); ++r) {
      const ReplicaRuntime& rt = fleet.runtime(i, r);
      ReplicaHealth h;
      h.predicate = i;
      h.replica = r;
      h.dead = rt.dead;
      // An already-elapsed cooldown is not worth carrying: the breaker
      // would admit a probe immediately anyway.
      h.breaker_open = rt.breaker_open && rt.breaker_open_until > now;
      h.cooldown_remaining = h.breaker_open ? rt.breaker_open_until - now : 0.0;
      h.breaker_consecutive = rt.breaker_consecutive;
      h.has_ewma = rt.has_ewma;
      h.ewma_latency = rt.ewma_latency;
      // Merge by slot: deaths are sticky across captures (another
      // worker's fleet view that never saw the death must not resurrect
      // the replica); everything else takes the fresh capture.
      auto [it, inserted] = health_.try_emplace(SlotKey(i, r), h);
      if (!inserted) {
        h.dead = h.dead || it->second.dead;
        it->second = h;
      }
    }
  }
}

void TelemetryHub::WarmFleet(ReplicaFleet* fleet) const {
  if (!enabled() || fleet == nullptr) return;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, h] : health_) {
    (void)key;
    if (!fleet->configured(h.predicate)) continue;
    if (h.replica >= fleet->num_replicas(h.predicate)) continue;
    ReplicaRuntime& rt = fleet->runtime(h.predicate, h.replica);
    // Deaths are sticky: a replica the session saw die stays routed
    // around until the embedder clears the hub (or reconfigures).
    rt.dead = rt.dead || h.dead;
    if (h.breaker_open) {
      rt.breaker_open = true;
      // The new query's elapsed-time clock starts at zero.
      rt.breaker_open_until = h.cooldown_remaining;
    }
    rt.breaker_consecutive = h.breaker_consecutive;
    if (h.has_ewma) {
      rt.has_ewma = true;
      rt.ewma_latency = h.ewma_latency;
    }
  }
  // Hub-informed routing: slots the captured health left cold (no
  // routing EWMA yet - e.g. a fresh stack warming from a persisted or
  // server-shared hub) seed their kLeastLatency estimate from the
  // cross-query service sketch's median, once it has enough samples to
  // beat noise. Health-carried EWMAs above stay authoritative; this only
  // fills gaps, so re-warming is idempotent and fault-free answers are
  // untouched (routing changes WHERE an access is served, never what it
  // returns - pinned by the differential test in telemetry_test.cc).
  for (const auto& [key, sketch] : service_) {
    if (sketch.count < kTelemetryMinSamples) continue;
    const auto predicate = static_cast<PredicateId>(key >> 32);
    const auto replica = static_cast<size_t>(key & 0xFFFFFFFFu);
    if (!fleet->configured(predicate)) continue;
    if (replica >= fleet->num_replicas(predicate)) continue;
    ReplicaRuntime& rt = fleet->runtime(predicate, replica);
    if (rt.has_ewma) continue;
    rt.has_ewma = true;
    rt.ewma_latency = sketch.At(0.5);
  }
}

bool TelemetryHub::has_fleet_health() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return !health_.empty();
}

HubSnapshot TelemetryHub::Snapshot() const {
  HubSnapshot snap;
  snap.queries_observed = queries_observed_.load(std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, sketch] : service_) {
      SlotQuantiles s;
      s.predicate = static_cast<PredicateId>(key >> 32);
      s.replica = static_cast<size_t>(key & 0xFFFFFFFFu);
      s.count = sketch.count;
      s.p50 = sketch.At(0.5);
      s.p90 = sketch.At(0.9);
      s.p95 = sketch.At(0.95);
      s.p99 = sketch.At(0.99);
      snap.service.push_back(s);
    }
    const auto per_predicate = [](PredicateId i, const ServiceSketch& sketch) {
      SlotQuantiles s;
      s.predicate = i;
      s.count = sketch.count;
      s.p50 = sketch.At(0.5);
      s.p90 = sketch.At(0.9);
      s.p95 = sketch.At(0.95);
      s.p99 = sketch.At(0.99);
      return s;
    };
    for (const auto& [i, sketch] : completion_) {
      snap.completion.push_back(per_predicate(i, sketch));
    }
    for (const auto& [i, sketch] : prediction_error_) {
      snap.prediction_error.push_back(per_predicate(i, sketch));
    }
    for (const auto& [key, cell] : cost_) {
      if (!cell.seeded) continue;
      CostCell c;
      c.predicate = static_cast<PredicateId>(key >> 1);
      c.type = (key & 1u) != 0 ? AccessType::kRandom : AccessType::kSorted;
      c.ewma = cell.value;
      snap.cost.push_back(c);
    }
    for (const auto& [key, h] : health_) {
      (void)key;
      snap.health.push_back(h);
    }
    for (const auto& [center, sketch] : profile_) {
      ProfileQuantiles p;
      p.center = static_cast<CostCenter>(center);
      p.count = sketch.count;
      p.p50 = sketch.At(0.5);
      p.p90 = sketch.At(0.9);
      p.p95 = sketch.At(0.95);
      p.p99 = sketch.At(0.99);
      snap.profile.push_back(p);
    }
  }
  const auto by_slot = [](const SlotQuantiles& a, const SlotQuantiles& b) {
    if (a.predicate != b.predicate) return a.predicate < b.predicate;
    return a.replica < b.replica;
  };
  std::sort(snap.service.begin(), snap.service.end(), by_slot);
  std::sort(snap.completion.begin(), snap.completion.end(), by_slot);
  std::sort(snap.prediction_error.begin(), snap.prediction_error.end(),
            by_slot);
  std::sort(snap.cost.begin(), snap.cost.end(),
            [](const CostCell& a, const CostCell& b) {
              if (a.predicate != b.predicate) return a.predicate < b.predicate;
              return a.type < b.type;
            });
  std::sort(snap.health.begin(), snap.health.end(),
            [](const ReplicaHealth& a, const ReplicaHealth& b) {
              if (a.predicate != b.predicate) return a.predicate < b.predicate;
              return a.replica < b.replica;
            });
  std::sort(snap.profile.begin(), snap.profile.end(),
            [](const ProfileQuantiles& a, const ProfileQuantiles& b) {
              return a.center < b.center;
            });
  return snap;
}

std::string TelemetryHub::Serialize() const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Version 2 added the "profile" record; readers accept 1 and 2.
  RecordWriter w("nchub", 2);
  w.Key("queries").UInt(queries_observed_.load(std::memory_order_relaxed));
  const auto put_sketch = [&w](const ServiceSketch& s) {
    w.UInt(s.count);
    for (const P2Quantile* p : {&s.p50, &s.p90, &s.p95, &s.p99}) {
      PutP2(&w, *p);
    }
  };
  for (const uint64_t key : SortedKeys(service_)) {
    w.Key("service").UInt(key >> 32).UInt(key & 0xFFFFFFFFu);
    put_sketch(service_.at(key));
  }
  for (const uint64_t key : SortedKeys(hedge_window_)) {
    const HedgeWindow& h = hedge_window_.at(key);
    w.Key("hedge").UInt(key >> 32).UInt(key & 0xFFFFFFFFu);
    w.UInt(h.next).UInt(h.count).UInt(h.samples.size());
    // Ring storage order, not logical order: the restored ring is
    // byte-identical, cursor included.
    for (const double v : h.samples) w.Hex(v);
  }
  for (const uint32_t key : SortedKeys(completion_)) {
    w.Key("completion").UInt(key);
    put_sketch(completion_.at(key));
  }
  for (const uint32_t key : SortedKeys(prediction_error_)) {
    w.Key("prederr").UInt(key);
    put_sketch(prediction_error_.at(key));
  }
  for (const uint64_t key : SortedKeys(cost_)) {
    const CostEwma& cell = cost_.at(key);
    if (!cell.seeded) continue;
    w.Key("cost").UInt(key >> 1).UInt(key & 1u).Hex(cell.value);
  }
  for (const uint32_t key : SortedKeys(profile_)) {
    w.Key("profile").UInt(key);
    put_sketch(profile_.at(key));
  }
  for (const uint64_t key : SortedKeys(health_)) {
    const ReplicaHealth& h = health_.at(key);
    w.Key("health").UInt(h.predicate).UInt(h.replica);
    w.UInt(h.dead ? 1 : 0).UInt(h.breaker_open ? 1 : 0);
    w.Hex(h.cooldown_remaining).UInt(h.breaker_consecutive);
    w.UInt(h.has_ewma ? 1 : 0).Hex(h.ewma_latency);
  }
  w.Key("end");
  return w.Finish();
}

Status TelemetryHub::Deserialize(const std::string& text) {
  // Parsed into fresh containers first: on any error the live hub is
  // untouched.
  size_t queries = 0;
  std::unordered_map<uint64_t, ServiceSketch> service;
  std::unordered_map<uint64_t, HedgeWindow> hedge_window;
  std::unordered_map<uint32_t, ServiceSketch> completion;
  std::unordered_map<uint64_t, CostEwma> cost;
  std::unordered_map<uint32_t, ServiceSketch> prediction_error;
  std::unordered_map<uint64_t, ReplicaHealth> health;
  std::unordered_map<uint32_t, ServiceSketch> profile;

  // A sketch body: count then four P2 blocks at the fixed quantiles.
  const auto take_sketch = [](Record* f) {
    ServiceSketch sketch;
    sketch.count = static_cast<size_t>(f->TakeUInt());
    sketch.p50 = TakeP2(f, 0.5);
    sketch.p90 = TakeP2(f, 0.9);
    sketch.p95 = TakeP2(f, 0.95);
    sketch.p99 = TakeP2(f, 0.99);
    return sketch;
  };

  RecordReader r("nchub", text);
  // Version 1 documents simply have no "profile" records; every record
  // they do have parses identically, so both versions load.
  NC_RETURN_IF_ERROR(r.Header({1, 2}));
  Record f;
  bool saw_end = false;
  while (!saw_end && r.Next(&f)) {
    const std::string_view kind = f.key();
    if (kind == "end") {
      saw_end = true;
    } else if (kind == "queries") {
      queries = static_cast<size_t>(f.TakeUInt());
    } else if (kind == "service" || kind == "hedge" || kind == "health") {
      const auto predicate = static_cast<PredicateId>(f.TakeUInt());
      const uint64_t replica = f.TakeUInt();
      if ((replica >> 32) != 0) return r.Fail("replica index out of range");
      const uint64_t key = SlotKey(predicate, static_cast<size_t>(replica));
      if (kind == "service") {
        service.emplace(key, take_sketch(&f));
      } else if (kind == "hedge") {
        HedgeWindow window;
        window.next = static_cast<size_t>(f.TakeUInt());
        window.count = static_cast<size_t>(f.TakeUInt());
        const uint64_t n = f.TakeUInt();
        // The ring cursor indexes a full ring on the next Add.
        if (n > kTelemetryHedgeWindow ||
            window.next >= kTelemetryHedgeWindow) {
          return r.Fail("hedge ring out of range");
        }
        window.samples.resize(static_cast<size_t>(n));
        for (double& v : window.samples) v = f.TakeHex();
        hedge_window.emplace(key, std::move(window));
      } else {
        ReplicaHealth h;
        h.predicate = predicate;
        h.replica = static_cast<size_t>(replica);
        h.dead = f.TakeFlag();
        h.breaker_open = f.TakeFlag();
        h.cooldown_remaining = f.TakeHex();
        h.breaker_consecutive = static_cast<size_t>(f.TakeUInt());
        h.has_ewma = f.TakeFlag();
        h.ewma_latency = f.TakeHex();
        health.emplace(key, h);
      }
    } else if (kind == "completion" || kind == "prederr") {
      const auto predicate = static_cast<uint32_t>(f.TakeUInt());
      (kind == "completion" ? completion : prediction_error)
          .emplace(predicate, take_sketch(&f));
    } else if (kind == "profile") {
      const uint64_t center = f.TakeUInt();
      if (center >= kNumCostCenters) return r.Fail("unknown cost center");
      profile.emplace(static_cast<uint32_t>(center), take_sketch(&f));
    } else if (kind == "cost") {
      const auto predicate = static_cast<PredicateId>(f.TakeUInt());
      const bool is_random = f.TakeFlag();
      CostEwma cell;
      cell.seeded = true;
      cell.value = f.TakeHex();
      cost.emplace(CostKey(predicate, is_random ? AccessType::kRandom
                                                : AccessType::kSorted),
                   cell);
    } else {
      return r.Fail("unknown record \"" + std::string(kind) + "\"");
    }
    if (!f.Done()) return r.Fail("malformed \"" + std::string(kind) + "\"");
  }
  if (!saw_end) return r.Fail("missing \"end\"");
  NC_RETURN_IF_ERROR(r.End());

  const std::lock_guard<std::mutex> lock(mu_);
  queries_observed_.store(queries, std::memory_order_relaxed);
  service_ = std::move(service);
  hedge_window_ = std::move(hedge_window);
  completion_ = std::move(completion);
  cost_ = std::move(cost);
  prediction_error_ = std::move(prediction_error);
  health_ = std::move(health);
  profile_ = std::move(profile);
  return Status::OK();
}

Status TelemetryHub::SaveToFile(const std::string& path) const {
  // Serialized first, then written to a temp file that is renamed over
  // the snapshot: an error or a crash mid-write never leaves a truncated
  // or torn snapshot behind, only the previous one.
  const std::string text = Serialize();
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Unavailable("cannot open \"" + tmp + "\" for writing");
  }
  out << text;
  out.close();
  if (!out) {
    std::remove(tmp.c_str());
    return Status::Unavailable("short write to \"" + tmp + "\"");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Unavailable("cannot rename \"" + tmp + "\" to \"" +
                               path + "\"");
  }
  return Status::OK();
}

Status TelemetryHub::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Unavailable("cannot open \"" + path + "\"");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Deserialize(buffer.str());
}

std::vector<ReplicaHealth> TelemetryHub::fleet_health() const {
  std::vector<ReplicaHealth> out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out.reserve(health_.size());
    for (const auto& [key, h] : health_) {
      (void)key;
      out.push_back(h);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ReplicaHealth& a, const ReplicaHealth& b) {
              if (a.predicate != b.predicate) return a.predicate < b.predicate;
              return a.replica < b.replica;
            });
  return out;
}

}  // namespace nc::obs
