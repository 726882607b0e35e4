#include "cache/cache.h"

#include <chrono>
#include <cmath>

#include "common/check.h"
#include "common/record_codec.h"
#include "obs/metrics.h"

namespace nc::cache {

namespace {

// Default TTL clock: monotonic seconds since the first call.
double MonotonicSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

}  // namespace

Status CacheConfig::Validate() const {
  if (!std::isfinite(hit_cost) || hit_cost < 0.0) {
    return Status::InvalidArgument("cache hit_cost must be >= 0, finite");
  }
  if (random_capacity == 0) {
    return Status::InvalidArgument("cache random_capacity must be >= 1");
  }
  if (!std::isfinite(random_ttl) || random_ttl < 0.0) {
    return Status::InvalidArgument("cache random_ttl must be >= 0, finite");
  }
  return Status::OK();
}

std::string CacheConfig::Serialize() const {
  // Fixed record order, so the round trip is byte-exact and a truncated
  // document is rejected by line number.
  RecordWriter w("nccache", 1);
  w.Key("hit_cost").Hex(hit_cost);
  w.Key("capacity").UInt(random_capacity);
  w.Key("ttl").Hex(random_ttl);
  w.Key("end");
  return w.Finish();
}

Status ParseCacheConfig(const std::string& text, CacheConfig* out) {
  NC_CHECK(out != nullptr);
  RecordReader r("nccache", text);
  NC_RETURN_IF_ERROR(r.Header({1}));
  CacheConfig parsed;
  Record f;
  NC_RETURN_IF_ERROR(r.Expect("hit_cost", &f));
  parsed.hit_cost = f.TakeHex();
  if (!f.Done()) return r.Fail("bad number");
  NC_RETURN_IF_ERROR(r.Expect("capacity", &f));
  parsed.random_capacity = static_cast<size_t>(f.TakeUInt());
  if (!f.Done()) return r.Fail("bad count");
  NC_RETURN_IF_ERROR(r.Expect("ttl", &f));
  parsed.random_ttl = f.TakeHex();
  if (!f.Done()) return r.Fail("bad number");
  NC_RETURN_IF_ERROR(r.Expect("end", &f));
  if (!f.Done()) return r.Fail("malformed \"end\"");
  NC_RETURN_IF_ERROR(r.End());
  NC_RETURN_IF_ERROR(parsed.Validate());
  *out = parsed;
  return Status::OK();
}

double CacheStatsSnapshot::hit_rate() const {
  const size_t lookups = hits() + misses();
  if (lookups == 0) return 0.0;
  return static_cast<double>(hits()) / static_cast<double>(lookups);
}

AccessCache::AccessCache(CacheConfig config)
    : config_(config), clock_(MonotonicSeconds) {
  NC_CHECK(config_.Validate().ok());
}

void AccessCache::set_clock(std::function<double()> clock) {
  NC_CHECK(clock != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  clock_ = std::move(clock);
}

void AccessCache::AttachMetrics(obs::MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  if (metrics == nullptr) {
    m_sorted_hits_ = m_sorted_misses_ = nullptr;
    m_random_hits_ = m_random_misses_ = nullptr;
    m_merges_ = m_evictions_ = nullptr;
    return;
  }
  m_sorted_hits_ = &metrics->counter("nc_cache_hits_total",
                                     {{"type", "sorted"}});
  m_random_hits_ = &metrics->counter("nc_cache_hits_total",
                                     {{"type", "random"}});
  m_sorted_misses_ = &metrics->counter("nc_cache_misses_total",
                                       {{"type", "sorted"}});
  m_random_misses_ = &metrics->counter("nc_cache_misses_total",
                                       {{"type", "random"}});
  m_merges_ = &metrics->counter("nc_cache_inflight_merges_total");
  m_evictions_ = &metrics->counter("nc_cache_evictions_total");
}

void AccessCache::BindOrInvalidate(uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  if (bound_ && fingerprint_ == fingerprint) return;
  if (bound_) {
    // A different dataset behind the same cache: everything cached is
    // stale by definition.
    DropEverythingLocked();
    ++tallies_.invalidations;
  }
  bound_ = true;
  fingerprint_ = fingerprint;
  cv_.notify_all();
}

uint64_t AccessCache::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

SortedLookup AccessCache::AcquireSorted(PredicateId predicate,
                                        uint64_t topology, size_t pos,
                                        CachedSortedEntry* out, bool* merged,
                                        uint64_t* ticket) {
  NC_CHECK(out != nullptr);
  NC_CHECK(ticket != nullptr);
  if (merged != nullptr) *merged = false;
  *ticket = 0;
  std::unique_lock<std::mutex> lock(mu_);
  const StreamKey key{predicate, topology};
  bool waited = false;
  for (;;) {
    Stream& stream = streams_[key];
    if (pos < stream.entries.size()) {
      *out = stream.entries[pos];
      ++tallies_.sorted_hits;
      if (m_sorted_hits_ != nullptr) m_sorted_hits_->Increment();
      if (waited) {
        ++tallies_.inflight_merges;
        if (m_merges_ != nullptr) m_merges_->Increment();
        if (merged != nullptr) *merged = true;
      }
      return SortedLookup::kHit;
    }
    if (pos > stream.entries.size()) {
      // A cursor past the materialized prefix (checkpoint-restored or
      // post-invalidation): serving is impossible and publishing would
      // leave holes, so the caller takes the real path unobserved.
      return SortedLookup::kBypass;
    }
    if (stream.filling_ticket == 0) {
      stream.filling_ticket = next_ticket_++;
      *ticket = stream.filling_ticket;
      ++tallies_.sorted_misses;
      if (m_sorted_misses_ != nullptr) m_sorted_misses_->Increment();
      return SortedLookup::kOwner;
    }
    waited = true;
    cv_.wait(lock);
    // The map may have been wiped while waiting; the loop re-fetches.
  }
}

void AccessCache::PublishSorted(PredicateId predicate, uint64_t topology,
                                size_t pos, uint64_t ticket,
                                CachedSortedEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(StreamKey{predicate, topology});
  if (it != streams_.end() && it->second.filling_ticket == ticket &&
      pos == it->second.entries.size()) {
    it->second.entries.push_back(std::move(entry));
    it->second.filling_ticket = 0;
  }
  // A stale ticket (the stream was invalidated mid-access) publishes
  // nothing; waiters wake and re-resolve against the current stream.
  cv_.notify_all();
}

void AccessCache::AbortSorted(PredicateId predicate, uint64_t topology,
                              size_t pos, uint64_t ticket) {
  (void)pos;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(StreamKey{predicate, topology});
  if (it != streams_.end() && it->second.filling_ticket == ticket) {
    it->second.filling_ticket = 0;
  }
  cv_.notify_all();
}

RandomLookup AccessCache::AcquireRandom(PredicateId predicate,
                                        ObjectId object, Score* out,
                                        bool* merged, uint64_t* ticket) {
  NC_CHECK(out != nullptr);
  NC_CHECK(ticket != nullptr);
  if (merged != nullptr) *merged = false;
  *ticket = 0;
  std::unique_lock<std::mutex> lock(mu_);
  const RandomKey key{predicate, object};
  bool waited = false;
  for (;;) {
    auto it = random_.find(key);
    if (it != random_.end()) {
      const double now = clock_();
      if (config_.random_ttl > 0.0 &&
          now - it->second.stored_at >= config_.random_ttl) {
        lru_.erase(it->second.lru_pos);
        random_.erase(it);
        ++tallies_.expirations;
      } else {
        TouchLocked(&it->second, key);
        *out = it->second.score;
        ++tallies_.random_hits;
        if (m_random_hits_ != nullptr) m_random_hits_->Increment();
        if (waited) {
          ++tallies_.inflight_merges;
          if (m_merges_ != nullptr) m_merges_->Increment();
          if (merged != nullptr) *merged = true;
        }
        return RandomLookup::kHit;
      }
    }
    auto inflight = random_inflight_.find(key);
    if (inflight == random_inflight_.end()) {
      *ticket = next_ticket_++;
      random_inflight_[key] = *ticket;
      ++tallies_.random_misses;
      if (m_random_misses_ != nullptr) m_random_misses_->Increment();
      return RandomLookup::kOwner;
    }
    waited = true;
    cv_.wait(lock);
  }
}

void AccessCache::PublishRandom(PredicateId predicate, ObjectId object,
                                Score score, uint64_t ticket) {
  std::lock_guard<std::mutex> lock(mu_);
  const RandomKey key{predicate, object};
  auto inflight = random_inflight_.find(key);
  if (inflight != random_inflight_.end() && inflight->second == ticket) {
    random_inflight_.erase(inflight);
    auto it = random_.find(key);
    if (it == random_.end()) {
      lru_.push_front(key);
      RandomEntry entry;
      entry.score = score;
      entry.stored_at = clock_();
      entry.lru_pos = lru_.begin();
      random_.emplace(key, entry);
      EvictIfOverCapacityLocked();
    } else {
      it->second.score = score;
      it->second.stored_at = clock_();
      TouchLocked(&it->second, key);
    }
  }
  cv_.notify_all();
}

void AccessCache::AbortRandom(PredicateId predicate, ObjectId object,
                              uint64_t ticket) {
  std::lock_guard<std::mutex> lock(mu_);
  auto inflight = random_inflight_.find(RandomKey{predicate, object});
  if (inflight != random_inflight_.end() && inflight->second == ticket) {
    random_inflight_.erase(inflight);
  }
  cv_.notify_all();
}

void AccessCache::InvalidateRandom(PredicateId predicate, ObjectId object) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = random_.find(RandomKey{predicate, object});
  if (it != random_.end()) {
    lru_.erase(it->second.lru_pos);
    random_.erase(it);
    ++tallies_.invalidations;
  }
}

void AccessCache::InvalidatePredicate(PredicateId predicate) {
  std::lock_guard<std::mutex> lock(mu_);
  bool dropped = false;
  for (auto it = streams_.begin(); it != streams_.end();) {
    if (it->first.first == predicate) {
      dropped = true;
      it = streams_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = random_.begin(); it != random_.end();) {
    if (it->first.first == predicate) {
      dropped = true;
      lru_.erase(it->second.lru_pos);
      it = random_.erase(it);
    } else {
      ++it;
    }
  }
  if (dropped) ++tallies_.invalidations;
  // In-flight owners keep their claims: the value they publish comes
  // from the live source after the invalidation, so it is fresh - except
  // sorted owners, whose stream object was just destroyed; their stale
  // tickets make the publish a no-op.
  cv_.notify_all();
}

void AccessCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  DropEverythingLocked();
  ++tallies_.invalidations;
  cv_.notify_all();
}

size_t AccessCache::StreamDepth(PredicateId predicate,
                                uint64_t topology) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(StreamKey{predicate, topology});
  return it == streams_.end() ? 0 : it->second.entries.size();
}

CacheStatsSnapshot AccessCache::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStatsSnapshot snap = tallies_;
  snap.random_entries = random_.size();
  snap.stream_entries = 0;
  snap.bytes = 0;
  snap.stream_depths.clear();
  for (const auto& [key, stream] : streams_) {
    snap.stream_entries += stream.entries.size();
    snap.stream_depths.emplace_back(key.first, stream.entries.size());
    snap.bytes += stream.entries.size() * sizeof(CachedSortedEntry);
    for (const CachedSortedEntry& entry : stream.entries) {
      snap.bytes +=
          entry.bundled.size() * sizeof(std::pair<PredicateId, Score>);
    }
  }
  snap.bytes += random_.size() * (sizeof(RandomKey) + sizeof(RandomEntry));
  return snap;
}

void AccessCache::DropEverythingLocked() {
  streams_.clear();
  random_.clear();
  lru_.clear();
  // Dropping in-flight claims makes pending publishes stale (their
  // tickets no longer match anything) and lets waiters re-resolve.
  random_inflight_.clear();
  ++generation_;
}

void AccessCache::TouchLocked(RandomEntry* entry, const RandomKey& key) {
  if (entry->lru_pos != lru_.begin()) {
    lru_.erase(entry->lru_pos);
    lru_.push_front(key);
    entry->lru_pos = lru_.begin();
  }
}

void AccessCache::EvictIfOverCapacityLocked() {
  while (random_.size() > config_.random_capacity) {
    const RandomKey victim = lru_.back();
    lru_.pop_back();
    random_.erase(victim);
    ++tallies_.evictions;
    if (m_evictions_ != nullptr) m_evictions_->Increment();
  }
}

}  // namespace nc::cache
