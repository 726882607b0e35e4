// The cross-query access cache: sharing soundness, honest billing,
// single-flight dedup, TTL/LRU determinism, dataset staleness, and the
// cache-on-vs-off differential through a 4-worker QueryServer.
//
// Run under TSan (the tsan CI job builds this binary): the concurrent
// shared-stream and single-flight tests are the data-race proof for the
// one shared object the cache adds to the access hot path.

#include "cache/cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <clocale>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "access/budget.h"
#include "access/source.h"
#include "core/planner.h"
#include "core/session.h"
#include "data/generator.h"
#include "obs/metrics.h"
#include "scoring/scoring_function.h"
#include "server/server.h"

namespace nc {
namespace {

using cache::AccessCache;
using cache::CacheConfig;
using cache::CachedSortedEntry;
using cache::CacheStatsSnapshot;
using cache::ParseCacheConfig;
using cache::RandomLookup;
using cache::SortedLookup;

Dataset MakeData(uint64_t seed, size_t n = 200, size_t m = 2) {
  GeneratorOptions g;
  g.num_objects = n;
  g.num_predicates = m;
  g.seed = seed;
  return GenerateDataset(g);
}

// Pins the global C locale for one test and restores it on exit (the
// locale_test.cc pattern).
class ScopedLocale {
 public:
  ScopedLocale() {
    const char* current = std::setlocale(LC_ALL, nullptr);
    saved_ = current != nullptr ? current : "C";
  }
  ~ScopedLocale() { std::setlocale(LC_ALL, saved_.c_str()); }

  ScopedLocale(const ScopedLocale&) = delete;
  ScopedLocale& operator=(const ScopedLocale&) = delete;

  bool UseCommaDecimal() {
    for (const char* name :
         {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8", "fr_FR.utf8",
          "fr_FR", "it_IT.UTF-8", "es_ES.UTF-8"}) {
      if (std::setlocale(LC_ALL, name) == nullptr) continue;
      const std::lconv* conv = std::localeconv();
      if (conv != nullptr && conv->decimal_point != nullptr &&
          conv->decimal_point[0] == ',') {
        return true;
      }
    }
    std::setlocale(LC_ALL, saved_.c_str());
    return false;
  }

 private:
  std::string saved_;
};

// --- Config: validation and the "nccache 1" text form ----------------------

TEST(CacheConfigTest, Validates) {
  CacheConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.hit_cost = -0.5;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.hit_cost = 0.0;
  config.random_capacity = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.random_capacity = 1;
  config.random_ttl = -1.0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(CacheConfigTest, RoundTripsByteExactUnderCommaLocale) {
  ScopedLocale locale;
  locale.UseCommaDecimal();

  CacheConfig config;
  config.hit_cost = 0.1;  // Not exactly representable: hexfloat territory.
  config.random_capacity = 77;
  config.random_ttl = 2.5;
  const std::string text = config.Serialize();
  // The grammar has no ',' anywhere: one means a locale-honoring
  // formatter leaked in.
  EXPECT_EQ(text.find(','), std::string::npos);

  CacheConfig parsed;
  ASSERT_TRUE(ParseCacheConfig(text, &parsed).ok());
  EXPECT_EQ(parsed.hit_cost, config.hit_cost);  // Bit-exact.
  EXPECT_EQ(parsed.random_capacity, config.random_capacity);
  EXPECT_EQ(parsed.random_ttl, config.random_ttl);
  EXPECT_EQ(parsed.Serialize(), text);
}

TEST(CacheConfigTest, ParseRejectsMalformedByLineNumber) {
  CacheConfig out;
  out.random_capacity = 123;  // Canary: untouched on failure.

  const Status bad_header = ParseCacheConfig("nccache 2\n", &out);
  EXPECT_EQ(bad_header.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_header.message().find("line 1"), std::string::npos);

  const Status truncated = ParseCacheConfig("nccache 1\nhit_cost 0x0p+0\n", &out);
  EXPECT_EQ(truncated.code(), StatusCode::kInvalidArgument);

  const Status comma = ParseCacheConfig(
      "nccache 1\nhit_cost 0,5\ncapacity 4\nttl 0x0p+0\nend\n", &out);
  EXPECT_EQ(comma.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(comma.message().find("line 2"), std::string::npos);

  const Status invalid = ParseCacheConfig(
      "nccache 1\nhit_cost 0x0p+0\ncapacity 0\nttl 0x0p+0\nend\n", &out);
  EXPECT_EQ(invalid.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(out.random_capacity, 123u);  // *out untouched throughout.
}

// --- Sharing + billing through the SourceSet seam ---------------------------

// A sorted prefix paid for by one query serves another bit-identically
// and for free: the second SourceSet's accrued cost stays 0 while its
// counts, cursors, and last-seen bounds advance exactly as if it had
// performed the accesses itself.
TEST(CacheTest, SortedPrefixSharedAndNotRebilled) {
  const Dataset data = MakeData(7);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);
  AccessCache cache;
  SourceSet payer(&data, cost);
  SourceSet rider(&data, cost);
  payer.set_access_cache(&cache);
  rider.set_access_cache(&cache);

  std::vector<SortedHit> paid;
  for (int step = 0; step < 5; ++step) {
    std::optional<SortedHit> hit;
    ASSERT_TRUE(payer.TrySortedAccess(0, &hit).ok());
    ASSERT_TRUE(hit.has_value());
    paid.push_back(*hit);
  }
  EXPECT_EQ(payer.accrued_cost(), 5.0);
  EXPECT_EQ(payer.cache_hits().sorted_hits, 0u);
  EXPECT_EQ(cache.StreamDepth(0, 0), 5u);

  for (int step = 0; step < 5; ++step) {
    std::optional<SortedHit> hit;
    ASSERT_TRUE(rider.TrySortedAccess(0, &hit).ok());
    ASSERT_TRUE(hit.has_value());
    // Bit-identical to the real access's result.
    EXPECT_EQ(hit->object, paid[step].object);
    EXPECT_EQ(hit->score, paid[step].score);
  }
  EXPECT_EQ(rider.accrued_cost(), 0.0);  // hit_cost defaults to 0.
  EXPECT_EQ(rider.cache_hits().sorted_hits, 5u);
  EXPECT_EQ(rider.stats().sorted_count[0], 5u);
  EXPECT_EQ(rider.last_seen(0), payer.last_seen(0));

  const CacheStatsSnapshot snap = cache.Snapshot();
  EXPECT_EQ(snap.sorted_misses, 5u);
  EXPECT_EQ(snap.sorted_hits, 5u);
  EXPECT_EQ(snap.stream_entries, 5u);
  EXPECT_GT(snap.bytes, 0u);
  EXPECT_DOUBLE_EQ(snap.hit_rate(), 0.5);
}

// A configurable hit cost is charged into the SAME Eq. 1 cells as a real
// access, so the billing-conservation invariant survives the cache.
TEST(CacheTest, HitCostChargesIntoBillingCells) {
  const Dataset data = MakeData(9);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);
  CacheConfig config;
  config.hit_cost = 0.25;
  AccessCache cache(config);
  SourceSet payer(&data, cost);
  SourceSet rider(&data, cost);
  payer.set_access_cache(&cache);
  rider.set_access_cache(&cache);

  for (int step = 0; step < 4; ++step) {
    std::optional<SortedHit> hit;
    ASSERT_TRUE(payer.TrySortedAccess(1, &hit).ok());
  }
  Score score = 0.0;
  ASSERT_TRUE(payer.TryRandomAccess(0, 3, &score).ok());

  for (int step = 0; step < 4; ++step) {
    std::optional<SortedHit> hit;
    ASSERT_TRUE(rider.TrySortedAccess(1, &hit).ok());
  }
  Score cached_score = -1.0;
  ASSERT_TRUE(rider.TryRandomAccess(0, 3, &cached_score).ok());
  EXPECT_EQ(cached_score, score);

  EXPECT_DOUBLE_EQ(rider.accrued_cost(), 5 * 0.25);
  EXPECT_DOUBLE_EQ(rider.cache_hits().hit_cost_accrued, 5 * 0.25);
  // Conservation: the per-predicate cells sum to the accrued cost.
  double cells = 0.0;
  for (PredicateId i = 0; i < rider.num_predicates(); ++i) {
    cells += rider.stats().sorted_cost_accrued[i] +
             rider.stats().random_cost_accrued[i];
  }
  EXPECT_DOUBLE_EQ(cells, rider.accrued_cost());
  EXPECT_EQ(rider.cache_hits().sorted_hits, 4u);
  EXPECT_EQ(rider.cache_hits().random_hits, 1u);
}

// Random results are cached across queries and dropped by explicit
// invalidation.
TEST(CacheTest, RandomResultsCachedAndInvalidated) {
  const Dataset data = MakeData(13);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);
  AccessCache cache;
  SourceSet a(&data, cost);
  SourceSet b(&data, cost);
  a.set_access_cache(&cache);
  b.set_access_cache(&cache);

  Score paid = 0.0;
  ASSERT_TRUE(a.TryRandomAccess(0, 42, &paid).ok());
  EXPECT_EQ(a.accrued_cost(), 2.0);

  Score served = -1.0;
  ASSERT_TRUE(b.TryRandomAccess(0, 42, &served).ok());
  EXPECT_EQ(served, paid);
  EXPECT_EQ(b.accrued_cost(), 0.0);
  EXPECT_EQ(b.cache_hits().random_hits, 1u);

  cache.InvalidateRandom(0, 42);
  b.Reset();
  served = -1.0;
  ASSERT_TRUE(b.TryRandomAccess(0, 42, &served).ok());
  EXPECT_EQ(served, paid);   // Refetched from the live source.
  EXPECT_EQ(b.accrued_cost(), 2.0);  // ...and billed for real this time.
  EXPECT_GE(cache.Snapshot().invalidations, 1u);
}

// --- TTL and LRU determinism under a fake clock -----------------------------

TEST(CacheTest, TtlExpiryIsDeterministicUnderFakeClock) {
  CacheConfig config;
  config.random_ttl = 10.0;
  AccessCache cache(config);
  double now = 100.0;
  cache.set_clock([&now] { return now; });

  Score out = 0.0;
  bool merged = false;
  uint64_t ticket = 0;
  ASSERT_EQ(cache.AcquireRandom(0, 5, &out, &merged, &ticket),
            RandomLookup::kOwner);
  cache.PublishRandom(0, 5, 0.75, ticket);

  // One tick before the TTL boundary: still served.
  now = 109.999;
  ASSERT_EQ(cache.AcquireRandom(0, 5, &out, &merged, &ticket),
            RandomLookup::kHit);
  EXPECT_EQ(out, 0.75);

  // At the boundary (now - stored_at >= ttl): expired, refetch.
  now = 110.0;
  ASSERT_EQ(cache.AcquireRandom(0, 5, &out, &merged, &ticket),
            RandomLookup::kOwner);
  cache.PublishRandom(0, 5, 0.75, ticket);
  const CacheStatsSnapshot snap = cache.Snapshot();
  EXPECT_EQ(snap.expirations, 1u);
  EXPECT_EQ(snap.random_hits, 1u);
  EXPECT_EQ(snap.random_misses, 2u);
}

TEST(CacheTest, LruEvictionIsDeterministic) {
  CacheConfig config;
  config.random_capacity = 2;
  AccessCache cache(config);

  Score out = 0.0;
  bool merged = false;
  uint64_t ticket = 0;
  for (ObjectId u : {1u, 2u}) {
    ASSERT_EQ(cache.AcquireRandom(0, u, &out, &merged, &ticket),
              RandomLookup::kOwner);
    cache.PublishRandom(0, u, 0.1 * u, ticket);
  }
  // Touch object 1: it becomes most-recent, object 2 the LRU victim.
  ASSERT_EQ(cache.AcquireRandom(0, 1, &out, &merged, &ticket),
            RandomLookup::kHit);
  ASSERT_EQ(cache.AcquireRandom(0, 3, &out, &merged, &ticket),
            RandomLookup::kOwner);
  cache.PublishRandom(0, 3, 0.3, ticket);

  EXPECT_EQ(cache.Snapshot().evictions, 1u);
  EXPECT_EQ(cache.Snapshot().random_entries, 2u);
  // Object 2 was evicted; 1 and 3 survive.
  ASSERT_EQ(cache.AcquireRandom(0, 2, &out, &merged, &ticket),
            RandomLookup::kOwner);
  cache.AbortRandom(0, 2, ticket);
  ASSERT_EQ(cache.AcquireRandom(0, 1, &out, &merged, &ticket),
            RandomLookup::kHit);
  EXPECT_EQ(out, 0.1);
  ASSERT_EQ(cache.AcquireRandom(0, 3, &out, &merged, &ticket),
            RandomLookup::kHit);
  EXPECT_EQ(out, 0.3);
}

// --- Single-flight dedup ----------------------------------------------------

// One owner fetches; concurrent requesters for the same key wait for the
// published value instead of issuing duplicate source accesses.
TEST(CacheTest, SingleFlightMergesConcurrentFetches) {
  AccessCache cache;
  Score out = 0.0;
  bool merged = false;
  uint64_t ticket = 0;
  ASSERT_EQ(cache.AcquireRandom(2, 9, &out, &merged, &ticket),
            RandomLookup::kOwner);

  constexpr int kWaiters = 4;
  std::atomic<int> entered{0};
  std::vector<std::future<Score>> waiters;
  waiters.reserve(kWaiters);
  for (int t = 0; t < kWaiters; ++t) {
    waiters.push_back(std::async(std::launch::async, [&cache, &entered] {
      entered.fetch_add(1);
      Score value = -1.0;
      bool was_merged = false;
      uint64_t waiter_ticket = 0;
      // Blocks until the owner publishes; must come back a hit.
      EXPECT_EQ(cache.AcquireRandom(2, 9, &value, &was_merged, &waiter_ticket),
                RandomLookup::kHit);
      return value;
    }));
  }
  while (entered.load() < kWaiters) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cache.PublishRandom(2, 9, 0.625, ticket);
  for (std::future<Score>& waiter : waiters) {
    EXPECT_EQ(waiter.get(), 0.625);
  }
  const CacheStatsSnapshot snap = cache.Snapshot();
  EXPECT_EQ(snap.random_misses, 1u);  // ONE source fetch for 5 requests.
  EXPECT_EQ(snap.random_hits, static_cast<size_t>(kWaiters));
}

// An aborted owner (source failure) releases the claim: a waiter retries
// as the new owner instead of blocking forever.
TEST(CacheTest, AbortReleasesSingleFlightClaim) {
  AccessCache cache;
  Score out = 0.0;
  bool merged = false;
  uint64_t ticket = 0;
  ASSERT_EQ(cache.AcquireRandom(0, 1, &out, &merged, &ticket),
            RandomLookup::kOwner);

  std::future<RandomLookup> retry =
      std::async(std::launch::async, [&cache] {
        Score value = 0.0;
        bool was_merged = false;
        uint64_t retry_ticket = 0;
        const RandomLookup lookup =
            cache.AcquireRandom(0, 1, &value, &was_merged, &retry_ticket);
        if (lookup == RandomLookup::kOwner) {
          cache.AbortRandom(0, 1, retry_ticket);
        }
        return lookup;
      });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  cache.AbortRandom(0, 1, ticket);
  EXPECT_EQ(retry.get(), RandomLookup::kOwner);
}

// --- Concurrent shared-stream consumption (the TSan workload) ---------------

// Four threads, each with a private SourceSet, walk the same sorted
// streams through the shared cache. Every thread must observe the exact
// serial sequence, and single-flight must hold: each position is fetched
// from the source exactly once.
TEST(CacheTest, ConcurrentWorkersShareSortedStreams) {
  const Dataset data = MakeData(17, 300);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);
  constexpr size_t kDepth = 50;
  constexpr int kThreads = 4;

  // Serial reference, no cache.
  std::vector<std::vector<SortedHit>> reference(2);
  {
    SourceSet serial(&data, cost);
    for (PredicateId i = 0; i < 2; ++i) {
      for (size_t step = 0; step < kDepth; ++step) {
        std::optional<SortedHit> hit;
        ASSERT_TRUE(serial.TrySortedAccess(i, &hit).ok());
        reference[i].push_back(*hit);
      }
    }
  }

  AccessCache cache;
  std::vector<std::future<bool>> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.push_back(std::async(std::launch::async, [&data, &cost, &cache,
                                                      &reference] {
      SourceSet sources(&data, cost);
      sources.set_access_cache(&cache);
      for (PredicateId i = 0; i < 2; ++i) {
        for (size_t step = 0; step < kDepth; ++step) {
          std::optional<SortedHit> hit;
          if (!sources.TrySortedAccess(i, &hit).ok() || !hit.has_value()) {
            return false;
          }
          if (hit->object != reference[i][step].object ||
              hit->score != reference[i][step].score) {
            return false;
          }
        }
      }
      return true;
    }));
  }
  for (std::future<bool>& thread : threads) {
    EXPECT_TRUE(thread.get());
  }

  const CacheStatsSnapshot snap = cache.Snapshot();
  // Single-flight exactness: each of the 2 * kDepth positions was
  // fetched from the source exactly once; every other lookup hit.
  EXPECT_EQ(snap.sorted_misses, 2 * kDepth);
  EXPECT_EQ(snap.sorted_hits, (kThreads - 1) * 2 * kDepth);
  EXPECT_EQ(snap.stream_entries, 2 * kDepth);
}

// Server workers share one Dataset, and its per-predicate sorted order
// is built lazily on first access — so the very first sorted accesses of
// a fresh dataset race. Dataset::SortedOrder used to build in place
// (resize + std::sort on the shared vector), and a reader arriving
// mid-sort consumed a half-sorted permutation: streams delivered objects
// out of descending order and a 4-worker server could return a wrong
// "exact" answer. This pins the fix (publish-once double-checked build):
// many threads first-touch fresh datasets together and every one must
// see the identical, fully sorted order. No serial warm-up before the
// threads — that would rebuild the very window being tested.
TEST(CacheTest, SortedOrderConcurrentFirstTouchIsSafe) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 16;
  for (int round = 0; round < kRounds; ++round) {
    const Dataset data = MakeData(/*seed=*/100 + round, /*n=*/400);
    std::vector<std::future<std::vector<ObjectId>>> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.push_back(std::async(std::launch::async, [&data, t] {
        // Half the threads lead with predicate 0, half with predicate 1,
        // so both columns see concurrent first touches.
        std::vector<ObjectId> seen;
        for (int step = 0; step < 2; ++step) {
          const PredicateId i = static_cast<PredicateId>((t + step) % 2);
          const std::vector<ObjectId>& order = data.SortedOrder(i);
          seen.insert(seen.end(), order.begin(), order.end());
        }
        return seen;
      }));
    }
    std::vector<std::vector<ObjectId>> results;
    results.reserve(kThreads);
    for (auto& thread : threads) results.push_back(thread.get());
    for (int t = 0; t < kThreads; ++t) {
      // Threads t and t+2 walked the predicates in the same order.
      ASSERT_EQ(results[t], results[(t + 2) % kThreads]) << "round " << round;
    }
    // And the published order really is the descending one.
    for (PredicateId i = 0; i < 2; ++i) {
      const std::vector<ObjectId>& order = data.SortedOrder(i);
      ASSERT_EQ(order.size(), data.num_objects());
      for (size_t r = 1; r < order.size(); ++r) {
        ASSERT_GE(data.score(order[r - 1], i), data.score(order[r], i));
      }
    }
  }
}

// --- Dataset staleness: Reset() must never serve cross-dataset scores -------

// A provider whose backing dataset can be swapped mid-lifetime - the
// "reused stack, new data" hazard the fingerprint binding exists for.
class SwappableProvider final : public ScoreProvider {
 public:
  explicit SwappableProvider(const Dataset* data) : data_(data) {}
  void set_data(const Dataset* data) { data_ = data; }

  size_t num_objects() const override { return data_->num_objects(); }
  size_t num_predicates() const override { return data_->num_predicates(); }
  SortedEntry SortedEntryAt(PredicateId i, size_t rank) override {
    const ObjectId u = data_->SortedOrder(i)[rank];
    return SortedEntry{u, data_->score(u, i)};
  }
  Score ScoreOf(PredicateId i, ObjectId u) override {
    return data_->score(u, i);
  }

 private:
  const Dataset* data_;
};

// Companion to source_test.cc's ResetClearsBreakerAndReplicaHealthState:
// Reset() re-binds the attached cache to the provider's content
// fingerprint, so a reused stack pointed at new data wipes the cache
// instead of serving the old dataset's scores.
TEST(CacheTest, ResetAcrossDatasetsWipesStaleEntries) {
  const Dataset first = MakeData(1);
  const Dataset second = MakeData(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);
  AccessCache cache;
  SwappableProvider provider(&first);
  SourceSet sources(&provider, cost);
  sources.set_access_cache(&cache);

  std::optional<SortedHit> hit;
  ASSERT_TRUE(sources.TrySortedAccess(0, &hit).ok());
  const SortedHit first_top = *hit;
  Score probe = 0.0;
  ASSERT_TRUE(sources.TryRandomAccess(0, 7, &probe).ok());
  EXPECT_EQ(probe, first.score(7, 0));
  ASSERT_EQ(cache.StreamDepth(0, 0), 1u);
  const uint64_t generation_before = cache.generation();

  // Same dataset: Reset() re-binds harmlessly, entries survive.
  sources.Reset();
  EXPECT_EQ(cache.generation(), generation_before);
  EXPECT_EQ(cache.StreamDepth(0, 0), 1u);
  hit.reset();
  ASSERT_TRUE(sources.TrySortedAccess(0, &hit).ok());
  EXPECT_EQ(hit->object, first_top.object);
  EXPECT_EQ(sources.accrued_cost(), 0.0);  // Served from the cache.

  // New dataset behind the same stack: the fingerprint changes, the
  // cache wipes, and the first access serves the NEW data's top entry.
  provider.set_data(&second);
  sources.Reset();
  EXPECT_GT(cache.generation(), generation_before);
  EXPECT_EQ(cache.StreamDepth(0, 0), 0u);
  hit.reset();
  ASSERT_TRUE(sources.TrySortedAccess(0, &hit).ok());
  const ObjectId second_top = second.SortedOrder(0)[0];
  EXPECT_EQ(hit->object, second_top);
  EXPECT_EQ(hit->score, second.score(second_top, 0));
  EXPECT_EQ(sources.accrued_cost(), 1.0);  // A real, billed access.

  probe = -1.0;
  ASSERT_TRUE(sources.TryRandomAccess(0, 7, &probe).ok());
  EXPECT_EQ(probe, second.score(7, 0));  // Never the first dataset's 0.x.
}

// --- Metrics ----------------------------------------------------------------

TEST(CacheTest, MetricsMirrorTheTallies) {
  const Dataset data = MakeData(23);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);
  AccessCache cache;
  obs::MetricsRegistry metrics;
  cache.AttachMetrics(&metrics);
  SourceSet payer(&data, cost);
  SourceSet rider(&data, cost);
  payer.set_access_cache(&cache);
  rider.set_access_cache(&cache);

  std::optional<SortedHit> hit;
  ASSERT_TRUE(payer.TrySortedAccess(0, &hit).ok());
  hit.reset();
  ASSERT_TRUE(rider.TrySortedAccess(0, &hit).ok());
  Score score = 0.0;
  ASSERT_TRUE(payer.TryRandomAccess(1, 2, &score).ok());
  ASSERT_TRUE(rider.TryRandomAccess(1, 2, &score).ok());

  EXPECT_EQ(metrics.CounterSum("nc_cache_hits_total", {}), 2.0);
  EXPECT_EQ(metrics.CounterSum("nc_cache_misses_total", {}), 2.0);
  EXPECT_EQ(metrics.CounterSum("nc_cache_hits_total", {{"type", "sorted"}}),
            1.0);
  EXPECT_EQ(metrics.CounterSum("nc_cache_hits_total", {{"type", "random"}}),
            1.0);
}

// --- THE differential: a 4-worker server answers bit-identically ------------

class PlainStack : public server::WorkerStack {
 public:
  PlainStack(const Dataset* data, CostModel cost)
      : sources_(data, std::move(cost)) {}
  SourceSet& sources() override { return sources_; }

 private:
  SourceSet sources_;
};

PlannerOptions SmallPlanner() {
  PlannerOptions options;
  options.sample_size = 100;
  return options;
}

// Cache on vs cache off, 4 workers, an overlapping workload with both
// unlimited and quota-capped budgets: entries AND certified intervals
// must be bit-identical, and the cached run must actually have hit.
TEST(CacheTest, ServerAnswersBitIdenticalCacheOnVsOff) {
  const Dataset data = MakeData(29, 600);
  const AverageFunction avg(2);
  const CostModel cost = CostModel::Uniform(2, 1.0, 2.0);

  // Overlapping workload: repeated ks so streams overlap heavily, plus
  // quota-capped queries that terminate with certified anytime answers.
  struct Workload {
    size_t k;
    size_t quota;  // 0 = unlimited.
  };
  const std::vector<Workload> workload = {
      {5, 0}, {5, 0}, {3, 0}, {8, 0},  {5, 20}, {3, 20}, {5, 0},  {8, 0},
      {3, 0}, {5, 20}, {8, 0}, {5, 0}, {3, 0},  {8, 20}, {5, 0},  {3, 0}};

  auto run = [&](bool enable_cache) {
    server::ServerConfig config;
    config.num_workers = 4;
    config.queue_capacity = workload.size();
    config.planner = SmallPlanner();
    config.enable_cache = enable_cache;
    auto server = std::make_unique<server::QueryServer>(
        &avg, config, [&](size_t) {
          return std::make_unique<PlainStack>(&data, cost);
        });
    NC_CHECK(server->Start().ok());
    std::vector<std::future<server::QueryResponse>> futures(workload.size());
    for (size_t j = 0; j < workload.size(); ++j) {
      server::QueryRequest request;
      request.k = workload[j].k;
      if (workload[j].quota > 0) {
        request.budget.predicate_quota.assign(2, workload[j].quota);
      }
      NC_CHECK(server->Submit(std::move(request), &futures[j]).ok());
    }
    std::vector<server::QueryResponse> responses;
    responses.reserve(workload.size());
    for (auto& future : futures) responses.push_back(future.get());
    size_t cache_hits = 0;
    if (server->access_cache() != nullptr) {
      cache_hits = server->access_cache()->Snapshot().hits();
    }
    server->Shutdown(/*finish_queued=*/true);
    return std::make_pair(std::move(responses), cache_hits);
  };

  const auto [off, off_hits] = run(false);
  const auto [on, on_hits] = run(true);
  EXPECT_EQ(off_hits, 0u);
  EXPECT_GT(on_hits, 0u);  // The overlap workload must actually share.

  ASSERT_EQ(on.size(), off.size());
  for (size_t j = 0; j < off.size(); ++j) {
    ASSERT_TRUE(off[j].status.ok()) << off[j].status;
    ASSERT_TRUE(on[j].status.ok()) << on[j].status;
    // Exact on object AND double score, and certified anytime answers
    // (quota-capped queries) carry the same certificate, bit for bit.
    EXPECT_EQ(on[j].result, off[j].result) << "query " << j;
    EXPECT_EQ(on[j].result.certificate, off[j].result.certificate)
        << "query " << j;
    // Cache hits may only make a query cheaper, never dearer.
    EXPECT_LE(on[j].accrued_cost, off[j].accrued_cost + 1e-9)
        << "query " << j;
  }
  // On this overlapping workload the cache at least halves the Eq. 1
  // cost.
  double on_cost = 0.0;
  double off_cost = 0.0;
  for (size_t j = 0; j < off.size(); ++j) {
    on_cost += on[j].accrued_cost;
    off_cost += off[j].accrued_cost;
  }
  EXPECT_LE(on_cost, 0.5 * off_cost);
}

}  // namespace
}  // namespace nc
