#include "core/bound_heap.h"

#include <algorithm>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/rank_order.h"

namespace nc {
namespace {

using Entry = LazyBoundHeap::Entry;

std::vector<ObjectId> Objects(std::span<const Entry> entries) {
  std::vector<ObjectId> ids;
  for (const Entry& e : entries) ids.push_back(e.object);
  return ids;
}

TEST(BoundHeapTest, TopKStableBounds) {
  LazyBoundHeap heap;
  heap.Push(0, 0.3);
  heap.Push(1, 0.9);
  heap.Push(2, 0.6);
  const std::map<ObjectId, Score> bounds{{0, 0.3}, {1, 0.9}, {2, 0.6}};
  const auto fn = [&](ObjectId u) -> std::optional<Score> {
    return bounds.at(u);
  };
  EXPECT_EQ(Objects(heap.TopK(2, fn)), (std::vector<ObjectId>{1, 2}));
  // The held top-k stays in the structure, and a repeat call agrees.
  EXPECT_EQ(heap.size(), 3u);
  EXPECT_EQ(Objects(heap.TopK(2, fn)), (std::vector<ObjectId>{1, 2}));
}

TEST(BoundHeapTest, StaleEntriesRefresh) {
  LazyBoundHeap heap;
  heap.Push(0, 0.9);  // Cached high...
  heap.Push(1, 0.5);
  const std::map<ObjectId, Score> bounds{{0, 0.2}, {1, 0.5}};  // ...now lower.
  const auto fn = [&](ObjectId u) -> std::optional<Score> {
    return bounds.at(u);
  };
  const std::span<const Entry> top = heap.TopK(1, fn);
  ASSERT_EQ(top.size(), 1u);
  // Object 1 is the true maximum despite object 0's stale cache.
  EXPECT_EQ(top[0].object, 1u);
  EXPECT_DOUBLE_EQ(top[0].bound, 0.5);
  EXPECT_EQ(heap.size(), 2u);
}

TEST(BoundHeapTest, HeldMembersAreRecheckedEveryCall) {
  LazyBoundHeap heap;
  heap.Push(0, 0.9);
  heap.Push(1, 0.5);
  std::map<ObjectId, Score> bounds{{0, 0.9}, {1, 0.5}};
  const auto fn = [&](ObjectId u) -> std::optional<Score> {
    return bounds.at(u);
  };
  EXPECT_EQ(Objects(heap.TopK(1, fn)), (std::vector<ObjectId>{0}));
  // The held member falls below the heap's root and loses its place.
  bounds[0] = 0.4;
  const std::span<const Entry> top = heap.TopK(1, fn);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].object, 1u);
  EXPECT_EQ(heap.size(), 2u);
}

TEST(BoundHeapTest, RetiredEntriesVanish) {
  LazyBoundHeap heap;
  heap.Push(0, 1.0);
  heap.Push(1, 0.4);
  const auto fn = [&](ObjectId u) -> std::optional<Score> {
    if (u == 0) return std::nullopt;  // Retired (the unseen sentinel dies).
    return 0.4;
  };
  EXPECT_EQ(Objects(heap.TopK(2, fn)), (std::vector<ObjectId>{1}));
  EXPECT_EQ(heap.size(), 1u);
}

TEST(BoundHeapTest, RetiredHeldMemberVanishes) {
  LazyBoundHeap heap;
  heap.Push(kUnseenObject, 0.8);
  heap.Push(1, 0.4);
  bool retired = false;
  const auto fn = [&](ObjectId u) -> std::optional<Score> {
    if (u != kUnseenObject) return 0.4;
    if (retired) return std::nullopt;
    return 0.8;
  };
  EXPECT_EQ(Objects(heap.TopK(1, fn)),
            (std::vector<ObjectId>{kUnseenObject}));
  retired = true;
  EXPECT_EQ(Objects(heap.TopK(1, fn)), (std::vector<ObjectId>{1}));
  EXPECT_EQ(heap.size(), 1u);
}

TEST(BoundHeapTest, TieBreakByDescendingObjectId) {
  LazyBoundHeap heap;
  heap.Push(3, 0.5);
  heap.Push(9, 0.5);
  heap.Push(1, 0.5);
  const auto fn = [](ObjectId) -> std::optional<Score> { return 0.5; };
  EXPECT_EQ(Objects(heap.TopK(3, fn)), (std::vector<ObjectId>{9, 3, 1}));
}

TEST(BoundHeapTest, UnseenSentinelRanksBelowSeenTies) {
  // A freshly hit object surfaces above `unseen` at an equal bound
  // (Figure 10's step 2).
  LazyBoundHeap heap;
  heap.Push(kUnseenObject, 0.7);
  heap.Push(7, 0.7);
  const auto fn = [](ObjectId) -> std::optional<Score> { return 0.7; };
  EXPECT_EQ(Objects(heap.TopK(2, fn)),
            (std::vector<ObjectId>{7, kUnseenObject}));
}

TEST(BoundHeapTest, FewerEntriesThanK) {
  LazyBoundHeap heap;
  heap.Push(0, 0.5);
  const auto fn = [](ObjectId) -> std::optional<Score> { return 0.5; };
  EXPECT_EQ(heap.TopK(5, fn).size(), 1u);
}

// The certificate asks for k + 1, then the loop goes back to k.
TEST(BoundHeapTest, SmallerKHandsTheTailBack) {
  LazyBoundHeap heap;
  for (ObjectId u = 0; u < 5; ++u) heap.Push(u, 0.1 * (u + 1));
  const auto fn = [](ObjectId u) -> std::optional<Score> {
    return 0.1 * (u + 1);
  };
  EXPECT_EQ(Objects(heap.TopK(3, fn)), (std::vector<ObjectId>{4, 3, 2}));
  EXPECT_EQ(Objects(heap.TopK(2, fn)), (std::vector<ObjectId>{4, 3}));
  EXPECT_EQ(Objects(heap.TopK(4, fn)), (std::vector<ObjectId>{4, 3, 2, 1}));
  EXPECT_EQ(heap.size(), 5u);
}

// Property test: while bounds fall at random between calls, the unseen
// sentinel retires, k grows (Extend) and takes the certificate's
// k + 1 -> k step, TopK always agrees with a naive full rescan. Bounds
// sit on a 1/8 grid, so ties - among seen objects and against the
// sentinel - are common.
TEST(BoundHeapTest, RandomizedHeldTopKAgainstNaiveRescan) {
  Rng rng(405);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng.UniformInt(40);
    std::vector<Score> current(n);
    LazyBoundHeap heap;
    for (ObjectId u = 0; u < n; ++u) {
      current[u] = static_cast<Score>(1 + rng.UniformInt(8)) / 8.0;
      heap.Push(u, current[u]);
    }
    Score sentinel = 1.0;
    bool retired = false;
    const int retire_at = static_cast<int>(rng.UniformInt(60));
    heap.Push(kUnseenObject, sentinel);
    const auto fn = [&](ObjectId u) -> std::optional<Score> {
      if (u != kUnseenObject) return current[u];
      if (retired) return std::nullopt;
      return sentinel;
    };
    const auto expect_naive = [&](size_t k) {
      const std::span<const Entry> top = heap.TopK(k, fn);
      std::vector<Entry> live;
      for (ObjectId u = 0; u < n; ++u) live.push_back(Entry{current[u], u});
      if (!retired) live.push_back(Entry{sentinel, kUnseenObject});
      std::sort(live.begin(), live.end(), [](const Entry& a, const Entry& b) {
        return RanksAbove(a.bound, a.object, b.bound, b.object);
      });
      ASSERT_EQ(top.size(), std::min(k, live.size())) << "trial " << trial;
      for (size_t i = 0; i < top.size(); ++i) {
        EXPECT_EQ(top[i].object, live[i].object)
            << "trial " << trial << " rank " << i;
        EXPECT_EQ(top[i].bound, live[i].bound)
            << "trial " << trial << " rank " << i;
      }
    };
    size_t k = 1 + rng.UniformInt(5);
    for (int step = 0; step < 60; ++step) {
      // Lower a few bounds by one grid step or nothing; never raise one.
      for (int j = 0; j < 3; ++j) {
        const ObjectId u = static_cast<ObjectId>(rng.UniformInt(n));
        current[u] = std::max(
            0.0, current[u] - static_cast<Score>(rng.UniformInt(2)) / 8.0);
      }
      sentinel = std::max(
          0.0, sentinel - static_cast<Score>(rng.UniformInt(2)) / 8.0);
      if (step == retire_at) retired = true;
      switch (rng.UniformInt(8)) {
        case 0:  // Extend.
          k += 1 + rng.UniformInt(3);
          expect_naive(k);
          break;
        case 1:  // The certificate: k + 1, then k.
          expect_naive(k + 1);
          expect_naive(k);
          break;
        default:
          expect_naive(k);
      }
    }
  }
}

}  // namespace
}  // namespace nc
