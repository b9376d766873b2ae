#include "core/intersect.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "testkit/metrics_util.h"
#include "util/random.h"

namespace dualsim {
namespace {

TEST(IntersectTest, TwoWayBasics) {
  std::vector<VertexId> a = {1, 3, 5, 7};
  std::vector<VertexId> b = {2, 3, 5, 8};
  std::vector<VertexId> out;
  Intersect2(a, b, &out);
  EXPECT_EQ(out, (std::vector<VertexId>{3, 5}));
}

TEST(IntersectTest, TwoWayDisjoint) {
  std::vector<VertexId> a = {1, 2};
  std::vector<VertexId> b = {3, 4};
  std::vector<VertexId> out = {99};
  Intersect2(a, b, &out);
  EXPECT_TRUE(out.empty());
}

TEST(IntersectTest, ManyWithSingleListCopies) {
  std::vector<VertexId> a = {4, 5, 6};
  std::span<const VertexId> lists[] = {a};
  std::vector<VertexId> out;
  IntersectMany(lists, &out);
  EXPECT_EQ(out, a);
}

TEST(IntersectTest, ThreeWay) {
  std::vector<VertexId> a = {1, 2, 3, 4, 5};
  std::vector<VertexId> b = {2, 4, 6};
  std::vector<VertexId> c = {0, 2, 4, 8};
  std::span<const VertexId> lists[] = {a, b, c};
  std::vector<VertexId> out;
  IntersectMany(lists, &out);
  EXPECT_EQ(out, (std::vector<VertexId>{2, 4}));
}

TEST(IntersectTest, EmptyInputs) {
  std::vector<VertexId> out = {7};
  IntersectMany({}, &out);
  EXPECT_TRUE(out.empty());
  std::vector<VertexId> a = {};
  std::vector<VertexId> b = {1};
  std::span<const VertexId> lists[] = {a, b};
  IntersectMany(lists, &out);
  EXPECT_TRUE(out.empty());
}

TEST(IntersectTest, ManyWithTwoListsMatchesIntersect2) {
  std::vector<VertexId> a = {1, 3, 5, 7, 9};
  std::vector<VertexId> b = {2, 3, 7, 10};
  std::span<const VertexId> lists[] = {a, b};
  std::vector<VertexId> many;
  std::vector<VertexId> two;
  IntersectMany(lists, &many);
  Intersect2(a, b, &two);
  EXPECT_EQ(many, two);
  EXPECT_EQ(many, (std::vector<VertexId>{3, 7}));
}

TEST(IntersectTest, ManyEmptyListShortCircuits) {
  // Any empty input empties the intersection, wherever it sits — including
  // when a *later* list is empty and an earlier one is large.
  std::vector<VertexId> big(1000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<VertexId>(i);
  }
  std::vector<VertexId> empty;
  std::span<const VertexId> lists[] = {big, big, empty};
  std::vector<VertexId> out = {42};
  IntersectMany(lists, &out);
  EXPECT_TRUE(out.empty());

  std::span<const VertexId> lists_front[] = {empty, big, big};
  out = {42};
  IntersectMany(lists_front, &out);
  EXPECT_TRUE(out.empty());
}

TEST(IntersectTest, ManyAllEmpty) {
  std::vector<VertexId> empty;
  std::span<const VertexId> lists[] = {empty, empty, empty};
  std::vector<VertexId> out = {1};
  IntersectMany(lists, &out);
  EXPECT_TRUE(out.empty());
}

TEST(IntersectTest, ManyDuplicateLists) {
  // The same list repeated intersects to itself.
  std::vector<VertexId> a = {2, 4, 6, 8};
  std::span<const VertexId> lists[] = {a, a, a, a};
  std::vector<VertexId> out;
  IntersectMany(lists, &out);
  EXPECT_EQ(out, a);
}

TEST(IntersectTest, ManyAdversarialSizeSkew) {
  // One tiny list against several huge ones: the tiny list must drive the
  // scan, and the result is exactly its members present in all others.
  std::vector<VertexId> huge1;
  std::vector<VertexId> huge2;
  for (VertexId v = 0; v < 5000; ++v) {
    if (v % 2 == 0) huge1.push_back(v);
    if (v % 3 == 0) huge2.push_back(v);
  }
  std::vector<VertexId> tiny = {6, 7, 12, 4998};
  std::span<const VertexId> lists[] = {huge1, tiny, huge2};
  std::vector<VertexId> out;
  IntersectMany(lists, &out);
  EXPECT_EQ(out, (std::vector<VertexId>{6, 12, 4998}));
}

TEST(IntersectTest, RandomizedAgainstSets) {
  Random rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::vector<VertexId>> lists(2 + trial % 3);
    std::vector<std::set<VertexId>> sets(lists.size());
    for (std::size_t i = 0; i < lists.size(); ++i) {
      const std::size_t n = rng.Uniform(40);
      for (std::size_t j = 0; j < n; ++j) {
        sets[i].insert(static_cast<VertexId>(rng.Uniform(60)));
      }
      lists[i].assign(sets[i].begin(), sets[i].end());
    }
    std::set<VertexId> expected = sets[0];
    for (std::size_t i = 1; i < sets.size(); ++i) {
      std::set<VertexId> next;
      std::set_intersection(expected.begin(), expected.end(), sets[i].begin(),
                            sets[i].end(), std::inserter(next, next.end()));
      expected = next;
    }
    std::vector<std::span<const VertexId>> spans(lists.begin(), lists.end());
    std::vector<VertexId> out;
    IntersectMany(spans, &out);
    EXPECT_EQ(out, std::vector<VertexId>(expected.begin(), expected.end()));
  }
}

/// Regression: every 2-way dispatch attributes exactly one per-kernel
/// counter, *including* the empty-input shortcut and the many-way path
/// whose smallest list is empty — both historically recorded
/// intersect.calls without any intersect.<kernel>.calls, so the per-kernel
/// counters no longer summed to the total.
TEST(IntersectTest, KernelCountersSumToCalls) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  const std::vector<VertexId> empty;
  const std::vector<VertexId> a = {1, 2, 3};
  const std::vector<VertexId> b = {2, 3, 4};
  std::vector<VertexId> out;

  testkit::MetricsProbe probe;
  Intersect2(empty, a, &out);  // empty-input shortcut
  EXPECT_TRUE(out.empty());
  Intersect2(a, b, &out);  // normal path
  EXPECT_EQ(out, (std::vector<VertexId>{2, 3}));
  const std::span<const VertexId> lists[] = {a, empty, b};
  IntersectMany(lists, &out);  // many-way with an empty smallest list
  EXPECT_TRUE(out.empty());

  const std::uint64_t calls = probe.Delta("intersect.calls");
  std::uint64_t per_kernel = 0;
  for (const char* name :
       {"intersect.scalar.calls", "intersect.galloping.calls",
        "intersect.avx2.calls"}) {
    per_kernel += probe.Delta(name);
  }
  EXPECT_EQ(calls, 3u);  // two 2-way + one pairwise step inside many-way
  EXPECT_EQ(per_kernel, calls)
      << "per-kernel counters must sum to intersect.calls";
  testkit::ExpectMetricDelta(probe, "intersect.many_calls", 1);
}

}  // namespace
}  // namespace dualsim
