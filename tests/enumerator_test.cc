#include "core/enumerator.h"

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "core/sequences.h"
#include "core/vgroup_forest.h"
#include "query/queries.h"
#include "storage/page.h"
#include "testkit/metrics_util.h"

namespace dualsim {
namespace {

/// One page holding the whole toy graph, plus an index over it.
struct ToyWindow {
  std::vector<std::byte> page;
  WindowIndex index;
};

/// Data graph (degree-ordered ids): edges 0-1, 0-2, 1-2, 1-3, 2-3.
/// Triangles: {0,1,2}, {1,2,3}.
ToyWindow MakeToyWindow() {
  ToyWindow w;
  w.page.resize(512);
  PageWriter writer(w.page.data(), 512);
  const std::vector<std::vector<VertexId>> adj = {
      {1, 2}, {0, 2, 3}, {0, 1, 3}, {1, 2}};
  for (VertexId v = 0; v < adj.size(); ++v) {
    EXPECT_TRUE(writer.Append(v, static_cast<std::uint32_t>(adj[v].size()),
                              0, adj[v]));
  }
  w.index.AddPage(w.page.data(), 512);
  return w;
}

/// One page holding the given (vertex, sorted adjacency) records, in
/// ascending vertex order.
ToyWindow MakeWindow(
    const std::vector<std::pair<VertexId, std::vector<VertexId>>>& records) {
  ToyWindow w;
  w.page.resize(512);
  PageWriter writer(w.page.data(), 512);
  for (const auto& [v, adj] : records) {
    EXPECT_TRUE(
        writer.Append(v, static_cast<std::uint32_t>(adj.size()), 0, adj));
  }
  w.index.AddPage(w.page.data(), 512);
  return w;
}

class CollectingEmitter : public RedEmitter {
 public:
  void Emit(std::span<const VertexId> vertex_by_position,
            std::span<const std::span<const VertexId>>) override {
    emitted.emplace_back(vertex_by_position.begin(),
                         vertex_by_position.end());
  }
  std::vector<std::vector<VertexId>> emitted;
};

/// Red graph = single edge (the triangle's red graph): position 0 < 1,
/// positions adjacent. Every edge (a, b) with a < b must be emitted once.
TEST(MatchGroupTest, EdgeRedGraphEmitsEachOrderedEdgeOnce) {
  ToyWindow w = MakeToyWindow();
  QueryGraph red = MakeCliqueQuery(2);
  auto groups = GroupSequencesByTopology(
      red, EnumerateFullOrderSequences(red, {{0, 1}}));
  ASSERT_EQ(groups.size(), 1u);
  MatchingOrder mo = {0, 1};

  LevelDomain domains[2] = {{&w.index, nullptr}, {&w.index, nullptr}};
  std::uint8_t level_order[2] = {0, 1};
  GroupMatchInput input;
  input.group = &groups[0];
  input.matching_order = &mo;
  input.domains = {domains, 2};
  input.level_order = {level_order, 2};

  CollectingEmitter emitter;
  MatchGroup(input, emitter);
  // Edges with a < b: (0,1), (0,2), (1,2), (1,3), (2,3).
  ASSERT_EQ(emitter.emitted.size(), 5u);
  for (const auto& pair : emitter.emitted) {
    EXPECT_LT(pair[0], pair[1]);
  }
}

TEST(MatchGroupTest, SeedsRestrictFirstLevel) {
  ToyWindow w = MakeToyWindow();
  QueryGraph red = MakeCliqueQuery(2);
  auto groups = GroupSequencesByTopology(
      red, EnumerateFullOrderSequences(red, {{0, 1}}));
  MatchingOrder mo = {0, 1};
  LevelDomain domains[2] = {{&w.index, nullptr}, {&w.index, nullptr}};
  // External-style order: last level first; seed only vertex 3.
  std::uint8_t level_order[2] = {1, 0};
  bool found = false;
  WindowIndex::Entry seed{3, w.index.Find(3, &found)};
  ASSERT_TRUE(found);

  GroupMatchInput input;
  input.group = &groups[0];
  input.matching_order = &mo;
  input.domains = {domains, 2};
  input.level_order = {level_order, 2};
  input.seeds = {&seed, 1};

  CollectingEmitter emitter;
  MatchGroup(input, emitter);
  // Position 1 = vertex 3; position 0 = smaller neighbors: 1 and 2.
  ASSERT_EQ(emitter.emitted.size(), 2u);
  for (const auto& pair : emitter.emitted) {
    EXPECT_EQ(pair[1], 3u);
    EXPECT_LT(pair[0], 3u);
  }
}

TEST(MatchGroupTest, CandidateBitmapFilters) {
  ToyWindow w = MakeToyWindow();
  QueryGraph red = MakeCliqueQuery(2);
  auto groups = GroupSequencesByTopology(
      red, EnumerateFullOrderSequences(red, {{0, 1}}));
  MatchingOrder mo = {0, 1};
  // cvs for level 1 admits only vertex 2.
  Bitmap cvs(4);
  cvs.Set(2);
  LevelDomain domains[2] = {{&w.index, nullptr}, {&w.index, &cvs}};
  std::uint8_t level_order[2] = {0, 1};
  GroupMatchInput input;
  input.group = &groups[0];
  input.matching_order = &mo;
  input.domains = {domains, 2};
  input.level_order = {level_order, 2};
  CollectingEmitter emitter;
  MatchGroup(input, emitter);
  // Pairs (a, 2) with a < 2 and edge: (0,2), (1,2).
  ASSERT_EQ(emitter.emitted.size(), 2u);
  for (const auto& pair : emitter.emitted) EXPECT_EQ(pair[1], 2u);
}

TEST(MatchGroupTest, SkipBitmapDropsAllInternal) {
  ToyWindow w = MakeToyWindow();
  QueryGraph red = MakeCliqueQuery(2);
  auto groups = GroupSequencesByTopology(
      red, EnumerateFullOrderSequences(red, {{0, 1}}));
  MatchingOrder mo = {0, 1};
  LevelDomain domains[2] = {{&w.index, nullptr}, {&w.index, nullptr}};
  std::uint8_t level_order[2] = {0, 1};
  // Everything lives in page 0, and page 0 is "internal": every match is
  // skipped.
  std::vector<PageId> first_page = {0, 0, 0, 0};
  Bitmap internal_pages(1);
  internal_pages.Set(0);
  GroupMatchInput input;
  input.group = &groups[0];
  input.matching_order = &mo;
  input.domains = {domains, 2};
  input.level_order = {level_order, 2};
  input.first_page = first_page;
  input.skip_if_all_pages_in = &internal_pages;
  CollectingEmitter emitter;
  MatchGroup(input, emitter);
  EXPECT_TRUE(emitter.emitted.empty());
}

/// Path red graph with the identity order: position 1 is the middle. The
/// emitted triples must satisfy total order and positional adjacency.
TEST(MatchGroupTest, PathRedGraphRespectsTopologyAndOrder) {
  ToyWindow w = MakeToyWindow();
  QueryGraph red(3);
  red.AddEdge(0, 1);
  red.AddEdge(1, 2);
  auto groups =
      GroupSequencesByTopology(red, EnumerateFullOrderSequences(red, {}));
  MatchingOrder mo = {0, 1, 2};
  LevelDomain domains[3] = {
      {&w.index, nullptr}, {&w.index, nullptr}, {&w.index, nullptr}};
  std::uint8_t level_order[3] = {0, 1, 2};
  std::size_t total = 0;
  for (const auto& group : groups) {
    GroupMatchInput input;
    input.group = &group;
    input.matching_order = &mo;
    input.domains = {domains, 3};
    input.level_order = {level_order, 3};
    CollectingEmitter emitter;
    MatchGroup(input, emitter);
    for (const auto& triple : emitter.emitted) {
      EXPECT_LT(triple[0], triple[1]);
      EXPECT_LT(triple[1], triple[2]);
    }
    total += emitter.emitted.size();
  }
  // Ascending vertex triples (a<b<c) hosting a path in *some* positional
  // arrangement: count by brute force over the toy graph.
  // Triples: 012: edges 01,02,12 -> all arrangements work (3 groups match);
  // wait — each group matches a triple at most once. Expected total:
  // sum over (a<b<c) of #distinct positional path-topologies present.
  // 012: complete triple -> every one of the 3 topologies matches: 3.
  // 013: edges 01,13 -> middle must be 1 => topology (0-1,1-3): 1.
  // 023: edges 02,23 -> middle 2: 1.
  // 123: edges 12,13,23 complete: 3.
  EXPECT_EQ(total, 8u);
}

/// The red triangle with the identity order: positions 0 < 1 < 2, all
/// pairwise adjacent, so a level assigned after two others intersects two
/// adjacency lists.
VGroupSequence TriangleGroup() {
  QueryGraph red = MakeCliqueQuery(3);
  auto groups = GroupSequencesByTopology(
      red, EnumerateFullOrderSequences(red, {{0, 1}, {1, 2}}));
  EXPECT_EQ(groups.size(), 1u);
  return groups[0];
}

/// K4 over vertices `base` .. `base` + 3.
ToyWindow MakeK4Window(VertexId base) {
  std::vector<std::pair<VertexId, std::vector<VertexId>>> records;
  for (VertexId i = 0; i < 4; ++i) {
    std::vector<VertexId> adj;
    for (VertexId j = 0; j < 4; ++j) {
      if (j != i) adj.push_back(base + j);
    }
    records.emplace_back(base + i, adj);
  }
  return MakeWindow(records);
}

/// Level 2's window holds only 4 and 5, while every common neighbour of
/// two K4 vertices lies in 0..3: the trimmed lists are empty, so no
/// intersection runs. With level 2 on the K4 window instead, the 4
/// triangles come out.
TEST(MatchGroupTest, IntersectionOutsideWindowMakesNoIntersectCalls) {
  ToyWindow k4 = MakeK4Window(0);
  ToyWindow far = MakeWindow({{4, {5}}, {5, {4}}});
  const VGroupSequence group = TriangleGroup();
  MatchingOrder mo = {0, 1, 2};
  std::uint8_t level_order[3] = {0, 1, 2};
  LevelDomain domains[3] = {
      {&k4.index, nullptr}, {&k4.index, nullptr}, {&far.index, nullptr}};
  GroupMatchInput input;
  input.group = &group;
  input.matching_order = &mo;
  input.domains = {domains, 3};
  input.level_order = {level_order, 3};

  {
    testkit::MetricsProbe probe;
    CollectingEmitter emitter;
    MatchGroup(input, emitter);
    EXPECT_TRUE(emitter.emitted.empty());
    testkit::ExpectMetricDelta(probe, "intersect.calls", 0);
  }
  {
    // Control: pairs (0,1), (0,2), (1,2) still have a vertex above them.
    domains[2].index = &k4.index;
    testkit::MetricsProbe probe;
    CollectingEmitter emitter;
    MatchGroup(input, emitter);
    EXPECT_EQ(emitter.emitted.size(), 4u);
    testkit::ExpectMetricDelta(probe, "intersect.calls", 3);
  }
}

/// Positions 2 and 0 hold 4 and 1; position 1 must lie strictly between.
/// The common neighbours of 1 and 4 are 0 and 5: resident, but outside the
/// ≺ interval, and 4 has no neighbour in it, so no intersection runs.
TEST(MatchGroupTest, IntersectionOutsideOrderIntervalMakesNoIntersectCalls) {
  ToyWindow w = MakeWindow({{0, {1, 4}},
                            {1, {0, 2, 4, 5}},
                            {2, {1, 3}},
                            {3, {2}},
                            {4, {0, 1, 5}},
                            {5, {1, 4}}});
  const VGroupSequence group = TriangleGroup();
  MatchingOrder mo = {0, 1, 2};
  std::uint8_t level_order[3] = {2, 0, 1};
  Bitmap only_one(6);
  only_one.Set(1);
  LevelDomain domains[3] = {
      {&w.index, &only_one}, {&w.index, nullptr}, {&w.index, nullptr}};
  bool found = false;
  WindowIndex::Entry seed{4, w.index.Find(4, &found)};
  ASSERT_TRUE(found);
  GroupMatchInput input;
  input.group = &group;
  input.matching_order = &mo;
  input.domains = {domains, 3};
  input.level_order = {level_order, 3};
  input.seeds = {&seed, 1};

  testkit::MetricsProbe probe;
  CollectingEmitter emitter;
  MatchGroup(input, emitter);
  EXPECT_TRUE(emitter.emitted.empty());
  testkit::ExpectMetricDelta(probe, "intersect.calls", 0);
}

/// Vertex 0 at position 1 leaves nothing below it for position 0: the
/// upper bound must not wrap to the largest id and intersect anyway.
TEST(MatchGroupTest, AssignedVertexZeroDoesNotWrap) {
  ToyWindow k4 = MakeK4Window(0);
  const VGroupSequence group = TriangleGroup();
  MatchingOrder mo = {0, 1, 2};
  std::uint8_t level_order[3] = {1, 2, 0};
  LevelDomain domains[3] = {
      {&k4.index, nullptr}, {&k4.index, nullptr}, {&k4.index, nullptr}};
  bool found = false;
  WindowIndex::Entry seed{0, k4.index.Find(0, &found)};
  ASSERT_TRUE(found);
  GroupMatchInput input;
  input.group = &group;
  input.matching_order = &mo;
  input.domains = {domains, 3};
  input.level_order = {level_order, 3};
  input.seeds = {&seed, 1};

  testkit::MetricsProbe probe;
  CollectingEmitter emitter;
  MatchGroup(input, emitter);
  EXPECT_TRUE(emitter.emitted.empty());
  testkit::ExpectMetricDelta(probe, "intersect.calls", 0);
}

/// The largest id at position 1 leaves nothing above it for position 2:
/// the lower bound must not wrap to 0 and intersect anyway.
TEST(MatchGroupTest, AssignedLargestIdDoesNotWrap) {
  constexpr VertexId kTop = std::numeric_limits<VertexId>::max();
  ToyWindow k4 = MakeK4Window(kTop - 3);
  const VGroupSequence group = TriangleGroup();
  MatchingOrder mo = {0, 1, 2};
  std::uint8_t level_order[3] = {1, 0, 2};
  LevelDomain domains[3] = {
      {&k4.index, nullptr}, {&k4.index, nullptr}, {&k4.index, nullptr}};
  bool found = false;
  WindowIndex::Entry seed{kTop, k4.index.Find(kTop, &found)};
  ASSERT_TRUE(found);
  GroupMatchInput input;
  input.group = &group;
  input.matching_order = &mo;
  input.domains = {domains, 3};
  input.level_order = {level_order, 3};
  input.seeds = {&seed, 1};

  testkit::MetricsProbe probe;
  CollectingEmitter emitter;
  MatchGroup(input, emitter);
  EXPECT_TRUE(emitter.emitted.empty());
  testkit::ExpectMetricDelta(probe, "intersect.calls", 0);
}

}  // namespace
}  // namespace dualsim
