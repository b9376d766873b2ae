#include "core/extension.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baseline/bruteforce.h"
#include "core/plan.h"
#include "graph/builder.h"
#include "query/queries.h"
#include "query/rbi.h"
#include "query/symmetry_breaking.h"
#include "testkit/metrics_util.h"

namespace dualsim {
namespace {

/// Builds the RBI graph for q with its symmetry-breaking orders.
RbiQueryGraph MakeRbi(const QueryGraph& q) {
  return GenerateRbiQueryGraph(q, FindPartialOrders(q));
}

/// Non-red extension of the triangle: red = {0,1}, vertex 2 is ivory.
TEST(ExtensionTest, TriangleIvoryIntersection) {
  RbiQueryGraph rbi = MakeRbi(MakeCliqueQuery(3));
  ASSERT_EQ(rbi.red.size(), 2u);

  // adj lists of the two red data vertices: common neighbors {7, 9}.
  const std::vector<VertexId> adj0 = {2, 7, 9, 11};
  const std::vector<VertexId> adj1 = {3, 7, 9};
  std::vector<VertexId> mapping = {5, 6, kNoVertex};
  std::vector<std::span<const VertexId>> red_adj(3);
  red_adj[rbi.red[0]] = adj0;
  red_adj[rbi.red[1]] = adj1;

  std::vector<QueryVertex> nonred = {2};
  std::vector<std::vector<VertexId>> seen;
  FullEmbeddingFn fn = [&](std::span<const VertexId> m) {
    seen.emplace_back(m.begin(), m.end());
  };
  const std::vector<std::uint16_t> slots = {0};
  IvoryLists ivory;
  ivory.Reset(1);
  const std::uint64_t count =
      ExtendNonRed(rbi, nonred, slots, mapping, red_adj, {}, &ivory, &fn);
  // PO of the triangle is 0<1<2: candidates must exceed m(1)=6: both 7,9.
  EXPECT_EQ(count, 2u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0][2], 7u);
  EXPECT_EQ(seen[1][2], 9u);
  // Mapping restored.
  EXPECT_EQ(mapping[2], kNoVertex);
}

TEST(ExtensionTest, PartialOrderPrunesCandidates) {
  RbiQueryGraph rbi = MakeRbi(MakeCliqueQuery(3));
  const std::vector<VertexId> adj0 = {1, 2, 3, 4};
  const std::vector<VertexId> adj1 = {1, 2, 3, 4};
  // m(0)=2, m(1)=3 => ivory candidates must be > 3: only 4.
  std::vector<VertexId> mapping = {2, 3, kNoVertex};
  std::vector<std::span<const VertexId>> red_adj(3);
  red_adj[rbi.red[0]] = adj0;
  red_adj[rbi.red[1]] = adj1;
  std::vector<QueryVertex> nonred = {2};
  const std::vector<std::uint16_t> slots = {0};
  IvoryLists ivory;
  ivory.Reset(1);
  EXPECT_EQ(
      ExtendNonRed(rbi, nonred, slots, mapping, red_adj, {}, &ivory, nullptr),
      1u);
}

TEST(ExtensionTest, InjectivityExcludesMappedVertices) {
  // Star query: red = center 0, leaves black. Leaves scan adj(m(0)) but
  // must be pairwise distinct.
  RbiQueryGraph rbi = MakeRbi(MakeStarQuery(2));
  ASSERT_EQ(rbi.red.size(), 1u);
  const std::vector<VertexId> adj_center = {5, 6};
  std::vector<VertexId> mapping = {1, kNoVertex, kNoVertex};
  std::vector<std::span<const VertexId>> red_adj(3);
  red_adj[0] = adj_center;
  std::vector<QueryVertex> nonred = {1, 2};
  const std::vector<std::uint16_t> slots = {kNoIvorySlot, kNoIvorySlot};
  // Orders: star leaves are symmetric => 1 < 2. Assignments: (5,6) only.
  EXPECT_EQ(
      ExtendNonRed(rbi, nonred, slots, mapping, red_adj, {}, nullptr, nullptr),
      1u);
}

TEST(ExtensionTest, EmptyNonRedCountsOne) {
  // A query whose red set covers everything non-trivially doesn't occur
  // for connected covers of the paper queries, but the extension must
  // handle an empty order list: it reports exactly one embedding.
  RbiQueryGraph rbi = MakeRbi(MakeCliqueQuery(3));
  std::vector<VertexId> mapping = {1, 2, 3};  // pretend all mapped
  std::vector<std::span<const VertexId>> red_adj(3);
  EXPECT_EQ(ExtendNonRed(rbi, {}, {}, mapping, red_adj, {}, nullptr, nullptr),
            1u);
}

TEST(ExtensionTest, BlackVertexScansWholeList) {
  // Path P3: red = {1} (the middle), 0 and 2 black; orders: 0 < 2.
  RbiQueryGraph rbi = MakeRbi(MakePathQuery(3));
  ASSERT_EQ(rbi.red.size(), 1u);
  EXPECT_EQ(rbi.red[0], 1u);
  const std::vector<VertexId> adj_mid = {10, 20, 30};
  std::vector<VertexId> mapping = {kNoVertex, 5, kNoVertex};
  std::vector<std::span<const VertexId>> red_adj(3);
  red_adj[1] = adj_mid;
  std::vector<QueryVertex> nonred = {0, 2};
  const std::vector<std::uint16_t> slots = {kNoIvorySlot, kNoIvorySlot};
  // Ordered pairs from {10,20,30} with m(0) < m(2): C(3,2) = 3.
  EXPECT_EQ(
      ExtendNonRed(rbi, nonred, slots, mapping, red_adj, {}, nullptr, nullptr),
      3u);
}

/// Extends one red assignment of v-group `g` member by member, the way the
/// engine's emitter does: `ivory` is reset once, so members share slots.
std::uint64_t ExtendGroupAssignment(const QueryPlan& plan, std::size_t g,
                                    const Graph& data,
                                    std::span<const VertexId> by_position,
                                    IvoryLists* ivory) {
  const std::uint8_t num_q = plan.rbi.query.NumVertices();
  ivory->Reset(plan.ivory_slots[g].NumSlots());
  std::uint64_t count = 0;
  for (std::size_t m = 0; m < plan.groups[g].members.size(); ++m) {
    const FullOrderSequence& qs = plan.groups[g].members[m];
    std::vector<VertexId> mapping(num_q, kNoVertex);
    std::vector<std::span<const VertexId>> red_adj(num_q);
    for (std::uint8_t k = 0; k < qs.size(); ++k) {
      mapping[plan.rbi.red[qs[k]]] = by_position[k];
      red_adj[plan.rbi.red[qs[k]]] = data.Neighbors(by_position[k]);
    }
    count += ExtendNonRed(plan.rbi, plan.nonred_order,
                          plan.ivory_slots[g].member_slots[m], mapping,
                          red_adj, {}, ivory, nullptr);
  }
  return count;
}

/// Brute-force oracle for one red assignment: the embeddings of q whose red
/// vertices sit at `by_position` under some member of v-group `g`.
std::uint64_t OracleGroupAssignment(const QueryPlan& plan, std::size_t g,
                                    const Graph& data,
                                    std::span<const VertexId> by_position) {
  std::uint64_t count = 0;
  EnumerateBruteForce(
      data, plan.rbi.query, plan.rbi.orders, [&](const Embedding& e) {
        for (const FullOrderSequence& qs : plan.groups[g].members) {
          bool match = true;
          for (std::uint8_t k = 0; k < qs.size(); ++k) {
            match = match && e[plan.rbi.red[qs[k]]] == by_position[k];
          }
          if (match) ++count;
        }
      });
  return count;
}

/// The house (q5) plan: red u0, u2, u3 (red-graph r0, r1, r2), red edges
/// u0-u3 and u2-u3; ivory u1 sees u0 and u2, ivory u4 sees u2 and u3. The
/// first v-group has the red path at positions 0-2-1 and members
/// (r0,r1,r2) and (r1,r0,r2): u1 takes positions {0,1} under both, so both
/// members share its slot; u4 takes {1,2}, then {0,2}.
QueryPlan HousePlan() {
  auto plan = PreparePlan(MakePaperQuery(PaperQuery::kQ5));
  EXPECT_TRUE(plan.ok());
  const IvorySlotTable& slots = plan->ivory_slots[0];
  EXPECT_EQ(plan->groups[0].members.size(), 2u);
  EXPECT_EQ(slots.NumSlots(), 3u);
  EXPECT_EQ(slots.member_slots[0][0], slots.member_slots[1][0]);
  return *std::move(plan);
}

/// Red assignment (1, 2, 3) on the red path 1-3-2. u1 needs a common
/// neighbour of 1 and 2 above m(u0); u4 one of m(u2) and 3.
TEST(ExtensionTest, HouseMembersShareIvorySlot) {
  const QueryPlan plan = HousePlan();
  GraphBuilder b;
  for (auto [u, v] : std::vector<std::pair<VertexId, VertexId>>{
           {1, 3}, {2, 3}, {0, 1}, {0, 2}, {5, 1}, {5, 2},
           {4, 2}, {4, 3}, {6, 1}, {6, 3}}) {
    b.AddEdge(u, v);
  }
  const Graph data = b.Build();
  const std::vector<VertexId> by_position = {1, 2, 3};

  IvoryLists ivory;
  testkit::MetricsProbe probe;
  const std::uint64_t count =
      ExtendGroupAssignment(plan, 0, data, by_position, &ivory);
  // Member (r0,r1,r2): u1 = 5, u4 = 4. Member (r1,r0,r2): u1 = 5, u4 = 6.
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(count, OracleGroupAssignment(plan, 0, data, by_position));
  // Every slot was touched, and each was intersected once: three calls
  // where extending the members separately would make four.
  EXPECT_EQ(std::count(ivory.computed.begin(), ivory.computed.end(), 1), 3);
  testkit::ExpectMetricDelta(probe, "intersect.calls", 3);
}

/// The only common neighbour of 1 and 2 is the red vertex 3, so u1 has no
/// admissible candidate under either member and u4's slots stay unfilled.
TEST(ExtensionTest, HouseSecondSlotSkippedWithoutFirstIvory) {
  const QueryPlan plan = HousePlan();
  GraphBuilder b;
  for (auto [u, v] : std::vector<std::pair<VertexId, VertexId>>{
           {1, 3}, {2, 3}, {4, 2}, {4, 3}, {6, 1}, {6, 3}}) {
    b.AddEdge(u, v);
  }
  const Graph data = b.Build();
  const std::vector<VertexId> by_position = {1, 2, 3};

  IvoryLists ivory;
  testkit::MetricsProbe probe;
  EXPECT_EQ(ExtendGroupAssignment(plan, 0, data, by_position, &ivory), 0u);
  EXPECT_EQ(OracleGroupAssignment(plan, 0, data, by_position), 0u);
  const std::uint16_t first = plan.ivory_slots[0].member_slots[0][0];
  for (std::size_t slot = 0; slot < ivory.computed.size(); ++slot) {
    EXPECT_EQ(ivory.computed[slot], slot == first ? 1 : 0) << slot;
  }
  testkit::ExpectMetricDelta(probe, "intersect.calls", 1);
}

}  // namespace
}  // namespace dualsim
