#include "core/plan.h"

#include <gtest/gtest.h>

#include "query/queries.h"

namespace dualsim {
namespace {

TEST(PlanTest, RejectsEmptyAndDisconnected) {
  EXPECT_FALSE(PreparePlan(QueryGraph(0)).ok());
  QueryGraph disconnected(4);
  disconnected.AddEdge(0, 1);
  disconnected.AddEdge(2, 3);
  EXPECT_FALSE(PreparePlan(disconnected).ok());
}

TEST(PlanTest, TrianglePlanShape) {
  auto plan = PreparePlan(MakePaperQuery(PaperQuery::kQ1));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->NumLevels(), 2u);
  EXPECT_EQ(plan->groups.size(), 1u);
  EXPECT_EQ(plan->groups[0].members.size(), 1u);  // full chain of orders
  EXPECT_EQ(plan->nonred_order.size(), 1u);
}

TEST(PlanTest, SquarePlanCollapsesToOneGroup) {
  // Rule 1 picks the MCVC {u0,u1,u3}, which internalizes three partial
  // orders; the full-order sequences collapse to a single one, so there is
  // one v-group and no Cartesian product. (This is exactly the point of
  // Rule 1: internal partial orders prune full-order sequences.)
  auto plan = PreparePlan(MakePaperQuery(PaperQuery::kQ2));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->NumLevels(), 3u);
  EXPECT_EQ(plan->groups.size(), 1u);
  EXPECT_EQ(plan->groups[0].members.size(), 1u);
  EXPECT_EQ(CountCartesianProducts(plan->groups, plan->matching_order), 0);
}

TEST(PlanTest, SquareWithoutRulesHasMoreSequences) {
  // Disabling Rules 1/2 falls back to the first MCVC in subset order,
  // which internalizes fewer orders and yields more full-order sequences.
  PlanOptions options;
  options.rbi.apply_rules = false;
  auto plan = PreparePlan(MakePaperQuery(PaperQuery::kQ2), options);
  ASSERT_TRUE(plan.ok());
  std::size_t total = 0;
  for (const auto& g : plan->groups) total += g.members.size();
  EXPECT_GT(total, 1u);
}

TEST(PlanTest, ExternalOrderStartsAtLastLevel) {
  for (PaperQuery pq : AllPaperQueries()) {
    auto plan = PreparePlan(MakePaperQuery(pq));
    ASSERT_TRUE(plan.ok()) << PaperQueryName(pq);
    for (const auto& order : plan->external_level_order) {
      ASSERT_FALSE(order.empty());
      EXPECT_EQ(order[0], plan->NumLevels() - 1) << PaperQueryName(pq);
      // Must be a permutation of levels.
      std::vector<bool> seen(plan->NumLevels(), false);
      for (auto l : order) seen[l] = true;
      for (bool s : seen) EXPECT_TRUE(s);
    }
    for (const auto& order : plan->internal_level_order) {
      EXPECT_EQ(order[0], 0u);
    }
  }
}

TEST(PlanTest, PreparationIsFast) {
  // Table 6: preparation takes at most ~1 msec per query. Allow slack for
  // debug builds and CI noise but verify it is not doing silly work.
  for (PaperQuery pq : AllPaperQueries()) {
    auto plan = PreparePlan(MakePaperQuery(pq));
    ASSERT_TRUE(plan.ok());
    EXPECT_LT(plan->prepare_millis, 50.0) << PaperQueryName(pq);
  }
}

TEST(PlanTest, NoVGroupAblationExplodesGroups) {
  PlanOptions options;
  options.use_vgroups = false;
  auto with = PreparePlan(MakePaperQuery(PaperQuery::kQ5));
  auto without = PreparePlan(MakePaperQuery(PaperQuery::kQ5), options);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_GE(without->groups.size(), with->groups.size());
  for (const auto& g : without->groups) EXPECT_EQ(g.members.size(), 1u);
  // Same number of sequences overall.
  std::size_t with_total = 0;
  for (const auto& g : with->groups) with_total += g.members.size();
  EXPECT_EQ(without->groups.size(), with_total);
}

TEST(PlanTest, WorstOrderAblationNotBetter) {
  PlanOptions worst;
  worst.best_matching_order = false;
  auto best_plan = PreparePlan(MakePaperQuery(PaperQuery::kQ2));
  auto worst_plan = PreparePlan(MakePaperQuery(PaperQuery::kQ2), worst);
  ASSERT_TRUE(best_plan.ok());
  ASSERT_TRUE(worst_plan.ok());
  EXPECT_GE(
      CountCartesianProducts(worst_plan->groups, worst_plan->matching_order),
      CountCartesianProducts(best_plan->groups, best_plan->matching_order));
}

TEST(PlanTest, ForestsMatchGroups) {
  auto plan = PreparePlan(MakePaperQuery(PaperQuery::kQ4));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->forests.size(), plan->groups.size());
  for (const auto& f : plan->forests) {
    EXPECT_EQ(f.parent_level.size(), plan->NumLevels());
    EXPECT_EQ(f.parent_level[0], -1);
  }
}

/// House (q5): red u0, u2, u3 (red-graph r0, r1, r2); ivory u1 sees
/// r0, r1 and ivory u4 sees r1, r2. In every group, u1's position set is
/// the same under both members, so it gets one slot; u4's differs.
TEST(PlanTest, HouseIvorySlotTable) {
  auto plan = PreparePlan(MakePaperQuery(PaperQuery::kQ5));
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->nonred_order, (std::vector<QueryVertex>{1, 4}));
  ASSERT_EQ(plan->ivory_slots.size(), 3u);
  const std::vector<std::vector<std::uint16_t>> positions = {
      {0b011, 0b110, 0b101},  // (r0,r1,r2) (r1,r0,r2)
      {0b101, 0b110, 0b011},  // (r0,r2,r1) (r1,r2,r0)
      {0b110, 0b101, 0b011},  // (r2,r0,r1) (r2,r1,r0)
  };
  for (std::size_t g = 0; g < 3; ++g) {
    const IvorySlotTable& t = plan->ivory_slots[g];
    EXPECT_EQ(t.slot_positions, positions[g]) << "group " << g;
    EXPECT_EQ(t.member_slots,
              (std::vector<std::vector<std::uint16_t>>{{0, 1}, {0, 2}}))
        << "group " << g;
  }
}

/// 4-clique (q4): one group, one member, one ivory vertex seeing all three
/// positions — one slot per group.
TEST(PlanTest, CliqueIvorySlotTable) {
  auto plan = PreparePlan(MakePaperQuery(PaperQuery::kQ4));
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->ivory_slots.size(), 1u);
  EXPECT_EQ(plan->ivory_slots[0].slot_positions,
            (std::vector<std::uint16_t>{0b111}));
  EXPECT_EQ(plan->ivory_slots[0].member_slots,
            (std::vector<std::vector<std::uint16_t>>{{0}}));
}

/// Black vertices (a single red neighbour) get no slot: the 3-path's
/// leaves scan the middle vertex's list.
TEST(PlanTest, BlackVerticesHaveNoIvorySlot) {
  auto plan = PreparePlan(MakePathQuery(3));
  ASSERT_TRUE(plan.ok());
  for (const IvorySlotTable& t : plan->ivory_slots) {
    EXPECT_EQ(t.NumSlots(), 0u);
    for (const auto& row : t.member_slots) {
      EXPECT_EQ(row, (std::vector<std::uint16_t>(2, kNoIvorySlot)));
    }
  }
}

}  // namespace
}  // namespace dualsim
