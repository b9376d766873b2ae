#include "core/plan.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "query/symmetry_breaking.h"
#include "util/logging.h"
#include "util/timer.h"

namespace dualsim {
namespace {

/// Greedy level-assignment order starting from `start`: repeatedly add an
/// unassigned level positionally adjacent to an assigned one (preferring
/// the one whose position has the most assigned neighbors), falling back
/// to the lowest unassigned level when the remainder is disconnected.
std::vector<std::uint8_t> LevelOrderFrom(const VGroupSequence& group,
                                         const MatchingOrder& mo,
                                         std::uint8_t start) {
  const std::uint8_t levels = static_cast<std::uint8_t>(mo.size());
  std::vector<std::uint8_t> order;
  std::vector<bool> assigned(levels, false);
  order.push_back(start);
  assigned[start] = true;
  while (order.size() < levels) {
    int best = -1;
    int best_links = 0;
    for (std::uint8_t l = 0; l < levels; ++l) {
      if (assigned[l]) continue;
      int links = 0;
      for (std::uint8_t a = 0; a < levels; ++a) {
        if (assigned[a] && group.PositionsAdjacent(mo[l], mo[a])) ++links;
      }
      if (links > best_links || best < 0) {
        best = l;
        best_links = links;
      }
    }
    order.push_back(static_cast<std::uint8_t>(best));
    assigned[best] = true;
  }
  return order;
}

MatchingOrder WorstMatchingOrder(const std::vector<VGroupSequence>& groups,
                                 std::uint8_t length) {
  MatchingOrder order(length);
  std::iota(order.begin(), order.end(), 0);
  MatchingOrder worst = order;
  int worst_cost = CountCartesianProducts(groups, order);
  while (std::next_permutation(order.begin(), order.end())) {
    const int cost = CountCartesianProducts(groups, order);
    if (cost > worst_cost) {
      worst_cost = cost;
      worst = order;
    }
  }
  return worst;
}

/// The ivory slot table of `group` for the extension order `nonred_order`.
IvorySlotTable BuildIvorySlots(const RbiQueryGraph& rbi,
                               const std::vector<QueryVertex>& nonred_order,
                               const VGroupSequence& group) {
  IvorySlotTable table;
  for (const FullOrderSequence& qs : group.members) {
    std::vector<std::uint16_t>& slots = table.member_slots.emplace_back();
    for (QueryVertex u : nonred_order) {
      std::uint16_t positions = 0;
      for (std::uint8_t k = 0; k < qs.size(); ++k) {
        if (rbi.query.HasEdge(u, rbi.red[qs[k]])) positions |= 1u << k;
      }
      if (std::popcount(positions) < 2) {
        slots.push_back(kNoIvorySlot);
        continue;
      }
      const auto it = std::find(table.slot_positions.begin(),
                                table.slot_positions.end(), positions);
      slots.push_back(
          static_cast<std::uint16_t>(it - table.slot_positions.begin()));
      if (it == table.slot_positions.end()) {
        table.slot_positions.push_back(positions);
      }
    }
  }
  return table;
}

}  // namespace

StatusOr<QueryPlan> PreparePlan(const QueryGraph& q,
                                const PlanOptions& options) {
  if (q.NumVertices() == 0) {
    return Status::InvalidArgument("empty query graph");
  }
  if (!q.IsConnected()) {
    return Status::InvalidArgument("query graph must be connected");
  }

  WallTimer timer;
  QueryPlan plan;

  // Lines 1-2: partial orders by symmetry breaking, then the RBI graph.
  std::vector<PartialOrder> orders = FindPartialOrders(q);
  plan.rbi = GenerateRbiQueryGraph(q, std::move(orders), options.rbi);
  plan.internal_orders = plan.rbi.InternalOrders();

  // Line 3: full-order query sequences, grouped into v-group sequences.
  const std::vector<FullOrderSequence> sequences =
      EnumerateFullOrderSequences(plan.rbi.red_graph, plan.internal_orders);
  DS_CHECK(!sequences.empty());
  if (options.use_vgroups) {
    plan.groups = GroupSequencesByTopology(plan.rbi.red_graph, sequences);
  } else {
    // Ablation: one singleton group per sequence.
    for (const FullOrderSequence& qs : sequences) {
      std::vector<VGroupSequence> one =
          GroupSequencesByTopology(plan.rbi.red_graph, {qs});
      plan.groups.push_back(std::move(one.front()));
    }
  }

  // Line 4: global matching order.
  const std::uint8_t levels = plan.rbi.red_graph.NumVertices();
  plan.matching_order =
      options.best_matching_order
          ? FindGlobalMatchingOrder(plan.groups, levels)
          : WorstMatchingOrder(plan.groups, levels);

  // Line 5: v-group forests, plus the per-group level orders used by the
  // vertex-mapping recursion.
  for (const VGroupSequence& group : plan.groups) {
    plan.forests.push_back(BuildVGroupForest(group, plan.matching_order));
    plan.external_level_order.push_back(LevelOrderFrom(
        group, plan.matching_order, static_cast<std::uint8_t>(levels - 1)));
    plan.internal_level_order.push_back(
        LevelOrderFrom(group, plan.matching_order, 0));
  }

  // Non-red extension order: most red neighbors first (ivory vertices with
  // many intersections are most selective), ties by id.
  for (QueryVertex u = 0; u < q.NumVertices(); ++u) {
    if (!plan.rbi.IsRed(u)) plan.nonred_order.push_back(u);
  }
  std::stable_sort(plan.nonred_order.begin(), plan.nonred_order.end(),
                   [&](QueryVertex a, QueryVertex b) {
                     auto red_degree = [&](QueryVertex u) {
                       int count = 0;
                       for (QueryVertex r : plan.rbi.red) {
                         if (q.HasEdge(u, r)) ++count;
                       }
                       return count;
                     };
                     return red_degree(a) > red_degree(b);
                   });
  for (const VGroupSequence& group : plan.groups) {
    plan.ivory_slots.push_back(
        BuildIvorySlots(plan.rbi, plan.nonred_order, group));
  }

  plan.prepare_millis = timer.ElapsedMillis();
  return plan;
}

}  // namespace dualsim
