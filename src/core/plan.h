#ifndef DUALSIM_CORE_PLAN_H_
#define DUALSIM_CORE_PLAN_H_

#include <cstdint>
#include <vector>

#include "core/extension.h"
#include "core/sequences.h"
#include "core/vgroup_forest.h"
#include "query/rbi.h"
#include "util/status.h"

namespace dualsim {

/// Plan-time sharing table for ivory candidate lists within one v-group.
/// An ivory vertex's candidates are the intersection of the adjacency
/// lists at the *positions* its red neighbours take under a member
/// sequence. Inside one red assignment distinct positions hold distinct
/// data vertices, so equal position sets give equal lists: each distinct
/// set is one slot, computed at most once per red assignment and shared by
/// every member and every deeper candidate (DESIGN.md §11).
struct IvorySlotTable {
  /// slot_positions[s] = position set of slot s (bit k = position k).
  std::vector<std::uint16_t> slot_positions;
  /// member_slots[m][i] = slot of nonred_order[i] under member m of the
  /// group, or kNoIvorySlot for a black vertex.
  std::vector<std::vector<std::uint16_t>> member_slots;

  std::size_t NumSlots() const { return slot_positions.size(); }
};

/// Knobs for the preparation step; the non-default settings exist for the
/// ablation benchmarks (DESIGN.md §6).
struct PlanOptions {
  RbiOptions rbi;
  /// Group full-order sequences into v-groups (paper default). When false,
  /// every sequence is matched separately (ablation).
  bool use_vgroups = true;
  /// Pick the matching order minimizing Cartesian products (paper default).
  /// When false, pick the one maximizing them (ablation).
  bool best_matching_order = true;
};

/// Output of the preparation step (Algorithm 1 lines 1-5). Everything here
/// is independent of the data graph.
struct QueryPlan {
  RbiQueryGraph rbi;
  /// Internal partial orders, re-indexed to red-graph-local vertices.
  std::vector<PartialOrder> internal_orders;
  std::vector<VGroupSequence> groups;
  /// matching_order[level] = position handled at that level.
  MatchingOrder matching_order;
  std::vector<VGroupForest> forests;  // parallel to `groups`
  /// Per group: order in which levels are assigned during *external* vertex
  /// mapping (qo_i in Algorithm 4/5): the last level first, then greedily a
  /// level adjacent to an assigned one (deepest first), falling back to any
  /// unassigned level.
  std::vector<std::vector<std::uint8_t>> external_level_order;
  /// Level-assignment order for *internal* enumeration: starts at level 0.
  std::vector<std::vector<std::uint8_t>> internal_level_order;
  /// Non-red query vertices in extension order (most red neighbors first).
  std::vector<QueryVertex> nonred_order;
  std::vector<IvorySlotTable> ivory_slots;  // parallel to `groups`
  /// Elapsed preparation time (Table 6 reports this; paper: <= 1 msec).
  double prepare_millis = 0.0;

  std::uint8_t NumLevels() const {
    return static_cast<std::uint8_t>(matching_order.size());
  }
};

/// Runs the whole preparation step for `q`.
StatusOr<QueryPlan> PreparePlan(const QueryGraph& q,
                                const PlanOptions& options = {});

}  // namespace dualsim

#endif  // DUALSIM_CORE_PLAN_H_
