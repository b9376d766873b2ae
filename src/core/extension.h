#ifndef DUALSIM_CORE_EXTENSION_H_
#define DUALSIM_CORE_EXTENSION_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "query/rbi.h"

namespace dualsim {

/// Sentinel for unmapped query vertices in extension state.
inline constexpr VertexId kNoVertex = 0xFFFFFFFFu;

/// Called for each complete embedding; `mapping` is indexed by query
/// vertex of the original query graph.
using FullEmbeddingFn =
    std::function<void(std::span<const VertexId> mapping)>;

/// Called from the window scheduler as enumeration windows retire, with
/// the monotonically non-decreasing count of embeddings found so far.
/// Invoked serially from the scheduling thread (never concurrently).
using ProgressFn = std::function<void(std::uint64_t embeddings)>;

/// Slot id of a black non-red vertex (one red neighbour): it scans that
/// neighbour's adjacency list and needs no intersection.
inline constexpr std::uint16_t kNoIvorySlot = 0xFFFF;

/// Ivory candidate lists of the current red assignment, one per slot of
/// the group's IvorySlotTable. ExtendNonRed fills a slot on first use and
/// reuses it afterwards; the owner calls Reset() whenever the red
/// assignment changes. List capacity survives Reset(), so a warm owner
/// allocates nothing per red assignment.
struct IvoryLists {
  std::vector<std::vector<VertexId>> list;
  std::vector<std::uint8_t> computed;

  void Reset(std::size_t num_slots) {
    if (list.size() < num_slots) list.resize(num_slots);
    computed.assign(num_slots, 0);
  }
};

/// NonRedVertexMatching (Algorithm 5, line 13): extends a complete red
/// mapping to the black and ivory vertices. Candidates for an ivory vertex
/// are the m-way intersection of its red neighbors' adjacency lists; a
/// black vertex scans its single red neighbor's list (§3). Injectivity and
/// the partial orders involving non-red vertices are enforced here.
///
/// `slots[i]` is the ivory slot of `nonred_order[i]` (kNoIvorySlot for a
/// black vertex; IvorySlotTable::member_slots gives one row per member).
/// Ivory lists are read from, or computed into, `ivory`, which must hold
/// only lists of the current red assignment.
///
/// `mapping` must have the red vertices filled (and non-red = kNoVertex);
/// `red_adjacency` holds adj(m(r)) for each red query vertex r, straight
/// from the pinned pages. `data_labels` is the per-vertex label map of the
/// data graph (empty = unlabeled, every vertex label 0); non-red query
/// vertices with a concrete label constraint only accept matching data
/// vertices. Returns the number of full embeddings found; invokes
/// `on_embedding` per embedding when non-null. `mapping` is restored on
/// return.
std::uint64_t ExtendNonRed(
    const RbiQueryGraph& rbi, std::span<const QueryVertex> nonred_order,
    std::span<const std::uint16_t> slots, std::span<VertexId> mapping,
    std::span<const std::span<const VertexId>> red_adjacency,
    std::span<const LabelId> data_labels, IvoryLists* ivory,
    const FullEmbeddingFn* on_embedding);

}  // namespace dualsim

#endif  // DUALSIM_CORE_EXTENSION_H_
