#include "core/extension.h"

#include <array>

#include "core/intersect.h"
#include "util/logging.h"

namespace dualsim {
namespace {

struct ExtensionState {
  const RbiQueryGraph* rbi;
  std::span<const QueryVertex> order;
  std::span<const std::uint16_t> slots;
  std::span<VertexId> mapping;
  std::span<const std::span<const VertexId>> red_adjacency;
  std::span<const LabelId> data_labels;
  IvoryLists* ivory;
  const FullEmbeddingFn* on_embedding;
  std::uint64_t count = 0;
};

bool AdmissibleNonRed(const ExtensionState& s, QueryVertex u, VertexId v) {
  // Label constraint of the non-red query vertex.
  const LabelId want = s.rbi->query.Label(u);
  if (want != kAnyLabel) {
    const LabelId have =
        s.data_labels.empty() ? LabelId{0} : s.data_labels[v];
    if (have != want) return false;
  }
  // Injectivity against everything mapped so far.
  for (QueryVertex w = 0; w < s.rbi->query.NumVertices(); ++w) {
    if (s.mapping[w] == v) return false;
  }
  // Partial orders whose other endpoint is already mapped.
  for (const PartialOrder& o : s.rbi->orders) {
    if (o.first == u && s.mapping[o.second] != kNoVertex &&
        !(v < s.mapping[o.second])) {
      return false;
    }
    if (o.second == u && s.mapping[o.first] != kNoVertex &&
        !(s.mapping[o.first] < v)) {
      return false;
    }
  }
  return true;
}

void Recurse(ExtensionState& s, std::size_t depth) {
  if (depth == s.order.size()) {
    ++s.count;
    if (s.on_embedding != nullptr && *s.on_embedding) {
      (*s.on_embedding)(s.mapping);
    }
    return;
  }
  const QueryVertex u = s.order[depth];

  // Candidates: a black vertex browses its single red neighbor's adjacency
  // list; an ivory vertex takes its slot's m-way intersection of its red
  // neighbors' lists, computed on first use in this red assignment.
  std::span<const VertexId> candidates;
  const std::uint16_t slot = s.slots[depth];
  if (slot == kNoIvorySlot) {
    for (QueryVertex r : s.rbi->red) {
      if (s.rbi->query.HasEdge(u, r)) {
        candidates = s.red_adjacency[r];
        break;
      }
    }
  } else {
    std::vector<VertexId>& list = s.ivory->list[slot];
    if (!s.ivory->computed[slot]) {
      std::array<std::span<const VertexId>, kMaxQueryVertices> lists;
      std::size_t num_lists = 0;
      for (QueryVertex r : s.rbi->red) {
        if (s.rbi->query.HasEdge(u, r)) {
          lists[num_lists++] = s.red_adjacency[r];
        }
      }
      DS_CHECK_GE(num_lists, 2u);
      IntersectMany({lists.data(), num_lists}, &list);
      s.ivory->computed[slot] = 1;
    }
    candidates = list;
  }
  for (VertexId v : candidates) {
    if (!AdmissibleNonRed(s, u, v)) continue;
    s.mapping[u] = v;
    Recurse(s, depth + 1);
    s.mapping[u] = kNoVertex;
  }
}

}  // namespace

std::uint64_t ExtendNonRed(
    const RbiQueryGraph& rbi, std::span<const QueryVertex> nonred_order,
    std::span<const std::uint16_t> slots, std::span<VertexId> mapping,
    std::span<const std::span<const VertexId>> red_adjacency,
    std::span<const LabelId> data_labels, IvoryLists* ivory,
    const FullEmbeddingFn* on_embedding) {
  DS_CHECK_EQ(slots.size(), nonred_order.size());
  ExtensionState s{&rbi,          nonred_order, slots, mapping,
                   red_adjacency, data_labels,  ivory, on_embedding};
  Recurse(s, 0);
  return s.count;
}

}  // namespace dualsim
