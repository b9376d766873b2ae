#include "core/enumerator.h"

#include <algorithm>
#include <array>
#include <limits>
#include <vector>

#include "core/intersect.h"
#include "util/logging.h"

namespace dualsim {
namespace {

class Matcher {
 public:
  Matcher(const GroupMatchInput& in, RedEmitter& emitter)
      : in_(in),
        emitter_(emitter),
        levels_(static_cast<std::uint8_t>(in.matching_order->size())) {
    scratch_.resize(levels_);
  }

  void Run() { Recurse(0); }

 private:
  /// True when `v` can be placed at level `l` given the `depth` levels
  /// assigned so far (order constraints + cvs filter).
  bool Admissible(std::uint8_t l, VertexId v, std::size_t depth) const {
    const LevelDomain& dom = in_.domains[l];
    if (dom.label != kAnyLabel) {
      const LabelId data_label =
          in_.data_labels.empty() ? LabelId{0} : in_.data_labels[v];
      if (data_label != dom.label) return false;
    }
    if (dom.candidates != nullptr &&
        (v >= dom.candidates->size() || !dom.candidates->Test(v))) {
      return false;
    }
    const std::uint8_t pos_l = (*in_.matching_order)[l];
    for (std::size_t d = 0; d < depth; ++d) {
      const std::uint8_t a = in_.level_order[d];
      const std::uint8_t pos_a = (*in_.matching_order)[a];
      // Positions map to strictly ≺-increasing data vertices (Property 1);
      // with the database in ≺ order this is a plain id comparison.
      if (pos_a < pos_l) {
        if (!(vertex_[a] < v)) return false;
      } else {
        if (!(v < vertex_[a])) return false;
      }
    }
    return true;
  }

  void TryAssign(std::uint8_t l, std::size_t depth, VertexId v,
                 std::span<const VertexId> adjacency) {
    vertex_[l] = v;
    adj_[l] = adjacency;
    Recurse(depth + 1);
  }

  void Recurse(std::size_t depth) {
    if (depth == levels_) {
      EmitCurrent();
      return;
    }
    const std::uint8_t l = in_.level_order[depth];
    const std::uint8_t pos_l = (*in_.matching_order)[l];

    // Collect adjacency lists of assigned levels positionally adjacent to
    // this one (U_CON in Algorithm 5).
    std::array<std::span<const VertexId>, kMaxQueryVertices> connected;
    std::size_t num_connected = 0;
    for (std::size_t d = 0; d < depth; ++d) {
      const std::uint8_t a = in_.level_order[d];
      if (in_.group->PositionsAdjacent(pos_l, (*in_.matching_order)[a])) {
        connected[num_connected++] = adj_[a];
      }
    }

    const std::vector<WindowIndex::Entry>& window =
        in_.domains[l].index->entries();
    if (num_connected == 0) {
      // Root-like level: scan the window (or the provided seeds at depth 0).
      std::span<const WindowIndex::Entry> scan = window;
      if (depth == 0 && !in_.seeds.empty()) scan = in_.seeds;
      for (const WindowIndex::Entry& e : scan) {
        if (Admissible(l, e.vertex, depth)) {
          TryAssign(l, depth, e.vertex, e.adjacency);
        }
      }
      return;
    }

    // Connected level: candidates = intersection of the assigned adjacent
    // levels' adjacency lists, filtered to this level's window. Only ids in
    // [lo, hi] can pass: the window's first and last resident vertex,
    // tightened by Property 1 against every assigned level (above earlier
    // positions, below later ones). Trimming each list to that interval
    // first keeps the intersection inside the window, as Algorithm 5 does.
    if (window.empty()) return;
    VertexId lo = window.front().vertex;
    VertexId hi = window.back().vertex;
    for (std::size_t d = 0; d < depth; ++d) {
      const std::uint8_t a = in_.level_order[d];
      const VertexId va = vertex_[a];
      // The ±1 cannot wrap: nothing lies above the largest id or below 0.
      if ((*in_.matching_order)[a] < pos_l) {
        if (va == std::numeric_limits<VertexId>::max()) return;
        lo = std::max(lo, va + 1);
      } else {
        if (va == 0) return;
        hi = std::min(hi, va - 1);
      }
    }
    if (lo > hi) return;
    for (std::size_t i = 0; i < num_connected; ++i) {
      const std::span<const VertexId> list = connected[i];
      const auto first = std::lower_bound(list.begin(), list.end(), lo);
      const auto last = std::upper_bound(first, list.end(), hi);
      if (first == last) return;
      connected[i] = {first, last};
    }
    std::span<const VertexId> candidates = connected[0];
    if (num_connected > 1) {
      IntersectMany({connected.data(), num_connected}, &scratch_[depth]);
      candidates = scratch_[depth];
    }
    for (VertexId v : candidates) {
      if (!Admissible(l, v, depth)) continue;
      bool resident = false;
      const std::span<const VertexId> adjacency =
          in_.domains[l].index->Find(v, &resident);
      if (!resident) continue;  // not in this level's current window
      TryAssign(l, depth, v, adjacency);
    }
  }

  void EmitCurrent() {
    if (in_.skip_if_all_pages_in != nullptr) {
      bool all_inside = true;
      for (std::uint8_t l = 0; l < levels_; ++l) {
        const PageId p = in_.first_page[vertex_[l]];
        if (p >= in_.skip_if_all_pages_in->size() ||
            !in_.skip_if_all_pages_in->Test(p)) {
          all_inside = false;
          break;
        }
      }
      if (all_inside) return;  // internal subgraph; counted by internal pass
    }
    std::array<VertexId, kMaxQueryVertices> by_position;
    std::array<std::span<const VertexId>, kMaxQueryVertices> adj_by_position;
    for (std::uint8_t l = 0; l < levels_; ++l) {
      const std::uint8_t pos = (*in_.matching_order)[l];
      by_position[pos] = vertex_[l];
      adj_by_position[pos] = adj_[l];
    }
    emitter_.Emit({by_position.data(), levels_},
                  {adj_by_position.data(), levels_});
  }

  const GroupMatchInput& in_;
  RedEmitter& emitter_;
  const std::uint8_t levels_;
  std::array<VertexId, kMaxQueryVertices> vertex_{};
  std::array<std::span<const VertexId>, kMaxQueryVertices> adj_{};
  std::vector<std::vector<VertexId>> scratch_;
};

}  // namespace

void MatchGroup(const GroupMatchInput& input, RedEmitter& emitter) {
  DS_CHECK(input.group != nullptr);
  DS_CHECK(input.matching_order != nullptr);
  DS_CHECK_EQ(input.domains.size(), input.matching_order->size());
  DS_CHECK_EQ(input.level_order.size(), input.matching_order->size());
  Matcher(input, emitter).Run();
}

}  // namespace dualsim
