#ifndef DUALSIM_CORE_INTERSECT_H_
#define DUALSIM_CORE_INTERSECT_H_

#include <cstddef>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace dualsim {

/// The 2-way sorted-set intersection kernels behind the ivory-vertex
/// operation. Intersection dominates shared-memory enumeration time
/// (Kimmig et al., PAPERS.md), so every call picks the kernel that suits
/// its inputs (DESIGN.md §11); nothing else selects a kernel.
///
///  - kScalar    — branchy two-pointer merge: the oracle every other
///    kernel is differentially tested against, and the portable floor.
///    O(n + m).
///  - kGalloping — the smaller list drives; membership in the larger one
///    is found by exponential (galloping) search from a moving cursor.
///    O(n log(m/n)); wins when the size ratio is heavily skewed, the
///    common case for degree-ordered adjacency lists.
///  - kAvx2      — AVX2 block-compare: 8x32-bit blocks of both lists are
///    compared all-against-all with lane rotations, matches compacted
///    with a shuffle table. Compiled on x86-64, run only when the CPU
///    reports AVX2; wins on comparable-size lists.
enum class IntersectKernel { kScalar, kGalloping, kAvx2 };

const char* IntersectKernelName(IntersectKernel kernel);

/// True when the AVX2 kernel is compiled in (x86-64 builds) and the
/// running CPU reports AVX2. Probed once per process.
bool Avx2Available();

/// Intersects two sorted duplicate-free vertex lists into `out` (cleared
/// first, reserved to the smaller input size). The kernel is chosen per
/// call by intersect_internal::ChooseKernel.
void Intersect2(std::span<const VertexId> a, std::span<const VertexId> b,
                std::vector<VertexId>* out);

/// m-way intersection of sorted vertex lists (the paper's ivory-vertex
/// operation). Lists are intersected pairwise smallest-first, so the
/// running result shrinks monotonically and the skew-adaptive 2-way
/// kernels do the work. `out` is cleared first and reserved from the
/// smallest input size (never reallocated past it). With a single input
/// the result is a copy (the black-vertex "scan").
void IntersectMany(std::span<const std::span<const VertexId>> lists,
                   std::vector<VertexId>* out);

namespace intersect_internal {

/// Raw kernel entry points for the differential harness and the micro
/// benches. Preconditions shared by all of them: `a` and `b` are sorted
/// strictly ascending (DiskGraph::VerifyAdjacency checks the on-disk
/// lists), and `out` has capacity for min(na, nb) + kOutSlack elements —
/// the AVX2 kernel stores whole 8-lane blocks, so it may scribble up to
/// kOutSlack lanes past the returned count. Each returns the number of
/// elements written.
inline constexpr std::size_t kOutSlack = 8;

std::size_t ScalarKernel(const VertexId* a, std::size_t na, const VertexId* b,
                         std::size_t nb, VertexId* out);
std::size_t GallopKernel(const VertexId* a, std::size_t na, const VertexId* b,
                         std::size_t nb, VertexId* out);
/// Defined by the AVX2 TU; DS_CHECK-fails when !Avx2CompiledIn().
std::size_t Avx2Kernel(const VertexId* a, std::size_t na, const VertexId* b,
                       std::size_t nb, VertexId* out);

/// The build and CPU legs of Avx2Available().
bool Avx2CompiledIn();
bool Avx2CpuSupported();

/// The kernel Intersect2 runs for one (a, b) pair when the AVX2 kernel
/// is usable (`avx2`) or not. A pure function of its inputs, so the
/// threshold tests pin both ladders on any machine.
IntersectKernel ChooseKernel(std::span<const VertexId> a,
                             std::span<const VertexId> b, bool avx2);

/// Dispatch thresholds (documented in DESIGN.md §11). Exposed for the
/// threshold tests; change DESIGN.md when changing these.
inline constexpr std::size_t kGallopRatio = 32;
inline constexpr std::size_t kSimdMinSize = 8;

/// Test-only: while alive, every Intersect2 / IntersectMany in the
/// process runs `kernel` instead of the dispatcher's choice, so the
/// differential tests and the engine-level suites can run on each kernel.
/// Forcing kAvx2 when Avx2Available() is false aborts. Not nestable and
/// not for concurrent tests; the destructor restores the dispatcher.
class ScopedKernelForTesting {
 public:
  explicit ScopedKernelForTesting(IntersectKernel kernel);
  ~ScopedKernelForTesting();
  ScopedKernelForTesting(const ScopedKernelForTesting&) = delete;
  ScopedKernelForTesting& operator=(const ScopedKernelForTesting&) = delete;
};

}  // namespace intersect_internal

}  // namespace dualsim

#endif  // DUALSIM_CORE_INTERSECT_H_
