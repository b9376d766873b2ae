#ifndef DUALSIM_CORE_INTERSECT_H_
#define DUALSIM_CORE_INTERSECT_H_

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace dualsim {

/// Which 2-way sorted-set intersection kernel drives the ivory-vertex
/// operation. Intersection dominates shared-memory enumeration time
/// (Kimmig et al., PAPERS.md), so the engine carries a tiered family
/// behind a size-ratio-adaptive dispatcher:
///
///  - kScalar    — branchy two-pointer merge: the oracle every other
///    kernel is differentially tested against, and the fallback floor of
///    the ladder. O(n + m).
///  - kGalloping — the smaller list drives; membership in the larger one
///    is found by exponential (galloping) search from a moving cursor.
///    O(n log(m/n)); wins when the size ratio is heavily skewed, the
///    common case for degree-ordered adjacency lists.
///  - kAvx2      — AVX2 block-compare: 8x32-bit blocks of both lists are
///    compared all-against-all with lane rotations, matches compacted
///    with a shuffle table. Needs DUALSIM_WITH_AVX2 at build time and
///    AVX2 on the running CPU; wins on comparable-size lists.
///  - kBitmap    — bitmap-block for dense ranges: the overlap window of
///    one list is splatted into a thread-local bitmap and the other list
///    probes it. Branch-free; wins when both lists are dense in a small
///    value range and AVX2 is unavailable.
///  - kAuto      — per-call dispatch over the above by size ratio, CPU
///    features, and range density (see DESIGN.md §11 for thresholds).
enum class IntersectKernel { kAuto, kScalar, kGalloping, kAvx2, kBitmap };

/// "auto" | "scalar" | "galloping" | "avx2" | "bitmap" (case-sensitive,
/// as accepted by --intersect-kernel and DUALSIM_FORCE_INTERSECT_KERNEL).
StatusOr<IntersectKernel> ParseIntersectKernel(std::string_view name);
const char* IntersectKernelName(IntersectKernel kernel);

/// True when the AVX2 kernel is compiled in (DUALSIM_WITH_AVX2), the
/// running CPU reports AVX2, and DUALSIM_FAKE_NO_AVX2 is not set. The
/// fake-off env var exists so CI can exercise the portable ladder on
/// AVX2-capable runners.
bool Avx2Available();

/// Human-readable reason why Avx2Available() is false ("" when true).
std::string Avx2UnavailableReason();

/// The process default when no kernel was configured explicitly: the
/// DUALSIM_FORCE_INTERSECT_KERNEL env var when set (an unknown name or a
/// forced-but-unavailable kernel is an error so a typo'd CI lane fails
/// loudly instead of silently testing the wrong kernel), else kAuto.
StatusOr<IntersectKernel> DefaultIntersectKernel();

/// Configures the process-wide kernel used by Intersect2/IntersectMany
/// (the --intersect-kernel flag lands here). Fails with Unimplemented
/// when an explicitly requested kernel is unavailable on this build +
/// CPU; callers wanting the soft fallback ladder say kAuto. Also sets
/// the "intersect.kernel" metrics label.
Status SetIntersectKernel(IntersectKernel kernel);

/// The currently configured kernel (env-resolved lazily on first use).
IntersectKernel ConfiguredIntersectKernel();

/// Intersects two sorted duplicate-free vertex lists into `out` (cleared
/// first, reserved to the smaller input size). Uses the configured
/// kernel; kAuto dispatches per call.
void Intersect2(std::span<const VertexId> a, std::span<const VertexId> b,
                std::vector<VertexId>* out);

/// Intersect2 with an explicit kernel (tests, benches). A concrete
/// kernel must be available — forcing kAvx2 when Avx2Available() is
/// false is a programming error and aborts.
void Intersect2With(IntersectKernel kernel, std::span<const VertexId> a,
                    std::span<const VertexId> b, std::vector<VertexId>* out);

/// m-way intersection of sorted vertex lists (the paper's ivory-vertex
/// operation). Lists are intersected pairwise smallest-first, so the
/// running result shrinks monotonically and the skew-adaptive 2-way
/// kernels do the work. `out` is cleared first and reserved from the
/// smallest input size (never reallocated past it). With a single input
/// the result is a copy (the black-vertex "scan").
void IntersectMany(std::span<const std::span<const VertexId>> lists,
                   std::vector<VertexId>* out);

/// IntersectMany with an explicit kernel (tests, benches).
void IntersectManyWith(IntersectKernel kernel,
                       std::span<const std::span<const VertexId>> lists,
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
std::size_t BitmapKernel(const VertexId* a, std::size_t na, const VertexId* b,
                         std::size_t nb, VertexId* out);
/// Defined by the AVX2 TU; DS_CHECK-fails when !Avx2CompiledIn().
std::size_t Avx2Kernel(const VertexId* a, std::size_t na, const VertexId* b,
                       std::size_t nb, VertexId* out);

/// Build-time / CPU legs of the availability ladder, separately visible
/// so tests can tell "not compiled in" from "CPU lacks AVX2" from
/// "faked off".
bool Avx2CompiledIn();
bool Avx2CpuSupported();

/// Dispatcher decision for one (a, b) pair — the concrete kernel kAuto
/// would run. Exposed so the threshold tests can pin the policy.
IntersectKernel ChooseKernel(std::span<const VertexId> a,
                             std::span<const VertexId> b);

/// Dispatch thresholds (documented in DESIGN.md §11). Exposed for the
/// threshold tests; change DESIGN.md when changing these.
inline constexpr std::size_t kGallopRatio = 32;
inline constexpr std::size_t kBitmapMaxSpan = std::size_t{1} << 22;
inline constexpr std::size_t kBitmapDensityFactor = 2;
inline constexpr std::size_t kSimdMinSize = 8;

/// Drops the cached env resolution (DUALSIM_FORCE_INTERSECT_KERNEL,
/// DUALSIM_FAKE_NO_AVX2) and the configured kernel, so tests can setenv
/// and re-resolve. Not thread-safe; tests only.
void ResetConfigForTesting();

}  // namespace intersect_internal

}  // namespace dualsim

#endif  // DUALSIM_CORE_INTERSECT_H_
