/// AVX2 leg of the intersection kernel family. This is the only TU built
/// with -mavx2 (CMake sets it on x86-64 targets), so the rest of the
/// engine stays portable; Avx2Kernel is only reachable after the runtime
/// CPU probe (Avx2Available) says yes, so a binary never executes an AVX2
/// instruction on a CPU without it. Other targets compile the stub below.

#include "core/intersect.h"
#include "util/logging.h"

#ifdef __AVX2__
#include <immintrin.h>
#endif

namespace dualsim {
namespace intersect_internal {

bool Avx2CpuSupported() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

#ifdef __AVX2__

bool Avx2CompiledIn() { return true; }

namespace {

/// For each 8-bit match mask, the lane indices of the set bits packed to
/// the front — feeds _mm256_permutevar8x32_epi32 to compact matching
/// lanes without AVX-512 compress.
struct ShuffleTable {
  alignas(32) std::uint32_t idx[256][8];
  ShuffleTable() {
    for (int mask = 0; mask < 256; ++mask) {
      int k = 0;
      for (int lane = 0; lane < 8; ++lane) {
        if (mask & (1 << lane)) idx[mask][k++] = static_cast<std::uint32_t>(lane);
      }
      for (; k < 8; ++k) idx[mask][k] = 0;
    }
  }
};
const ShuffleTable kShuffle;

}  // namespace

std::size_t Avx2Kernel(const VertexId* a, std::size_t na, const VertexId* b,
                       std::size_t nb, VertexId* out) {
  static_assert(sizeof(VertexId) == 4, "block compare assumes 32-bit ids");
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t n = 0;
  const __m256i rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const VertexId a_max = a[i + 7];
    const VertexId b_max = b[j + 7];
    // Compare va against vb and its 7 lane rotations: every element of
    // the a-block meets every element of the b-block exactly once, so
    // the OR of the eight equality masks marks the a-lanes present in b.
    __m256i rotated = vb;
    __m256i match = _mm256_cmpeq_epi32(va, rotated);
    for (int r = 1; r < 8; ++r) {
      rotated = _mm256_permutevar8x32_epi32(rotated, rot1);
      match = _mm256_or_si256(match, _mm256_cmpeq_epi32(va, rotated));
    }
    const int mask = _mm256_movemask_ps(_mm256_castsi256_ps(match));
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kShuffle.idx[mask]));
    // Store the whole compacted block; the junk lanes past popcount(mask)
    // land in the caller's kOutSlack spare and are overwritten or ignored.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + n),
                        _mm256_permutevar8x32_epi32(va, perm));
    n += static_cast<std::size_t>(__builtin_popcount(
        static_cast<unsigned>(mask)));
    // Advance the block(s) whose max was not larger: everything left
    // behind is smaller than every remaining element of the other list.
    if (a_max <= b_max) i += 8;
    if (b_max <= a_max) j += 8;
  }
  // Scalar merge over the tails (fewer than 8 elements on a side).
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out[n++] = a[i];
      ++i;
      ++j;
    }
  }
  return n;
}

#else  // !__AVX2__

bool Avx2CompiledIn() { return false; }

std::size_t Avx2Kernel(const VertexId*, std::size_t, const VertexId*,
                       std::size_t, VertexId*) {
  DS_CHECK(false) << "AVX2 intersect kernel not compiled in";
  return 0;
}

#endif  // __AVX2__

}  // namespace intersect_internal
}  // namespace dualsim
