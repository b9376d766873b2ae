#include "core/intersect.h"

#include <algorithm>
#include <atomic>
#include <string>

#include "obs/metrics.h"
#include "util/logging.h"

namespace dualsim {

namespace intersect_internal {

std::size_t ScalarKernel(const VertexId* a, std::size_t na, const VertexId* b,
                         std::size_t nb, VertexId* out) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t n = 0;
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

std::size_t GallopKernel(const VertexId* a, std::size_t na, const VertexId* b,
                         std::size_t nb, VertexId* out) {
  // The smaller list drives; the cursor into the larger one only moves
  // forward, so the whole pass is O(na log(nb/na)).
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  std::size_t n = 0;
  std::size_t j = 0;
  for (std::size_t i = 0; i < na && j < nb; ++i) {
    const VertexId v = a[i];
    if (b[j] < v) {
      // Gallop: double the step until b[j + step] >= v, then binary
      // search inside the bracketed window.
      std::size_t step = 1;
      while (j + step < nb && b[j + step] < v) step <<= 1;
      // First element >= v lies in (j, j + step]; binary search it.
      std::size_t lo = j + 1;
      std::size_t hi = std::min(j + step + 1, nb);
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (b[mid] < v) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      j = lo;
      if (j >= nb) break;
    }
    if (b[j] == v) {
      out[n++] = v;
      ++j;
    }
  }
  return n;
}

IntersectKernel ChooseKernel(std::span<const VertexId> a,
                             std::span<const VertexId> b, bool avx2) {
  const std::size_t smaller = std::min(a.size(), b.size());
  const std::size_t larger = std::max(a.size(), b.size());
  if (smaller == 0) return IntersectKernel::kScalar;
  // Heavy size skew: galloping's O(n log(m/n)) beats any linear pass.
  if (larger >= smaller * kGallopRatio) return IntersectKernel::kGalloping;
  // Comparable sizes: block-compare when the CPU has it and the smaller
  // list fills at least one 8-lane block.
  if (avx2 && smaller >= kSimdMinSize) return IntersectKernel::kAvx2;
  return IntersectKernel::kScalar;
}

namespace {

/// The kernel ScopedKernelForTesting forces, or -1 for the dispatcher.
std::atomic<int> g_forced_kernel{-1};

}  // namespace

ScopedKernelForTesting::ScopedKernelForTesting(IntersectKernel kernel) {
  DS_CHECK(kernel != IntersectKernel::kAvx2 || Avx2Available());
  g_forced_kernel.store(static_cast<int>(kernel), std::memory_order_relaxed);
}

ScopedKernelForTesting::~ScopedKernelForTesting() {
  g_forced_kernel.store(-1, std::memory_order_relaxed);
}

}  // namespace intersect_internal

const char* IntersectKernelName(IntersectKernel kernel) {
  switch (kernel) {
    case IntersectKernel::kScalar:
      return "scalar";
    case IntersectKernel::kGalloping:
      return "galloping";
    case IntersectKernel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool Avx2Available() {
  static const bool available = intersect_internal::Avx2CompiledIn() &&
                                intersect_internal::Avx2CpuSupported();
  return available;
}

namespace {

using intersect_internal::kOutSlack;

struct IntersectMetrics {
  obs::Counter* calls;
  obs::Counter* many_calls;
  obs::Counter* kernel_calls[3];  // indexed by IntersectKernel
  obs::Histogram* smaller_size;
  obs::Histogram* larger_size;
  obs::Histogram* selectivity_pct;
  obs::Histogram* many_lists;
};

IntersectMetrics& IMetrics() {
  static IntersectMetrics m = [] {
    IntersectMetrics r;
    r.calls = obs::Metrics().GetCounter("intersect.calls");
    r.many_calls = obs::Metrics().GetCounter("intersect.many_calls");
    for (IntersectKernel k : {IntersectKernel::kScalar,
                              IntersectKernel::kGalloping,
                              IntersectKernel::kAvx2}) {
      r.kernel_calls[static_cast<int>(k)] = obs::Metrics().GetCounter(
          std::string("intersect.") + IntersectKernelName(k) + ".calls");
    }
    r.smaller_size = obs::Metrics().GetHistogram("intersect.smaller_size");
    r.larger_size = obs::Metrics().GetHistogram("intersect.larger_size");
    r.selectivity_pct =
        obs::Metrics().GetHistogram("intersect.selectivity_pct");
    r.many_lists = obs::Metrics().GetHistogram("intersect.many_lists");
    // Kept for snapshot readers that record the kernel policy; the
    // per-call dispatcher is the only policy.
    obs::Metrics().SetLabel("intersect.kernel", "auto");
    return r;
  }();
  return m;
}

std::size_t RunKernel(IntersectKernel kernel, std::span<const VertexId> a,
                      std::span<const VertexId> b, VertexId* out) {
  switch (kernel) {
    case IntersectKernel::kScalar:
      return intersect_internal::ScalarKernel(a.data(), a.size(), b.data(),
                                              b.size(), out);
    case IntersectKernel::kGalloping:
      return intersect_internal::GallopKernel(a.data(), a.size(), b.data(),
                                              b.size(), out);
    case IntersectKernel::kAvx2:
      return intersect_internal::Avx2Kernel(a.data(), a.size(), b.data(),
                                            b.size(), out);
  }
  DS_CHECK(false) << "unknown intersect kernel";
  return 0;
}

}  // namespace

/// Dispatch (unless a test forces a kernel), run into a thread-local
/// scratch (the AVX2 kernel stores whole 8-lane blocks, so the scratch
/// carries kOutSlack spare lanes), then copy the exact result into `out`.
/// Copy-from-scratch also makes aliasing safe: `out` may own the memory
/// `a` or `b` views.
void Intersect2(std::span<const VertexId> a, std::span<const VertexId> b,
                std::vector<VertexId>* out) {
  IntersectMetrics& m = IMetrics();
  m.calls->Increment();
  const std::size_t smaller = std::min(a.size(), b.size());
  m.smaller_size->Record(smaller);
  m.larger_size->Record(std::max(a.size(), b.size()));
  out->clear();
  const int forced =
      intersect_internal::g_forced_kernel.load(std::memory_order_relaxed);
  const IntersectKernel kernel =
      forced < 0 ? intersect_internal::ChooseKernel(a, b, Avx2Available())
                 : static_cast<IntersectKernel>(forced);
  DS_CHECK(kernel != IntersectKernel::kAvx2 || Avx2Available());
  // Record the kernel before the empty shortcut so the per-kernel counters
  // always sum to intersect.calls (ChooseKernel resolves empty to scalar).
  m.kernel_calls[static_cast<int>(kernel)]->Increment();
  if (smaller == 0) {
    m.selectivity_pct->Record(0);
    return;
  }

  thread_local std::vector<VertexId> scratch;
  if (scratch.size() < smaller + kOutSlack) scratch.resize(smaller + kOutSlack);
  const std::size_t n = RunKernel(kernel, a, b, scratch.data());
  m.selectivity_pct->Record(100 * n / smaller);
  out->reserve(smaller);
  out->assign(scratch.data(), scratch.data() + n);
}

void IntersectMany(std::span<const std::span<const VertexId>> lists,
                   std::vector<VertexId>* out) {
  out->clear();
  if (lists.empty()) return;
  IntersectMetrics& m = IMetrics();
  m.many_calls->Increment();
  m.many_lists->Record(lists.size());
  if (lists.size() == 1) {
    out->assign(lists[0].begin(), lists[0].end());
    return;
  }
  // Order indices smallest-first: the running result can only shrink, so
  // every later pairwise step sees maximal skew for the galloping kernel,
  // and the single up-front reservation from the smallest list bounds the
  // result for good.
  thread_local std::vector<std::uint32_t> order;
  order.resize(lists.size());
  for (std::uint32_t i = 0; i < lists.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&lists](std::uint32_t x,
                                                 std::uint32_t y) {
    return lists[x].size() < lists[y].size();
  });
  // No early-out when the smallest list is empty: the pairwise path below
  // terminates immediately anyway, and funneling through Intersect2
  // keeps intersect.calls == sum(intersect.<kernel>.calls).
  out->reserve(lists[order[0]].size());
  if (lists.size() == 2) {
    Intersect2(lists[order[0]], lists[order[1]], out);
    return;
  }
  thread_local std::vector<VertexId> tmp;
  thread_local std::vector<VertexId> next;
  Intersect2(lists[order[0]], lists[order[1]], &tmp);
  for (std::size_t i = 2; i < lists.size() && !tmp.empty(); ++i) {
    Intersect2(tmp, lists[order[i]], &next);
    std::swap(tmp, next);
  }
  out->assign(tmp.begin(), tmp.end());
}

}  // namespace dualsim
