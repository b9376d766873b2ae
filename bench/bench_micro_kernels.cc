/// Micro-benchmarks (google-benchmark) of the engine's inner kernels:
/// sorted-list intersection (ivory matching), window-index lookups, page
/// record scans, bitmap candidate operations, and the obs metrics hot
/// path (counter increments and histogram records).

#include <benchmark/benchmark.h>

#include <vector>

#include "core/intersect.h"
#include "core/window_index.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "storage/page.h"
#include "util/bitmap.h"
#include "util/random.h"

namespace dualsim {
namespace {

std::vector<VertexId> SortedRandom(std::size_t n, std::uint64_t seed,
                                   std::uint32_t universe) {
  Random rng(seed);
  std::vector<VertexId> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<VertexId>(rng.Uniform(universe)));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Per-kernel intersection curves. These drive the raw kernel entry points
// (no dispatch, no metrics, no output copy) so the curves compare kernel
// algorithmics, not wrapper overhead. Three input classes:
//
//  - balanced: |a| == |b|, ~25% dense in the universe. The AVX2 block
//    kernel's home turf.
//  - skewed:   |small| fixed at 256, |large| = 256 * ratio. Galloping's
//    home turf; the documented >= 2x class is ratio >= 64, where galloping
//    beats the scalar merge by an order of magnitude.
//  - dense:    |a| == |b|, ~50% dense.
//
// Names are load-bearing: scripts/check_bench_regression.py compares them
// against bench/baselines/BENCH_micro_kernels.json, normalized by
// kBenchNormalizeBy to cancel machine-speed differences.
using KernelFn = std::size_t (*)(const VertexId*, std::size_t,
                                 const VertexId*, std::size_t, VertexId*);

void RunRawKernel(benchmark::State& state, KernelFn fn,
                  const std::vector<VertexId>& a,
                  const std::vector<VertexId>& b) {
  std::vector<VertexId> out(std::min(a.size(), b.size()) +
                            intersect_internal::kOutSlack);
  for (auto _ : state) {
    std::size_t n = fn(a.data(), a.size(), b.data(), b.size(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.size() + b.size()));
}

void BM_IntersectKernelBalanced(benchmark::State& state, KernelFn fn,
                                bool needs_avx2) {
  if (needs_avx2 && !Avx2Available()) {
    state.SkipWithError("avx2 unavailable");
    return;
  }
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto universe = static_cast<std::uint32_t>(n * 4);
  RunRawKernel(state, fn, SortedRandom(n, 1, universe),
               SortedRandom(n, 2, universe));
}

void BM_IntersectKernelSkewed(benchmark::State& state, KernelFn fn,
                              bool needs_avx2) {
  if (needs_avx2 && !Avx2Available()) {
    state.SkipWithError("avx2 unavailable");
    return;
  }
  const std::size_t small_n = 256;
  const auto ratio = static_cast<std::size_t>(state.range(0));
  const auto universe = static_cast<std::uint32_t>(small_n * ratio * 2);
  RunRawKernel(state, fn, SortedRandom(small_n, 2, universe),
               SortedRandom(small_n * ratio, 1, universe));
}

void BM_IntersectKernelDense(benchmark::State& state, KernelFn fn,
                             bool needs_avx2) {
  if (needs_avx2 && !Avx2Available()) {
    state.SkipWithError("avx2 unavailable");
    return;
  }
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto universe = static_cast<std::uint32_t>(n * 2);
  RunRawKernel(state, fn, SortedRandom(n, 1, universe),
               SortedRandom(n, 2, universe));
}

#define DUALSIM_KERNEL_BENCH(cls, lo, hi)                                   \
  BENCHMARK_CAPTURE(cls, scalar, intersect_internal::ScalarKernel, false)   \
      ->Range(lo, hi);                                                      \
  BENCHMARK_CAPTURE(cls, galloping, intersect_internal::GallopKernel,       \
                    false)                                                  \
      ->Range(lo, hi);                                                      \
  BENCHMARK_CAPTURE(cls, avx2, intersect_internal::Avx2Kernel, true)        \
      ->Range(lo, hi)

DUALSIM_KERNEL_BENCH(BM_IntersectKernelBalanced, 1 << 12, 1 << 16);
DUALSIM_KERNEL_BENCH(BM_IntersectKernelSkewed, 8, 512);
DUALSIM_KERNEL_BENCH(BM_IntersectKernelDense, 1 << 12, 1 << 16);

#undef DUALSIM_KERNEL_BENCH

// The adaptive dispatcher on the skewed class: its curve should track the
// per-ratio winner above, bounding the cost of dispatch itself.
void BM_IntersectKernelAutoSkewed(benchmark::State& state) {
  const std::size_t small_n = 256;
  const auto ratio = static_cast<std::size_t>(state.range(0));
  const auto universe = static_cast<std::uint32_t>(small_n * ratio * 2);
  auto a = SortedRandom(small_n, 2, universe);
  auto b = SortedRandom(small_n * ratio, 1, universe);
  std::vector<VertexId> out;
  for (auto _ : state) {
    Intersect2(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.size() + b.size()));
}
BENCHMARK(BM_IntersectKernelAutoSkewed)->Range(8, 512);

void BM_Intersect2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = SortedRandom(n, 1, static_cast<std::uint32_t>(n * 4));
  auto b = SortedRandom(n, 2, static_cast<std::uint32_t>(n * 4));
  std::vector<VertexId> out;
  for (auto _ : state) {
    Intersect2(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.size() + b.size()));
}
BENCHMARK(BM_Intersect2)->Range(64, 1 << 14);

void BM_IntersectManyThreeWay(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = SortedRandom(n, 1, static_cast<std::uint32_t>(n * 3));
  auto b = SortedRandom(n, 2, static_cast<std::uint32_t>(n * 3));
  auto c = SortedRandom(n / 4 + 1, 3, static_cast<std::uint32_t>(n * 3));
  std::vector<std::span<const VertexId>> lists = {a, b, c};
  std::vector<VertexId> out;
  for (auto _ : state) {
    IntersectMany(lists, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_IntersectManyThreeWay)->Range(64, 1 << 12);

void BM_WindowIndexFind(benchmark::State& state) {
  Graph g = RMat(10, 8000, 0.55, 0.15, 0.15, 5);
  // Pack one synthetic page worth of records into a buffer and index it.
  std::vector<std::byte> page(1 << 16);
  PageWriter writer(page.data(), page.size());
  VertexId v = 0;
  while (v < g.NumVertices() &&
         writer.Append(v, g.Degree(v), 0, g.Neighbors(v))) {
    ++v;
  }
  WindowIndex index;
  index.AddPage(page.data(), page.size());
  Random rng(9);
  for (auto _ : state) {
    bool found = false;
    auto span = index.Find(static_cast<VertexId>(rng.Uniform(v)), &found);
    benchmark::DoNotOptimize(span.data());
    benchmark::DoNotOptimize(found);
  }
}
BENCHMARK(BM_WindowIndexFind);

void BM_PageRecordScan(benchmark::State& state) {
  Graph g = ErdosRenyi(2000, 16000, 4);
  std::vector<std::byte> page(1 << 16);
  PageWriter writer(page.data(), page.size());
  VertexId v = 0;
  while (v < g.NumVertices() &&
         writer.Append(v, g.Degree(v), 0, g.Neighbors(v))) {
    ++v;
  }
  for (auto _ : state) {
    PageView view(page.data(), page.size());
    std::uint64_t sum = 0;
    for (std::uint32_t s = 0; s < view.NumRecords(); ++s) {
      VertexRecord rec = view.GetRecord(s);
      sum += rec.neighbors.size();
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_PageRecordScan);

void BM_BitmapCandidateOps(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Bitmap a(n);
  Bitmap b(n);
  Random rng(3);
  for (std::size_t i = 0; i < n / 8; ++i) {
    a.Set(rng.Uniform(n));
    b.Set(rng.Uniform(n));
  }
  for (auto _ : state) {
    Bitmap merged = a;
    merged.Union(b);
    std::size_t count = merged.Count();
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_BitmapCandidateOps)->Range(1 << 10, 1 << 18);

// Instrumentation budget check (ISSUE acceptance: <= 5ns per increment on
// the uncontended hot path). The pointer is resolved once, as call sites
// do with their function-local statics.
void BM_ObsCounterIncrement(benchmark::State& state) {
  obs::Counter* counter = obs::Metrics().GetCounter("bench.counter_hot");
  for (auto _ : state) {
    counter->Increment();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterIncrement);

// Same hot path hammered from several threads: shard striping should keep
// scaling near-flat instead of collapsing onto one contended cache line.
void BM_ObsCounterIncrementThreaded(benchmark::State& state) {
  static obs::Counter* counter =
      obs::Metrics().GetCounter("bench.counter_contended");
  for (auto _ : state) {
    counter->Increment();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterIncrementThreaded)->Threads(1)->Threads(4)->Threads(8);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::Histogram* hist = obs::Metrics().GetHistogram("bench.histogram_hot");
  std::uint64_t v = 1;
  for (auto _ : state) {
    hist->Record(v);
    v = (v * 2 + 1) & 0xFFFFF;  // sweep buckets
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramRecord);

}  // namespace
}  // namespace dualsim

BENCHMARK_MAIN();
