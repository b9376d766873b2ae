/// Differential kernel-test harness for the intersection kernels
/// (DESIGN.md §11). Every kernel variant — galloping and AVX2
/// block-compare — is run against the scalar merge oracle (itself checked
/// against std::set_intersection) over adversarial shapes: empty and
/// singleton lists, every SIMD tail length n in {0..33}, extreme 1:10^6
/// size ratios, dense vs sparse universes, block-aligned all-equal and
/// all-disjoint runs. A seeded property-fuzz lane (DUALSIM_FUZZ_SEED /
/// DUALSIM_FUZZ_ITERS) sweeps random shapes, the dispatcher's two ladders
/// (with and without AVX2) are pinned on any machine, and the paper's
/// q1–q5 golden counts are re-verified end-to-end under each forced
/// kernel.

#include "core/intersect.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "baseline/bruteforce.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "query/queries.h"
#include "storage/disk_graph.h"
#include "testkit/fuzz_util.h"
#include "testkit/metrics_util.h"
#include "util/random.h"

namespace dualsim {
namespace {

using intersect_internal::Avx2CompiledIn;
using intersect_internal::Avx2CpuSupported;
using intersect_internal::ChooseKernel;
using intersect_internal::kGallopRatio;
using intersect_internal::ScopedKernelForTesting;
using testkit::ExpectMetricDelta;
using testkit::FuzzConfig;
using testkit::FuzzConfigFromEnv;
using testkit::MetricsProbe;
using testkit::ReproHint;

const std::vector<IntersectKernel>& ConcreteKernels() {
  static const std::vector<IntersectKernel> kernels = {
      IntersectKernel::kScalar, IntersectKernel::kGalloping,
      IntersectKernel::kAvx2};
  return kernels;
}

bool KernelRunnable(IntersectKernel k) {
  return k != IntersectKernel::kAvx2 || Avx2Available();
}

std::vector<VertexId> SetOracle(const std::vector<VertexId>& a,
                                const std::vector<VertexId>& b) {
  std::vector<VertexId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<VertexId> SortedUnique(Random& rng, std::size_t n,
                                   std::uint64_t universe) {
  std::set<VertexId> s;
  while (s.size() < n) {
    s.insert(static_cast<VertexId>(rng.Uniform(universe)));
    if (universe < n) break;  // cannot reach n distinct values
  }
  return {s.begin(), s.end()};
}

/// The core differential assertion: every runnable kernel must produce
/// exactly the scalar oracle's output (which in turn equals
/// std::set_intersection), in both argument orders, and the output must
/// be sorted strictly ascending (duplicate-free invariant).
void ExpectAllKernelsMatchOracle(const std::vector<VertexId>& a,
                                 const std::vector<VertexId>& b,
                                 const std::string& context) {
  const std::vector<VertexId> want = SetOracle(a, b);
  std::vector<VertexId> scalar;
  {
    ScopedKernelForTesting force(IntersectKernel::kScalar);
    Intersect2(a, b, &scalar);
  }
  ASSERT_EQ(scalar, want) << "scalar oracle diverged from "
                             "std::set_intersection: "
                          << context;
  EXPECT_TRUE(std::is_sorted(scalar.begin(), scalar.end()));
  EXPECT_EQ(std::adjacent_find(scalar.begin(), scalar.end()), scalar.end())
      << "duplicate in output: " << context;
  for (IntersectKernel k : ConcreteKernels()) {
    if (!KernelRunnable(k)) continue;
    ScopedKernelForTesting force(k);
    std::vector<VertexId> out;
    Intersect2(a, b, &out);
    EXPECT_EQ(out, want) << IntersectKernelName(k) << " (a, b): " << context;
    Intersect2(b, a, &out);
    EXPECT_EQ(out, want) << IntersectKernelName(k) << " (b, a): " << context;
  }
}

TEST(IntersectKernelTest, AdversarialShapes) {
  struct Shape {
    const char* name;
    std::vector<VertexId> a;
    std::vector<VertexId> b;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"both empty", {}, {}});
  shapes.push_back({"empty vs singleton", {}, {5}});
  shapes.push_back({"singleton hit", {7}, {7}});
  shapes.push_back({"singleton miss", {7}, {8}});
  shapes.push_back({"singleton vs long",
                    {513},
                    [] {
                      std::vector<VertexId> v;
                      for (VertexId i = 0; i < 1024; ++i) v.push_back(i);
                      return v;
                    }()});
  // Identical lists; fully interleaved disjoint lists (evens vs odds) —
  // the all-match and no-match extremes for the block comparator.
  {
    std::vector<VertexId> evens;
    std::vector<VertexId> odds;
    for (VertexId i = 0; i < 64; ++i) {
      evens.push_back(2 * i);
      odds.push_back(2 * i + 1);
    }
    shapes.push_back({"identical", evens, evens});
    shapes.push_back({"interleaved disjoint", evens, odds});
  }
  // Block-aligned runs: 8 equal, 8 disjoint, 8 equal ... exercises the
  // advance-both and advance-one paths of the SIMD loop.
  {
    std::vector<VertexId> a;
    std::vector<VertexId> b;
    for (VertexId blk = 0; blk < 6; ++blk) {
      for (VertexId i = 0; i < 8; ++i) {
        const VertexId base = blk * 100;
        if (blk % 2 == 0) {
          a.push_back(base + i);
          b.push_back(base + i);
        } else {
          a.push_back(base + 2 * i);
          b.push_back(base + 2 * i + 1);
        }
      }
    }
    shapes.push_back({"block-aligned runs", a, b});
  }
  // Dense vs sparse universes at equal sizes.
  {
    Random rng(11);
    shapes.push_back({"dense universe", SortedUnique(rng, 200, 256),
                      SortedUnique(rng, 200, 256)});
    shapes.push_back({"sparse universe",
                      SortedUnique(rng, 200, std::uint64_t{1} << 30),
                      SortedUnique(rng, 200, std::uint64_t{1} << 30)});
  }
  for (const Shape& s : shapes) {
    ExpectAllKernelsMatchOracle(s.a, s.b, s.name);
  }
}

/// Every SIMD tail combination: lengths 0..33 on both sides cover "below
/// one block", "exactly blocks", and "blocks plus ragged tail" for the
/// 8-lane AVX2 kernel (and the galloping small-input paths).
TEST(IntersectKernelTest, SimdTailLengthMatrix) {
  Random rng(23);
  for (std::size_t na = 0; na <= 33; ++na) {
    for (std::size_t nb : {na, std::size_t{8}, std::size_t{33}}) {
      const auto a = SortedUnique(rng, na, 64);
      const auto b = SortedUnique(rng, nb, 64);
      ExpectAllKernelsMatchOracle(
          a, b, "tail " + std::to_string(na) + "x" + std::to_string(nb));
    }
  }
}

/// Extreme size skew (1:10^6): a four-element list against a million-long
/// one. The galloping tier exists for exactly this shape.
TEST(IntersectKernelTest, ExtremeSizeRatioOneToMillion) {
  std::vector<VertexId> big;
  big.reserve(1'000'000);
  for (VertexId v = 0; v < 2'000'000; v += 2) big.push_back(v);
  const std::vector<VertexId> small = {1, 1'000'000, 1'999'998, 3'999'999};
  ASSERT_GE(big.size() / small.size(), 250'000u);
  ExpectAllKernelsMatchOracle(small, big, "1:10^6 skew");
  // And the dispatcher must route it to galloping, with or without AVX2.
  EXPECT_EQ(ChooseKernel(small, big, true), IntersectKernel::kGalloping);
  EXPECT_EQ(ChooseKernel(small, big, false), IntersectKernel::kGalloping);
}

TEST(IntersectKernelTest, SeededPropertyFuzz) {
  const FuzzConfig cfg = FuzzConfigFromEnv(0xD0A1, 60);
  Random rng(cfg.seed * 6364136223846793005ULL + 1);
  for (int iter = 0; iter < cfg.iters; ++iter) {
    // Log-uniform sizes so small and large lists are equally likely, and
    // a universe that flips between dense and sparse.
    const std::size_t na = rng.Uniform(std::uint64_t{1} << rng.Uniform(13));
    const std::size_t nb = rng.Uniform(std::uint64_t{1} << rng.Uniform(13));
    const std::uint64_t universe =
        rng.Bernoulli(0.5) ? (na + nb + 1) * 2 : (std::uint64_t{1} << 28);
    const auto a = SortedUnique(rng, na, universe);
    const auto b = SortedUnique(rng, nb, universe);
    ExpectAllKernelsMatchOracle(
        a, b, "fuzz iter " + std::to_string(iter) + "\n" + ReproHint(cfg.seed));
  }
}

/// Pin the dispatch policy (DESIGN.md §11) on both ladders, whatever the
/// host CPU: heavy skew gallops; balanced inputs use the AVX2 kernel when
/// it is usable and the scalar merge when it is not, dense or sparse.
TEST(IntersectKernelTest, DispatcherThresholds) {
  Random rng(31);
  const auto small = SortedUnique(rng, 8, 1u << 20);
  const auto huge = SortedUnique(rng, 8 * kGallopRatio, 1u << 20);
  const auto dense_a = SortedUnique(rng, 128, 300);
  const auto dense_b = SortedUnique(rng, 128, 300);
  const auto sparse_a = SortedUnique(rng, 128, std::uint64_t{1} << 30);
  const auto sparse_b = SortedUnique(rng, 128, std::uint64_t{1} << 30);
  const std::vector<VertexId> tiny_a = {3, 5, 7};
  const std::vector<VertexId> tiny_b = {1, 3, 4, 7, 9, 11, 12};
  for (bool avx2 : {true, false}) {
    SCOPED_TRACE(avx2 ? "avx2" : "no avx2");
    EXPECT_EQ(ChooseKernel(small, huge, avx2), IntersectKernel::kGalloping);
    EXPECT_EQ(ChooseKernel(huge, small, avx2), IntersectKernel::kGalloping);
    const IntersectKernel balanced =
        avx2 ? IntersectKernel::kAvx2 : IntersectKernel::kScalar;
    EXPECT_EQ(ChooseKernel(dense_a, dense_b, avx2), balanced);
    EXPECT_EQ(ChooseKernel(sparse_a, sparse_b, avx2), balanced);
    // Below one 8-lane block, and on an empty input, the merge runs.
    EXPECT_EQ(ChooseKernel(tiny_a, tiny_b, avx2), IntersectKernel::kScalar);
    EXPECT_EQ(ChooseKernel({}, dense_a, avx2), IntersectKernel::kScalar);
  }
}

/// The test seam the engine-level suites rely on: while a
/// ScopedKernelForTesting is alive, Intersect2 and IntersectMany run the
/// forced kernel (its per-kernel counter moves) and still answer right;
/// once it is gone the dispatcher decides again.
TEST(IntersectKernelTest, ForcedKernelSeamRunsThatKernel) {
  Random rng(37);
  const auto a = SortedUnique(rng, 100, 400);
  const auto b = SortedUnique(rng, 100, 400);
  const auto want = SetOracle(a, b);
  const std::span<const VertexId> lists[] = {a, b};
  for (IntersectKernel k : ConcreteKernels()) {
    if (!KernelRunnable(k)) continue;
    const std::string counter =
        std::string("intersect.") + IntersectKernelName(k) + ".calls";
    MetricsProbe probe;
    {
      ScopedKernelForTesting force(k);
      std::vector<VertexId> out;
      Intersect2(a, b, &out);
      EXPECT_EQ(out, want) << IntersectKernelName(k);
      IntersectMany(lists, &out);
      EXPECT_EQ(out, want) << IntersectKernelName(k);
    }
    ExpectMetricDelta(probe, "intersect.calls", 2);
    ExpectMetricDelta(probe, counter, 2);
  }
  MetricsProbe probe;
  std::vector<VertexId> out;
  Intersect2(a, b, &out);
  const IntersectKernel chosen = ChooseKernel(a, b, Avx2Available());
  ExpectMetricDelta(
      probe, std::string("intersect.") + IntersectKernelName(chosen) + ".calls",
      1);
}

/// Satellite fix: the m-way result vector is reserved once from the
/// smallest input size and never grows past it — no reallocation while
/// results accumulate.
TEST(IntersectKernelTest, IntersectManyReservesFromSmallestInput) {
  std::vector<VertexId> big1;
  std::vector<VertexId> big2;
  for (VertexId v = 0; v < 4000; ++v) {
    if (v % 2 == 0) big1.push_back(v);
    if (v % 3 == 0) big2.push_back(v);
  }
  const std::vector<VertexId> tiny = {0, 6, 12, 1998, 3996};
  const std::span<const VertexId> lists[] = {big1, tiny, big2};

  std::vector<VertexId> out;
  IntersectMany(lists, &out);
  EXPECT_EQ(out, (std::vector<VertexId>{0, 6, 12, 1998, 3996}));
  // A single up-front reservation from the smallest list: capacity never
  // grows past it (libstdc++ reserves exactly what is asked).
  EXPECT_GE(out.capacity(), out.size());
  EXPECT_LE(out.capacity(), tiny.size());

  // A pre-reserved result vector must not reallocate at all.
  std::vector<VertexId> reused;
  reused.reserve(tiny.size());
  const VertexId* data_before = reused.data();
  const std::size_t cap_before = reused.capacity();
  IntersectMany(lists, &reused);
  EXPECT_EQ(reused.data(), data_before) << "IntersectMany reallocated";
  EXPECT_EQ(reused.capacity(), cap_before);
  EXPECT_EQ(reused, out);
}

/// m-way intersection against a std::set oracle, per forced kernel.
TEST(IntersectKernelTest, ManyWayDifferentialAcrossKernels) {
  Random rng(47);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t num_lists = 2 + trial % 4;
    std::vector<std::vector<VertexId>> lists(num_lists);
    std::vector<std::set<VertexId>> sets(num_lists);
    for (std::size_t i = 0; i < num_lists; ++i) {
      const std::size_t n = rng.Uniform(120);
      for (std::size_t j = 0; j < n; ++j) {
        sets[i].insert(static_cast<VertexId>(rng.Uniform(150)));
      }
      lists[i].assign(sets[i].begin(), sets[i].end());
    }
    std::set<VertexId> expected = sets[0];
    for (std::size_t i = 1; i < num_lists; ++i) {
      std::set<VertexId> next;
      std::set_intersection(expected.begin(), expected.end(), sets[i].begin(),
                            sets[i].end(), std::inserter(next, next.end()));
      expected = next;
    }
    const std::vector<VertexId> want(expected.begin(), expected.end());
    std::vector<std::span<const VertexId>> spans(lists.begin(), lists.end());
    for (IntersectKernel k : ConcreteKernels()) {
      if (!KernelRunnable(k)) continue;
      ScopedKernelForTesting force(k);
      std::vector<VertexId> out;
      IntersectMany(spans, &out);
      EXPECT_EQ(out, want) << IntersectKernelName(k) << " trial " << trial;
    }
  }
}

/// Input-size and selectivity histograms reach the registry.
TEST(IntersectKernelTest, MetricsHistogramsRecorded) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  Random rng(53);
  const auto a = SortedUnique(rng, 16, 64);
  const auto b = SortedUnique(rng, 64, 128);
  const auto before = obs::Metrics().Snapshot();
  std::vector<VertexId> out;
  Intersect2(a, b, &out);
  const auto after = obs::Metrics().Snapshot();
  EXPECT_EQ(after.histogram("intersect.smaller_size").count,
            before.histogram("intersect.smaller_size").count + 1);
  EXPECT_EQ(after.histogram("intersect.larger_size").count,
            before.histogram("intersect.larger_size").count + 1);
  EXPECT_EQ(after.histogram("intersect.selectivity_pct").count,
            before.histogram("intersect.selectivity_pct").count + 1);
}

/// Avx2Available is exactly "compiled in and the CPU has it", and the
/// kernel names are distinct.
TEST(IntersectKernelTest, AvailabilityLadderConsistency) {
  EXPECT_EQ(Avx2Available(), Avx2CompiledIn() && Avx2CpuSupported());
  const std::set<std::string> names = {
      IntersectKernelName(IntersectKernel::kScalar),
      IntersectKernelName(IntersectKernel::kGalloping),
      IntersectKernelName(IntersectKernel::kAvx2)};
  EXPECT_EQ(names.size(), 3u);
  EXPECT_EQ(names.count("unknown"), 0u);
}

/// End-to-end: the paper's q1–q5 pinned golden counts over the ER fixture
/// graph are identical under every forced kernel, and the freshly built
/// database passes the load-time adjacency verification the kernels
/// depend on (sorted, duplicate-free, degree-ordered).
TEST(IntersectKernelTest, GoldenCountsUnderEachForcedKernel) {
  // Same fixture and literals as golden_counts_test's ER row.
  constexpr std::uint64_t kGoldenEr[5] = {151, 1076, 90, 0, 2024};
  Graph g = ReorderByDegree(ErdosRenyi(200, 1000, 42));

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("dualsim_kernel_golden_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "g.db").string();
  ASSERT_TRUE(BuildDiskGraph(g, path, /*page_size=*/512).ok());
  auto disk = DiskGraph::Open(path, /*bypass_os_cache=*/false);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();

  bool degree_ordered = false;
  Status verify = (*disk)->VerifyAdjacency(&degree_ordered);
  EXPECT_TRUE(verify.ok()) << verify.ToString();
  EXPECT_TRUE(degree_ordered);

  for (IntersectKernel k : ConcreteKernels()) {
    if (!KernelRunnable(k)) continue;
    ScopedKernelForTesting guard(k);
    EngineOptions options;
    options.buffer_fraction = 0.2;
    options.num_threads = 2;
    DualSimEngine engine(disk->get(), options);
    int qi = 0;
    for (PaperQuery pq : AllPaperQueries()) {
      auto result = engine.Run(MakePaperQuery(pq));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->embeddings, kGoldenEr[qi])
          << PaperQueryName(pq) << " under kernel " << IntersectKernelName(k);
      ++qi;
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dualsim
