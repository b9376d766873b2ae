#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <unistd.h>

#include "baseline/bruteforce.h"
#include "baseline/psgl.h"
#include "baseline/twintwig.h"
#include "core/engine.h"
#include "core/intersect.h"
#include "runtime/query_session.h"
#include "runtime/runtime.h"
#include "storage/disk_graph.h"
#include "testkit/fuzz_util.h"

namespace dualsim {
namespace {

using testkit::FuzzConfig;
using testkit::FuzzConfigFromEnv;
using testkit::RandomConnectedQuery;
using testkit::RandomDataGraph;
using testkit::RandomLabeledDataGraph;
using testkit::RandomLabeledQuery;
using testkit::RelabelQuery;
using testkit::ReproHint;

/// Property fuzz: for RANDOM connected query graphs (not just the paper's
/// five), the disk engine, TwinTwigJoin and PSGL must all agree with the
/// brute-force oracle. This exercises arbitrary RBI colorings, v-group
/// structures and matching orders. DUALSIM_FUZZ_SEED / DUALSIM_FUZZ_ITERS
/// override the per-seed trial count for soak runs.
class RandomQueryPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dualsim_fuzz_" + std::to_string(::getpid()) + "_" +
            std::to_string(GetParam()));
    std::filesystem::create_directories(dir_);
    // Rotate the forced intersection kernel with the seed: every kernel
    // variant gets fuzzed against the oracle without multiplying the
    // suite's runtime. Seeds 0, 4, 8 (and avx2's seeds on a machine
    // without it) run the dispatcher.
    static const IntersectKernel kKernels[] = {IntersectKernel::kScalar,
                                               IntersectKernel::kGalloping,
                                               IntersectKernel::kAvx2};
    const int slot = GetParam() % 4;
    if (slot > 0 &&
        (kKernels[slot - 1] != IntersectKernel::kAvx2 || Avx2Available())) {
      forced_.emplace(kKernels[slot - 1]);
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
  std::optional<intersect_internal::ScopedKernelForTesting> forced_;
};

TEST_P(RandomQueryPropertyTest, AllEnginesAgreeWithOracle) {
  const int param = GetParam();
  const FuzzConfig cfg = FuzzConfigFromEnv(0, 3);
  const std::uint64_t seed = cfg.seed + static_cast<std::uint64_t>(param);
  Random rng(seed * 7919 + 13);

  Graph g = RandomDataGraph(seed, param, param);
  const std::string path = (dir_ / "g.db").string();
  ASSERT_TRUE(BuildDiskGraph(g, path, 512).ok());
  auto disk = DiskGraph::Open(path, false);
  ASSERT_TRUE(disk.ok());

  EngineOptions options;
  options.buffer_fraction = 0.15 + 0.05 * (param % 3);
  options.num_threads = 1 + param % 4;
  DualSimEngine engine(disk->get(), options);

  const int num_vertices = 3 + param % 3;  // 3..5 query vertices
  for (int trial = 0; trial < cfg.iters; ++trial) {
    QueryGraph q = RandomConnectedQuery(rng, num_vertices);
    const std::uint64_t want = CountOccurrences(g, q);

    auto dual = engine.Run(q);
    ASSERT_TRUE(dual.ok()) << dual.status().ToString() << " " << q.ToString()
                           << "\n" << ReproHint(seed);
    EXPECT_EQ(dual->embeddings, want) << q.ToString() << "\n"
                                      << ReproHint(seed);

    auto ttj = RunTwinTwigJoin(g, q);
    ASSERT_TRUE(ttj.ok());
    ASSERT_FALSE(ttj->failed);
    EXPECT_EQ(ttj->final_results, want) << q.ToString() << "\n"
                                        << ReproHint(seed);

    auto psgl = RunPsgl(g, q);
    ASSERT_TRUE(psgl.ok());
    ASSERT_FALSE(psgl->failed);
    EXPECT_EQ(psgl->final_results, want) << q.ToString() << "\n"
                                         << ReproHint(seed);
  }
}

/// Plan-cache warm path: running a query twice through one Runtime must
/// hit the cache the second time and still return the identical count —
/// and so must an isomorphic relabeling of the query, which shares the
/// canonical form and therefore the cached plan.
TEST_P(RandomQueryPropertyTest, PlanCacheWarmPathMatchesColdPath) {
  const int param = GetParam();
  const FuzzConfig cfg = FuzzConfigFromEnv(100, 3);
  const std::uint64_t seed = cfg.seed + static_cast<std::uint64_t>(param);
  Random rng(seed * 104729 + 7);

  Graph g = RandomDataGraph(seed, param + 1, param);
  const std::string path = (dir_ / "warm.db").string();
  ASSERT_TRUE(BuildDiskGraph(g, path, 512).ok());
  auto disk = DiskGraph::Open(path, false);
  ASSERT_TRUE(disk.ok());

  Runtime runtime(disk->get(), RuntimeOptions{});
  QuerySession session(&runtime);

  for (int trial = 0; trial < cfg.iters; ++trial) {
    const QueryGraph q = RandomConnectedQuery(rng, 3 + param % 3);
    const std::uint64_t want = CountOccurrences(g, q);

    auto cold = session.Run(q);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString() << "\n"
                           << ReproHint(seed);
    EXPECT_EQ(cold->embeddings, want) << q.ToString() << "\n"
                                      << ReproHint(seed);

    auto warm = session.Run(q);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_TRUE(warm->plan_cached) << q.ToString();
    EXPECT_GT(warm->plan_cache_hits, cold->plan_cache_hits);
    EXPECT_EQ(warm->embeddings, want) << q.ToString() << "\n"
                                      << ReproHint(seed);

    const QueryGraph relabeled = RelabelQuery(q, rng);
    auto iso = session.Run(relabeled);
    ASSERT_TRUE(iso.ok()) << iso.status().ToString();
    EXPECT_TRUE(iso->plan_cached)
        << q.ToString() << " vs " << relabeled.ToString();
    EXPECT_EQ(iso->embeddings, want)
        << q.ToString() << " vs " << relabeled.ToString() << "\n"
        << ReproHint(seed);
  }
}

/// Labeled property fuzz: random labeled queries (mixed constrained and
/// wildcard vertices) over random labeled data graphs must agree with the
/// label-aware brute-force oracle — with the candidate filter both on and
/// off, since filtering must never change counts. TwinTwig/PSGL stay out
/// of this leg: they are unlabeled baselines.
TEST_P(RandomQueryPropertyTest, LabeledQueriesAgreeWithOracle) {
  const int param = GetParam();
  const FuzzConfig cfg = FuzzConfigFromEnv(200, 3);
  const std::uint64_t seed = cfg.seed + static_cast<std::uint64_t>(param);
  Random rng(seed * 65537 + 3);

  const std::uint32_t num_labels = 2 + param % 3;  // 2..4 labels
  Graph g = RandomLabeledDataGraph(seed, param, param, num_labels);
  ASSERT_TRUE(g.HasLabels());
  const std::string path = (dir_ / "labeled.db").string();
  ASSERT_TRUE(BuildDiskGraph(g, path, 512).ok());
  auto disk = DiskGraph::Open(path, false);
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE((*disk)->HasLabels());

  EngineOptions options;
  options.buffer_fraction = 0.15 + 0.05 * (param % 3);
  options.num_threads = 1 + param % 4;
  options.candidate_filter = (param % 2) == 0;
  DualSimEngine engine(disk->get(), options);

  for (int trial = 0; trial < cfg.iters; ++trial) {
    const QueryGraph q = RandomLabeledQuery(rng, 3 + param % 3, num_labels);
    const std::uint64_t want = CountOccurrences(g, q);

    auto dual = engine.Run(q);
    ASSERT_TRUE(dual.ok()) << dual.status().ToString() << " " << q.ToString()
                           << "\n" << ReproHint(seed);
    EXPECT_EQ(dual->embeddings, want)
        << q.ToString() << " (candidate_filter="
        << (options.candidate_filter ? "on" : "off") << ")\n"
        << ReproHint(seed);
  }
}

/// Labeled plan-cache aliasing: an isomorphic relabeling of a labeled
/// query (labels carried along the permutation) shares the canonical form
/// and the cached plan; a query with identical shape but different labels
/// must NOT alias it — it gets its own plan and its own (correct) count.
TEST_P(RandomQueryPropertyTest, LabeledPlansNeverAliasAcrossLabels) {
  const int param = GetParam();
  const FuzzConfig cfg = FuzzConfigFromEnv(300, 3);
  const std::uint64_t seed = cfg.seed + static_cast<std::uint64_t>(param);
  Random rng(seed * 1299709 + 11);

  const std::uint32_t num_labels = 3;
  Graph g = RandomLabeledDataGraph(seed, param + 2, param, num_labels);
  const std::string path = (dir_ / "alias.db").string();
  ASSERT_TRUE(BuildDiskGraph(g, path, 512).ok());
  auto disk = DiskGraph::Open(path, false);
  ASSERT_TRUE(disk.ok());

  Runtime runtime(disk->get(), RuntimeOptions{});
  QuerySession session(&runtime);

  for (int trial = 0; trial < cfg.iters; ++trial) {
    const QueryGraph q = RandomLabeledQuery(rng, 3 + param % 3, num_labels);
    const std::uint64_t want = CountOccurrences(g, q);

    auto cold = session.Run(q);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString() << "\n"
                           << ReproHint(seed);
    EXPECT_EQ(cold->embeddings, want) << q.ToString() << "\n"
                                      << ReproHint(seed);

    // Isomorphic relabeling (labels permuted with the vertices): same
    // canonical form, cached plan, identical count.
    const QueryGraph iso_q = RelabelQuery(q, rng);
    auto iso = session.Run(iso_q);
    ASSERT_TRUE(iso.ok()) << iso.status().ToString();
    EXPECT_TRUE(iso->plan_cached)
        << q.ToString() << " vs " << iso_q.ToString();
    EXPECT_EQ(iso->embeddings, want)
        << q.ToString() << " vs " << iso_q.ToString() << "\n"
        << ReproHint(seed);

    // Same shape, shifted labels: must not alias the cached plan's counts.
    QueryGraph shifted = q;
    for (QueryVertex u = 0; u < shifted.NumVertices(); ++u) {
      if (shifted.Label(u) != kAnyLabel) {
        shifted.SetLabel(
            u, static_cast<LabelId>((shifted.Label(u) + 1) % num_labels));
      }
    }
    auto other = session.Run(shifted);
    ASSERT_TRUE(other.ok()) << other.status().ToString();
    EXPECT_EQ(other->embeddings, CountOccurrences(g, shifted))
        << shifted.ToString() << "\n" << ReproHint(seed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryPropertyTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace dualsim
