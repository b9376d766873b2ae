/// Golden-count regression suite: every paper query (q1..q5) over a fixed
/// set of deterministic generator graphs, with the exact embedding count
/// pinned as a literal. The literals were produced by the brute-force
/// oracle (`CountOccurrences`) and are cross-checked against it here, so a
/// failure distinguishes three situations:
///   - engine != golden, oracle == golden  -> engine regression
///   - engine == golden, oracle != golden  -> oracle or generator drift
///   - both != golden                      -> generator/reorder drift
/// Any intentional change to the generators, the degree reorder, or the
/// paper-query definitions must re-derive these numbers.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <unistd.h>

#include "baseline/bruteforce.h"
#include "core/engine.h"
#include "core/intersect.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "query/queries.h"
#include "storage/disk_graph.h"

namespace dualsim {
namespace {

struct GoldenCase {
  const char* graph_name;
  int graph_id;
  PaperQuery query;
  std::uint64_t golden;
  /// Which intersection kernel the engine is forced onto for this case
  /// (empty = the per-call dispatcher). Every kernel must reproduce the
  /// same pinned counts — the end-to-end leg of the differential harness
  /// in intersect_kernel_test.cc.
  std::optional<IntersectKernel> kernel;
};

/// The fixture graphs, by id. Deterministic seeds; shapes chosen to cover
/// uniform (ER), skewed hubs (R-MAT), preferential attachment (BA), ring
/// lattice (WS), and the dense extreme (K12).
Graph MakeGoldenGraph(int id) {
  switch (id) {
    case 0:
      return ErdosRenyi(200, 1000, 42);
    case 1:
      return RMat(8, 900, 0.57, 0.15, 0.15, 7);
    case 2:
      return BarabasiAlbert(150, 3, 5);
    case 3:
      return WattsStrogatz(120, 6, 0.1, 9);
    default:
      return Complete(12);
  }
}

// Pinned counts per graph, in q1..q5 order. K12 rows have closed forms:
// q1 = C(12,3) = 220 triangles, q4 = C(12,4) = 495 four-cliques.
constexpr std::uint64_t kGolden[5][5] = {
    /* ER   */ {151, 1076, 90, 0, 2024},
    /* RMat */ {587, 5764, 4997, 313, 124334},
    /* BA   */ {107, 575, 262, 6, 3545},
    /* WS   */ {286, 617, 818, 76, 3506},
    /* K12  */ {220, 1485, 2970, 495, 47520},
};

std::vector<GoldenCase> AllGoldenCases() {
  const char* names[] = {"ER", "RMat", "BA", "WS", "K12"};
  std::vector<GoldenCase> cases;
  for (std::optional<IntersectKernel> kernel :
       {std::optional<IntersectKernel>(), std::optional(IntersectKernel::kScalar),
        std::optional(IntersectKernel::kGalloping),
        std::optional(IntersectKernel::kAvx2)}) {
    for (int graph = 0; graph < 5; ++graph) {
      int qi = 0;
      for (PaperQuery pq : AllPaperQueries()) {
        cases.push_back(
            {names[graph], graph, pq, kGolden[graph][qi++], kernel});
      }
    }
  }
  return cases;
}

std::string GoldenName(const ::testing::TestParamInfo<GoldenCase>& info) {
  std::string name = std::string(info.param.graph_name) +
                     PaperQueryName(info.param.query);
  if (info.param.kernel) {
    name += std::string("_") + IntersectKernelName(*info.param.kernel);
  }
  return name;
}

class GoldenCountsTest : public ::testing::TestWithParam<GoldenCase> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dualsim_golden_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_P(GoldenCountsTest, EngineAndOracleMatchPinnedCount) {
  const GoldenCase& param = GetParam();
  if (param.kernel == IntersectKernel::kAvx2 && !Avx2Available()) {
    GTEST_SKIP() << "avx2 kernel unavailable on this build or CPU";
  }
  std::optional<intersect_internal::ScopedKernelForTesting> forced;
  if (param.kernel) forced.emplace(*param.kernel);
  Graph g = ReorderByDegree(MakeGoldenGraph(param.graph_id));
  const QueryGraph q = MakePaperQuery(param.query);

  // Oracle first: if this line fails, the generators or the query
  // definitions drifted, not the engine. Kernel-independent, so checked
  // once under the dispatcher rather than per forced kernel.
  if (!param.kernel) {
    EXPECT_EQ(CountOccurrences(g, q), param.golden)
        << "brute-force oracle disagrees with the pinned golden count";
  }

  const std::string path = (dir_ / "g.db").string();
  Status s = BuildDiskGraph(g, path, /*page_size=*/512);
  ASSERT_TRUE(s.ok()) << s.ToString();
  auto disk = DiskGraph::Open(path, /*bypass_os_cache=*/false);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();

  EngineOptions options;
  options.buffer_fraction = 0.2;
  options.num_threads = 4;
  DualSimEngine engine(disk->get(), options);
  auto result = engine.Run(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->embeddings, param.golden)
      << "engine disagrees with the pinned golden count under kernel "
      << (param.kernel ? IntersectKernelName(*param.kernel) : "dispatch");
}

INSTANTIATE_TEST_SUITE_P(PaperQueries, GoldenCountsTest,
                         ::testing::ValuesIn(AllGoldenCases()), GoldenName);

}  // namespace
}  // namespace dualsim
