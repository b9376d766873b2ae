#include "core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <unistd.h>

#include "baseline/bruteforce.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "obs/metrics.h"
#include "query/queries.h"
#include "query/symmetry_breaking.h"
#include "storage/disk_graph.h"
#include "testkit/metrics_util.h"

namespace dualsim {
namespace {

/// Builds a disk database for `g` (degree-reordered first) and returns the
/// opened handle. Files live in a per-process temp dir cleaned at exit.
class EngineTestBase : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dualsim_engine_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<DiskGraph> BuildDisk(const Graph& ordered,
                                       std::size_t page_size = 512) {
    const std::string path = (dir_ / "g.db").string();
    Status s = BuildDiskGraph(ordered, path, page_size);
    EXPECT_TRUE(s.ok()) << s.ToString();
    auto disk = DiskGraph::Open(path, /*bypass_os_cache=*/false);
    EXPECT_TRUE(disk.ok()) << disk.status().ToString();
    return std::move(*disk);
  }

  std::filesystem::path dir_;
};

EngineOptions SmallOptions() {
  EngineOptions options;
  options.buffer_fraction = 0.3;
  options.num_threads = 4;
  return options;
}

TEST_F(EngineTestBase, TriangleCountMatchesOracleOnRandomGraph) {
  Graph g = ReorderByDegree(ErdosRenyi(300, 1500, 7));
  auto disk = BuildDisk(g);
  DualSimEngine engine(disk.get(), SmallOptions());
  auto result = engine.Run(MakePaperQuery(PaperQuery::kQ1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->embeddings,
            CountOccurrences(g, MakePaperQuery(PaperQuery::kQ1)));
  EXPECT_GT(result->io.physical_reads, 0u);
}

TEST_F(EngineTestBase, InternalPlusExternalEqualsTotal) {
  Graph g = ReorderByDegree(ErdosRenyi(200, 1000, 3));
  auto disk = BuildDisk(g);
  DualSimEngine engine(disk.get(), SmallOptions());
  auto result = engine.Run(MakePaperQuery(PaperQuery::kQ1));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embeddings,
            result->internal_embeddings + result->external_embeddings);
  // With a 30% buffer both passes should contribute.
  EXPECT_GT(result->internal_embeddings, 0u);
  EXPECT_GT(result->external_embeddings, 0u);
}

TEST_F(EngineTestBase, VisitorReceivesValidDistinctEmbeddings) {
  Graph g = ReorderByDegree(ErdosRenyi(120, 500, 9));
  auto disk = BuildDisk(g);
  DualSimEngine engine(disk.get(), SmallOptions());
  const QueryGraph q = MakePaperQuery(PaperQuery::kQ1);
  const auto orders = FindPartialOrders(q);
  std::mutex mu;
  std::vector<std::vector<VertexId>> seen;
  auto result = engine.Run(q, [&](std::span<const VertexId> m) {
    std::lock_guard<std::mutex> lock(mu);
    seen.emplace_back(m.begin(), m.end());
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embeddings, seen.size());
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end())
      << "duplicate embeddings";
  for (const auto& m : seen) {
    EXPECT_TRUE(SatisfiesPartialOrders(orders, m));
    for (QueryVertex u = 0; u < q.NumVertices(); ++u) {
      for (QueryVertex v = static_cast<QueryVertex>(u + 1);
           v < q.NumVertices(); ++v) {
        if (q.HasEdge(u, v)) EXPECT_TRUE(g.HasEdge(m[u], m[v]));
      }
    }
  }
}

TEST_F(EngineTestBase, MultiPageAdjacencyListsSupported) {
  // The hub's adjacency list spans many 128-byte pages (the paper's §5.2
  // large-degree case); the engine stitches the sublists and must still
  // match the oracle.
  Graph g = ReorderByDegree(Star(300));
  auto disk = BuildDisk(g, /*page_size=*/128);
  EXPECT_FALSE(disk->AllSinglePage());
  EXPECT_GT(disk->MaxVertexPages(), 1u);
  DualSimEngine engine(disk.get(), SmallOptions());
  const QueryGraph q = MakeStarQuery(2);  // wedges through the hub
  auto result = engine.Run(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->embeddings, CountOccurrences(g, q));
}

TEST_F(EngineTestBase, MultiPageSkewedGraphMatchesOracle) {
  // Skewed graph with several multi-page hubs under a tiny page size and
  // tiny buffer: exercises window extension, orphan tails, and last-level
  // run dispatch for every paper query.
  Graph g = ReorderByDegree(RMat(8, 1200, 0.65, 0.12, 0.12, 77));
  auto disk = BuildDisk(g, /*page_size=*/128);
  EXPECT_FALSE(disk->AllSinglePage());
  EngineOptions options;
  options.buffer_fraction = 0.1;
  options.num_threads = 3;
  DualSimEngine engine(disk.get(), options);
  for (PaperQuery pq : AllPaperQueries()) {
    const QueryGraph q = MakePaperQuery(pq);
    auto result = engine.Run(q);
    ASSERT_TRUE(result.ok())
        << PaperQueryName(pq) << ": " << result.status().ToString();
    EXPECT_EQ(result->embeddings, CountOccurrences(g, q))
        << PaperQueryName(pq);
  }
}

TEST_F(EngineTestBase, CliqueCountsOnCompleteGraph) {
  Graph g = ReorderByDegree(Complete(20));
  auto disk = BuildDisk(g);
  DualSimEngine engine(disk.get(), SmallOptions());
  auto q4 = engine.Run(MakePaperQuery(PaperQuery::kQ4));
  ASSERT_TRUE(q4.ok());
  EXPECT_EQ(q4->embeddings, 4845u);  // C(20,4)
}

TEST_F(EngineTestBase, BipartiteGraphHasNoCliques) {
  Graph g = ReorderByDegree(BipartitePowerLaw(100, 100, 600, 2));
  auto disk = BuildDisk(g);
  DualSimEngine engine(disk.get(), SmallOptions());
  auto result = engine.Run(MakePaperQuery(PaperQuery::kQ4));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embeddings, 0u);
}

TEST_F(EngineTestBase, StarQuerySingleRedVertex) {
  Graph g = ReorderByDegree(ErdosRenyi(150, 600, 4));
  auto disk = BuildDisk(g);
  DualSimEngine engine(disk.get(), SmallOptions());
  const QueryGraph q = MakeStarQuery(3);
  auto result = engine.Run(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embeddings, CountOccurrences(g, q));
  EXPECT_EQ(result->external_embeddings, 0u);  // one level => internal only
}

TEST_F(EngineTestBase, EdgeQueryCountsEdges) {
  Graph g = ReorderByDegree(ErdosRenyi(100, 321, 6));
  auto disk = BuildDisk(g);
  DualSimEngine engine(disk.get(), SmallOptions());
  auto result = engine.Run(MakePathQuery(2));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embeddings, g.NumEdges());
}

TEST_F(EngineTestBase, FrameBudgetsPaperStrategy) {
  // 3 levels, 100 frames, 4 threads: last = 8, first = 2/3 of 92 = 61,
  // middle = the rest.
  auto budgets = DualSimEngine::ComputeFrameBudgets(3, 100, 4, true);
  ASSERT_EQ(budgets.size(), 3u);
  EXPECT_EQ(budgets[2], 8u);
  EXPECT_EQ(budgets[0], 61u);
  EXPECT_GE(budgets[1], 1u);
  // Equal split ablation.
  auto equal = DualSimEngine::ComputeFrameBudgets(3, 99, 4, false);
  EXPECT_EQ(equal[0], 33u);
  EXPECT_EQ(equal[1], 33u);
  EXPECT_EQ(equal[2], 33u);
  // Triangulation case: all remaining frames to level 0 (paper §5).
  auto two = DualSimEngine::ComputeFrameBudgets(2, 50, 4, true);
  EXPECT_EQ(two[1], 8u);
  EXPECT_EQ(two[0], 42u);
}

// ---------------------------------------------------------------------------
// Property sweep: every paper query on a matrix of graphs must match the
// brute-force oracle exactly, under a tiny buffer to force heavy paging.
// ---------------------------------------------------------------------------

struct SweepCase {
  const char* graph_name;
  int graph_id;
  PaperQuery query;
};

// gtest prints the parameter into each listed test id; without this it
// dumps the struct's bytes, which hold graph_name's address and so change
// with every build and load address.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.graph_name << "/" << PaperQueryName(c.query);
}

std::string SweepName(const ::testing::TestParamInfo<SweepCase>& info) {
  return std::string(info.param.graph_name) +
         PaperQueryName(info.param.query);
}

Graph MakeSweepGraph(int id) {
  switch (id) {
    case 0:
      return ErdosRenyi(150, 600, 11);
    case 1:
      return RMat(8, 900, 0.6, 0.15, 0.15, 13);  // skewed hubs
    case 2:
      return Complete(12);
    case 3:
      return BipartitePowerLaw(60, 70, 400, 17);
    case 4:
      return Cycle(50);
    default:
      return Star(40);
  }
}

class EngineSweepTest : public EngineTestBase,
                        public ::testing::WithParamInterface<SweepCase> {};

TEST_P(EngineSweepTest, MatchesOracle) {
  const SweepCase& param = GetParam();
  Graph g = ReorderByDegree(MakeSweepGraph(param.graph_id));
  auto disk = BuildDisk(g, /*page_size=*/512);
  EngineOptions options;
  options.buffer_fraction = 0.15;  // paper default; forces real paging
  options.num_threads = 4;
  DualSimEngine engine(disk.get(), options);
  const QueryGraph q = MakePaperQuery(param.query);
  auto result = engine.Run(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->embeddings, CountOccurrences(g, q));
}

std::vector<SweepCase> AllSweepCases() {
  std::vector<SweepCase> cases;
  const char* names[] = {"ER", "RMat", "K12", "Bip", "C50", "Star"};
  for (int graph = 0; graph < 6; ++graph) {
    for (PaperQuery pq : AllPaperQueries()) {
      cases.push_back({names[graph], graph, pq});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllGraphsAllQueries, EngineSweepTest,
                         ::testing::ValuesIn(AllSweepCases()), SweepName);

// ---------------------------------------------------------------------------
// Robustness sweeps: buffer sizes, thread counts, page sizes, plan ablations
// must never change the answer.
// ---------------------------------------------------------------------------

class EngineBufferSweepTest : public EngineTestBase,
                              public ::testing::WithParamInterface<double> {};

TEST_P(EngineBufferSweepTest, CountInvariantUnderBufferSize) {
  Graph g = ReorderByDegree(RMat(8, 800, 0.55, 0.15, 0.15, 23));
  auto disk = BuildDisk(g);
  EngineOptions options;
  options.buffer_fraction = GetParam();
  options.num_threads = 4;
  DualSimEngine engine(disk.get(), options);
  const QueryGraph q = MakePaperQuery(PaperQuery::kQ4);
  auto result = engine.Run(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->embeddings, CountOccurrences(g, q));
}

INSTANTIATE_TEST_SUITE_P(BufferSizes, EngineBufferSweepTest,
                         ::testing::Values(0.05, 0.10, 0.15, 0.20, 0.25));

class EngineThreadSweepTest : public EngineTestBase,
                              public ::testing::WithParamInterface<int> {};

TEST_P(EngineThreadSweepTest, CountInvariantUnderThreads) {
  Graph g = ReorderByDegree(ErdosRenyi(200, 900, 31));
  auto disk = BuildDisk(g);
  EngineOptions options;
  options.num_threads = GetParam();
  options.buffer_fraction = 0.2;
  DualSimEngine engine(disk.get(), options);
  const QueryGraph q = MakePaperQuery(PaperQuery::kQ5);
  auto result = engine.Run(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->embeddings, CountOccurrences(g, q));
}

INSTANTIATE_TEST_SUITE_P(Threads, EngineThreadSweepTest,
                         ::testing::Values(1, 2, 3, 6));

TEST_F(EngineTestBase, AblationsPreserveCounts) {
  Graph g = ReorderByDegree(RMat(7, 500, 0.6, 0.15, 0.15, 37));
  auto disk = BuildDisk(g);
  const QueryGraph q = MakePaperQuery(PaperQuery::kQ2);
  const std::uint64_t want = CountOccurrences(g, q);

  for (bool vgroups : {true, false}) {
    for (bool best_order : {true, false}) {
      for (bool paper_alloc : {true, false}) {
        EngineOptions options = SmallOptions();
        options.plan.use_vgroups = vgroups;
        options.plan.best_matching_order = best_order;
        options.paper_buffer_allocation = paper_alloc;
        DualSimEngine engine(disk.get(), options);
        auto result = engine.Run(q);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result->embeddings, want)
            << "vgroups=" << vgroups << " best_order=" << best_order
            << " paper_alloc=" << paper_alloc;
      }
    }
  }
}

TEST_F(EngineTestBase, MvcAblationPreservesCounts) {
  Graph g = ReorderByDegree(ErdosRenyi(150, 700, 41));
  auto disk = BuildDisk(g);
  const QueryGraph q = MakePaperQuery(PaperQuery::kQ2);
  EngineOptions options = SmallOptions();
  options.plan.rbi.use_connected_cover = false;  // MVC instead of MCVC
  DualSimEngine engine(disk.get(), options);
  auto result = engine.Run(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->embeddings, CountOccurrences(g, q));
}

TEST_F(EngineTestBase, SimulatedDeviceLatencyOnlySlowsIo) {
  Graph g = ReorderByDegree(ErdosRenyi(150, 600, 53));
  auto disk = BuildDisk(g);
  const QueryGraph q = MakePaperQuery(PaperQuery::kQ1);

  EngineOptions fast = SmallOptions();
  DualSimEngine fast_engine(disk.get(), fast);
  auto baseline = fast_engine.Run(q);
  ASSERT_TRUE(baseline.ok());

  // Large enough that the first window's reads — which gate all compute —
  // add more wall time than parallel-ctest scheduling noise ever does.
  EngineOptions slow = SmallOptions();
  slow.read_latency_us = 20'000;
  DualSimEngine slow_engine(disk.get(), slow);
  auto delayed = slow_engine.Run(q);
  ASSERT_TRUE(delayed.ok());

  EXPECT_EQ(delayed->embeddings, baseline->embeddings);
  // Read counts can vary by a handful across runs (async arrival order
  // shifts which residual pages the LRU evicts), but not systematically.
  const double reads_a = static_cast<double>(baseline->io.physical_reads);
  const double reads_b = static_cast<double>(delayed->io.physical_reads);
  EXPECT_NEAR(reads_b, reads_a, 0.2 * reads_a + 4);
  // Compare best-of-3 wall clocks: a single un-delayed run can lose a
  // few ms to scheduling when parallel ctest load deschedules it.
  double best_fast = baseline->elapsed_seconds;
  double best_slow = delayed->elapsed_seconds;
  for (int rep = 0; rep < 2; ++rep) {
    auto f = fast_engine.Run(q);
    ASSERT_TRUE(f.ok());
    best_fast = std::min(best_fast, f->elapsed_seconds);
    auto s = slow_engine.Run(q);
    ASSERT_TRUE(s.ok());
    best_slow = std::min(best_slow, s->elapsed_seconds);
  }
  EXPECT_GE(best_slow, 0.02);  // at least one gating read was delayed
  EXPECT_GT(best_slow, best_fast);
}

TEST_F(EngineTestBase, LevelStatsAreConsistent) {
  Graph g = ReorderByDegree(ErdosRenyi(200, 900, 51));
  auto disk = BuildDisk(g);
  EngineOptions options;
  options.buffer_fraction = 0.15;
  options.num_threads = 2;
  DualSimEngine engine(disk.get(), options);
  auto result = engine.Run(MakePaperQuery(PaperQuery::kQ4));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->level_stats.size(), 3u);
  std::uint64_t owned = 0;
  for (const LevelStats& ls : result->level_stats) {
    EXPECT_GT(ls.windows, 0u);
    owned += ls.owned_pages;
  }
  // Level-0 covers the whole database exactly once per its own windows.
  EXPECT_EQ(result->level_stats[0].owned_pages, disk->num_pages());
  EXPECT_EQ(result->level_stats[0].borrowed_pages, 0u);
  // Deeper levels re-read pages: owned across levels exceeds the database.
  EXPECT_GT(owned, static_cast<std::uint64_t>(disk->num_pages()));
  // Physical reads can't exceed total pages touched (hits fill the rest).
  EXPECT_LE(result->io.physical_reads,
            owned + result->level_stats[1].borrowed_pages +
                result->level_stats[2].borrowed_pages);
}

// ---------------------------------------------------------------------------
// Metric invariants: the observability counters must agree with the
// engine's own accounting, not merely move in the right direction.
// ---------------------------------------------------------------------------

TEST_F(EngineTestBase, BufferMetricsClassifyEveryLookup) {
  Graph g = ReorderByDegree(ErdosRenyi(200, 1000, 19));
  auto disk = BuildDisk(g);
  DualSimEngine engine(disk.get(), SmallOptions());
  testkit::MetricsProbe probe;
  auto result = engine.Run(MakePaperQuery(PaperQuery::kQ2));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  const std::uint64_t lookups = probe.Delta("bufferpool.lookups");
  const std::uint64_t hits = probe.Delta("bufferpool.hits");
  const std::uint64_t misses = probe.Delta("bufferpool.misses");
  const std::uint64_t starved = probe.Delta("bufferpool.starved");
  EXPECT_GT(lookups, 0u);
  EXPECT_GT(misses, 0u);
  // Every Pin/PinAsync is classified exactly once.
  EXPECT_EQ(lookups, hits + misses + starved);
  // Every miss initiates at least one page-file read (retries add more).
  EXPECT_GE(probe.Delta("pagefile.reads"), misses);
}

TEST_F(EngineTestBase, EmbeddingMetricsMatchReturnedCounts) {
  Graph g = ReorderByDegree(ErdosRenyi(200, 1000, 3));
  auto disk = BuildDisk(g);
  DualSimEngine engine(disk.get(), SmallOptions());
  testkit::MetricsProbe probe;
  auto result = engine.Run(MakePaperQuery(PaperQuery::kQ1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  EXPECT_EQ(probe.Delta("match.embeddings_internal"),
            result->internal_embeddings);
  EXPECT_EQ(probe.Delta("match.embeddings_external"),
            result->external_embeddings);
  EXPECT_EQ(probe.Delta("match.embeddings_internal") +
                probe.Delta("match.embeddings_external"),
            result->embeddings);
  // Window accounting agrees with the per-level stats the engine returns.
  std::uint64_t windows = 0;
  for (const LevelStats& ls : result->level_stats) windows += ls.windows;
  EXPECT_EQ(probe.Delta("scheduler.windows"), windows);
}

TEST_F(EngineTestBase, RepeatedRunsAreDeterministic) {
  Graph g = ReorderByDegree(ErdosRenyi(150, 600, 43));
  auto disk = BuildDisk(g);
  DualSimEngine engine(disk.get(), SmallOptions());
  const QueryGraph q = MakePaperQuery(PaperQuery::kQ3);
  auto first = engine.Run(q);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 3; ++i) {
    auto again = engine.Run(q);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->embeddings, first->embeddings);
  }
}

}  // namespace
}  // namespace dualsim
