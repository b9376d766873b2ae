/// Work-counter regression suite: each paper query (q1..q5) on one
/// deterministic golden graph at a fixed frame count and thread count,
/// with the machine-independent work counters pinned as literals:
///   - intersect.calls       2-way intersections run (red matching plus
///                           ivory extension);
///   - red assignments       complete red-graph matches (EngineStats);
///   - embeddings            the golden count (golden_counts_test.cc).
/// These move only when the enumeration itself changes, never with host
/// speed or thread interleaving, so a change that claims less intersection
/// work shows it here as an exact number. Re-pin intersect.calls when a
/// change alters how much the engine intersects, and say so in CHANGES.md;
/// red assignments and embeddings change only with the plan or the window
/// formation.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "core/engine.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "query/queries.h"
#include "storage/disk_graph.h"
#include "testkit/metrics_util.h"

namespace dualsim {
namespace {

struct WorkCounters {
  std::uint64_t intersect_calls;
  std::uint64_t red_assignments;
  std::uint64_t embeddings;
};

/// Runs `pq` on the golden R-MAT graph (golden_counts_test.cc, graph 1)
/// stored in 512-byte pages (23 pages), with 12 frames and `threads`
/// threads. Red assignments and embeddings must equal `want` at any
/// thread count. intersect.calls is checked only at 2 threads: the frame
/// split gives the last level frames per thread, and the windows bound
/// the trimmed intersections, so it moves with the thread count.
void ExpectWorkCounters(PaperQuery pq, const WorkCounters& want,
                        int threads = 2) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("dualsim_work_" + std::to_string(::getpid()) + "_" +
       PaperQueryName(pq) + "_t" + std::to_string(threads));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "g.db").string();
  const Graph g = ReorderByDegree(RMat(8, 900, 0.57, 0.15, 0.15, 7));
  ASSERT_TRUE(BuildDiskGraph(g, path, /*page_size=*/512).ok());
  auto disk = DiskGraph::Open(path, /*bypass_os_cache=*/false);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();

  EngineOptions options;
  options.num_frames = 12;
  options.num_threads = threads;
  DualSimEngine engine(disk->get(), options);
  testkit::MetricsProbe probe;
  auto result = engine.Run(MakePaperQuery(pq));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  if (threads == 2) {
    testkit::ExpectMetricDelta(probe, "intersect.calls", want.intersect_calls);
  }
  EXPECT_EQ(result->red_assignments, want.red_assignments)
      << threads << " threads";
  EXPECT_EQ(result->embeddings, want.embeddings) << threads << " threads";
  std::filesystem::remove_all(dir);
}

TEST(WorkCountersTest, Q1Triangle) {
  ExpectWorkCounters(PaperQuery::kQ1, {691, 691, 587});
}

TEST(WorkCountersTest, Q2Square) {
  ExpectWorkCounters(PaperQuery::kQ2, {1288, 1288, 5764});
}

TEST(WorkCountersTest, Q3ChordalSquare) {
  ExpectWorkCounters(PaperQuery::kQ3, {691, 691, 4997});
}

TEST(WorkCountersTest, Q4Clique) {
  ExpectWorkCounters(PaperQuery::kQ4, {1802, 587, 313});
}

TEST(WorkCountersTest, Q5House) {
  ExpectWorkCounters(PaperQuery::kQ5, {21737, 10356, 124334});
}

// Red matching and extension do not depend on how many threads run them,
// however the last level's runs interleave.
TEST(WorkCountersTest, RedAssignmentsAndEmbeddingsIgnoreThreadCount) {
  for (int threads : {1, 2, 4}) {
    ExpectWorkCounters(PaperQuery::kQ4, {1802, 587, 313}, threads);
    ExpectWorkCounters(PaperQuery::kQ5, {21737, 10356, 124334}, threads);
  }
}

}  // namespace
}  // namespace dualsim
